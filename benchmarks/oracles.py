"""Output checks for benchmark commands, independent of statesieve's own logic.

Every check recomputes the expected answer from the paper's definitions with
plain numpy and returns a list of error strings (empty means correct).  None
of them imports statesieve: a verdict the package gets wrong must not also be
the verdict the benchmark expects.

Conventions re-derived here (see README "Conventions worth knowing"):

* position k (0-based) of the standard system carries the code N-1-k, and
  projector i (0-based) reads bit n-1-i of that code;
* a column permutation p sends source position k to target p[k], so the code
  at target t is the code of source p^-1[t];
* answer bits b select detector N - value(b), hence basis state k (1-based)
  under p lands on detector p^-1(k).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

TOL = 1e-10

PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def code_bits(n: int, inverse_perm: list[int]) -> list[list[int]]:
    """Answer bits (first proposition first) at each position of a permuted
    standard system; inverse_perm[t] is the source column of target t."""
    dim = 2 ** n
    return [[((dim - 1 - src) >> (n - 1 - i)) & 1 for i in range(n)]
            for src in inverse_perm]


def expected_partitions(n: int, inverse_perm: list[int]) -> list[dict]:
    """Canonical partition JSON of each projector over the basis positions."""
    codes = code_bits(n, inverse_perm)
    dim = 2 ** n
    out = []
    for i in range(n):
        ones = [t + 1 for t in range(dim) if codes[t][i] == 1]
        zeros = [t + 1 for t in range(dim) if codes[t][i] == 0]
        blocks = sorted((b for b in (ones, zeros) if b), key=lambda b: b[0])
        out.append({"ground": dim, "blocks": blocks})
    return out


def atomic_partition(dim: int) -> dict:
    return {"ground": dim, "blocks": [[k] for k in range(1, dim + 1)]}


def ket_label(index: int, n: int) -> str:
    bits = format(index, f"0{n}b")
    return "|" + bits.replace("0", "+").replace("1", "-") + ">"


def matrix(obj: dict) -> np.ndarray:
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def pauli_proposition(axes: str) -> np.ndarray:
    product = np.eye(1, dtype=complex)
    for a in axes:
        product = np.kron(product, PAULI[a])
    return (np.eye(product.shape[0]) + product) / 2


def _json(out: str) -> tuple[object, list[str]]:
    try:
        return json.loads(out), []
    except ValueError as e:
        return None, [f"stdout is not JSON: {e}"]


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {str(got)[:200]}, expected {str(want)[:200]}")


def _projector_errors(projs: list[np.ndarray], dim: int) -> list[str]:
    errors = []
    for i, p in enumerate(projs, start=1):
        if p.shape != (dim, dim):
            errors.append(f"projector {i} has shape {p.shape}")
            continue
        if np.max(np.abs(p @ p - p)) > TOL or np.max(np.abs(p - p.conj().T)) > TOL:
            errors.append(f"projector {i} is not a Hermitian idempotent")
        if abs(np.trace(p) - dim / 2) > TOL:
            errors.append(f"projector {i} trace is not {dim / 2}")
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            if np.max(np.abs(projs[i] @ projs[j] - projs[j] @ projs[i])) > TOL:
                errors.append(f"projectors {i + 1},{j + 1} do not commute")
    return errors


def build(out: str, n: int, basis: str, inverse_perm: list[int] | None) -> list[str]:
    """Standard or permuted bases: exact diagonals; named bases: certified
    commuting projectors of trace N/2."""
    obj, errors = _json(out)
    if errors:
        return errors
    _expect(errors, "n", obj.get("n"), n)
    _expect(errors, "basis", obj.get("basis"), basis)
    projs = [matrix(p) for p in obj.get("projectors", [])]
    _expect(errors, "projector count", len(projs), n)
    if errors:
        return errors
    dim = 2 ** n
    if inverse_perm is not None:
        codes = code_bits(n, inverse_perm)
        for i, p in enumerate(projs):
            want = np.diag([float(codes[t][i]) for t in range(dim)])
            if not np.array_equal(p, want):
                errors.append(f"projector {i + 1} differs from the expected diagonal")
        return errors
    return _projector_errors(projs, dim)


def verify_ok(out: str) -> list[str]:
    obj, errors = _json(out)
    if errors:
        return errors
    for key in ("co_measurable", "balanced_halves", "pairwise_quarters", "ok",
                "certified", "separates"):
        _expect(errors, key, obj.get(key), True)
    _expect(errors, "failures", obj.get("failures"), [])
    return errors


def verify_aborted(out: str) -> list[str]:
    """A certified system whose eigenbasis is not the standard basis: the
    requirement checks abort and nothing else fails."""
    obj, errors = _json(out)
    if errors:
        return errors
    failures = obj.get("failures", [])
    _expect(errors, "certified", obj.get("certified"), False)
    _expect(errors, "separates", obj.get("separates"), False)
    if len(failures) != 1 or not failures[0].startswith("requirement checks aborted"):
        errors.append(f"expected exactly one aborted-requirements failure, got {failures}")
    return errors


def verify_noncommuting(out: str, pairs: list[tuple[int, int]]) -> list[str]:
    """The certification reports exactly the non-commuting pairs (1-based)."""
    obj, errors = _json(out)
    if errors:
        return errors
    _expect(errors, "certified", obj.get("certified"), False)
    found = set()
    for f in obj.get("failures", []):
        m = re.match(r"projectors (\d+) and (\d+) do not commute", f)
        if m:
            found.add((int(m.group(1)), int(m.group(2))))
    _expect(errors, "non-commuting pairs", sorted(found), sorted(pairs))
    return errors


def partition(out: str, n: int, inverse_perm: list[int]) -> list[str]:
    obj, errors = _json(out)
    if errors:
        return errors
    _expect(errors, "partitions", obj.get("partitions"), expected_partitions(n, inverse_perm))
    _expect(errors, "meet", obj.get("meet"), atomic_partition(2 ** n))
    _expect(errors, "atomic", obj.get("atomic"), True)
    return errors


def transform(out: str, n: int, inverse_perm: list[int]) -> list[str]:
    """partitions, meet and codes.  The codes also pin routing: bits b select
    detector N - value(b), so state k goes to detector p^-1(k)."""
    errors = partition(out, n, inverse_perm)
    if errors:
        return errors
    obj = json.loads(out)
    dim = 2 ** n
    codes = obj.get("codes", [])
    _expect(errors, "code count", len(codes), dim)
    want = code_bits(n, inverse_perm)
    for k, entry in enumerate(codes, start=1):
        bits = entry.get("bits")
        if entry.get("state") != k or bits != want[k - 1]:
            errors.append(f"code for state {k}: got {entry}, expected {want[k - 1]}")
            break
    return errors


def _sample_errors(sample: dict, trials: int, seed: int, dim: int) -> list[str]:
    errors = []
    _expect(errors, "sample trials", sample.get("trials"), trials)
    _expect(errors, "sample seed", sample.get("seed"), seed)
    counts = sample.get("counts", [])
    _expect(errors, "count length", len(counts), dim)
    _expect(errors, "count total", sum(counts), trials)
    return errors


def simulate_index(out: str, n: int, index: int, trials: int, seed: int) -> list[str]:
    """Basis state k of the standard system fires detector k, every sample too."""
    obj, errors = _json(out)
    if errors:
        return errors
    dim = 2 ** n
    _expect(errors, "detector", obj.get("detector"), index)
    _expect(errors, "answer_bits", obj.get("answer_bits"), code_bits(n, list(range(dim)))[index - 1])
    _expect(errors, "state", obj.get("state"), ket_label(index - 1, n))
    if trials:
        sample = obj.get("sample", {})
        errors += _sample_errors(sample, trials, seed, dim)
        counts = sample.get("counts", [])
        if len(counts) == dim and counts[index - 1] != trials:
            errors.append(f"samples left detector {index}: {counts[index - 1]} of {trials}")
    return errors


def simulate_state(out: str, amplitudes: np.ndarray, trials: int, seed: int) -> list[str]:
    """Detector k gets |psi_k|^2 within 1e-10; samples add up and stay within
    six standard deviations (plus three counts) of the expectation."""
    obj, errors = _json(out)
    if errors:
        return errors
    probs = np.abs(amplitudes) ** 2
    got = np.array(obj.get("detectors", []), dtype=float)
    if got.shape != probs.shape or np.max(np.abs(got - probs)) > TOL:
        errors.append("detector distribution differs from |psi_k|^2")
    if trials:
        sample = obj.get("sample", {})
        errors += _sample_errors(sample, trials, seed, probs.size)
        counts = np.array(sample.get("counts", []), dtype=float)
        if counts.shape == probs.shape:
            slack = 6 * np.sqrt(trials * probs * (1 - probs)) + 3
            if np.any(np.abs(counts - trials * probs) > slack):
                errors.append("sample counts stray from the Born probabilities")
    return errors


def stats(out: str, n: int, trials: int, seed: int) -> list[str]:
    """Sieve: exactly n questions.  Naive: at most N, mean within five
    standard errors of (N + 1)/2 (the question count is uniform on 1..N)."""
    obj, errors = _json(out)
    if errors:
        return errors
    if not isinstance(obj, list) or len(obj) != 2:
        return [f"expected two strategy records, got {str(obj)[:200]}"]
    naive, sieve = obj
    dim = 2 ** n
    for rec, name in ((naive, "naive"), (sieve, "sieve")):
        _expect(errors, f"{name} header",
                (rec.get("strategy"), rec.get("n"), rec.get("trials"), rec.get("seed")),
                (name, n, trials, seed))
    _expect(errors, "sieve mean", sieve.get("mean"), float(n))
    _expect(errors, "sieve max", sieve.get("max"), n)
    if not 1 <= naive.get("max", 0) <= dim:
        errors.append(f"naive max {naive.get('max')} outside 1..{dim}")
    stderr = math.sqrt((dim * dim - 1) / 12 / trials)
    if abs(naive.get("mean", 0.0) - (dim + 1) / 2) > 5 * stderr:
        errors.append(f"naive mean {naive.get('mean')} is more than five standard "
                      f"errors from {(dim + 1) / 2}")
    return errors


def enumerate_(out: str, n: int, count_only: bool) -> list[str]:
    """N! systems; when listed, each is a distinct column permutation of the
    standard codes."""
    obj, errors = _json(out)
    if errors:
        return errors
    dim = 2 ** n
    _expect(errors, "count", obj.get("count"), math.factorial(dim))
    if count_only:
        _expect(errors, "systems listed", "systems" in obj, False)
        return errors
    want_codes = sorted(map(tuple, code_bits(n, list(range(dim)))))
    seen = set()
    for s in obj.get("systems", []):
        diags = [np.real(np.diag(matrix(p))) for p in s["projectors"]]
        columns = tuple(tuple(int(d[t]) for d in diags) for t in range(dim))
        if sorted(columns) != want_codes:
            errors.append("a listed system is not a column permutation")
            break
        seen.add(columns)
    _expect(errors, "distinct systems", len(seen), math.factorial(dim))
    return errors


def pauli_axes(out: str, axes: str) -> list[str]:
    obj, errors = _json(out)
    if errors:
        return errors
    _expect(errors, "axes", obj.get("axes"), axes)
    p = matrix(obj["proposition"])
    if np.max(np.abs(p - pauli_proposition(axes))) > TOL:
        errors.append(f"proposition differs from (I + sigma_{axes})/2")
    return errors


def pauli_cereceda(out: str) -> list[str]:
    obj, errors = _json(out)
    if errors:
        return errors
    axes = ["xyy", "yxy", "yyx"]
    _expect(errors, "axes", obj.get("axes"), axes)
    _expect(errors, "certified", obj.get("certified"), True)
    for a, p in zip(axes, obj.get("projectors", [])):
        if np.max(np.abs(matrix(p) - pauli_proposition(a))) > TOL:
            errors.append(f"projector for {a} differs from (I + sigma_{a})/2")
    return errors


def minimality(out: str, n: int) -> list[str]:
    """2^(n-1) classes < 2^n states; for n <= 2 every one of the
    C(2^N, n-1) diagonal subsets is scanned and none separates."""
    obj, errors = _json(out)
    if errors:
        return errors
    dim = 2 ** n
    exhaustive = n <= 2
    want = {"n": n, "num_states": dim, "max_classes": 2 ** (n - 1),
            "analytic_bound_holds": True,
            "exhaustive_scanned": math.comb(2 ** dim, n - 1) if exhaustive else None,
            "exhaustive_separating_found": False if exhaustive else None,
            "ok": True}
    _expect(errors, "minimality report", obj, want)
    return errors


def text_lines(out: str, lines: list[str]) -> list[str]:
    """Text-format output holds each expected line (whitespace-trimmed)."""
    present = {line.strip() for line in out.splitlines()}
    return [f"text output lacks line {line!r}" for line in lines if line not in present]


def partition_text_lines(n: int) -> list[str]:
    rendered = ["atomic: True",
                " ".join("{" + str(k) + "}" for k in range(1, 2 ** n + 1))]
    for part in expected_partitions(n, list(range(2 ** n))):
        rendered.append(" ".join("{" + ",".join(map(str, b)) + "}" for b in part["blocks"]))
    return rendered
