"""Seeded command lists for the three benchmark workloads.

Each workload is a fixed list of `statesieve` CLI invocations.  Everything
random in it (permutations, unitaries, state files, sample seeds) is drawn
from the workload seed before timing starts, and input files are written to
the run's work directory.  Each command carries the exit code it must return
and an oracle from `oracles` that checks its stdout.

Why these workloads:

* certify_dense -- dense certification (linalg commutators and projector
  checks, systems, partitions, bases) at n = 8, whose 1 MB matrices fit a
  2 MB L2, and n = 9, whose 4 MB matrices do not; plus random-unitary
  conjugates read with `verify --file`, which no structured fast path can
  skip and which also exercise JSON decoding.
* cascade_sample -- the detector cascade: sequential sampling on eigenstates
  and on random superpositions at n = 6, 8, 10, and question-count stats.
  Certification is idle here.
* paper_small -- every README command at n <= 3, where process start-up,
  argument parsing and JSON encoding dominate, with full enumeration of the
  8! systems as the tail command.

certify_dense and cascade_sample end with a few n <= 3 spot commands that
touch the layers they otherwise leave idle, so every per-layer time of a
traced run is measured on every workload rather than reading zero.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("certify_dense", "cascade_sample", "paper_small")
NAMED_BASES = ("ghz", "w", "equal_weight")


@dataclass
class Command:
    id: str
    argv: list[str]                       # arguments after `python -m statesieve`
    check: Callable[[str], list[str]]     # stdout -> oracle errors
    exit_code: int = 0
    input_bytes: int = 0                  # size of the JSON file the command reads


def _inverse(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for src, dst in enumerate(perm):
        inv[dst] = src
    return inv


def _perm_arg(perm: list[int]) -> str:
    return ",".join(str(t + 1) for t in perm)  # the CLI takes 1-based targets


def _matrix_json(m: np.ndarray) -> dict:
    return {"rows": m.shape[0], "cols": m.shape[1],
            "data": [[float(z.real), float(z.imag)] for z in m.reshape(-1)]}


def _write_json(path: Path, obj) -> int:
    text = json.dumps(obj)
    path.write_text(text)
    return len(text)


def _diagonals(n: int) -> np.ndarray:
    dim = 2 ** n
    codes = dim - 1 - np.arange(dim)
    return ((codes[None, :] >> np.arange(n - 1, -1, -1)[:, None]) & 1).astype(float)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _conjugated(u: np.ndarray, diag: np.ndarray) -> np.ndarray:
    return (u * diag) @ u.conj().T


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return v / np.linalg.norm(v)


class _Builder:
    def __init__(self, work: Path, rel: str, rng: np.random.Generator):
        self.work, self.rel, self.rng = work, rel, rng
        self.commands: list[Command] = []

    def add(self, cid: str, argv: list[str], check, exit_code: int = 0,
            input_bytes: int = 0) -> None:
        self.commands.append(Command(cid, argv, check, exit_code, input_bytes))

    def perm(self, n: int) -> list[int]:
        return [int(t) for t in self.rng.permutation(2 ** n)]

    def file(self, name: str, obj) -> tuple[str, int]:
        size = _write_json(self.work / name, obj)
        return f"{self.rel}/{name}", size

    def certify_trio(self, n: int, perm: list[int] | None) -> None:
        """verify, partition and transform of one (permuted) standard system."""
        tag = f"n{n}-{'perm' if perm else 'std'}"
        extra = ["--perm", _perm_arg(perm)] if perm else []
        inv = _inverse(perm) if perm else list(range(2 ** n))
        self.add(f"verify-{tag}", ["verify", "--n", str(n), *extra], oracles.verify_ok)
        self.add(f"partition-{tag}", ["partition", "--n", str(n), *extra],
                 functools.partial(oracles.partition, n=n, inverse_perm=inv))
        self.add(f"transform-{tag}",
                 ["transform", "--n", str(n), *extra, "--emit", "partitions,meet,codes"],
                 functools.partial(oracles.transform, n=n, inverse_perm=inv))

    def conjugate_file(self, name: str, n: int) -> None:
        """A certified system U D U^dag on general dense matrices: its
        eigenbasis is not the standard one, so requirement checks abort."""
        u = _random_unitary(self.rng, 2 ** n)
        projs = [_conjugated(u, d) for d in _diagonals(n)]
        for p in projs:
            if max(np.max(np.abs(p @ p - p)), np.max(np.abs(p - p.conj().T))) > 1e-12:
                raise RuntimeError("generated conjugate is not a projector to 1e-12")
        path, size = self.file(f"{name}.json", {"n": n, "projectors": [_matrix_json(p) for p in projs]})
        self.add(f"verify-file-{name}", ["verify", "--file", path], oracles.verify_aborted,
                 exit_code=1, input_bytes=size)

    def planted_file(self, n: int) -> None:
        """Standard system with projector 2 rotated by a random unitary: valid
        projectors of trace N/2, but projector 2 commutes with none of the others."""
        diags = _diagonals(n)
        projs = [np.diag(d).astype(complex) for d in diags]
        projs[1] = _conjugated(_random_unitary(self.rng, 2 ** n), diags[1])
        pairs = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)
                 if np.max(np.abs(projs[i] @ projs[j] - projs[j] @ projs[i])) > oracles.TOL]
        path, size = self.file(f"planted_n{n}.json",
                               {"n": n, "projectors": [_matrix_json(p) for p in projs]})
        self.add(f"verify-planted-n{n}", ["verify", "--file", path],
                 functools.partial(oracles.verify_noncommuting, pairs=pairs),
                 exit_code=1, input_bytes=size)

    def simulate_index(self, n: int, trials: int, tag: str, fmt: str = "json") -> None:
        k = int(self.rng.integers(1, 2 ** n + 1))
        seed = int(self.rng.integers(0, 2 ** 31))
        argv = ["simulate", "--n", str(n), "--index", str(k)]
        if trials:
            argv += ["--sample", str(trials), "--seed", str(seed)]
        if fmt == "text":
            bits = " ".join(map(str, oracles.code_bits(n, list(range(2 ** n)))[k - 1]))
            check = functools.partial(oracles.text_lines, lines=[
                bits, f"detector: {k}", f"state: {oracles.ket_label(k - 1, n)}"])
            argv += ["--format", "text"]
        else:
            check = functools.partial(oracles.simulate_index, n=n, index=k,
                                      trials=trials, seed=seed)
        self.add(f"simulate-index-n{n}-{tag}", argv, check)

    def simulate_state(self, n: int, trials: int, tag: str) -> None:
        psi = _random_state(self.rng, n)
        seed = int(self.rng.integers(0, 2 ** 31))
        path, size = self.file(f"state_n{n}_{tag}.json", _matrix_json(psi.reshape(-1, 1)))
        self.add(f"simulate-state-n{n}-{tag}",
                 ["simulate", "--n", str(n), "--state", path,
                  "--sample", str(trials), "--seed", str(seed)],
                 functools.partial(oracles.simulate_state, amplitudes=psi,
                                   trials=trials, seed=seed),
                 input_bytes=size)

    def enumerate_count(self, n: int) -> None:
        self.add(f"enumerate-n{n}-count", ["enumerate", "--n", str(n), "--count-only"],
                 functools.partial(oracles.enumerate_, n=n, count_only=True))

    def cereceda(self) -> None:
        self.add("pauli-cereceda", ["pauli", "--cereceda"], oracles.pauli_cereceda)

    def stats(self, n: int, trials: int) -> None:
        seed = int(self.rng.integers(0, 2 ** 31))
        self.add(f"stats-n{n}-t{trials}",
                 ["stats", "--n", str(n), "--trials", str(trials), "--seed", str(seed)],
                 functools.partial(oracles.stats, n=n, trials=trials, seed=seed))


def _certify_dense(b: _Builder, tiny: bool) -> None:
    # The standard and a permuted system at the smaller size, one permuted
    # system at the larger: a second n = 9 system would add about 8 s to a pass.
    small, large, file_n, planted_n = (2, 3, 3, 2) if tiny else (8, 9, 7, 6)
    b.certify_trio(small, None)
    b.certify_trio(small, b.perm(small))
    b.certify_trio(large, b.perm(large))
    for key in NAMED_BASES:
        b.add(f"verify-n3-{key}", ["verify", "--n", "3", "--basis", key], oracles.verify_ok)
    b.conjugate_file(f"conj_n{file_n}_a", file_n)
    b.conjugate_file(f"conj_n{file_n}_b", file_n)
    b.planted_file(planted_n)
    b.cereceda()
    b.simulate_state(3, 100, "spot")
    b.stats(3, 200)
    b.enumerate_count(2)


def _cascade_sample(b: _Builder, tiny: bool) -> None:
    # Trials per n keep each command's sampling within about a second today.
    plan = ((1, 50), (2, 50), (3, 50)) if tiny else ((6, 2000), (8, 1000), (10, 100))
    for n, trials in plan:
        for tag in ("a", "b"):
            b.simulate_index(n, trials, tag)
            b.simulate_state(n, trials, tag)
    b.stats(3 if tiny else 8, 200 if tiny else 2000)
    b.stats(3, 500 if tiny else 50000)
    perm = b.perm(3)
    b.add("verify-n3-ghz-perm", ["verify", "--n", "3", "--basis", "ghz", "--perm", _perm_arg(perm)],
          oracles.verify_ok)
    b.cereceda()
    b.enumerate_count(2)


def _paper_small(b: _Builder, tiny: bool) -> None:
    ident3 = list(range(8))
    b.add("build-n3-standard", ["build", "--n", "3", "--basis", "standard"],
          functools.partial(oracles.build, n=3, basis="standard", inverse_perm=ident3))
    perm = b.perm(3)
    b.add("build-n3-perm", ["build", "--n", "3", "--perm", _perm_arg(perm)],
          functools.partial(oracles.build, n=3, basis="standard", inverse_perm=_inverse(perm)))
    b.add("build-n3-ghz", ["build", "--n", "3", "--basis", "ghz"],
          functools.partial(oracles.build, n=3, basis="ghz", inverse_perm=None))
    for key in ("standard",) + NAMED_BASES:
        b.add(f"verify-n3-{key}", ["verify", "--n", "3", "--basis", key], oracles.verify_ok)
        b.add(f"partition-n3-{key}", ["partition", "--n", "3", "--basis", key],
              functools.partial(oracles.partition, n=3, inverse_perm=ident3))
        b.add(f"transform-n3-{key}",
              ["transform", "--n", "3", "--basis", key, "--emit", "projectors,partitions,meet,codes"],
              functools.partial(oracles.transform, n=3, inverse_perm=ident3))
    b.simulate_index(3, 0, "readme")
    b.simulate_state(2, 1000, "readme")
    axes = "".join(b.rng.choice(list("xyz"), size=3))
    b.add(f"pauli-{axes}", ["pauli", "--axes", axes],
          functools.partial(oracles.pauli_axes, axes=axes))
    b.cereceda()
    for n in (1, 2):
        b.add(f"minimality-n{n}", ["minimality", "--n", str(n)],
              functools.partial(oracles.minimality, n=n))
    b.add("enumerate-n2", ["enumerate", "--n", "2"],
          functools.partial(oracles.enumerate_, n=2, count_only=False))
    b.enumerate_count(2 if tiny else 3)
    b.stats(3, 200 if tiny else 5000)
    b.simulate_index(3, 0, "text", fmt="text")
    key = b.rng.choice(list(("standard",) + NAMED_BASES))
    b.add(f"partition-n3-{key}-text", ["partition", "--n", "3", "--basis", key, "--format", "text"],
          functools.partial(oracles.text_lines, lines=oracles.partition_text_lines(3)))
    b.add("verify-n3-ghz-text", ["verify", "--n", "3", "--basis", "ghz", "--format", "text"],
          functools.partial(oracles.text_lines,
                            lines=["certified: True", "separates: True", "ok: True"]))


_BUILDERS = {"certify_dense": _certify_dense, "cascade_sample": _cascade_sample,
             "paper_small": _paper_small}


def build(workload: str, seed: int, work: Path, rel: str, tiny: bool = False) -> list[Command]:
    """Write the workload's input files under `work` (reachable from the
    checkout root as `rel`) and return its commands, all drawn from `seed`."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    b = _Builder(work, rel, rng)
    _BUILDERS[workload](b, tiny)
    ids = [c.id for c in b.commands]
    if len(set(ids)) != len(ids):
        raise RuntimeError(f"duplicate command ids in {workload}: {ids}")
    return b.commands
