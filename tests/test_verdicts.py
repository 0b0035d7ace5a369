"""One verdict rule: a measured deviation passes iff `linalg._within(deviation, tol)`.

Every tolerance check in `linalg`, `systems` and `sieve` compares through it, so a
NaN deviation fails at every site and its message shows the NaN.  The reference
functions below keep the former comparisons (`deviation > tol` for a failure) and
must give the same verdicts on every finite system.  Tests that feed inf or NaN
silence numpy's floating-point warnings themselves, so that the suite also runs
with RuntimeWarning as an error.  A second source scan pins the rule that the basis
reads answer codes from the stored form a system hands it: a form is its class, so no
module asks a basis whether it is the identity, and no class defines an `identity` or a
`diagonals` flag to ask.  A third pins that each stored form builds its own dense
view: only `DiagonalSystem` reads `diagonals`, and only `IdentityBasis` builds the
identity vectors and labels (every other `labels` reads the stored ones).  A fourth
pins that the cascade is a read of the stored form: only the two system classes
define `_branch_weights`, and `sieve` reads the weights through the system it is given.
"""

import ast
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import every_branch_weights, haar_unitary
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import (Basis, MeasurementDistribution, PropositionSystem, certify_system,
                        commutator_norm, is_projector, is_unitary, measure_state,
                        permute_system, standard_basis, standard_diagonals, verify_system)
from statesieve import linalg, sieve, systems
from statesieve.bases import IdentityBasis
from statesieve.linalg import _rayleigh_quotients, _within, dagger, max_abs

ROOT = Path(__file__).resolve().parent.parent
NAN = float("nan")


def outcome(call):
    """("ok", result) or (exception type name, message): a verdict to compare."""
    try:
        return "ok", call()
    except ValueError as e:
        return type(e).__name__, str(e)


# ---- the former comparisons, kept as the reference -------------------------------------

def former_bits(q, tol):
    """quotient_bits' rounding; returns the bits and the 0-based entries that miss."""
    ones = np.abs(q - 1.0) < np.abs(q)
    return ones.astype(int), np.flatnonzero(~(np.abs(q - ones) <= tol))


def former_noncommuting(system, tol):
    pairs = []
    for i, j in itertools.combinations(range(system.size), 2):
        c = commutator_norm(system.projectors[i], system.projectors[j])
        if c > tol:
            pairs.append((i + 1, j + 1, c))
    return pairs


def former_certify(system, tol, noncommuting):
    failures, half = [], system.dim / 2
    for i, p in enumerate(system.projectors, start=1):
        if not (max_abs(p @ p - p) <= tol and max_abs(p - dagger(p)) <= tol):
            failures.append(f"projector {i} is not a projector within {tol}")
        trace = complex(np.trace(p))
        if abs(trace - half) > tol:
            failures.append(f"projector {i} has trace {trace:.17g}, expected {half}")
    failures.extend(f"projectors {i} and {j} do not commute (norm {c:.17g})"
                    for i, j, c in noncommuting)
    return failures


def former_verify(system, basis, tol):
    noncommuting = former_noncommuting(system, tol)
    failures = former_certify(system, tol, noncommuting)
    vectors = None if isinstance(basis, IdentityBasis) else basis.vectors
    columns = []
    for i, p in enumerate(system.projectors, start=1):
        q = _rayleigh_quotients(p, vectors)
        bits, bad = former_bits(q, tol)
        if bad.size:
            k = int(bad[0])
            return failures + [
                "requirement checks aborted: vector is not a 0/1 eigenvector: "
                f"Rayleigh quotient {q[k]:.17g} (projector {i}, vector {k + 1})"], None, False
        columns.append(bits)
    codes = np.array(columns).T
    report = systems._requirement_report(codes, noncommuting)
    separating = systems._distinct_rows(codes)
    failures.extend(report.failures)
    if not separating:
        failures.append("system does not separate the basis")
    return failures, report, separating


def former_permute(system, perm, tol):
    rows = []
    for i, proj in enumerate(system.projectors, start=1):
        d = np.diag(proj)
        if max_abs(proj - np.diag(d)) > tol:
            raise ValueError(f"projector {i} is not diagonal")
        bits, bad = former_bits(d, tol)
        if bad.size:
            raise ValueError(f"projector {i} diagonal is not 0/1")
        rows.append(bits)
    diags = np.array(rows)
    out = np.empty_like(diags)
    out[:, np.asarray(perm)] = diags
    return out.dtype.str, out.tobytes()


def former_measure(system, state, tol):
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > tol:
        raise ValueError(f"state is not normalized (norm {norm:.17g})")
    leaves = every_branch_weights(system, state)[-1]
    total = float(leaves.sum())
    if abs(total - 1.0) > max(tol, sieve.BRANCH_SUM_FLOOR):
        raise ValueError(f"branch weights sum to {total:.17g}; system is not certified")
    return tuple(leaves.tolist())


def former_point_mass(probabilities, tol):
    gaps = np.abs(np.asarray(probabilities) - 1.0)
    k = int(np.argmin(gaps))
    return k + 1 if gaps[k] <= tol else None


# ---- the rule -------------------------------------------------------------------------

class TestWithin:
    def test_a_deviation_passes_up_to_tol_inclusive(self):
        assert _within(0.0, 0.0) and _within(1e-10, 1e-10)
        assert not _within(np.nextafter(1e-10, 1.0), 1e-10)

    def test_nan_and_inf_never_pass(self):
        assert not _within(NAN, np.inf) and not _within(np.inf, 1e300)

    def test_elementwise_on_arrays(self):
        got = _within(np.array([0.0, 1.0, NAN, np.inf, 0.5]), 0.5)
        assert got.tolist() == [True, False, False, False, True]

    def test_only_within_compares_a_deviation_with_tol(self):
        # gram_schmidt's dependence test scales tol by the input norm: not a deviation
        for module in (linalg, systems, sieve):
            tree = ast.parse(Path(module.__file__).read_text())
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef) or func.name in ("_within",
                                                                          "gram_schmidt"):
                    continue
                for node in ast.walk(func):
                    if isinstance(node, ast.Compare) and any(
                            isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                            for op in node.ops):
                        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                        assert "tol" not in names, (module.__name__, func.name, node.lineno)


class TestStoredForms:
    def test_no_module_reads_whether_a_basis_is_the_identity(self):
        # a form is its class: no class sets an `identity` or `diagonals` flag for a
        # caller to read; a system hands its stored form to the basis, whose class decides
        reads, definitions = [], []
        for path in sorted(Path(systems.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute) and node.attr == "identity"
                        or isinstance(node, ast.Constant) and node.value == "identity"):
                    reads.append((path.name, node.lineno))
                elif isinstance(node, ast.ClassDef):
                    definitions += [(path.name, node.name, t.id) for stmt in node.body
                                    if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                                    for t in (stmt.targets if isinstance(stmt, ast.Assign)
                                              else [stmt.target])
                                    if isinstance(t, ast.Name)
                                    and t.id in ("identity", "diagonals")]
        assert reads == []
        assert definitions == []
        assert not hasattr(Basis, "identity") and not hasattr(IdentityBasis, "identity")
        assert not hasattr(PropositionSystem, "diagonals")

    def test_each_stored_form_builds_its_own_dense_view(self):
        # a form that forgot its dense view would otherwise read as another form's
        def owned(node, owner=""):
            """(node, "Class.method" or "function" around it) for each node under node."""
            for child in ast.iter_child_nodes(node):
                name = owner
                if isinstance(child, ast.ClassDef):
                    name = child.name
                elif isinstance(child, ast.FunctionDef):
                    name = f"{owner}.{child.name}" if owner else child.name
                yield child, name
                yield from owned(child, name)

        diagonal_reads, eyes, label_builds = [], [], set()
        for path in sorted(Path(systems.__file__).parent.glob("*.py")):
            for node, owner in owned(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name == "labels" and [
                        ast.unparse(s) for s in node.body if not isinstance(s, ast.Expr)
                ] != ["return self._labels"]:
                    label_builds.add((path.name, owner))
                if (isinstance(node, ast.Attribute) and node.attr == "_labels"
                        and isinstance(node.ctx, ast.Store) and not owner.endswith(".__init__")):
                    label_builds.add((path.name, owner))
                if (isinstance(node, ast.Attribute) and node.attr == "diagonals"
                        and isinstance(node.ctx, ast.Load)
                        and not owner.startswith("DiagonalSystem.")):
                    diagonal_reads.append((path.name, node.lineno, owner))
                if (path.name == "bases.py" and isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute) and node.func.attr == "eye"):
                    eyes.append(owner)
        assert diagonal_reads == []
        assert sorted(eyes) == ["Basis.gram_defect", "IdentityBasis.vectors"]
        assert label_builds == {("bases.py", "IdentityBasis.labels")}
        assert not hasattr(PropositionSystem, "operator")

    def test_each_system_form_reads_its_own_branch_weights(self):
        # the dense form walks the tree, the diagonal form sums its code prefixes
        definitions, methods, reads = 0, [], []
        for path in sorted(Path(systems.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name == "_branch_weights":
                    definitions += 1
                elif isinstance(node, ast.ClassDef):
                    methods += [(path.name, node.name) for stmt in node.body
                                if isinstance(stmt, ast.FunctionDef)
                                and stmt.name == "_branch_weights"]
                elif isinstance(node, ast.Attribute) and node.attr == "_branch_weights":
                    reads.append((path.name, ast.unparse(node.value)))
        assert methods == [("systems.py", "PropositionSystem"), ("systems.py", "DiagonalSystem")]
        assert definitions == len(methods)
        assert reads == [("sieve.py", "system")] * 2  # measure_state, sample_detections
        assert not hasattr(sieve, "_measured_weights")


class TestNanFails:
    def test_unitary_and_projector_checks(self):
        with np.errstate(all="ignore"):
            assert not is_unitary([[NAN, 0], [0, 1]], np.inf)
            assert not is_projector([[1, NAN], [NAN, 0]], np.inf)
            assert not is_projector(np.full((2, 2), 1e308), 1e300)  # p @ p overflows to inf

    def test_permute_refuses_nan_off_diagonals(self):
        system = PropositionSystem(1, [[[1, NAN], [NAN, 0]]])
        with pytest.raises(ValueError, match="^projector 1 is not diagonal$"):
            permute_system(system, [1, 0])

    def test_measure_refuses_a_nan_branch_sum(self):
        system = PropositionSystem(1, [np.diag([1e308 + 1e308j, 0])])
        with np.errstate(all="ignore"), pytest.raises(ValueError) as refused:
            measure_state(system, [1, 0])
        assert str(refused.value) == "branch weights sum to nan; system is not certified"

    def test_certify_reports_a_nan_trace(self):
        with np.errstate(all="ignore"):
            failures = certify_system(PropositionSystem(1, [np.diag([NAN, 1])]))
        assert "projector 1 has trace nan+0j, expected 1.0" in failures

    def test_a_nan_probability_is_no_point_mass(self):
        assert MeasurementDistribution((NAN, NAN)).point_mass(np.inf) is None


class TestCommutatorNorm:
    def test_the_printed_norm_parses_back_to_the_refused_value(self):
        t = 0.3
        u = np.array([np.cos(t), np.sin(t)])
        system = PropositionSystem(1, [np.diag([1.0, 0.0]), np.outer(u, u)])
        c = commutator_norm(*system.projectors)
        tol = float(np.nextafter(c, 0.0))
        assert certify_system(system, c) == []
        failures, report, _ = verify_system(system, standard_basis(1), tol)
        printed = [re.fullmatch(pattern, f) for f in failures
                   for pattern in (r"projectors 1 and 2 do not commute \(norm (\S+)\)",
                                   r"\(i\) projectors 1,2 do not commute \(norm (\S+)\)")]
        assert [float(m.group(1)) for m in printed if m] == [c, c]
        assert not report.co_measurable


# ---- the former comparisons give the same verdicts on finite systems -------------------

TOLS = [0.0, 1e-12, 1e-10, 1e-6, 1e-3]
FACTORS = [0.0, 0.5, 0.999, 1.0, 1.001, 2.0, 1e3]  # perturbations that straddle tol


@st.composite
def finite_cases(draw):
    n = draw(st.integers(1, 3))
    dim, tol, seed = 2 ** n, draw(st.sampled_from(TOLS)), draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        diagonals = standard_diagonals(n)[:, rng.permutation(dim)]
    else:
        diagonals = rng.integers(0, 2, (draw(st.integers(1, n)), dim))
    projectors = [np.diag(d.astype(complex)) for d in diagonals]
    basis = standard_basis(n)
    if draw(st.booleans()):
        u = haar_unitary(seed, dim)
        projectors = [u @ p @ dagger(u) for p in projectors]
        basis = Basis(u.T, [str(k) for k in range(dim)])
    scale = draw(st.sampled_from(FACTORS)) * tol
    where = draw(st.sampled_from(["diagonal", "off-diagonal", "entry", "dense"]))
    which = draw(st.integers(0, len(projectors) - 1))
    r, c = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    e = np.zeros((dim, dim), dtype=complex)
    if where == "diagonal":
        e[r, r] = 1.0
    elif where == "off-diagonal":
        e[r, (r + 1 + c % (dim - 1)) % dim] = 1.0
    elif where == "entry":
        e[r, c] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    else:
        e = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        e /= max_abs(e)
    projectors[which] = projectors[which] + scale * e
    system = PropositionSystem(n, projectors)
    if draw(st.booleans()):
        state = basis.vectors[int(rng.integers(dim))].copy()
    else:
        state = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        state /= np.linalg.norm(state)
    state = state * (1.0 + draw(st.sampled_from(FACTORS)) * tol)
    return system, basis, state, rng.permutation(dim), tol


@given(case=finite_cases())
@settings(max_examples=300, deadline=None)
def test_finite_verdicts_equal_the_former_comparisons(case):
    system, basis, state, perm, tol = case
    assert certify_system(system, tol) == former_certify(system, tol,
                                                         former_noncommuting(system, tol))
    assert verify_system(system, basis, tol) == former_verify(system, basis, tol)
    got = outcome(lambda: permute_system(system, perm, tol))
    got = (got[0], (got[1].diagonals.dtype.str, got[1].diagonals.tobytes())
           if got[0] == "ok" else got[1])
    assert got == outcome(lambda: former_permute(system, perm, tol))
    measured = outcome(lambda: measure_state(system, state, tol))
    if measured[0] == "ok":
        dist = measured[1]
        assert dist.point_mass(tol) == former_point_mass(dist.probabilities, tol)
        measured = ("ok", dist.probabilities)
    assert measured == outcome(lambda: former_measure(system, state, tol))


# ---- the command line keeps numpy's warnings off stderr --------------------------------

def fresh(*argv):
    env = {k: v for k, v in os.environ.items() if k not in ("SIEVE_TOL", "PYTHONWARNINGS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, "-m", "statesieve", *argv], env=env,
                          capture_output=True, text=True, timeout=120, check=False)


def matrix(diagonal, off):
    dim = len(diagonal)
    return {"rows": dim, "cols": dim,
            "data": [[float(diagonal[r]), 0.0] if r == c else [off, 0.0]
                     for r in range(dim) for c in range(dim)]}


def test_verify_of_overflowing_products_fails_commutation_quietly(tmp_path):
    # every off-diagonal entry is the finite 1e308, so both products overflow
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"n": 2, "projectors": [matrix([1, 1, 0, 0], 1e308),
                                                       matrix([1, 0, 1, 0], 1e308)]}))
    proc = fresh("verify", "--file", str(path))
    assert (proc.returncode, proc.stderr) == (1, "")
    payload = json.loads(proc.stdout)
    assert payload["co_measurable"] is False and payload["ok"] is False
    assert "projectors 1 and 2 do not commute (norm nan)" in payload["failures"]
    assert "(i) projectors 1,2 do not commute (norm nan)" in payload["failures"]


def test_an_overflowing_state_norm_prints_only_the_error_line(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"rows": 4, "cols": 1, "data": [[1e308, 1e308]] * 4}))
    proc = fresh("simulate", "--n", "2", "--state", str(path))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.splitlines() == [json.dumps(
        {"error": {"type": "ValueError", "message": "state is not normalized (norm inf)"}})]
