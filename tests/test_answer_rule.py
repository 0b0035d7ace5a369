"""One rule reads every 0/1 answer: the nearer of 0 and 1 (a tie reads 0),
accepted when it lies within tol of that value.

`reference_quotient_bits` is the former rule (0 tested first, then 1).  For
every tol < 1/2 the two agree on bits and on error text; from 1/2 up the
former rule read a 1 as 0.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import EigenbasisError, PropositionSystem, permute_system
from statesieve.cli import main
from statesieve.linalg import quotient_bits
from statesieve.sieve import MeasurementDistribution

TOLS = [0.0, 1e-10, 0.3, 0.49, 0.5, 0.6, 1.0, 2.0]


def reference_quotient_bits(q, tol=1e-10, projector_index=None, first_vector_index=1):
    """The rule quotient_bits followed before answers were read as the nearer value."""
    zeros = np.abs(q) <= tol
    ones = ~zeros & (np.abs(q - 1.0) <= tol)
    bad = np.flatnonzero(~(zeros | ones))
    if bad.size:
        k = int(bad[0])
        vector_index = None if first_vector_index is None else first_vector_index + k
        names = [f"{what} {index}" for what, index in
                 (("projector", projector_index), ("vector", vector_index))
                 if index is not None]
        where = f" ({', '.join(names)})" if names else ""
        raise EigenbasisError(
            f"vector is not a 0/1 eigenvector: Rayleigh quotient {q[k]:.17g}{where}",
            projector_index=projector_index, vector_index=vector_index)
    return ones.astype(int)


def outcome(rule, *args):
    """What a rule gives: its bits, or the text and indices of its error."""
    try:
        return "bits", rule(*args).tolist()
    except EigenbasisError as e:
        return "error", str(e), e.projector_index, e.vector_index


SPECIAL = [0.0, -0.0, 1.0, 0.5, math.nan, math.inf, -math.inf]
reals = st.one_of(st.sampled_from(SPECIAL),
                  st.floats(-0.5, 1.5),
                  st.sampled_from(TOLS).flatmap(  # the edges of each acceptance window
                      lambda t: st.sampled_from([t, -t, 1 - t, 1 + t, 0.5 - t, 0.5 + t])),
                  st.floats(allow_nan=True, allow_infinity=True))
quotients = st.one_of(
    st.lists(reals, max_size=12).map(lambda xs: np.array(xs, dtype=float)),
    st.lists(st.builds(complex, reals, st.one_of(st.sampled_from([0.0, -0.0]), reals)),
             max_size=12).map(lambda xs: np.array(xs, dtype=complex)),
    st.lists(st.integers(-10, 10), max_size=12).map(lambda xs: np.array(xs, dtype=np.int64)))
labels = st.tuples(st.sampled_from([None, 3]), st.sampled_from([None, 0, 1, 5]))


class TestQuotientBits:
    @settings(max_examples=400, deadline=None)
    @given(q=quotients, tol=st.sampled_from(TOLS), names=labels)
    def test_reads_the_nearer_value_within_tol(self, q, tol, names):
        projector_index, first = names
        want, bad = [], None
        for k, x in enumerate(q.tolist()):
            bit = 1 if abs(x - 1) < abs(x) else 0
            if not abs(x - bit) <= tol:
                bad = k
                break
            want.append(bit)
        got = outcome(quotient_bits, q, tol, projector_index, first)
        if bad is None:
            assert got == ("bits", want)
        else:
            assert got[0] == "error" and got[2] == projector_index
            assert got[3] == (None if first is None else first + bad)

    @settings(max_examples=400, deadline=None)
    @given(q=quotients, tol=st.sampled_from([t for t in TOLS if t < 0.5]), names=labels)
    def test_below_one_half_nothing_changes(self, q, tol, names):
        assert (outcome(quotient_bits, q, tol, *names)
                == outcome(reference_quotient_bits, q, tol, *names))

    def test_a_one_reads_one_at_any_tol(self):
        for tol in TOLS:
            assert quotient_bits(np.array([1.0, 0.0, -0.0]), tol).tolist() == [1, 0, 0]
        assert reference_quotient_bits(np.array([1.0]), 1.0).tolist() == [0]

    def test_a_tie_reads_zero(self):
        assert quotient_bits(np.array([0.5, 0.5 + 0j]), 0.5).tolist() == [0, 0]


class TestDiagonals:
    # test_systems pins the message for a 0.5 diagonal at the default tol
    def test_the_modulus_is_measured(self):
        system = PropositionSystem(1, [np.diag([1 + 0.3j, 0])])
        with pytest.raises(ValueError, match="projector 1 diagonal is not 0/1"):
            permute_system(system, range(2), tol=0.2)
        assert permute_system(system, range(2), tol=0.4).diagonals[:, 0].tolist() == [1]

    def test_ones_read_one_at_tol_one(self):
        system = PropositionSystem(1, [np.diag([1.0, 0.0])])
        assert permute_system(system, range(2), tol=1.0).diagonals.tolist() == [[1, 0]]


class TestPointMass:
    def test_takes_the_probability_nearest_one(self):
        assert MeasurementDistribution((0.4, 0.6)).point_mass(0.6) == 2

    def test_none_when_the_nearest_is_too_far(self):
        assert MeasurementDistribution((0.4, 0.6)).point_mass(0.3) is None

    @given(ps=st.lists(st.floats(0, 1), min_size=1, max_size=8), tol=st.sampled_from(TOLS))
    def test_is_the_nearest_within_tol(self, ps, tol):
        gaps = [abs(p - 1) for p in ps]
        k = gaps.index(min(gaps))
        want = k + 1 if gaps[k] <= tol else None
        assert MeasurementDistribution(tuple(ps)).point_mass(tol) == want


class TestCommandsAtTolOne:
    def run_json(self, capsys, *argv):
        code = main(list(argv))
        return code, json.loads(capsys.readouterr().out)

    def test_verify_certifies_the_standard_system(self, capsys):
        code, payload = self.run_json(capsys, "verify", "--n", "2", "--tol", "1")
        assert code == 0 and payload["certified"] and payload["separates"]

    def test_simulate_routes_the_first_state_to_detector_one(self, capsys):
        code, payload = self.run_json(capsys, "simulate", "--n", "2", "--index", "1",
                                      "--tol", "1")
        assert code == 0
        assert payload == {"answer_bits": [1, 1], "detector": 1, "state": "|++>"}

    def test_partition_is_atomic(self, capsys):
        code, payload = self.run_json(capsys, "partition", "--n", "2", "--tol", "1")
        assert code == 0 and payload["atomic"] is True
        assert payload["meet"]["blocks"] == [[1], [2], [3], [4]]
