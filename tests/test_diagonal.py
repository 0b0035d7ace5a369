"""The diagonal form of standard, permuted and enumerated systems against
their dense twins, and the commands that must never build dense matrices."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import (PropositionSystem, answer_codes, certify_system, column_codes,
                        enumerate_systems, jsonio, measure_state, permute_system,
                        route_basis_state, sample_detections, standard_basis,
                        standard_system, system_from_diagonals)
from statesieve.cli import main


def dense_twin(system):
    return PropositionSystem(system.n, system.projectors)


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestForm:
    def test_built_systems_keep_their_diagonals(self):
        system = permute_system(standard_system(3), [1, 0, 2, 3, 4, 5, 6, 7])
        assert system.diagonals.shape == (3, 8) and system._projectors is None
        assert next(enumerate_systems(2)).diagonals is not None
        assert dense_twin(system).diagonals is None

    def test_dense_projectors_are_built_once_on_request(self):
        system = standard_system(2)
        first = system.projectors
        assert first is system.projectors
        assert np.array_equal(first[0], np.diag([1, 1, 0, 0]).astype(complex))

    def test_diagonals_are_read_only(self):
        with pytest.raises(ValueError):
            standard_system(2).diagonals[0, 0] = 0

    @pytest.mark.parametrize("bad", [np.ones(4), np.ones((2, 6)), [[0, 2, 1, 0]],
                                     [[0.5, 0.5, 1, 0]], [[np.nan, 0, 1, 0]]])
    def test_rejects_malformed_diagonals(self, bad):
        with pytest.raises(ValueError, match="diagonals"):
            system_from_diagonals(bad)

    @pytest.mark.parametrize("build", [
        lambda: standard_system(3),
        lambda: permute_system(standard_system(3), [7, 0, 6, 1, 5, 2, 4, 3]),
        lambda: permute_system(dense_twin(standard_system(2)), [1, 0, 3, 2]),
        lambda: list(enumerate_systems(2, limit=5))[-1],
    ], ids=["standard", "permuted", "permuted dense", "enumerated"])
    def test_built_diagonals_are_stored_as_the_checked_copy_would_be(self, build):
        # the library's own arrays skip system_from_diagonals' check and copy
        stored = build().diagonals
        checked = system_from_diagonals(stored).diagonals
        assert stored.dtype == checked.dtype == np.dtype(int)
        assert stored.tobytes() == checked.tobytes()
        assert not stored.flags.writeable and not checked.flags.writeable

    def test_trace_failure_matches_the_dense_twin(self):
        system = system_from_diagonals([[1, 1, 1, 0]])
        assert certify_system(system) == certify_system(dense_twin(system)) == [
            "projector 1 has trace 3+0j, expected 2.0"]


@st.composite
def diagonal_systems(draw):
    n = draw(st.integers(1, 6))
    perm = draw(st.permutations(range(2 ** n)))
    return permute_system(standard_system(n), perm)


class TestAgainstDenseTwin:
    @settings(max_examples=60, deadline=None)
    @given(system=diagonal_systems(), seed=st.integers(0, 2 ** 31), eigen=st.booleans())
    def test_every_result_equals_the_dense_path(self, system, seed, eigen):
        twin = dense_twin(system)
        dim = system.dim
        basis = standard_basis(system.n)
        rng = np.random.default_rng(seed)
        index = int(rng.integers(1, dim + 1))
        state = basis.vectors[index - 1] if eigen else random_state(rng, dim)

        assert certify_system(system) == certify_system(twin) == []
        assert np.array_equal(answer_codes(system, basis), answer_codes(twin, basis))
        assert route_basis_state(system, basis, index) == route_basis_state(twin, basis, index)
        want = np.array(measure_state(twin, state).probabilities)
        got = np.array(measure_state(system, state).probabilities)
        assert got.tobytes() == want.tobytes()
        assert (sample_detections(system, state, 40, seed)
                == sample_detections(twin, state, 40, seed))
        assert column_codes(system) == column_codes(twin)


@pytest.fixture
def dense_forbidden(monkeypatch):
    """Fail if any diagonal system builds its dense projectors."""
    dense = PropositionSystem.projectors

    def guarded(self):
        if self.diagonals is not None:
            raise AssertionError("dense projectors built for a diagonal system")
        return dense.fget(self)

    monkeypatch.setattr(PropositionSystem, "projectors", property(guarded))


@pytest.mark.usefixtures("dense_forbidden")
class TestNoDenseMatrices:
    PERM = "2,1,4,3,5,6,7,8,9,10,11,12,13,14,16,15"

    @pytest.mark.parametrize("argv", [
        "verify --n 4",
        f"verify --n 4 --perm {PERM}",
        f"partition --n 4 --perm {PERM}",
        f"transform --n 4 --perm {PERM} --emit partitions,meet,codes",
        "simulate --n 4 --index 6 --sample 30",
        "enumerate --n 2 --count-only",
    ])
    def test_command(self, capsys, argv):
        assert main(argv.split()) == 0, capsys.readouterr().err

    def test_simulate_state(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        state = random_state(np.random.default_rng(3), 16)
        path.write_text(json.dumps(jsonio.vector_to_json(state)))
        argv = ["simulate", "--n", "4", "--state", str(path), "--sample", "30"]
        assert main(argv) == 0, capsys.readouterr().err

    def test_the_guard_trips_on_dense_output(self, capsys):
        with pytest.raises(AssertionError, match="dense"):
            main(["build", "--n", "2"])
