"""Every README command's stdout, a few larger diagonal-system commands, and
`verify` runs whose tolerance is too tight for the basis, compared byte for
byte with files recorded before the code paths they cover were rewritten."""

from pathlib import Path

import numpy as np
import pytest

from statesieve.cli import main

GOLDEN = Path(__file__).parent / "golden"

README_COMMANDS = {
    "build_standard": "build --n 3 --basis standard",
    "build_perm": "build --n 3 --perm 2,1,3,4,5,6,7,8",
    "verify_ghz": "verify --n 3 --basis ghz",
    "transform_ghz": "transform --n 3 --basis ghz --emit projectors,partitions,meet,codes",
    "enumerate_count": "enumerate --n 2 --count-only",
    "partition_w": "partition --n 3 --basis w",
    "simulate_index": "simulate --n 3 --index 3",
    "simulate_state": f"simulate --n 2 --state {GOLDEN / 'state.json'} --sample 1000 --seed 7",
    "stats": "stats --n 3 --trials 100000 --seed 42",
    "pauli_axes": "pauli --axes xyy",
    "pauli_cereceda": "pauli --cereceda",
    "minimality": "minimality --n 2",
}

_PERM_N8 = ",".join(str(t + 1) for t in np.random.default_rng(8).permutation(256))
_PERM_N9 = ",".join(str(t + 1) for t in np.random.default_rng(9).permutation(512))

LARGER_COMMANDS = {
    "simulate_state_n6": f"simulate --n 6 --state {GOLDEN / 'state_n6.json'} --sample 500 --seed 11",
    "verify_n8_perm": f"verify --n 8 --perm {_PERM_N8}",
    "simulate_state_n8": f"simulate --n 8 --state {GOLDEN / 'state_n8.json'} --sample 1000 --seed 13",
    "verify_n10": "verify --n 10",
    "transform_n9_perm": f"transform --n 9 --perm {_PERM_N9} --emit partitions,meet,codes",
    "partition_ghz_text": "partition --n 3 --basis ghz --format text",
}

# --format text prints each {"rows", "cols", "data"} payload as an aligned grid:
# real and imaginary entries, and every matrix-valued --emit item
TEXT_COMMANDS = {
    "build_n2_text": "build --n 2 --format text",
    "pauli_xyz_text": "pauli --axes xyz --format text",
    "transform_w_text": "transform --n 3 --basis w --emit projectors,unitary,basis --format text",
}

# Tolerances just above the catalog unitaries' defects (2.2e-16, 1.1e-16):
# the bases pass their own certification, the projector checks do not.
FAILING_COMMANDS = {
    "verify_ghz_tol5e-16": "verify --n 3 --basis ghz --tol 5e-16",
    "verify_w_tol5e-16": "verify --n 3 --basis w --tol 5e-16",
    "verify_equal_weight_tol5e-16": "verify --n 3 --basis equal_weight --tol 5e-16",
    "verify_equal_weight_tol2e-16": "verify --n 3 --basis equal_weight --tol 2e-16",
    # diagonals a, b and a xor b: every requirement holds, separation does not
    "verify_parity_n3": f"verify --file {GOLDEN / 'parity_n3.json'}",
}

COMMANDS = {**README_COMMANDS, **LARGER_COMMANDS, **TEXT_COMMANDS}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_readme_command_stdout_is_unchanged(capsys, name):
    code = main(COMMANDS[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(FAILING_COMMANDS))
def test_verify_failure_text_is_unchanged(capsys, name):
    code = main(FAILING_COMMANDS[name].split())
    out = capsys.readouterr().out
    assert code == 1
    assert out == (GOLDEN / f"{name}.out").read_text()
