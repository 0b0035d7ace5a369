"""Every README command's stdout, compared byte for byte with a recorded file."""

from pathlib import Path

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


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_command_stdout_is_unchanged(capsys, name):
    code = main(README_COMMANDS[name].split())
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()
