"""What a fresh process imports: each CLI command loads only the modules it
calls, and `import statesieve` resolves its exports on first access (PEP 562)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import statesieve

SRC = Path(__file__).resolve().parent.parent / "src"

# every name `import statesieve` bound when it imported all of its modules at once
EAGER_EXPORTS = [
    "Basis", "CERECEDA_AXES", "CERECEDA_PREIMAGE_DIAGONALS", "ColumnCode", "DEFAULT_TOL",
    "DetectorOutcome", "EigenbasisError", "LinearDependenceError", "MeasurementDistribution",
    "MinimalityReport", "NamedUnitary", "Partition", "PropositionSystem", "QuestionCountRecord",
    "RequirementReport", "ResourceLimitError", "StatsSummary", "StrategyStats", "answer_codes",
    "basis_from_unitary", "cereceda_system", "certify_system", "column_codes", "combo_label",
    "commutator_norm", "conjugate", "count_systems", "dagger", "detector_for_bits",
    "eigenvalue_bit", "embed", "enumerate_systems", "equal_weight_basis", "equal_weight_unitary",
    "ghz_basis", "ghz_unitary", "gram_schmidt", "is_atomic", "is_projector", "is_unitary",
    "ket_label", "measure_and_sample", "measure_state", "meet", "meet_all",
    "minimality_certificate", "naive_search", "named_basis", "partition_from_projector", "pauli",
    "permute_system", "question_count_stats", "refines", "route_basis_state", "sample_detections",
    "separates", "sigma_product_proposition", "standard_basis", "standard_diagonals",
    "standard_system", "system_from_diagonals", "system_partitions", "tensor",
    "transformed_system", "verify_requirements", "verify_system", "w_basis", "w_unitary",
]


def imported(*args: str) -> set[str]:
    """The modules `python -X importtime <args>` imports, after checking it exits 0."""
    env = {k: v for k, v in os.environ.items() if k != "SIEVE_TOL"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("args, absent", [
    (["-c", "import statesieve"],
     ["linalg", "systems", "bases", "partitions", "paulis", "sieve", "jsonio", "_trials"]),
    (["-m", "statesieve", "--help"],
     ["systems", "bases", "partitions", "paulis", "sieve", "jsonio", "_trials"]),
    (["-m", "statesieve", "verify", "--n", "3"], ["paulis", "sieve", "_trials"]),
    (["-m", "statesieve", "stats", "--n", "3", "--trials", "10"], ["bases", "paulis"]),
], ids=["import", "help", "verify", "stats"])
def test_a_command_loads_only_the_modules_it_calls(args, absent):
    modules = imported(*args)
    assert "statesieve" in modules
    assert modules.isdisjoint(f"statesieve.{name}" for name in absent)


def test_importing_the_cli_loads_numpy():
    # benchmarks/run.py reads numpy's import time from `import statesieve.cli`
    assert "numpy" in imported("-c", "import statesieve.cli")


def test_every_former_export_is_listed_and_resolves():
    assert set(EAGER_EXPORTS) <= set(dir(statesieve))
    namespace: dict = {}
    exec("from statesieve import *", namespace)  # resolves every name in __all__
    assert set(EAGER_EXPORTS) <= namespace.keys()


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        statesieve.no_such_name  # noqa: B018
    assert not hasattr(statesieve, "no_such_name")
