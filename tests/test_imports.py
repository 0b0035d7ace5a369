"""What a fresh process imports: each CLI command loads only the modules it
calls, and `import statesieve` resolves its exports on first access (PEP 562)."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import statesieve
from statesieve import _catalog, _front, cli, linalg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# every name `import statesieve` bound when it imported all of its modules at once
EAGER_EXPORTS = [
    "Basis", "CERECEDA_AXES", "CERECEDA_PREIMAGE_DIAGONALS", "DEFAULT_TOL",
    "DetectorOutcome", "EigenbasisError", "LinearDependenceError", "MeasurementDistribution",
    "MinimalityReport", "NamedUnitary", "Partition", "PropositionSystem", "QuestionCountRecord",
    "RequirementReport", "ResourceLimitError", "StatsSummary", "StrategyStats", "answer_codes",
    "basis_from_unitary", "cereceda_system", "certify_system", "combo_label",
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


def fresh(*args: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """`python <args>` in a fresh process, with text stderr."""
    env = {k: v for k, v in os.environ.items() if k != "SIEVE_TOL"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60, check=False)


def import_lines(stderr: str) -> tuple[set[str], list[str]]:
    """The modules named in `-X importtime` stderr, and its other lines."""
    modules, rest = set(), []
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            modules.add(line.rsplit("|", 1)[1].strip())
        else:
            rest.append(line)
    return modules, rest


def imported(*args: str, code: int = 0) -> set[str]:
    """The modules `python -X importtime <args>` imports, after checking its exit code."""
    proc = fresh("-X", "importtime", *args)
    assert proc.returncode == code, proc.stderr[-2000:]
    return import_lines(proc.stderr)[0]


@pytest.mark.parametrize("args, absent", [
    (["-c", "import statesieve"],
     ["linalg", "systems", "bases", "partitions", "paulis", "sieve", "jsonio", "_trials"]),
    (["-m", "statesieve", "--help"],
     ["linalg", "systems", "bases", "partitions", "paulis", "sieve", "jsonio", "_trials"]),
    (["-m", "statesieve", "verify", "--n", "3"], ["partitions", "paulis", "sieve", "_trials"]),
    (["-m", "statesieve", "stats", "--n", "3", "--trials", "10"],
     ["bases", "partitions", "paulis"]),
    (["-m", "statesieve", "simulate", "--n", "3", "--index", "3"],
     ["partitions", "paulis", "_trials"]),
    (["-m", "statesieve", "build", "--n", "3"], ["partitions", "paulis", "sieve", "_trials"]),
    (["-m", "statesieve", "pauli", "--cereceda"], ["bases", "partitions", "sieve", "_trials"]),
    (["-m", "statesieve", "minimality", "--n", "2"],
     ["bases", "partitions", "paulis", "sieve", "_trials"]),
    (["-m", "statesieve", "enumerate", "--n", "2", "--count-only"],
     ["bases", "partitions", "paulis", "sieve", "jsonio", "_trials"]),
    (["-m", "statesieve", "partition", "--n", "3"], ["partitions", "paulis", "sieve", "_trials"]),
    (["-m", "statesieve", "transform", "--n", "3", "--basis", "ghz", "--emit",
      "partitions,meet,codes"], ["partitions", "paulis", "sieve", "_trials"]),
], ids=["import", "help", "verify", "stats", "simulate", "build", "pauli", "minimality",
        "enumerate", "partition", "transform"])
def test_a_command_loads_only_the_modules_it_calls(args, absent):
    modules = imported(*args)
    assert "statesieve" in modules
    assert modules.isdisjoint(f"statesieve.{name}" for name in absent)
    # the records are NamedTuples, and no command builds a Partition, the one dataclass
    assert "dataclasses" not in modules
    if "--help" in args:  # it ends in statesieve._front, before cli, json and numpy load
        assert modules.isdisjoint({"json", "numpy"})


def console_script() -> list[str]:
    """What the `statesieve` script that pip generates from pyproject.toml runs."""
    text = (ROOT / "pyproject.toml").read_text()
    module, func = re.search(r'^statesieve = "([\w.]+):(\w+)"$', text, re.M).groups()
    return ["-c", f"import sys; from {module} import {func}; sys.exit({func}())"]


@pytest.mark.parametrize("args, code", [
    (["-m", "statesieve", "verify", "--tol", "x"], 2),
    ([*console_script(), "--help"], 0),
], ids=["usage-error", "console-script-help"])
def test_a_usage_error_and_the_console_script_help_load_no_numpy(args, code):
    modules = imported(*args, code=code)
    assert "statesieve._front" in modules
    assert modules.isdisjoint({"json", "numpy", "statesieve.cli", "statesieve.linalg"})


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
def test_help_into_a_full_device_reports_without_loading_numpy_or_the_cli():
    with open("/dev/full", "w") as fh:
        proc = fresh("-X", "importtime", "-m", "statesieve", "--help", stdout=fh)
    modules, rest = import_lines(proc.stderr)
    assert proc.returncode == _front.EXIT_VALIDATION
    assert [json.loads(line)["error"]["type"] for line in rest] == ["OSError"]
    assert modules.isdisjoint({"numpy", "statesieve.cli", "statesieve.linalg"})


def test_running_the_cli_module_loads_it_once():
    argv = ["verify", "--n", "2"]
    proc = fresh("-X", "importtime", "-m", "statesieve.cli", *argv)
    modules, rest = import_lines(proc.stderr)
    assert "statesieve.linalg" in modules and "statesieve.cli" not in modules
    as_cli = (proc.returncode, proc.stdout, rest)
    proc = fresh("-m", "statesieve", *argv)
    assert as_cli == (proc.returncode, proc.stdout, proc.stderr.splitlines())


def test_the_default_tolerance_is_defined_once(capsys):
    assert linalg.DEFAULT_TOL is _catalog.DEFAULT_TOL
    for command in cli._COMMANDS:
        with pytest.raises(SystemExit):
            _front.build_parser().parse_args([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
        assert f"(default {_catalog.DEFAULT_TOL:g} or SIEVE_TOL)" in text, command


def test_the_help_names_each_vocabulary_from_the_catalog(capsys):
    emit = _front.build_parser().parse_args(["partition"]).emit
    for argv, names in (
            (["--help"], [f"(transform --emit {emit})"]),
            (["transform", "--help"], [",".join(_catalog.EMIT_ITEMS)]),
            (["pauli", "--help"], ["/".join(_catalog.PAULI_AXES),
                                   "/".join(_catalog.CERECEDA_AXES)])):
        with pytest.raises(SystemExit):
            _front.build_parser().parse_args(argv)
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps to the terminal
        for name in names:
            assert name in text, argv


@pytest.mark.parametrize("preset, seen", [(None, "20"), ("7", "7")])
def test_the_cli_gives_openblas_a_short_thread_timeout(preset, seen):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(SRC)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    proc = subprocess.run([sys.executable, "-c", "import os, statesieve.cli; "
                           "print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == seen


def test_numpy_loads_after_the_openblas_default_is_set():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = str(SRC)
    spy = ("import os, sys\n"
           "class Spy:\n"
           "    def find_spec(self, name, path=None, target=None):\n"
           "        if name == 'numpy':\n"
           "            print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
           "sys.meta_path.insert(0, Spy())\n"
           "import statesieve.cli\n")
    proc = subprocess.run([sys.executable, "-c", spy], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["20"]


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
