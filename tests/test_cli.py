import json
import math
import subprocess
import sys

import numpy as np
import pytest

from statesieve import (DetectorOutcome, bases, cli, ghz_basis, jsonio, sieve, standard_system,
                        systems, transformed_system)
from statesieve.cli import main

from test_systems import UNEVEN_N2, UNEVEN_N2_FAILURES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBuild:
    def test_standard_three_projectors(self, capsys):
        payload = run_json(capsys, "build", "--n", "3", "--basis", "standard")
        assert payload["n"] == 3 and payload["basis"] == "standard"
        got = [jsonio.matrix_from_json(p) for p in payload["projectors"]]
        for p, q in zip(got, standard_system(3).projectors):
            assert np.array_equal(p, q)

    def test_permuted_build(self, capsys):
        payload = run_json(capsys, "build", "--n", "3",
                           "--perm", "2,1,3,4,5,6,7,8")
        third = jsonio.matrix_from_json(payload["projectors"][2])
        assert np.array_equal(np.real(np.diag(third)).astype(int),
                              [0, 1, 1, 0, 1, 0, 1, 0])

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "build", "--n", "99")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--basis", "nonsense"])
        assert exc.value.code == 2


class TestVerify:
    @pytest.mark.parametrize("basis", ["standard", "ghz", "w", "equal_weight"])
    def test_builtin_combinations_pass(self, capsys, basis):
        payload = run_json(capsys, "verify", "--n", "3", "--basis", basis)
        assert payload["certified"] and payload["separates"]

    def test_round_trip_build_then_verify(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "build", "--n", "2")
        path = tmp_path / "system.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "verify", "--file", str(path))
        assert code == 0 and json.loads(out)["certified"]

    def test_bad_system_fails_with_exit_one(self, capsys, tmp_path):
        bad = {"n": 1, "projectors": [jsonio.matrix_to_json(0.5 * np.eye(2))]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run_cli(capsys, "verify", "--file", str(path))
        assert code == 1
        assert json.loads(out)["failures"]

    def test_uneven_file_fails_every_requirement_count(self, capsys, tmp_path):
        path = tmp_path / "uneven.json"
        path.write_text(json.dumps(jsonio.system_to_json(UNEVEN_N2)))
        code, out, _ = run_cli(capsys, "verify", "--file", str(path))
        assert code == 1
        assert json.loads(out) == {
            "co_measurable": True, "balanced_halves": False, "pairwise_quarters": False,
            "failures": UNEVEN_N2_FAILURES, "ok": False, "certified": False,
            "separates": False}

    def test_non_eigenbasis_file_names_the_projector(self, capsys, tmp_path):
        _, u = ghz_basis()
        path = tmp_path / "ghz.json"
        path.write_text(json.dumps(
            jsonio.system_to_json(transformed_system(u, standard_system(3)))))
        code, out, _ = run_cli(capsys, "verify", "--file", str(path))
        assert code == 1
        assert json.loads(out)["failures"] == [
            "requirement checks aborted: vector is not a 0/1 eigenvector: "
            "Rayleigh quotient 0.5 (projector 3, vector 1)"]

    def test_file_past_the_guard_needs_force(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 11, "projectors": []}))
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 3 and out == ""
        assert "exceeds the guard 10" in json.loads(err)["error"]["message"]
        code, out, _ = run_cli(capsys, "verify", "--file", str(path), "--force")
        assert code == 1
        assert json.loads(out)["failures"] == ["system does not separate the basis"]

    def test_tol_flag_beats_environment(self, capsys, tmp_path, monkeypatch):
        slightly_off = np.diag([1.0 + 1e-6, 0.0]).astype(complex)
        path = tmp_path / "near.json"
        path.write_text(json.dumps(
            {"n": 1, "projectors": [jsonio.matrix_to_json(slightly_off)]}))
        monkeypatch.setenv("SIEVE_TOL", "1e-3")
        code, _, _ = run_cli(capsys, "verify", "--file", str(path))
        assert code == 0  # loose env tolerance accepts it
        code, _, _ = run_cli(capsys, "verify", "--file", str(path),
                             "--tol", "1e-12")
        assert code == 1  # explicit flag wins over the environment


    @pytest.mark.parametrize("text", ["{}", '{"n": 2}', json.dumps(
        {"n": 1, "projectors": [{"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0], [0, 0]]}]})])
    def test_malformed_file_is_a_validation_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "abc"])
    def test_bad_tol_flag_is_a_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "abc"])
    def test_bad_tol_environment_is_a_validation_error(self, capsys, monkeypatch, tol):
        monkeypatch.setenv("SIEVE_TOL", tol)
        code, out, err = run_cli(capsys, "verify", "--n", "2")
        assert code == 3 and out == ""
        assert "SIEVE_TOL" in json.loads(err)["error"]["message"]

    def test_zero_tol_certifies_an_exact_system(self, capsys):
        assert run_json(capsys, "verify", "--n", "2", "--tol", "0")["certified"]

    def test_n_16_under_force_needs_no_dense_identity(self, capsys):
        payload = run_json(capsys, "verify", "--n", "16", "--force")
        assert payload["certified"] and payload["separates"] and payload["failures"] == []

    def test_deeply_nested_file_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and str(path) in error["message"]


class TestTransform:
    def test_ghz_partitions_and_meet(self, capsys):
        payload = run_json(capsys, "transform", "--n", "3", "--basis", "ghz",
                           "--emit", "projectors,partitions,meet,codes")
        blocks = [p["blocks"] for p in payload["partitions"]]
        assert blocks == [
            [[1, 2, 3, 4], [5, 6, 7, 8]],
            [[1, 2, 5, 6], [3, 4, 7, 8]],
            [[1, 3, 5, 7], [2, 4, 6, 8]],
        ]
        assert payload["atomic"] is True
        assert payload["codes"][0]["bits"] == [1, 1, 1]
        first = jsonio.matrix_from_json(payload["projectors"][0])
        assert np.allclose(first, np.diag([1, 1, 0, 0, 0, 0, 1, 1]))

    def test_unknown_emit_item(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--emit", "spectra")
        assert code == 3 and "emit" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("emit", ["", ",", " , "])
    def test_empty_emit_list(self, capsys, emit):
        code, out, err = run_cli(capsys, "transform", "--n", "2", "--emit", emit)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["message"] == (
            "--emit needs at least one of "
            "['basis', 'codes', 'meet', 'partitions', 'projectors', 'unitary']")


class TestEnumerate:
    def test_count_only(self, capsys):
        payload = run_json(capsys, "enumerate", "--n", "2", "--count-only")
        assert payload == {"n": 2, "count": 24}

    def test_limit_emits_systems(self, capsys):
        payload = run_json(capsys, "enumerate", "--n", "2", "--limit", "3")
        assert payload["count"] == 3 and len(payload["systems"]) == 3

    def test_guard_without_force(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "4", "--count-only")
        assert code == 3
        assert "force" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("limit", ["-1", "x", "1.5"])
    def test_bad_limit_is_a_usage_error(self, capsys, limit):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "2", "--limit", limit])
        assert exc.value.code == 2
        assert "--limit must be an integer >= 0" in capsys.readouterr().err

    def test_zero_limit_emits_nothing(self, capsys):
        assert run_json(capsys, "enumerate", "--n", "2", "--limit", "0") == {
            "n": 2, "count": 0, "systems": []}

    def test_force_overrides_the_dimension_guard(self, capsys, monkeypatch):
        monkeypatch.setattr(systems, "MAX_N", 2)
        payload = run_json(capsys, "enumerate", "--n", "3", "--limit", "1", "--force")
        assert payload["count"] == 1 and payload["systems"][0]["n"] == 3


class TestPartitionCommand:
    def test_standard_meet_is_atomic(self, capsys):
        payload = run_json(capsys, "partition", "--n", "2")
        assert payload["atomic"] is True
        assert payload["meet"]["blocks"] == [[1], [2], [3], [4]]

    @pytest.mark.parametrize("extra", [
        *(["--basis", key] for key in ("standard", "ghz", "w", "equal_weight")),
        ["--perm", "2,1,3,4,5,6,8,7"],
        ["--basis", "ghz", "--format", "text"],
        ["--perm", "8,7,6,5,4,3,2,1", "--format", "text"],
    ])
    def test_same_bytes_as_transform_partitions_meet(self, capsys, extra):
        part = run_cli(capsys, "partition", "--n", "3", *extra)
        trans = run_cli(capsys, "transform", "--n", "3", "--emit", "partitions,meet", *extra)
        assert part[0] == 0 and part == trans


class TestSimulate:
    def test_route_by_index(self, capsys):
        payload = run_json(capsys, "simulate", "--n", "3", "--index", "3")
        assert payload["detector"] == 3 and payload["answer_bits"] == [1, 0, 1]

    def test_measure_state_file(self, capsys, tmp_path):
        v = (np.eye(4)[0] + np.eye(4)[1]) / np.sqrt(2)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(jsonio.vector_to_json(v)))
        payload = run_json(capsys, "simulate", "--n", "2", "--state", str(path))
        assert payload["detectors"][0] == pytest.approx(0.5)
        assert payload["detectors"][1] == pytest.approx(0.5)

    def test_sampling_attaches_counts(self, capsys):
        payload = run_json(capsys, "simulate", "--n", "2", "--index", "1",
                           "--sample", "25", "--seed", "3")
        assert payload["sample"]["counts"][0] == 25
        assert payload["sample"]["seed"] == 3

    def test_non_finite_state_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"rows": 2, "cols": 1, "data": [[NaN, 0], [0, 0]]}')
        code, out, err = run_cli(capsys, "simulate", "--n", "1", "--state", str(path))
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_deeply_nested_state_is_a_validation_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, "simulate", "--n", "1", "--state", str(path))
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and str(path) in error["message"]

    def test_json_output_refuses_nan(self, capsys, monkeypatch):
        monkeypatch.setattr(sieve, "route_basis_state", lambda *args: DetectorOutcome((1,), math.nan))
        code, out, err = run_cli(capsys, "simulate", "--n", "1", "--index", "1")
        assert code == 3 and out == ""
        assert "JSON" in json.loads(err)["error"]["message"]

    def test_memory_error_is_a_resource_error(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 TiB")
        monkeypatch.setattr(bases, "named_basis", exhausted)
        code, out, err = run_cli(capsys, "simulate", "--n", "20", "--force", "--index", "1")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": {"type": "MemoryError",
                                             "message": "Unable to allocate 16.0 TiB"}}

    def test_routes_and_samples_at_n_16_under_force(self, capsys):
        payload = run_json(capsys, "simulate", "--n", "16", "--force", "--index", "777",
                           "--sample", "50", "--seed", "1")
        assert payload["detector"] == 777 and payload["state"] == "|++++++--++++-+++>"
        counts = payload["sample"]["counts"]
        assert len(counts) == 2 ** 16 and counts[776] == sum(counts) == 50

    def test_needs_exactly_one_input(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--n", "2")
        assert code == 3
        code, _, _ = run_cli(capsys, "simulate", "--n", "2", "--index", "1",
                             "--state", "whatever.json")
        assert code == 3


class TestSeed:
    @pytest.mark.parametrize("seed", ["-1", "x"])
    @pytest.mark.parametrize("command", [["stats", "--n", "2", "--trials", "5"],
                                         ["simulate", "--n", "2", "--index", "1",
                                          "--sample", "10"]])
    def test_bad_seed_is_a_usage_error(self, capsys, command, seed):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--seed", seed])
        assert exc.value.code == 2
        assert f"--seed must be an integer >= 0, got '{seed}'" in capsys.readouterr().err


class TestTrialCounts:
    @pytest.mark.parametrize("command, flag, count", [
        (["stats", "--n", "2"], "--trials", "-1"),
        (["simulate", "--n", "2", "--index", "1"], "--sample", "-3")])
    def test_negative_count_is_a_usage_error(self, capsys, command, flag, count):
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, count])
        assert exc.value.code == 2
        assert f"{flag} must be an integer >= 0, got '{count}'" in capsys.readouterr().err

    def test_zero_trials_is_a_validation_error(self, capsys):
        code, out, err = run_cli(capsys, "stats", "--n", "2", "--trials", "0")
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["message"] == "trials must be >= 1"

    def test_zero_sample_draws_no_sample(self, capsys):
        payload = run_json(capsys, "simulate", "--n", "2", "--index", "1", "--sample", "0")
        assert payload == {"answer_bits": [1, 1], "detector": 1, "state": "|++>"}


class TestStats:
    def test_emits_both_strategies(self, capsys):
        payload = run_json(capsys, "stats", "--n", "2", "--trials", "200",
                           "--seed", "6")
        by_name = {entry["strategy"]: entry for entry in payload}
        assert by_name["sieve"]["mean"] == 2.0 and by_name["sieve"]["max"] == 2
        assert by_name["naive"]["seed"] == 6
        assert 1.0 <= by_name["naive"]["mean"] <= 4.0

    def test_n_16_needs_force(self, capsys):
        argv = ["stats", "--n", "16", "--trials", "10", "--seed", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert "override with force" in json.loads(err)["error"]["message"]
        payload = run_json(capsys, *argv, "--force")
        by_name = {entry["strategy"]: entry for entry in payload}
        assert by_name["sieve"]["mean"] == 16.0 and by_name["sieve"]["max"] == 16
        assert by_name["naive"]["trials"] == 10


class TestPauli:
    def test_axis_string_proposition(self, capsys):
        payload = run_json(capsys, "pauli", "--axes", "xxx")
        m = jsonio.matrix_from_json(payload["proposition"])
        assert np.allclose(m, (np.eye(8) + np.fliplr(np.eye(8))) / 2)

    def test_permuted_triple(self, capsys):
        payload = run_json(capsys, "pauli", "--cereceda")
        assert payload["certified"] and payload["axes"] == ["xyy", "yxy", "yyx"]

    def test_needs_axes_or_triple(self, capsys):
        code, _, _ = run_cli(capsys, "pauli")
        assert code == 3

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_size_error_names_the_commands_limit(self, capsys, force):
        code, out, err = run_cli(capsys, "pauli", "--axes", "x" * 11, *force)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "pauli is limited to n <= 10, even with --force; got n = 11"}


class TestMinimality:
    def test_report(self, capsys):
        payload = run_json(capsys, "minimality", "--n", "2")
        assert payload["ok"] and payload["exhaustive_scanned"] == 16

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_size_error_names_the_commands_limit(self, capsys, force):
        code, out, err = run_cli(capsys, "minimality", "--n", "11", *force)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "minimality is limited to n <= 10, even with --force; got n = 11"}


class TestTextFormat:
    def test_partition_text_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "partition", "--n", "2", "--format", "text")
        assert code == 0
        assert "{1,2} {3,4}" in out and "atomic: True" in out

    def test_matrix_text_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "build", "--n", "1", "--format", "text")
        assert code == 0 and "1" in out and "{" not in out.splitlines()[0]

    def test_no_failures_print_as_an_empty_list(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            "co_measurable: True", "balanced_halves: True", "pairwise_quarters: True",
            "failures:", "  []", "ok: True", "certified: True", "separates: True"]

    def test_failures_print_one_per_line(self, capsys, tmp_path):
        path = tmp_path / "uneven.json"
        path.write_text(json.dumps(jsonio.system_to_json(UNEVEN_N2)))
        code, out, _ = run_cli(capsys, "verify", "--file", str(path), "--format", "text")
        assert code == 1
        lines = out.splitlines()
        start = lines.index("failures:") + 1
        assert lines[start:start + len(UNEVEN_N2_FAILURES)] == [
            "  " + f for f in UNEVEN_N2_FAILURES]
        assert lines[start + len(UNEVEN_N2_FAILURES)] == "ok: False"

    def test_basis_labels_print_one_per_line(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "--n", "2", "--emit", "basis",
                               "--format", "text")
        lines = out.splitlines()
        start = lines.index("  labels:") + 1
        assert code == 0 and lines[start:start + 5] == [
            "    |++>", "    |+->", "    |-+>", "    |-->", "  vectors:"]

    def test_number_lists_stay_on_one_line(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "3", "--index", "3",
                               "--sample", "4", "--format", "text")
        assert code == 0 and "  1 0 1" in out.splitlines()
        assert "    0 0 4 0 0 0 0 0" in out.splitlines()


def test_module_entry_point_runs():
    out = subprocess.run(
        [sys.executable, "-m", "statesieve", "enumerate", "--n", "1",
         "--count-only"],
        capture_output=True, text=True)
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"n": 1, "count": 2}


def test_a_closed_stdout_ends_quietly_with_141():
    # the full output is tens of MB, so the pipe fills long before the command ends
    proc = subprocess.Popen(
        [sys.executable, "-m", "statesieve", "enumerate", "--n", "3", "--limit", "3000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""
