import json
import math
import subprocess
import sys

import numpy as np
import pytest

from statesieve import (DetectorOutcome, _catalog, bases, cli, ghz_basis, jsonio, linalg, sieve,
                        standard_system, systems, transformed_system)
from statesieve.cli import main

from test_systems import UNEVEN_N2, UNEVEN_N2_FAILURES


DENSE_REFUSAL = ("n = 11 exceeds MAX_N = 10, the largest n whose N x N arrays are built, "
                 "even with force")


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


class TestPerm:
    """--perm is read whenever it is given, and refused in the CLI's 1-based terms."""

    @pytest.mark.parametrize("command", ["build", "verify", "transform", "partition"])
    def test_an_empty_list_is_refused(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--n", "2", "--perm", "")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": "--perm must be a comma list of integers: ''"}

    @pytest.mark.parametrize("perm, target", [("0,1", 0), ("1,3", 3), ("2,-1", -1)])
    def test_a_target_outside_1_to_N_is_refused(self, capsys, perm, target):
        code, out, err = run_cli(capsys, "verify", "--n", "1", "--perm", perm)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": f"--perm targets must be in 1..2, got {target}"}

    @pytest.mark.parametrize("perm, message", [
        ("1,2", "--perm must list 4 targets, got 2"),
        ("1,1,2,3", "--perm repeats target 1; each of 1..4 must appear once"),
        ("4,3,2,1,4", "--perm repeats target 4; each of 1..4 must appear once")],
        ids=["count", "repeat", "repeat past the count"])
    def test_a_wrong_count_or_a_repeat_is_refused_in_its_terms(self, capsys, perm, message):
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--perm", perm)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {"type": "ValueError", "message": message}
        assert "0..N-1" not in err and "(2,)" not in err


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
            "Rayleigh quotient 0.49999999999999989 (projector 3, vector 1)"]

    def test_file_past_the_guard_needs_force(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 11, "projectors": []}))
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 3 and out == ""
        assert "exceeds the guard 10" in json.loads(err)["error"]["message"]
        code, out, _ = run_cli(capsys, "verify", "--file", str(path), "--force")
        assert code == 1
        assert json.loads(out)["failures"] == ["system does not separate the basis"]

    @pytest.mark.parametrize("flag, value", [("--perm", "2,1"), ("--basis", "ghz"),
                                             ("--n", "7"), ("--n", "3")])
    def test_file_refuses_what_it_would_ignore(self, capsys, tmp_path, flag, value):
        path = tmp_path / "absent.json"  # refused before the file is read
        code, out, err = run_cli(capsys, "verify", "--file", str(path), flag, value)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": f"verify --file takes no {flag}: it verifies "
                                             "the file's system as stored, in the standard basis"}

    def test_a_boolean_in_a_pair_is_refused(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"n": 1, "projectors": [{"rows": 2, "cols": 2, "data": '
                        '[[true, 0], [0, 0], [0, 0], [0, 0]]}]}')
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": "system field 'projectors' entry 1: matrix field "
                                             "'data' must hold [re, im] pairs of finite numbers"}

    @pytest.mark.parametrize("entry", ["[null, 0]", "[0, 0, 0]"], ids=["null", "three"])
    def test_a_null_or_a_three_element_pair_is_refused(self, capsys, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "projectors": [{"rows": 2, "cols": 2, "data": '
                        f'[{entry}, [0, 0], [0, 0], [0, 0]]}}]}}')
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": "system field 'projectors' entry 1: matrix field "
                                             "'data' must hold [re, im] pairs of finite numbers"}

    # every catalog unitary is certified by named_basis (in basis_from_unitary)
    # and once more by transformed_system
    @pytest.mark.parametrize("basis, checks", [("ghz", 2), ("w", 2), ("equal_weight", 2)])
    def test_a_catalog_unitary_is_certified_once_per_use(self, capsys, monkeypatch,
                                                          basis, checks):
        real, calls = linalg.is_unitary, []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.startswith("statesieve") and getattr(module, "is_unitary", None) is real:
                monkeypatch.setattr(module, "is_unitary", counted)
        payload = run_json(capsys, "verify", "--n", "3", "--basis", basis)
        assert payload["certified"] and len(calls) == checks

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
        {"n": 1, "projectors": [{"rows": 2, "cols": 2, "data": [[1, 0], [0, 0], [0], [0, 0]]}]}),
        "", "not json", '{"n": '])
    def test_malformed_file_is_a_validation_error(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("text", ["", "not json", '{"n": '])
    def test_unparsable_file_names_its_path(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--file", str(path))
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and str(path) in error["message"]

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "abc"])
    def test_bad_tol_flag_is_a_usage_error(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "abc"])
    def test_bad_tol_environment_is_a_validation_error(self, capsys, monkeypatch, tol):
        # main resolves the tolerance before any command runs, so each one refuses it
        monkeypatch.setenv("SIEVE_TOL", tol)
        for command in ["build --n 2", "verify --n 2", "transform --n 2", "partition --n 2",
                        "simulate --n 2 --index 1", "stats --n 2", "enumerate --count-only",
                        "pauli --cereceda", "minimality --n 2"]:
            code, out, err = run_cli(capsys, *command.split())
            assert code == 3 and out == "", command
            assert "SIEVE_TOL" in json.loads(err)["error"]["message"], command

    def test_zero_tol_certifies_an_exact_system(self, capsys):
        assert run_json(capsys, "verify", "--n", "2", "--tol", "0")["certified"]

    @pytest.mark.parametrize("basis", ["ghz", "w", "equal_weight"])
    def test_zero_tol_refuses_every_catalog_unitary_in_one_message(self, capsys, basis):
        code, out, err = run_cli(capsys, "verify", "--n", "3", "--basis", basis, "--tol", "0")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": {"type": "ValueError", "message": (
            f"matrix for basis '{basis}' failed unitarity certification within 0.0")}}

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

    @pytest.mark.parametrize("command", ["verify --file", "simulate --n 1 --state"])
    def test_non_utf8_input_names_its_file(self, capsys, tmp_path, command):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe\x00")
        code, out, err = run_cli(capsys, *command.split(), str(path))
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and error["message"].startswith(f"{path}: ")


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
        code, _, err = run_cli(capsys, "transform", "--emit", "codes,spectra")
        assert code == 3 and json.loads(err)["error"]["message"] == (
            f"unknown --emit items ['spectra']; choose from {sorted(_catalog.EMIT_ITEMS)}")

    @pytest.mark.parametrize("emit", ["", ",", " , "])
    def test_empty_emit_list(self, capsys, emit):
        code, out, err = run_cli(capsys, "transform", "--n", "2", "--emit", emit)
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["message"] == (
            "--emit needs at least one of "
            "['basis', 'codes', 'meet', 'partitions', 'projectors', 'unitary']")


class TestArgumentErrorsComeFirst:
    """A bad --emit list or a missing --index/--state is reported before any system is built."""

    @pytest.mark.parametrize("argv, message", [
        (["transform", "--emit", "spectra"], "unknown --emit items ['spectra']; choose from "
         "['basis', 'codes', 'meet', 'partitions', 'projectors', 'unitary']"),
        (["transform", "--emit", ","], "--emit needs at least one of "
         "['basis', 'codes', 'meet', 'partitions', 'projectors', 'unitary']"),
        (["simulate"], "simulate needs exactly one of --index or --state"),
        (["simulate", "--index", "1", "--state", "state.json"],
         "simulate needs exactly one of --index or --state"),
    ])
    def test_without_building_the_system(self, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("standard_system called")

        monkeypatch.setattr(systems, "standard_system", refuse)
        code, out, err = run_cli(capsys, *argv, "--n", "20", "--force")
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


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
        assert next(systems.enumerate_systems(3, limit=1, force=True)).n == 3
        payload = run_json(capsys, "enumerate", "--n", "3", "--limit", "1", "--force",
                           "--count-only")
        assert payload == {"n": 3, "count": 1}
        # the full output prints N x N projectors: --force does not lift that limit
        code, out, err = run_cli(capsys, "enumerate", "--n", "3", "--limit", "1", "--force")
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["message"] == (
            "n = 3 exceeds MAX_N = 2, the largest n whose N x N arrays are built, even with force")


class TestDenseOutputsKeepTheirLimit:
    """build, transform --emit projectors or basis and full enumerate print N x N
    numbers, so --force does not lift their n <= 10 limit; nothing dense is built."""

    @pytest.fixture(autouse=True)
    def no_dense_array(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense array built")

        monkeypatch.setattr(systems.PropositionSystem, "projectors", property(refuse))
        monkeypatch.setattr(bases.Basis, "vectors", property(refuse))
        monkeypatch.setattr(bases.Basis, "vector", refuse)

    @pytest.mark.parametrize("force", [[], ["--force"]])
    @pytest.mark.parametrize("argv, what", [  # what: the N x N output refused
        (["build"], "build"),
        (["transform", "--emit", "projectors"], "transform --emit projectors"),
        (["transform", "--emit", "codes,basis"], "transform --emit basis"),
        (["enumerate", "--limit", "1"], "enumerate"),
    ])
    def test_past_n_10_is_refused(self, capsys, argv, what, force):
        code, out, err = run_cli(capsys, *argv, "--n", "11", *force)
        assert code == 3 and out == "", what
        assert json.loads(err)["error"] == {"type": "ValueError", "message": DENSE_REFUSAL}

    @pytest.mark.parametrize("argv", [
        "transform --n 12 --force --emit codes",  # CI runs both at n = 16
        "partition --n 12 --force",
        "enumerate --n 62 --force --limit 1 --count-only",
    ])
    def test_structured_outputs_still_run(self, capsys, argv):
        assert main(argv.split()) == 0, capsys.readouterr().err


class TestStructuredCeiling:
    """verify, simulate, transform, partition and stats build (n, 2^n) arrays, so
    --force lifts n no higher than STRUCTURED_MAX_N.  Both limits are lowered here,
    so that nothing near the real ceiling is built."""

    @pytest.fixture(autouse=True)
    def low_limits(self, monkeypatch):
        monkeypatch.setattr(systems, "MAX_N", 2)
        monkeypatch.setattr(systems, "STRUCTURED_MAX_N", 3)

    @pytest.mark.parametrize("argv", [
        "verify", "simulate --index 1", "transform --emit codes", "partition",
        "stats --trials 1"])
    def test_force_stops_at_the_ceiling(self, capsys, argv):
        assert main([*argv.split(), "--n", "3", "--force"]) == 0, capsys.readouterr().err
        capsys.readouterr()
        code, out, err = run_cli(capsys, *argv.split(), "--n", "4", "--force")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "n = 4 exceeds STRUCTURED_MAX_N = 3, the largest n whose (n, 2^n) "
                       "arrays are built, even with force"}


class TestForceHint:
    """A size refusal offers "override with force" exactly where --force lifts it.
    MAX_N and STRUCTURED_MAX_N are lowered to 2 and 3, so every command refuses
    n = 3 and 4 without --force; each enumerate but the unlimited count takes
    --limit 1, so no full enumeration runs.  pauli and verify --file take no --n:
    the axes and the file fix n."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("command", [
        "build", "verify", "verify --file {file}", "simulate --index 1", "partition",
        "transform --emit codes", "transform --emit projectors", "transform --emit basis",
        "stats --trials 1", "enumerate --limit 1", "enumerate --limit 1 --count-only",
        "enumerate --count-only", "pauli --axes {axes}", "minimality"])
    def test_force_lifts_what_the_hint_offers(self, capsys, monkeypatch, tmp_path, command, n):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(jsonio.system_to_json(standard_system(n))))
        monkeypatch.setattr(systems, "MAX_N", 2)
        monkeypatch.setattr(systems, "STRUCTURED_MAX_N", 3)
        argv = command.format(file=path, axes="x" * n).split()
        if argv[0] != "pauli" and "--file" not in argv:
            argv += ["--n", str(n)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        offered = "override with force" in json.loads(err)["error"]["message"]
        code, _, err = run_cli(capsys, *argv, "--force")
        assert code == (0 if offered else 3), err


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

    def test_a_boolean_amplitude_is_refused(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"rows": 2, "cols": 1, "data": [[true, 0], [0, 0]]}')
        code, out, err = run_cli(capsys, "simulate", "--n", "1", "--state", str(path))
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "matrix field 'data' must hold [re, im] pairs of finite numbers"}

    @pytest.mark.parametrize("entry", ["[null, 0]", "[0, 0, 0]"], ids=["null", "three"])
    def test_a_null_or_a_three_element_amplitude_is_refused(self, capsys, tmp_path, entry):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"rows": 2, "cols": 1, "data": [{entry}, [0, 0]]}}')
        code, out, err = run_cli(capsys, "simulate", "--n", "1", "--state", str(path))
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError",
            "message": "matrix field 'data' must hold [re, im] pairs of finite numbers"}

    def test_non_json_state_names_its_path(self, capsys, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("not json")
        code, out, err = run_cli(capsys, "simulate", "--n", "1", "--state", str(path))
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError" and str(path) in error["message"]

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

    @pytest.mark.parametrize("argv, got", [(["--index", "0"], 0), (["--index", "9"], 9),
                                           (["--index", "9", "--sample", "3"], 9)])
    def test_index_out_of_range_is_refused(self, capsys, argv, got):
        code, out, err = run_cli(capsys, "simulate", "--n", "3", *argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {"type": "ValueError",
                                            "message": f"--index must be in 1..8, got {got}"}

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

    def test_empty_axes_are_refused_as_empty(self, capsys):
        code, out, err = run_cli(capsys, "pauli", "--axes", "")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": "axis assignment must not be empty"}

    def test_axes_and_triple_are_alternatives(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pauli", "--cereceda", "--axes", "zzzz"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "not allowed with argument" in captured.err

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_size_error_names_the_commands_limit(self, capsys, force):
        code, out, err = run_cli(capsys, "pauli", "--axes", "x" * 11, *force)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {"type": "ValueError", "message": DENSE_REFUSAL}


class TestMinimality:
    def test_report(self, capsys):
        payload = run_json(capsys, "minimality", "--n", "2")
        assert payload["ok"] and payload["exhaustive_scanned"] == 16

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_size_error_names_the_commands_limit(self, capsys, force):
        code, out, err = run_cli(capsys, "minimality", "--n", "11", *force)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == {"type": "ValueError", "message": DENSE_REFUSAL}


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
