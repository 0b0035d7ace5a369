"""Fuzzing of the input boundary: the JSON decoders raise only ValueError, and
`cli.main` ends in a documented exit code (0, 1, 2 or 3; argparse usage
errors as SystemExit(2)) whatever the arguments and input files hold."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import jsonio, standard_system
from statesieve.bases import BASIS_KEYS
from statesieve.cli import main

numbers = st.integers(-3, 70) | st.integers() | st.floats()
scalars = st.none() | st.booleans() | numbers | st.text(max_size=3)


def matrices(values):
    """Matrix-shaped objects whose data may be short, ragged or non-numeric."""
    def build(shape):
        rows, cols = shape
        entry = st.lists(numbers, min_size=2, max_size=2) | values
        return st.fixed_dictionaries({
            "rows": st.just(rows), "cols": st.just(cols),
            "data": st.lists(entry, min_size=rows * cols, max_size=rows * cols) | values})
    return st.tuples(st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4])).flatmap(build)


def containers(children):
    fields = ("rows", "cols", "data", "n", "projectors", "ground", "blocks", "labels", "vectors")
    return (st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=3), children, max_size=3)
            | st.fixed_dictionaries({}, optional={k: children for k in fields})
            | matrices(children)
            | st.fixed_dictionaries({"n": st.integers(0, 3) | children,
                                     "projectors": st.lists(matrices(children), max_size=3)}))


# well-formed systems and states, so that commands also get past decoding
valid_documents = st.sampled_from([
    jsonio.system_to_json(standard_system(1)),
    jsonio.system_to_json(standard_system(2)),
    json.loads((Path(__file__).parent / "golden" / "parity_n3.json").read_text()),
    jsonio.vector_to_json(np.eye(8)[2]),
    jsonio.vector_to_json(np.full(4, 0.5)),
    jsonio.vector_to_json(np.array([0.6, 0.8j])),
])
json_values = valid_documents | st.recursive(scalars | valid_documents, containers,
                                             max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_decoders_raise_only_value_error(value):
    for decode in (jsonio.matrix_from_json, jsonio.vector_from_json, jsonio.system_from_json):
        try:
            decode(value)
        except ValueError:
            pass


def option(name, values):
    """[] or [name, value]."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def argv(*parts):
    """The concatenation of argument lists drawn from each part."""
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


small_n = st.integers(-1, 4)
common = argv(option("--format", st.sampled_from(["json", "text"])),
              option("--tol", st.sampled_from(["0", "1e-10", "1e-3", "-1", "nan", "x"])))
sized = argv(option("--n", small_n),
             option("--basis", st.sampled_from([*BASIS_KEYS, "nonsense"])),
             option("--perm", st.sampled_from(
                 ["2,1,3,4,5,6,7,8", "8,7,6,5,4,3,2,1", "1,2,3,4", "2,1", "1,1", "a", "0,1"])))
emit_items = st.lists(st.sampled_from(
    ["projectors", "partitions", "codes", "basis", "unitary", "meet", "spectra", ""]), max_size=4)

FILE = "@file"  # stands for the fuzzed JSON file in the drawn arguments

commands = st.one_of(
    argv(st.just(["build"]), sized),
    argv(st.just(["verify"]), sized, option("--file", st.just(FILE))),
    argv(st.just(["transform"]), sized, option("--emit", emit_items.map(",".join))),
    argv(st.just(["partition"]), sized),
    argv(st.just(["simulate"]), sized,
         st.sampled_from([[], ["--state", FILE], ["--index", "2", "--state", FILE]])
         | st.integers(-1, 17).map(lambda k: ["--index", str(k)]),
         option("--sample", st.integers(-2, 20)), option("--seed", st.integers(-2, 9))),
    argv(st.just(["enumerate"]), option("--n", st.sampled_from([-1, 0, 1, 2, 4])),
         option("--limit", st.sampled_from([-1, 0, 1, 3, "x"])),
         st.sampled_from([[], ["--count-only"]])),
    argv(st.just(["stats"]), option("--n", small_n),
         option("--trials", st.integers(-1, 5)), option("--seed", st.integers(-2, 9)),
         st.sampled_from([[], ["--infer-last"]])),
    argv(st.just(["pauli"]), option("--axes", st.text("xyzq", max_size=4)),
         st.sampled_from([[], ["--cereceda"]])),
    argv(st.just(["minimality"]), option("--n", small_n)),
)


@settings(max_examples=150, deadline=None)
@given(commands, common, json_values)
def test_cli_exit_codes_stay_in_the_contract(tmp_path_factory, command, options, content):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(content))
    args = [str(path) if a == FILE else a for a in command + options]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(args)
        except SystemExit as e:
            assert e.code == 2, args
            return
    assert code in (0, 1, 2, 3), args
