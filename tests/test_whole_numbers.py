"""One whole-number rule: every n, index, count and seed the library takes is an int or
a numpy integer, never a bool, as `linalg._whole` decides.

The table holds the sites that take one: a basis index (`Basis.rows`), an enumeration
limit, a JSON `n`/`rows`/`cols` field, n itself (`systems._check_n`, which a dense
`PropositionSystem` meets too), a naive-search target, a trial count, a Pauli site, a
partition's ground size and a ket label's position and width.
Each refuses a float or a bool with a ValueError that names the value, and reads a numpy
integer as the Python int it equals.  The fixed catalog bases, defined at n = 3 alone,
and `count_systems` without a limit test their n with the same predicate.
Seeds follow `np.random.default_rng`, which takes a bool (tests/test_seeding.py pins
both that and its errors), so their row compares with it.  A source scan pins that the
predicate is the only integer-type test in the package.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from statesieve import (Partition, PropositionSystem, count_systems, enumerate_systems,
                        ket_label, linalg, measure_and_sample, named_basis, naive_search,
                        question_count_stats, sample_detections, standard_basis,
                        standard_system)
from statesieve._trials import trial_generators
from statesieve.bases import Basis
from statesieve.jsonio import matrix_from_json, system_from_json, system_to_json
from statesieve.paulis import embed

BAD = [2.0, 1.5, True, np.bool_(True)]
E1 = np.eye(4)[0]


def dense_standard(n):
    basis = standard_basis(n)
    return Basis(basis.vectors, basis.labels)


def one_projector_system(n):
    """A JSON system with the given `n` and one 2 x 2 projector."""
    data = [[1, 0], [0, 0], [0, 0], [0, 0]]
    return {"n": n, "projectors": [{"rows": 2, "cols": 2, "data": data}]}


# site -> (a good whole number, reads that take it and return bytes, a repr or a JSON text)
SITES = {
    "Basis.rows": (3, [
        lambda k: standard_basis(3).vector(k).tobytes(),
        lambda k: dense_standard(3).vector(k).tobytes(),
        lambda k: standard_basis(3).label(k) + dense_standard(3).label(k),
    ]),
    "systems._check_enumeration": (5, [
        lambda limit: repr(count_systems(3, limit)),
        lambda limit: b"".join(s.diagonals.tobytes() for s in enumerate_systems(2, limit)),
    ]),
    "jsonio._int_field": (1, [
        lambda n: json.dumps(system_to_json(system_from_json(one_projector_system(n)))),
        lambda rows: matrix_from_json({"rows": rows, "cols": 1, "data": [[1, 0]]}).tobytes(),
        lambda cols: matrix_from_json({"rows": 1, "cols": cols, "data": [[1, 0]]}).tobytes(),
    ]),
    "systems._check_n": (2, [
        lambda n: standard_system(n).diagonals.tobytes() + repr(standard_system(n).n).encode(),
        lambda n: repr((standard_basis(n).dim, named_basis("standard", n)[0].dim)),
        lambda n: repr((count_systems(n), count_systems(n, 5))),
        lambda n: repr(question_count_stats(n, 5, 0)),
        lambda n: embed("x", 1, n).tobytes(),
        lambda n: json.dumps(system_to_json(PropositionSystem(n, [np.diag([1, 1, 0, 0])]))),
    ]),
    "sieve.naive_search": (3, [
        lambda k: repr(naive_search(2, k, [4, 2, 3, 1])),
    ]),
    "sieve._check_trials": (3, [
        lambda trials: repr(question_count_stats(3, trials, 0)),
        lambda trials: repr(sample_detections(standard_system(2), E1, trials, 0)),
        lambda trials: repr(measure_and_sample(standard_system(2), E1, trials, 0)),
    ]),
    "paulis.embed": (2, [
        lambda site: embed("y", site, 3).tobytes(),
    ]),
    "partitions.Partition": (2, [
        lambda ground: repr(Partition(ground, ((1,), (2,)))),
    ]),
    "bases.ket_label": (3, [
        lambda k: ket_label(k, 3),
        lambda n: ket_label(1, n),
    ]),
}


@pytest.mark.parametrize("value", BAD, ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_a_float_or_bool_is_refused_naming_the_value(site, value):
    _, reads = SITES[site]
    for read in reads:
        with pytest.raises(ValueError) as refused:
            read(value)
        assert str(value) in str(refused.value)


@pytest.mark.parametrize("site", SITES)
def test_a_numpy_integer_reads_as_the_python_int(site):
    good, reads = SITES[site]
    for read in reads:
        assert read(np.int64(good)) == read(good)


def outcome(call):
    try:
        return "ok", call()
    except (TypeError, ValueError) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("seed", BAD + [np.int64(7)], ids=repr)
def test_a_seed_is_taken_or_refused_as_default_rng_takes_it(seed):
    expected = outcome(lambda: np.random.default_rng(seed).bit_generator.state)
    reads = [lambda s: [g.bit_generator.state for g in trial_generators(s, 1)][0],
             lambda s: repr(question_count_stats(2, 3, s)),
             lambda s: repr(sample_detections(standard_system(2), E1, 3, s))]
    for read in reads:
        got = outcome(lambda: read(seed))
        assert got[0] == expected[0]
        if expected[0] == "ok":  # a taken seed draws as the int it equals
            assert got[1] == read(int(seed))
        else:
            assert got[1] == expected[1]


def test_the_refusals_of_whole_numbers_keep_their_messages():
    assert outcome(lambda: standard_system(0)) == ("ValueError", "n must be positive, got 0")
    assert outcome(lambda: question_count_stats(2, 0, 0)) == ("ValueError", "trials must be >= 1")
    assert outcome(lambda: embed("x", 3, 2)) == ("ValueError", "site must be in 1..2, got 3")
    assert outcome(lambda: naive_search(2, 5, [1, 2, 3, 4])) == (
        "ValueError", "target_index must be in 1..4, got 5")
    assert outcome(lambda: standard_basis(2).vector(0)) == (
        "ValueError", "index must be in 1..4, got 0")
    assert outcome(lambda: count_systems(2, -1)) == (
        "ValueError", "limit must be None or an integer >= 0, got -1")
    assert outcome(lambda: matrix_from_json({"rows": 0, "cols": 1, "data": []})) == (
        "ValueError", "matrix field 'rows' must be an integer >= 1, got 0")
    assert outcome(lambda: named_basis("ghz", 2)) == (
        "ValueError", "basis 'ghz' is defined for n = 3, got n = 2")


def test_a_value_out_of_its_range_is_refused_naming_it():
    # these ended in itertools' islice error, or returned another position's label
    assert outcome(lambda: Partition(-1, ())) == (
        "ValueError", "ground_size must be an integer >= 0, got -1")
    assert outcome(lambda: ket_label(-1, 3)) == (
        "ValueError", "ket_label index must be in 0..2^3 - 1, got -1")
    assert outcome(lambda: ket_label(8, 3)) == (
        "ValueError", "ket_label index must be in 0..2^3 - 1, got 8")
    assert outcome(lambda: ket_label(0, -1)) == (
        "ValueError", "ket_label n must be an integer >= 0, got -1")
    assert (ket_label(0, 0), ket_label(7, 3), ket_label(2 ** 70 - 1, 70)) == (
        "|>", "|--->", "|" + "-" * 70 + ">")


def test_a_partition_stores_its_ground_size_as_a_python_int():
    part = Partition(np.int64(2), ((1,), (2,)))
    assert type(part.ground_size) is int and part == Partition(2, ((2,), (1,)))


def test_a_dense_system_stores_its_n_as_a_python_int():
    # a numpy n used to be stored as it came, and json.dumps could not encode it
    system = PropositionSystem(np.int64(1), [np.diag([1, 0])])
    assert type(system.n) is int and type(system.dim) is int
    assert json.dumps(system_to_json(system)) == json.dumps(
        system_to_json(PropositionSystem(1, [np.diag([1, 0])])))


def test_a_fixed_basis_refuses_an_n_that_is_not_whole():
    # 3.0 used to return the GHZ basis, as n != 3 was the only test
    for key, n in [("ghz", 3.0), ("w", True), ("equal_weight", np.float64(3))]:
        assert outcome(lambda: named_basis(key, n)) == (
            "ValueError", f"basis {key!r} is defined for n = 3, got n = {n!r}")


def test_count_systems_refuses_an_n_that_is_no_number():
    # the no-limit MAX_N < n comparison used to run first, and end in a TypeError
    for n in ("3", None):
        assert outcome(lambda: count_systems(n)) == (
            "ValueError", f"n must be an integer, got {n!r}")


def owned(node, owner="<module>"):
    """(node, name of the function or class around it) for each node under node."""
    for child in ast.iter_child_nodes(node):
        name = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
        yield child, name
        yield from owned(child, name)


def test_the_predicate_is_the_one_integer_type_test():
    # np.integer and an isinstance(..., bool) appear in the package only inside linalg._whole
    found = []
    for path in sorted(Path(linalg.__file__).parent.glob("*.py")):
        for node, owner in owned(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "integer":
                found.append((path.name, owner, "np.integer"))
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2
                    and any(isinstance(t, ast.Name) and t.id == "bool"
                            for t in ast.walk(node.args[1]))):
                found.append((path.name, owner, "isinstance bool"))
    assert sorted(found) == [("linalg.py", "_whole", "isinstance bool"),
                             ("linalg.py", "_whole", "np.integer")]


def test_the_predicate():
    whole = linalg._whole
    assert all(map(whole, [0, -3, 10 ** 30, np.int64(5), np.uint8(200), np.intp(1)]))
    assert not any(map(whole, [True, False, np.bool_(True), 2.0, 1.5, np.float64(2), "3",
                               None, 2 + 0j, np.array(3)]))
