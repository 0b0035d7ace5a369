"""The value records and NamedUnitary: fields, immutability, equality, repr and
the JSON encoders' dicts, as they were when the records were frozen dataclasses."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from statesieve import (DetectorOutcome, MeasurementDistribution, MinimalityReport, NamedUnitary,
                        QuestionCountRecord, RequirementReport, StatsSummary,
                        StrategyStats, jsonio, minimality_certificate, question_count_stats,
                        route_basis_state, standard_basis, standard_system)

EMPTY = inspect.Parameter.empty
STATS = StrategyStats("naive", 3, 10, 1, 4.5, 8)

# record type -> (its fields in order with their defaults, one instance)
RECORDS = {
    DetectorOutcome: ([("answer_bits", EMPTY), ("detector_index", EMPTY)],
                      DetectorOutcome((1, 0, 1), 3)),
    MeasurementDistribution: ([("probabilities", EMPTY)], MeasurementDistribution((0.25, 0.75))),
    QuestionCountRecord: ([("state_index", EMPTY), ("questions_asked", EMPTY),
                           ("strategy", EMPTY)], QuestionCountRecord(3, 2, "naive")),
    StrategyStats: ([("strategy", EMPTY), ("n", EMPTY), ("trials", EMPTY), ("seed", EMPTY),
                     ("mean", EMPTY), ("max", EMPTY)], STATS),
    StatsSummary: ([("naive", EMPTY), ("sieve", EMPTY)],
                   StatsSummary(STATS, StrategyStats("sieve", 3, 10, 1, 3.0, 3))),
    RequirementReport: ([("co_measurable", EMPTY), ("balanced_halves", EMPTY),
                         ("pairwise_quarters", EMPTY), ("failures", EMPTY)],
                        RequirementReport(True, False, True, ("projector 2 is not balanced",))),
    MinimalityReport: ([("n", EMPTY), ("num_states", EMPTY), ("max_classes", EMPTY),
                        ("analytic_bound_holds", EMPTY), ("exhaustive_scanned", None),
                        ("exhaustive_separating_found", None)],
                       MinimalityReport(3, 8, 4, True)),
}
TYPES = list(RECORDS)
IDS = [t.__name__ for t in TYPES]


def fields(record) -> list[str]:
    return [name for name, _ in RECORDS[type(record)][0]]


@pytest.mark.parametrize("cls", TYPES + [NamedUnitary], ids=IDS + ["NamedUnitary"])
def test_fields_order_and_defaults(cls):
    expected = RECORDS[cls][0] if cls in RECORDS else [("name", EMPTY), ("matrix", EMPTY)]
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == expected


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_assignment_raises_attribute_error(cls):
    record = RECORDS[cls][1]
    for name in fields(record) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(cls):
    record = RECORDS[cls][1]
    values = [getattr(record, name) for name in fields(record)]
    twin = cls(*values)
    assert twin == record and hash(twin) == hash(record)
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    assert cls("other", *values[1:]) != record


@pytest.mark.parametrize("cls", TYPES, ids=IDS)
def test_records_are_tuples_of_their_fields(cls):
    record = RECORDS[cls][1]
    values = tuple(getattr(record, name) for name in fields(record))
    assert tuple(record) == values and record == values
    assert list(record._asdict()) == fields(record)


@pytest.mark.parametrize("record, text", [
    (RECORDS[DetectorOutcome][1], "DetectorOutcome(answer_bits=(1, 0, 1), detector_index=3)"),
    (RECORDS[MeasurementDistribution][1], "MeasurementDistribution(probabilities=(0.25, 0.75))"),
    (RECORDS[QuestionCountRecord][1],
     "QuestionCountRecord(state_index=3, questions_asked=2, strategy='naive')"),
    (RECORDS[RequirementReport][1],
     "RequirementReport(co_measurable=True, balanced_halves=False, pairwise_quarters=True, "
     "failures=('projector 2 is not balanced',))"),
    (RECORDS[MinimalityReport][1],
     "MinimalityReport(n=3, num_states=8, max_classes=4, analytic_bound_holds=True, "
     "exhaustive_scanned=None, exhaustive_separating_found=None)"),
    # the two reprs scripts/bench.py hashes
    (question_count_stats(3, 10, 1),
     "StatsSummary(naive=StrategyStats(strategy='naive', n=3, trials=10, seed=1, mean=5.0, "
     "max=8), sieve=StrategyStats(strategy='sieve', n=3, trials=10, seed=1, mean=3.0, max=3))"),
    (route_basis_state(standard_system(3), standard_basis(3), 3),
     "DetectorOutcome(answer_bits=(1, 0, 1), detector_index=3)"),
], ids=IDS[:3] + IDS[5:] + ["question_count_stats", "route_basis_state"])
def test_repr_names_every_field(record, text):
    assert repr(record) == text


def test_properties_and_methods():
    assert not RECORDS[RequirementReport][1].ok
    assert RequirementReport(True, True, True, ()).ok
    assert RECORDS[MinimalityReport][1].ok and minimality_certificate(2).ok
    assert not MinimalityReport(2, 4, 2, True, 16, True).ok
    assert not MinimalityReport(2, 4, 4, False).ok
    assert MeasurementDistribution((0.0, 1.0)).point_mass() == 2
    assert RECORDS[MeasurementDistribution][1].point_mass() is None


@pytest.mark.parametrize("encode, record, items", [
    (jsonio.requirement_report_to_json, RECORDS[RequirementReport][1],
     [("co_measurable", True), ("balanced_halves", False), ("pairwise_quarters", True),
      ("failures", ["projector 2 is not balanced"]), ("ok", False)]),
    (jsonio.minimality_report_to_json, RECORDS[MinimalityReport][1],
     [("n", 3), ("num_states", 8), ("max_classes", 4), ("analytic_bound_holds", True),
      ("exhaustive_scanned", None), ("exhaustive_separating_found", None), ("ok", True)]),
    (jsonio.minimality_report_to_json, MinimalityReport(2, 4, 2, True, 16, False),
     [("n", 2), ("num_states", 4), ("max_classes", 2), ("analytic_bound_holds", True),
      ("exhaustive_scanned", 16), ("exhaustive_separating_found", False), ("ok", True)]),
    (jsonio.outcome_to_json, RECORDS[DetectorOutcome][1],
     [("answer_bits", [1, 0, 1]), ("detector", 3)]),
    (jsonio.distribution_to_json, RECORDS[MeasurementDistribution][1],
     [("detectors", [0.25, 0.75])]),
    (jsonio.stats_to_json, STATS,
     [("strategy", "naive"), ("n", 3), ("trials", 10), ("seed", 1), ("mean", 4.5), ("max", 8)]),
], ids=["requirements", "minimality", "minimality-scanned", "outcome", "distribution", "stats"])
def test_json_encoders_keep_keys_values_and_order(encode, record, items):
    d = encode(record)
    assert type(d) is dict and list(d.items()) == items
    assert [type(v) for _, v in d.items()] == [type(v) for _, v in items]


class TestNamedUnitary:
    def test_stores_a_complex_matrix(self):
        u = NamedUnitary(name="id", matrix=[[1, 0], [0, 1]])
        assert u.matrix.dtype == complex and np.array_equal(u.matrix, np.eye(2))
        with pytest.raises(ValueError, match="square"):
            NamedUnitary("row", [[1, 0]])

    def test_compares_and_hashes_by_identity(self):
        u, v = NamedUnitary("id", np.eye(2)), NamedUnitary("id", np.eye(2))
        assert u == u and u != v
        assert hash(u) == object.__hash__(u)
        assert len({u, v}) == 2

    def test_is_read_only(self):
        u = NamedUnitary("id", np.eye(2))
        for name in ("name", "matrix", "not_a_field"):
            with pytest.raises(AttributeError):
                setattr(u, name, None)
            with pytest.raises(AttributeError):
                delattr(u, name)
        assert u.name == "id"

    def test_repr_shows_the_name_alone(self):
        assert repr(NamedUnitary("ghz", np.eye(2))) == "NamedUnitary(name='ghz')"

    def test_copies_and_pickles(self):
        u = NamedUnitary("id", np.eye(2))
        for w in (copy.copy(u), copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
            assert w is not u and w.name == "id" and np.array_equal(w.matrix, u.matrix)
