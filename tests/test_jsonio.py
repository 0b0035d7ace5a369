import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statesieve import Partition, ghz_basis, standard_system
from statesieve import jsonio

from conftest import square_complex


MUST_HOLD = "'data' must hold"


class TestMatrixFormat:
    def test_layout(self):
        m = np.array([[1, 2j], [3, -4]], dtype=complex)
        obj = jsonio.matrix_to_json(m)
        assert obj == {"rows": 2, "cols": 2,
                       "data": [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [-4.0, 0.0]]}

    @pytest.mark.parametrize("m", [
        np.array([[-0.0, complex(0.0, -0.0)]]),
        np.array([[5e-324, 2.2e-308j]]),
        np.arange(6).reshape(2, 3),
        np.zeros((3, 0)),
        (np.arange(6) + 1j * np.arange(6)[::-1]).reshape(2, 3).T,
    ], ids=["signed-zero", "subnormal", "integer", "zero-columns", "transposed"])
    def test_encoding_matches_the_element_wise_pairs(self, m):
        a = np.asarray(m, dtype=complex)
        pairs = [[float(x.real), float(x.imag)] for x in a.reshape(-1)]
        expected = {"rows": a.shape[0], "cols": a.shape[1], "data": pairs}
        assert json.dumps(jsonio.matrix_to_json(m)) == json.dumps(expected)

    @given(m=square_complex(max_dim=4, max_mag=1e6))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_is_bit_identical(self, m):
        # through the dict and through an actual JSON string
        direct = jsonio.matrix_from_json(jsonio.matrix_to_json(m))
        assert direct.tobytes() == m.tobytes()
        wired = jsonio.matrix_from_json(json.loads(json.dumps(jsonio.matrix_to_json(m))))
        assert wired.tobytes() == m.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_encoder_rejects_a_non_2d_array(self, shape):
        with pytest.raises(ValueError) as err:
            jsonio.matrix_to_json(np.zeros(shape))
        assert str(err.value) == f"expected a 2-d matrix, got shape {shape}"

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError, match="entries"):
            jsonio.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})

    @pytest.mark.parametrize("obj, field", [
        ([], "matrix must be a JSON object"),
        ({"cols": 1, "data": [[1, 0]]}, "'rows'"),
        ({"rows": 1, "cols": True, "data": [[1, 0]]}, "'cols'"),
        ({"rows": -1, "cols": 1, "data": [[1, 0]]}, "'rows'"),
        ({"rows": 1, "cols": 1}, "'data'"),
        ({"rows": 1, "cols": 1, "data": "[[1, 0]]"}, "'data'"),
        ({"rows": 1, "cols": 2, "data": [[1, 0], [1]]}, "'data'"),
        ({"rows": 1, "cols": 2, "data": [[1, 0], ["1", 0]]}, "'data'"),
        ({"rows": 1, "cols": 1, "data": [[float("nan"), 0]]}, "'data'"),
        ({"rows": 1, "cols": 1, "data": [[10 ** 400, 0]]}, "'data'"),
        ({"rows": 1, "cols": 1, "data": [[True, 0]]}, "'data'"),
        ({"rows": 1, "cols": 1, "data": [[0.5, False]]}, "'data'"),
        ({"rows": 1, "cols": 1, "data": [["1", 0]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [[None, 0]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [[[1], 0]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [[1, 2, 3]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [[1]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [{"a": 1, "b": 2}]}, MUST_HOLD),  # len 2, no list
        ({"rows": 1, "cols": 1, "data": ["ab"]}, MUST_HOLD),  # len 2, no list
        ({"rows": 1, "cols": 2, "data": [[1, 2, 3], [4]]}, MUST_HOLD),  # 4 values, ragged
        ({"rows": 1, "cols": 1, "data": [[2 ** 64, 0]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [[10 ** 30, 0.5]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [[-2 ** 63 - 1, 0]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [[float("inf"), 0]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [[0, float("-inf")]]}, MUST_HOLD),
        ({"rows": 1, "cols": 1, "data": [[0.5, float("nan")]]}, MUST_HOLD),
    ])
    def test_rejects_malformed_fields_by_name(self, obj, field):
        with pytest.raises(ValueError, match=field):
            jsonio.matrix_from_json(obj)

    def test_integers_decode_from_minus_two_to_the_63_to_two_to_the_64_less_one(self):
        data = [[-2 ** 63, 2 ** 64 - 1], [2 ** 63 + 5, -1], [0, -0.0]]
        got = jsonio.matrix_from_json({"rows": 3, "cols": 1, "data": data})
        assert got.tobytes() == np.array([float(x) for pair in data for x in pair]).tobytes()


def reference_matrix_from_json(obj):
    """The decoder that let numpy's inference decide: np.array(data) had to give a
    (rows * cols, 2) array of integer or float kind, and a separate scan refused booleans."""
    rows, cols = (jsonio._int_field(obj, "rows", "matrix"),
                  jsonio._int_field(obj, "cols", "matrix"))
    data = jsonio._field(obj, "data", "matrix")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise ValueError(f"matrix field 'data': expected a list of {rows * cols} entries, got {got}")
    try:
        pairs = np.array(data)
    except ValueError:  # ragged entries
        pairs = None
    if (pairs is None or pairs.shape != (rows * cols, 2) or pairs.dtype.kind not in "iuf"
            or not np.isfinite(pairs).all() or bool in {type(x) for pair in data for x in pair}):
        raise ValueError("matrix field 'data' must hold [re, im] pairs of finite numbers")
    return pairs.astype(float).view(complex).reshape(rows, cols)


def decoded(decode, obj):
    """What a decoder gives: the shape and bytes of its matrix, or its error."""
    try:
        m = decode(obj)
    except Exception as e:  # the type of any exception must match too
        return type(e).__name__, str(e)
    return m.shape, m.dtype.str, m.tobytes()


EDGE_NUMBERS = [-0.0, -1, 2 ** 63 + 5, 2 ** 63 - 1, -2 ** 63, -2 ** 63 - 1, 2 ** 64 - 1,
                2 ** 64, 10 ** 30, 10 ** 400, 1e308, 5e-324]
json_numbers = (st.sampled_from(EDGE_NUMBERS) | st.integers(-3, 3) | st.integers()
                | st.floats())
json_scalars = json_numbers | st.booleans() | st.none() | st.text(max_size=2)
json_values = json_scalars | st.lists(json_scalars, max_size=3)
number_pairs = st.lists(json_numbers, min_size=2, max_size=2)
entries = (number_pairs | st.lists(json_values, max_size=3) | json_values
           | st.dictionaries(st.text(max_size=1), json_scalars, max_size=2))


@st.composite
def matrix_documents(draw):
    """Matrices of pairs of numbers, which mostly decode, or of any entries."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    return {"rows": rows, "cols": cols,
            "data": draw(st.lists(number_pairs, min_size=rows * cols, max_size=rows * cols)
                         | st.lists(entries, min_size=rows * cols, max_size=rows * cols))}


@given(matrix_documents())
@settings(max_examples=500, deadline=None)
def test_the_type_rule_refuses_and_decodes_as_numpys_inference_did(obj):
    assert decoded(jsonio.matrix_from_json, obj) == decoded(reference_matrix_from_json, obj)


class TestVectorFormat:
    def test_vectors_are_single_column(self):
        obj = jsonio.vector_to_json(np.array([1j, 2.5]))
        assert obj["cols"] == 1 and obj["rows"] == 2
        back = jsonio.vector_from_json(obj)
        assert np.array_equal(back, np.array([1j, 2.5]))

    def test_rejects_wide_matrices(self):
        with pytest.raises(ValueError, match="cols"):
            jsonio.vector_from_json(jsonio.matrix_to_json(np.eye(2)))



class TestStructures:
    def test_system_round_trip(self):
        system = standard_system(2)
        back = jsonio.system_from_json(
            json.loads(json.dumps(jsonio.system_to_json(system))))
        assert back.n == 2
        for p, q in zip(system.projectors, back.projectors):
            assert p.tobytes() == q.tobytes()

    @pytest.mark.parametrize("obj, field", [
        ({}, "missing field 'n'"),
        ({"n": 2}, "missing field 'projectors'"),
        ({"n": "2", "projectors": []}, "'n'"),
        ({"n": 63, "projectors": []}, "'n'"),
        ({"n": 1, "projectors": {}}, "'projectors'"),
        ({"n": 1, "projectors": [{"rows": 2, "cols": 2, "data": [[1, 0]] * 4},
                                 {"rows": 2, "cols": 2, "data": [[1, 0]] * 3 + [[1]]}]},
         "'projectors' entry 2: matrix field 'data'"),
    ])
    def test_system_rejects_malformed_fields_by_name(self, obj, field):
        with pytest.raises(ValueError, match=field):
            jsonio.system_from_json(obj)

    def test_partition_round_trip(self):
        p = Partition(8, ((1, 4, 6, 7), (2, 3, 5, 8)))
        obj = json.loads(json.dumps(jsonio.partition_to_json(p.ground_size, p.blocks)))
        assert obj == {"ground": 8, "blocks": [[1, 4, 6, 7], [2, 3, 5, 8]]}
        assert Partition(obj["ground"], tuple(map(tuple, obj["blocks"]))) == p

    def test_basis_round_trip(self):
        # no command reads a basis: each encoded vector decodes as a state would
        basis, _ = ghz_basis()
        obj = json.loads(json.dumps(jsonio.basis_to_json(basis)))
        assert obj["labels"] == list(basis.labels)
        assert len(obj["vectors"]) == basis.size
        for v, encoded in zip(basis.vectors, obj["vectors"]):
            assert jsonio.vector_from_json(encoded).tobytes() == v.tobytes()
