"""JSON wire formats shared by the library and the CLI.

Matrices: {"rows": R, "cols": C, "data": [[re, im], ...]} row-major;
vectors are the same with cols = 1.  Values round-trip bit-identically
(floats are emitted with Python's shortest exact repr).  Every value a
command prints has an encoder; only the two inputs a command reads have a
decoder: a system (`verify --file`) and a vector (`simulate --state`).
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any

import numpy as np

from .linalg import _whole, as_vector

if TYPE_CHECKING:  # annotations only, so importing jsonio loads none of these
    from .bases import Basis
    from .sieve import DetectorOutcome, MeasurementDistribution, StrategyStats
    from .systems import MinimalityReport, PropositionSystem, RequirementReport


def matrix_to_json(m) -> dict[str, Any]:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {a.shape}")
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": np.ascontiguousarray(a).view(float).reshape(-1, 2).tolist(),
    }


def _field(obj: Any, name: str, what: str) -> Any:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"{what} is missing field {name!r}")
    return obj[name]


def _int_field(obj: Any, name: str, what: str, high: int | None = None) -> int:
    value = _field(obj, name, what)
    if not _whole(value) or value < 1 or (high is not None and value > high):
        limit = f" in 1..{high}" if high is not None else " >= 1"
        raise ValueError(f"{what} field {name!r} must be an integer{limit}, got {value!r}")
    return int(value)


def matrix_from_json(obj: Any) -> np.ndarray:
    """Decode a matrix, raising ValueError that names a missing or malformed field."""
    rows, cols = _int_field(obj, "rows", "matrix"), _int_field(obj, "cols", "matrix")
    data = _field(obj, "data", "matrix")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise ValueError(f"matrix field 'data': expected a list of {rows * cols} entries, got {got}")
    # the JSON types decide: each entry is a list of two floats or integers in -2**63..2**64 - 1
    if set(map(type, data)) == {list} and set(map(len, data)) == {2}:
        values = list(chain.from_iterable(data))
        kinds = set(map(type, values))  # json reads true and false as bool, not as numbers
        ints = [x for x in values if type(x) is int] if int in kinds else []
        if kinds <= {int, float} and all(-2 ** 63 <= x < 2 ** 64 for x in ints):
            pairs = np.array(values, dtype=float)
            if np.isfinite(pairs).all():  # as complex, float pairs keep every bit
                return pairs.view(complex).reshape(rows, cols)
    raise ValueError("matrix field 'data' must hold [re, im] pairs of finite numbers")


def vector_to_json(v) -> dict[str, Any]:
    return matrix_to_json(as_vector(v).reshape(-1, 1))


def vector_from_json(obj: dict[str, Any]) -> np.ndarray:
    m = matrix_from_json(obj)
    if m.shape[1] != 1:
        raise ValueError(f"expected cols = 1 for a vector, got {m.shape[1]}")
    return m.reshape(-1)


def system_to_json(system: PropositionSystem) -> dict[str, Any]:
    return {"n": system.n,
            "projectors": [matrix_to_json(p) for p in system.projectors]}


def system_from_json(obj: Any) -> PropositionSystem:
    """Decode a dense system, raising ValueError that names a missing or malformed field."""
    from .systems import INDEX_MAX_N, PropositionSystem
    n = _int_field(obj, "n", "system", high=INDEX_MAX_N)
    raw = _field(obj, "projectors", "system")
    if not isinstance(raw, list):
        raise ValueError(f"system field 'projectors' must be a list, got {type(raw).__name__}")
    projs = []
    for i, p in enumerate(raw, start=1):
        try:
            projs.append(matrix_from_json(p))
        except ValueError as e:
            raise ValueError(f"system field 'projectors' entry {i}: {e}") from None
    return PropositionSystem(n, tuple(projs))


def partition_to_json(ground_size: int, blocks) -> dict[str, Any]:
    return {"ground": ground_size, "blocks": [list(b) for b in blocks]}


def basis_to_json(b: Basis) -> dict[str, Any]:
    return {"labels": list(b.labels),
            "vectors": [vector_to_json(b.vector(k)) for k in range(1, b.size + 1)]}


def requirement_report_to_json(r: RequirementReport) -> dict[str, Any]:
    return {**r._asdict(), "failures": list(r.failures), "ok": r.ok}


def minimality_report_to_json(r: MinimalityReport) -> dict[str, Any]:
    return {**r._asdict(), "ok": r.ok}


def outcome_to_json(o: DetectorOutcome) -> dict[str, Any]:
    return {"answer_bits": list(o.answer_bits), "detector": o.detector_index}


def distribution_to_json(d: MeasurementDistribution) -> dict[str, Any]:
    return {"detectors": list(d.probabilities)}


def stats_to_json(s: StrategyStats) -> dict[str, Any]:
    return s._asdict()
