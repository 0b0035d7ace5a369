"""JSON wire formats shared by the library and the CLI.

Matrices: {"rows": R, "cols": C, "data": [[re, im], ...]} row-major;
vectors are the same with cols = 1.  Values round-trip bit-identically
(floats are emitted with Python's shortest exact repr).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Any

import numpy as np

from .linalg import as_vector

if TYPE_CHECKING:  # the decoders import what they build, so no command loads them all
    from .bases import Basis
    from .partitions import Partition
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
    if (isinstance(value, bool) or not isinstance(value, int) or value < 1
            or (high is not None and value > high)):
        limit = f" in 1..{high}" if high is not None else " >= 1"
        raise ValueError(f"{what} field {name!r} must be an integer{limit}, got {value!r}")
    return value


def matrix_from_json(obj: Any) -> np.ndarray:
    """Decode a matrix, raising ValueError that names a missing or malformed field."""
    rows, cols = _int_field(obj, "rows", "matrix"), _int_field(obj, "cols", "matrix")
    data = _field(obj, "data", "matrix")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else type(data).__name__
        raise ValueError(f"matrix field 'data': expected a list of {rows * cols} entries, got {got}")
    try:
        pairs = np.array(data)
    except ValueError:  # ragged entries
        pairs = None
    if (pairs is None or pairs.shape != (rows * cols, 2) or pairs.dtype.kind not in "iuf"
            or not np.isfinite(pairs).all()):
        raise ValueError("matrix field 'data' must hold [re, im] pairs of finite numbers")
    # viewing float pairs as complex keeps every bit, signed zeros included
    return pairs.astype(float).view(complex).reshape(rows, cols)


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


def partition_to_json(p: Partition) -> dict[str, Any]:
    return {"ground": p.ground_size, "blocks": [list(b) for b in p.blocks]}


def partition_from_json(obj: dict[str, Any]) -> Partition:
    from .partitions import Partition
    return Partition(int(obj["ground"]),
                     tuple(tuple(int(i) for i in b) for b in obj["blocks"]))


def basis_to_json(b: Basis) -> dict[str, Any]:
    return {"labels": list(b.labels),
            "vectors": [vector_to_json(b.vector(k)) for k in range(1, b.size + 1)]}


def basis_from_json(obj: dict[str, Any]) -> Basis:
    from .bases import Basis
    vectors = np.array([vector_from_json(v) for v in obj["vectors"]])
    return Basis(vectors, tuple(obj["labels"]))


def requirement_report_to_json(r: RequirementReport) -> dict[str, Any]:
    d = asdict(r)
    d["ok"] = r.ok
    d["failures"] = list(r.failures)
    return d


def minimality_report_to_json(r: MinimalityReport) -> dict[str, Any]:
    d = asdict(r)
    d["ok"] = r.ok
    return d


def outcome_to_json(o: DetectorOutcome) -> dict[str, Any]:
    return {"answer_bits": list(o.answer_bits), "detector": o.detector_index}


def distribution_to_json(d: MeasurementDistribution) -> dict[str, Any]:
    return {"detectors": list(d.probabilities)}


def stats_to_json(s: StrategyStats) -> dict[str, Any]:
    return asdict(s)
