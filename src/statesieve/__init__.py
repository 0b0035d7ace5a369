"""Minimal proposition systems that single out one of 2^n orthogonal states.

Every public name below is loaded from its module on first access (PEP 562),
so `import statesieve`, and each CLI command, imports only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "linalg": ("DEFAULT_TOL", "EigenbasisError", "LinearDependenceError", "commutator_norm",
               "conjugate", "dagger", "eigenvalue_bit", "gram_schmidt", "is_projector",
               "is_unitary", "tensor"),
    "partitions": ("Partition", "is_atomic", "meet", "meet_all", "partition_from_projector",
                   "refines"),
    "systems": ("MinimalityReport", "PropositionSystem", "RequirementReport",
                "ResourceLimitError", "answer_codes", "certify_system", "count_systems",
                "enumerate_systems", "minimality_certificate", "permute_system", "separates",
                "standard_diagonals", "standard_system", "system_from_diagonals",
                "system_partitions", "verify_requirements", "verify_system"),
    "bases": ("Basis", "NamedUnitary", "basis_from_unitary", "combo_label",
              "equal_weight_basis", "equal_weight_unitary", "ghz_basis", "ghz_unitary",
              "ket_label", "named_basis", "standard_basis", "transformed_system", "w_basis",
              "w_unitary"),
    "paulis": ("CERECEDA_AXES", "CERECEDA_PREIMAGE_DIAGONALS", "cereceda_system", "embed",
               "pauli", "sigma_product_proposition"),
    "sieve": ("DetectorOutcome", "MeasurementDistribution", "QuestionCountRecord",
              "StatsSummary", "StrategyStats", "detector_for_bits", "measure_and_sample",
              "measure_state", "naive_search", "question_count_stats", "route_basis_state",
              "sample_detections"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
