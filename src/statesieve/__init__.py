"""Minimal proposition systems that single out one of 2^n orthogonal states."""

from .linalg import (DEFAULT_TOL, EigenbasisError, LinearDependenceError,
                     commutator_norm, conjugate, dagger, eigenvalue_bit,
                     gram_schmidt, is_projector, is_unitary, tensor)
from .partitions import (Partition, is_atomic, meet, meet_all,
                         partition_from_projector, refines)
from .systems import (ColumnCode, MinimalityReport, PropositionSystem,
                      RequirementReport, ResourceLimitError, answer_codes,
                      certify_system, column_codes, count_systems, enumerate_systems,
                      minimality_certificate, permute_system, separates,
                      standard_diagonals, standard_system, system_from_diagonals,
                      system_partitions, verify_requirements, verify_system)
from .bases import (Basis, NamedUnitary, basis_from_unitary, combo_label,
                    equal_weight_basis, equal_weight_unitary, ghz_basis,
                    ghz_unitary, ket_label, named_basis, standard_basis,
                    transformed_system, w_basis, w_unitary)
from .paulis import (CERECEDA_AXES, CERECEDA_PREIMAGE_DIAGONALS,
                     cereceda_system, embed, pauli, sigma_product_proposition)
from .sieve import (DetectorOutcome, MeasurementDistribution,
                    QuestionCountRecord, StatsSummary, StrategyStats,
                    detector_for_bits, measure_and_sample, measure_state, naive_search,
                    question_count_stats, route_basis_state, sample_detections)

__version__ = "0.1.0"
