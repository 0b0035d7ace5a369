"""The CLI's vocabularies (basis keys, --emit items, Pauli axes, the Cereceda triple) and
the default tolerance, in a module that imports nothing, so the parser needs no numpy."""

BASIS_KEYS = ("standard", "ghz", "w", "equal_weight")
EMIT_ITEMS = ("projectors", "partitions", "codes", "basis", "unitary", "meet")
PAULI_AXES = ("x", "y", "z")
# Axis strings whose sigma-product propositions form the permuted triple
# equivalent to the relative-spin + parity system for three particles.
CERECEDA_AXES = ("xyy", "yxy", "yyx")
DEFAULT_TOL = 1e-10
