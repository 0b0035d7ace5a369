"""Keys of the named-basis catalog and the default comparison tolerance, in a
module that imports nothing, so the CLI parser can offer them without numpy."""

BASIS_KEYS = ("standard", "ghz", "w", "equal_weight")
DEFAULT_TOL = 1e-10
