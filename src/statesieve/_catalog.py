"""Keys of the named-basis catalog, in a module that imports nothing, so the
CLI parser can offer them as choices without loading the catalog itself."""

BASIS_KEYS = ("standard", "ghz", "w", "equal_weight")
