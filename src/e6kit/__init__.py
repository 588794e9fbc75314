"""e6kit: octonionic construction of sl(3,O), the real form E6(-26) of E6.

The package builds the 78-dimensional Lie algebra sl(3,O) from one-parameter
group actions on the exceptional Jordan algebra h3(O), exposes its structure
constants, Killing form, and distinguished subalgebras, and provides root- and
weight-diagram utilities for the classical and exceptional series.  It
works on the 27 coordinates of h3(O) through the octonion unit tables
(units) and has no octonion class; the tests' reference computations build
one (tests/reference.py).

Every name below, and every submodule, is imported on first use (PEP 562),
so `import e6kit` compiles no submodule and each CLI verb compiles only the
modules it runs.
"""

import importlib

# module -> the names the package re-exports from it
_LAZY = {
    "units": ("UNITS", "TRIPLES"),
    "jordan": ("JordanElement", "from_coords", "to_coords", "det"),
    "group": ("GeneratorLabel", "parse_label", "format_label", "all_labels", "apply"),
    "algebra": ("tangent", "preferred_basis", "killing_matrix", "signature"),
    "structure": ("reduce_basis", "structure_table"),
    "stabilizer": ("stabilizer_of_l",),
    "gellmann": ("gellmann_check",),
    "subalgebra": ("casimir_labels", "make_involution", "fixed_subalgebra", "compact_preimage",
                   "refine_subspaces", "assemble", "identify"),
    "rootweight": ("diagram", "cartan_matrix", "inverse_cartan", "simple_roots",
                   "fundamental_weights", "weights_from_highest",
                   "root_system", "slice_diagram", "middle_slice", "project",
                   "embed_check"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"    # the version of pyproject.toml; a test keeps the two equal

__all__ = [*_LAZY_NAMES, "__version__"]
