"""Binary codes with bounded erasure list size, seen as subsets of the
hypercube that meet every subcube of a given dimension in few vertices.

The package splits into:

* ``geometry``   words as ints and 0/1 text, subcubes in canonical order
* ``gf2``        packed-integer linear algebra over GF(2)
* ``basisprob``  probability that random vectors form a basis, and its limit
* ``extremal``   counting extremal quantities (basis-forming column subsets,
                 partition maxima), assembling bound tables, and the exact
                 maximum code search
* ``codes``      randomized layered constructions, weight-class codes,
                 hitting sets, and code files
* ``cube``       the subcube walks: list-size scans (byte tables in ints
                 for small codes, numpy for the rest) and the hitting
                 check (a truth-table walk)
* ``hypergraph`` uniform hypergraphs, copy containment and Lagrangians

The names in ``__all__`` are loaded lazily (PEP 562): the first access
to one imports the module that defines it, so ``import hypercube_codes``
alone loads neither numpy nor any submodule.  This lets ``cli`` set up
the process (one BLAS thread) before numpy starts.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines, in the order of __all__
_EXPORTS = {
    "errors": ("ConstructionError", "OutOfRegimeError"),
    "geometry": ("MAX_BITS", "Subcube", "enumerate_subcubes", "free_sets_colex",
                 "subcube_total"),
    "gf2": ("BitWord", "GF2Matrix", "code_from_parity_check",
            "count_nonsingular_submatrices", "independent_masks", "min_distance",
            "plotkin_bound", "rank", "rank_ints"),
    "basisprob": ("MAX_T", "SimplexPoint", "basis_probability",
                  "basis_recurrence_check", "first_draw_bound",
                  "independent_draw_probability", "limit_constant",
                  "limit_interval", "uniform_basis_probability"),
    "extremal": ("BasisSubsetBounds", "BasisSubsetMaximum", "ListSizeBoundsRow",
                 "MaxCodeResult", "PartitionGrowthCheck", "PartitionMaximum",
                 "ShapeMaximum", "basis_subset_bounds", "list_size_bounds_table",
                 "max_basis_subsets", "max_basis_subsets_any_k", "max_code_search",
                 "max_partition_product_sum", "partition_growth_check",
                 "product_partition_lower_bound"),
    "codes": ("DENSITY_THRESHOLD", "Code", "HittingSetResult", "LayerAssignment",
              "ResidueSelection", "best_residue_subcode", "build_layer_vectors",
              "layer_words", "layered_basis_code", "load_code", "residue_subcode",
              "save_code", "subcube_hitting_set", "weight_class_code"),
    "cube": ("HittingReport", "VerificationReport", "max_subcube_count", "subcube_count",
             "verify_hitting"),
    "hypergraph": ("LagrangianResult", "UniformHypergraph", "augmented_complete",
                   "basis_hypergraph", "contains_copy", "lagrangian",
                   "linear_independence_density", "linear_independence_hypergraph"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """A public name or a submodule of the table, imported on first
    access and kept in the package namespace."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
