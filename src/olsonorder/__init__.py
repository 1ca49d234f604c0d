"""Olson (spectral) order on simple observables over effect-algebra backends.

Exact backends (MV chains, finite set algebras, validated tables, finite
tribes, measure-quotients) run on rational arithmetic; the numerical
backend works with Hermitian matrices through clustered spectral
measures.  The order, meets and joins of bounded observables are
evaluated once on the closed resolution values at the merged spectrum
grid, each pointwise bound checked against the values it bounds, with a
brute-force enumeration oracle deciding when a pointwise bound is missing.
"""

from __future__ import annotations

__version__ = "0.1.0"

# Every public name is served from its home module, which is imported on
# first use of one of its names and not before: a table backend loads
# errors and effect only, a JSON backend algebras and serialize too, and
# the Hilbert names (which need numpy) load no exact module.  A resolved
# name is kept in the package's globals.
_HOMES = {
    "effect": (
        "EffectAlgebra", "EffectElement", "TableEffectAlgebra", "block_cycle_algebra",
        "mo2_algebra",
    ),
    "algebras": (
        "FiniteSetAlgebra", "FiniteTribe", "MVChain", "QuotientBooleanAlgebra",
        "restricted_sum_tribe",
    ),
    "errors": (
        "BackendMismatch", "CarrierTooLarge", "CertificationTooLarge", "DimensionMismatch",
        "DomainMismatch", "EigendecompositionFailure", "ElementForeignToAlgebra",
        "EmptyFamily", "InvalidAlgebra", "KernelValueOutsideTribe", "MapUndefinedOnSpectrum",
        "NonIncreasingPoints", "NonMonotoneInput", "NotAnEffect", "NotAProjection",
        "NotEnumerable", "NotHermitian", "OlsonOrderError", "ParseError", "SetOutOfRange",
        "SpectrumOutsideUnitInterval", "WeightsNotSummable",
    ),
    "kernels": (
        "MarkovKernel", "MeasurableFunction", "function_from_observable", "function_max",
        "function_min", "function_order_oracle", "kernel_from_observable", "kernel_leq",
        "observable_from_function", "observable_from_kernel", "pushforward_function",
        "quotient_order_criterion",
    ),
    "lattice": (
        "BoundResult", "OlsonComparison", "brute_force_join", "brute_force_meet", "compare",
        "enumerate_grid_observables", "left_regularize", "merged_grid", "olson_join", "olson_leq",
        "olson_meet", "right_regularize",
    ),
    "observables": (
        "BorelSetExpr", "Interval", "PiecewiseMap", "SimpleObservable", "StepResolution",
        "from_closed_values", "from_weights", "question",
    ),
    "serialize": (
        "algebra_from_json", "algebra_to_json", "bound_to_json", "comparison_to_json",
        "observable_from_json", "observable_to_json", "resolution_to_json",
    ),
    "suites": ("involution_suite",),
    "hilbert": (
        "DEFAULT_TOLERANCES", "DIMENSION_CAP", "HermitianOperator", "SpectralMeasure",
        "Tolerances", "loewner_leq", "logical_leq", "matrix_from_json", "matrix_to_json",
        "negate", "proj_join", "proj_meet", "range_leq", "spectral_join", "spectral_leq",
        "spectral_measure", "spectral_meet",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
# `from olsonorder import *` binds the exact names and loads no numpy
__all__ = [name for name, module in _HOME.items() if module != "hilbert"]


def __getattr__(name: str):
    home = name if name in _HOMES else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import binds the home module in the package's globals
    __import__(f"{__name__}.{home}")
    if home == name:
        return globals()[home]
    value = globals()[name] = getattr(globals()[home], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
