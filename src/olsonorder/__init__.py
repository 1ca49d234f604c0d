"""Olson (spectral) order on simple observables over effect-algebra backends.

Exact backends (MV chains, finite set algebras, validated tables, finite
tribes, measure-quotients) run on rational arithmetic; the numerical
backend works with Hermitian matrices through clustered spectral
measures.  Meets and joins of bounded observables are computed along
the open and closed resolution routes and cross-checked, with a
brute-force enumeration oracle available for certification.
"""

from __future__ import annotations

from .algebras import (
    EffectAlgebra,
    EffectElement,
    FiniteSetAlgebra,
    FiniteTribe,
    MVChain,
    QuotientBooleanAlgebra,
    TableEffectAlgebra,
    block_cycle_algebra,
    mo2_algebra,
    restricted_sum_tribe,
)
from .errors import (
    BackendMismatch,
    CarrierTooLarge,
    CertificationTooLarge,
    DimensionMismatch,
    DomainMismatch,
    EigendecompositionFailure,
    ElementForeignToAlgebra,
    EmptyFamily,
    InvalidAlgebra,
    KernelValueOutsideTribe,
    MapUndefinedOnSpectrum,
    NonIncreasingPoints,
    NonMonotoneInput,
    NotAnEffect,
    NotAProjection,
    NotEnumerable,
    NotHermitian,
    OlsonOrderError,
    ParseError,
    SetOutOfRange,
    SpectrumOutsideUnitInterval,
    WeightsNotSummable,
)
from .kernels import (
    MarkovKernel,
    MeasurableFunction,
    function_from_observable,
    function_max,
    function_min,
    function_order_oracle,
    kernel_from_observable,
    kernel_leq,
    observable_from_function,
    observable_from_kernel,
    pushforward_function,
    quotient_order_criterion,
)
from .lattice import (
    BoundResult,
    OlsonComparison,
    brute_force_join,
    brute_force_meet,
    compare,
    enumerate_grid_observables,
    involution_suite,
    left_regularize,
    merged_grid,
    olson_join,
    olson_leq,
    olson_meet,
    right_regularize,
)
from .observables import (
    BorelSetExpr,
    Interval,
    PiecewiseMap,
    SimpleObservable,
    StepResolution,
    from_closed_values,
    from_weights,
    question,
)
from .serialize import (
    algebra_from_json,
    algebra_to_json,
    bound_to_json,
    comparison_to_json,
    observable_from_json,
    observable_to_json,
    resolution_to_json,
)

__version__ = "0.1.0"

# The Hilbert backend needs numpy; it is imported on first use of one of
# its names, so the exact backends load without numpy.
_HILBERT_NAMES = frozenset({
    "DEFAULT_TOLERANCES",
    "DIMENSION_CAP",
    "HermitianOperator",
    "SpectralMeasure",
    "Tolerances",
    "loewner_leq",
    "logical_leq",
    "matrix_from_json",
    "matrix_to_json",
    "negate",
    "proj_join",
    "proj_meet",
    "range_leq",
    "spectral_join",
    "spectral_leq",
    "spectral_measure",
    "spectral_meet",
})


def __getattr__(name: str):
    if name in _HILBERT_NAMES:
        from . import hilbert

        return getattr(hilbert, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
