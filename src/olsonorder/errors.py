"""Exception types, and the helpers both the exact and the Hilbert stack use.

Every error raised on a contract violation derives from OlsonOrderError so
callers can catch the whole family at one place.  Each class carries the
CLI's exit code for it: 1 by default, 2 for mismatched backends, dimensions
and domains, 4 for a matrix that fails a numerical gate.  This module
imports nothing, so each stack loads it without loading the other.
"""

from __future__ import annotations

#: digits of the longest numerator or denominator a rational literal may
#: have: Python's default limit for converting an int to a string
RATIONAL_DIGIT_CAP = 4300
SHOWN_CAP = 200  #: most characters of an input an error message echoes
OVERSIZED = f"<integer or rational of over {RATIONAL_DIGIT_CAP} digits>"


def _shown(value, text=repr) -> str:
    """text(value) for an error message, or the OVERSIZED placeholder when
    value holds a number that Python refuses to print (over RATIONAL_DIGIT_CAP digits).
    A text over SHOWN_CAP characters is cut there, its full length noted."""
    try:
        shown = text(value)
    except ValueError:
        return OVERSIZED
    if len(shown) > SHOWN_CAP:
        return f"{shown[:SHOWN_CAP]}... ({len(shown)} characters)"
    return shown


def order_verdict(fwd: bool, bwd: bool) -> str:
    """Two-sided verdict from the one-sided tests x <= y (fwd) and y <= x (bwd)."""
    if fwd and bwd:
        return "equal"
    if fwd:
        return "less_or_equal"
    return "greater_or_equal" if bwd else "incomparable"


def _check(name: str, passed: bool, count: int, **extra) -> dict:
    out = {"name": name, "passed": bool(passed), "count": int(count)}
    out.update(extra)
    return out


def _report(suite: str, backend, checks: list[dict], seed: int | None = None, **extra) -> dict:
    out = {
        "suite": suite,
        "backend": backend,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    if seed is not None:
        out["seed"] = int(seed)
    out.update(extra)
    return out


class OlsonOrderError(Exception):
    """Base class for all contract violations raised by this package."""

    exit_code = 1


class InvalidAlgebra(OlsonOrderError):
    """Backend construction data violates the effect-algebra axioms."""


class CarrierTooLarge(OlsonOrderError):
    """A finite carrier exceeds the configured size cap."""


class ElementForeignToAlgebra(OlsonOrderError):
    """An element was used with a backend instance that does not own it."""

    exit_code = 2


class NotEnumerable(OlsonOrderError):
    """The carrier cannot be exhaustively enumerated."""


class SetOutOfRange(OlsonOrderError):
    """A set literal mentions points outside the ground set."""


class NonIncreasingPoints(OlsonOrderError):
    """Spectrum points must be strictly increasing."""


class WeightsNotSummable(OlsonOrderError):
    """A running partial sum of weights is undefined or the total is not one."""


class MapUndefinedOnSpectrum(OlsonOrderError):
    """A piecewise map does not cover some spectrum point."""


class SpectrumOutsideUnitInterval(OlsonOrderError):
    """An operation restricted to [0,1]-supported observables got a wider one."""


class SpectrumTooLargeForSharpnessScan(OlsonOrderError):
    """The 2^k sharpness scan is capped; the spectrum exceeds the cap."""


class BackendMismatch(OlsonOrderError):
    """Observables from different backend instances cannot be combined."""

    exit_code = 2


class EmptyFamily(OlsonOrderError):
    """Meets and joins require at least one observable."""


class NonMonotoneInput(OlsonOrderError):
    """Grid families fed to the regularizations must be monotone."""


class CertificationTooLarge(OlsonOrderError):
    """Exhaustive nonexistence certification would exceed the enumeration cap."""


class DomainMismatch(OlsonOrderError):
    """A function or kernel does not match the backend's ground set."""

    exit_code = 2


class KernelValueOutsideTribe(OlsonOrderError):
    """A kernel induces a set function that leaves the tribe's carrier."""


class DimensionMismatch(OlsonOrderError):
    """Operator arguments must share one Hilbert-space dimension."""

    exit_code = 2


class NotHermitian(OlsonOrderError):
    """Matrix input is not Hermitian within tolerance."""

    exit_code = 4


class NotAnEffect(OlsonOrderError):
    """Operator spectrum is not within [0,1] up to tolerance."""

    exit_code = 4


class NotAProjection(OlsonOrderError):
    """Operator is not idempotent Hermitian within tolerance."""

    exit_code = 4


class EigendecompositionFailure(OlsonOrderError):
    """The eigensolver failed to converge or produced invalid output."""

    exit_code = 4


class ParseError(OlsonOrderError):
    """Malformed JSON input for a backend, element, observable or matrix,
    or a point that is no rational number."""
