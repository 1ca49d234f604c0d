"""Spectral (Olson) order, meets and joins of simple observables.

The order compares interval resolutions pointwise, inverted: x is below y
when y((-inf,t)) <= x((-inf,t)) for every real t.  All resolutions here
are step functions, constant between consecutive points of the merged
grid t_0 < ... < t_{n-1} (the sorted union of the spectra).  The open
value at t_j is the closed value at t_{j-1}, and every resolution is
zero below the grid and keeps its closed value at t_j up to t_{j+1} (at
the last point, everywhere above), so the closed values at the grid
points are all that the order and the bounds read.

One sort of the family's points, which compares Fractions only when two
distinct points share a float, gives them as events: at each t_j, the
members with a spectral point there and the closed values they jump
between.  Closed values only rise, so olson_leq and compare keep running
values, and olson_meet and olson_join bound at each point only the
values that change together with the bound before (see _brute_force),
each bound checked against them and packed by the trusted _pack_closed.
At the first point without a bound the walk branches over the backend's
extremal bounds (EffectAlgebra._extremes) and lists only the frontier, so
"exhaustive" certification from olson_meet and olson_join always comes
with exists false.  The brute-force oracles walk the full rows.  The
open-interval route through left_regularize (the sup-from-the-left
closure of Olson's construction) and the full-row closed route are
test references, which the tests hold the event walk against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .algebras import EffectAlgebra, EffectElement
from .errors import (
    OVERSIZED,
    RATIONAL_DIGIT_CAP,
    BackendMismatch,
    CertificationTooLarge,
    EmptyFamily,
    InvalidAlgebra,
    NonMonotoneInput,
    _shown,
    order_verdict,
)
from .observables import SimpleObservable, StepResolution, _checked_chain, _pack_closed, _rational

DEFAULT_ENUMERATION_CAP = 100_000


class _Record:
    """An immutable result record: equality, hash and repr run over the
    fields named in __slots__, in order, as those of a frozen dataclass."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class OlsonComparison(_Record):
    """Two-sided comparison verdict with a refuting grid point.

    verdict is one of "equal", "less_or_equal", "greater_or_equal",
    "incomparable".  witness_t is a merged-grid point at which the
    defining inequality of a failed direction is refuted: the failed
    direction itself for one-sided verdicts, the left-to-right direction
    when both fail.  Equal comparisons carry no witness.
    """

    __slots__ = __match_args__ = ("verdict", "witness_t")

    def __init__(self, verdict: str, witness_t: Fraction | None):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "witness_t", witness_t)


class BoundResult(_Record):
    """Outcome of olson_meet/olson_join or their brute-force oracles.

    certified is "elementwise" when the result came from pointwise
    backend bounds on the merged grid, "exhaustive" when it came from
    enumerating every observable on the grid.  When a meet or join does
    not exist, frontier holds the maximal lower bounds (respectively
    minimal upper bounds) found by the enumeration.
    """

    __slots__ = __match_args__ = ("exists", "observable", "certified", "frontier")

    def __init__(self, exists: bool, observable: SimpleObservable | None, certified: str,
                 frontier: tuple[SimpleObservable, ...] = ()):
        object.__setattr__(self, "exists", exists)
        object.__setattr__(self, "observable", observable)
        object.__setattr__(self, "certified", certified)
        object.__setattr__(self, "frontier", frontier)


def _family(xs: Iterable[SimpleObservable]) -> tuple[SimpleObservable, ...]:
    out = tuple(xs)
    if not out:
        raise EmptyFamily("need at least one observable")
    alg = out[0].algebra
    for x in out[1:]:
        if x.algebra is not alg:
            raise BackendMismatch("observables live over different backends")
    return out


def merged_grid(xs: Iterable[SimpleObservable]) -> tuple[Fraction, ...]:
    """Sorted union of the spectra; every resolution is constant between
    consecutive merged points."""
    return tuple(sorted({t for x in xs for t in x.points}))


def _events(xs: Sequence[SimpleObservable]) -> tuple[list[Fraction], list[list[tuple]]]:
    """The merged grid of a family and, per grid point, the marks
    (float(t), n, d, m, t, old, new) of the members m that jump at t = n/d
    from closed value old to new (payloads), from one sort of all points.

    The sort compares floats and ints only: rounding to a float is
    monotone (an overflow maps to plus or minus infinity), and equal floats
    with equal (n, d) are one point.  When two distinct points share a
    float, the marks are sorted again by (float(t), t, m), exactly.  No
    common denominator is formed: its size grows with every denominator.
    """
    marks = []
    for m, x in enumerate(xs):
        cums = x._cums
        for t, old, new in zip(x.points, cums, cums[1:]):
            n, d = t._numerator, t._denominator
            try:
                marks.append((n / d, n, d, m, t, old, new))
            except OverflowError:
                marks.append((math.inf if n > 0 else -math.inf, n, d, m, t, old, new))
    marks.sort()
    return (_group(marks, exact=False)
            or _group(sorted(marks, key=lambda k: (k[0], k[4], k[3])), exact=True))


def _group(marks: list, exact: bool):
    """Grid and per-point groups of sorted marks; None when two distinct points share a float."""
    grid, groups = [], []
    f0 = n0 = d0 = None
    for mark in marks:
        f, n, d, _, t, _, _ = mark
        if n == n0 and d == d0:
            group.append(mark)
            continue
        if f == f0 and not exact:
            return None
        grid.append(t)
        groups.append(group := [mark])
        f0, n0, d0 = f, n, d
    return grid, groups


def olson_leq(x: SimpleObservable, y: SimpleObservable) -> bool:
    """x is spectrally below y: y((-inf,t)) <= x((-inf,t)) for all t.

    Tested on the closed values at the merged grid points, which take
    every value pair the open test sees (see the module docstring).
    """
    alg = _family((x, y))[0].algebra
    le, vals = alg._le, [alg.zero.payload] * 2  # the running values of x and y
    for group in _events((x, y))[1]:
        for mark in group:
            vals[mark[3]] = mark[6]
        if not le(vals[1], vals[0]):
            return False
    return True


def compare(x: SimpleObservable, y: SimpleObservable) -> OlsonComparison:
    """Both directions of olson_leq in one walk over the grid points.

    The witness is the first merged-grid point refuting y-below-x for
    less_or_equal, x-below-y otherwise.
    """
    alg = _family((x, y))[0].algebra
    le, vals = alg._le, [alg.zero.payload] * 2
    below = above = None  # the first grid points refuting x-below-y and y-below-x
    for t, group in zip(*_events((x, y))):
        for mark in group:
            vals[mark[3]] = mark[6]
        if below is None and not le(vals[1], vals[0]):
            below = t
        if above is None and not le(*vals):
            above = t
    verdict = order_verdict(below is None, above is None)
    return OlsonComparison(verdict, above if verdict == "less_or_equal" else below)


# -- regularization of monotone grid families --------------------------------


def left_regularize(
    algebra: EffectAlgebra,
    pairs: Sequence[tuple[Fraction, EffectElement]],
) -> StepResolution:
    """Sup-from-the-left closure of a monotone family known on a grid.

    The input lists the family's values at its grid points; off the grid
    it is zero strictly below and one strictly above, and jumps sit on
    the open side of each point.  The closure is then the left-continuous
    step with value w_i on (t_i, t_{i+1}], i.e. the unique step
    resolution whose open-interval values extend the input.  The first
    value must be zero; a second application is the identity.  Its closed
    values at the grid points are the right_regularize values, which are
    checked there once and packed by _pack_closed into the view's observable.
    """
    ts, closed = zip(*right_regularize(algebra, pairs))
    if pairs[0][1] != algebra.zero:
        raise NonMonotoneInput("family must start at 0")
    return _pack_closed(algebra, ts, [v.payload for v in closed]).resolution()


def right_regularize(
    algebra: EffectAlgebra,
    pairs: Sequence[tuple[Fraction, EffectElement]],
) -> tuple[tuple[Fraction, EffectElement], ...]:
    """Inf-from-the-right closure, evaluated at the same grid points.

    With jumps on the open side of each point, the inf over (t_i, inf)
    is attained just above t_i, so each value moves one knot to the
    left and the one-tail lands on the last point.  Applied after
    left_regularize this yields exactly the closed-interval family of
    the induced observable.
    """
    if not pairs:
        raise NonMonotoneInput("need at least one grid value")
    ts = tuple(_rational(t) for t, _ in pairs)
    ws = [w for _, w in pairs]
    _checked_chain(algebra, ts, ws, ("grid", "grid values"))
    return tuple(zip(ts, (*ws[1:], algebra.one)))


# -- meets and joins ----------------------------------------------------------


def _pointwise(algebra: EffectAlgebra, steps: Sequence[Sequence], lower: bool) -> list:
    """The backend's bound of each step's values and of the bound before:
    joins left to right from zero for a meet (lower), meets right to left
    from one for a join, up to the first step without one.  steps holds a
    row of values per grid point, and the bounds come back, in grid order.
    A bound missing a value of its row raises InvalidAlgebra; that the
    bounds rise is _pack_closed's check."""
    bound, le = algebra._bound, algebra._le
    v = algebra.zero.payload if lower else algebra.one.payload
    vals = []
    for row in steps if lower else reversed(steps):
        v = bound((*row, v), not lower)
        if v is None:
            break
        for p in row:
            if not (le(p, v) if lower else le(v, p)):
                name = "join_many" if lower else "meet_many"
                raise InvalidAlgebra(f"{name} does not bound its inputs; backend is inconsistent")
        vals.append(v)
    return vals if lower else vals[::-1]


def olson_meet(
    xs: Iterable[SimpleObservable],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BoundResult:
    """Greatest lower bound of a finite family in the spectral order: the
    event walk of _brute_force, through the backend's joins of the values
    that change.  The meet exists iff every step has its join, since at the
    first step without one the walk branches in place; so "exhaustive"
    comes only with exists false, and with the oracle's frontier.
    """
    return _brute_force(xs, cap, lower=True, oracle=False)


def olson_join(
    xs: Iterable[SimpleObservable],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BoundResult:
    """Least upper bound; dual of olson_meet in every respect, walked
    right to left over the values the members leave at the point after."""
    return _brute_force(xs, cap, lower=False, oracle=False)


# -- exhaustive oracles -------------------------------------------------------


# 2**(10c/3) > 10**c, as 2**10 > 10**3: a power of at least this many bits
# has over RATIONAL_DIGIT_CAP digits and prints as OVERSIZED
_PRINTABLE_BITS = 10 * RATIONAL_DIGIT_CAP // 3


def _check_cap(algebra: EffectAlgebra, size: int, cap: int) -> None:
    """Refuse a grid of size points when its |E|**(size-1) chains can exceed cap.

    With b one less than the bit length of |E|, the bound is at least
    2**(b * (size-1)).  When that exponent reaches both cap's bit length
    and _PRINTABLE_BITS, the bound exceeds cap and prints as OVERSIZED, so
    it is not formed: its size grows with |E|'s bits times the grid's.
    """
    n = algebra.size
    floor_bits = (n.bit_length() - 1) * (size - 1)
    if floor_bits >= max(cap.bit_length(), _PRINTABLE_BITS):
        shown = OVERSIZED
    else:
        bound = n ** (size - 1)
        if bound <= cap:
            return
        shown = _shown(bound, str)
    raise CertificationTooLarge(f"up to {shown} grid observables exceeds cap {cap}")


def enumerate_grid_observables(
    algebra: EffectAlgebra,
    grid: Sequence[Fraction],
    cap: int = DEFAULT_ENUMERATION_CAP,
):
    """Yield every observable supported inside the given grid.

    Observables with spectrum in a grid of k points correspond exactly
    to monotone chains c_1 <= ... <= c_k = one of closed-resolution
    values; zero jumps drop out in canonical form, so sub-grid spectra
    are included.  Raises CertificationTooLarge when the chain space
    can exceed cap.
    """
    pts = tuple(sorted({_rational(t) for t in grid}))
    if not pts:
        raise EmptyFamily("grid must be nonempty")
    _check_cap(algebra, len(pts), cap)
    # each value runs over the upper bounds of the last in elements() order,
    # so the chains come in depth-first enumeration order
    chains = [(algebra.zero.payload,)]
    for _ in pts[1:]:
        chains = [(*c, e) for c in chains for e in algebra._bounds(c[-1:], True)]
    for c in chains:
        yield _pack_closed(algebra, pts, [*c[1:], algebra.one.payload])


def _brute_force(xs: Iterable[SimpleObservable], cap: int, lower: bool,
                 oracle: bool = True) -> BoundResult:
    """Greatest lower (lower) or least upper bound among the grid
    observables; without one, the maximal lower or minimal upper bounds
    in enumeration order.

    On one grid the Olson order is the reversed pointwise order of the
    closed values, so a lower bound's chain takes at each point a value
    above the family's there, and it is maximal iff the chain is
    pointwise minimal among such chains.  If one of them, h, lies
    pointwise below g, so does g with its value at the first point where
    they differ lowered to h's; so g is minimal iff at each point its
    value is a minimal common upper bound of the family's values there
    and g's value at the point before (zero before the grid).  The walk
    builds exactly these chains, left to right, branching over the
    minimal bounds at each point.  Dually, an upper bound's value is a
    maximal common lower bound of the family's values and its value at
    the point after (one past the grid), walked right to left and sorted
    back into enumeration order.  The frontier is never empty, and in a
    finite set the only minimal chain, if there is just one, is the
    least, so the bound exists iff the walk never branches.

    The oracle's steps are the full rows.  Otherwise a step holds only
    the values that change, the new ones at t_j for a meet and for a join
    the ones left at t_{j+1}: every other member's value lies below (above)
    the chain's value before, so the bounds are the same.  That walk first
    takes the steps' pointwise bounds while they exist, each the step's
    only extremal bound; the oracle never calls _bound.
    """
    family = _family(xs)
    alg = family[0].algebra
    grid, groups = _events(family)
    zero, one = alg.zero.payload, alg.one.payload
    if oracle:
        vals, steps = [zero] * len(family), []  # the members' running values
        for group in groups:
            for mark in group:
                vals[mark[3]] = mark[6]
            steps.append(tuple(vals))
    elif lower:
        steps = [[mark[6] for mark in group] for group in groups]
    else:
        steps = [*([mark[5] for mark in group] for group in groups[1:]), ()]
    prefix = [] if oracle else _pointwise(alg, steps, lower)
    if len(prefix) == len(grid):
        return BoundResult(True, _pack_closed(alg, grid, prefix), "elementwise")
    _check_cap(alg, len(grid), cap)
    # every closed value at the last grid point is one, so the bound's is too:
    # a meet's walk stops before that point, and a join's starts past it
    if lower:
        chains, todo = [(zero, *prefix)], steps[len(prefix):-1]
    else:
        head = prefix[::-1] or [one]
        chains, todo = [(one, *head)], steps[::-1][len(head):]
    for row in todo:
        chains = [(*c, e) for c in chains for e in alg._extremes((*row, c[-1]), lower)]
    # payloads ascend in elements() order, so sorted payload chains are in enumeration order
    chains = [(*c[1:], one) for c in chains] if lower else sorted(c[:0:-1] for c in chains)
    frontier = [_pack_closed(alg, grid, c) for c in chains]
    if len(frontier) == 1:
        return BoundResult(True, frontier[0], "exhaustive")
    return BoundResult(False, None, "exhaustive", tuple(frontier))


def brute_force_meet(
    xs: Iterable[SimpleObservable],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BoundResult:
    """Certified meet by enumerating all observables on the merged grid.

    Sound and complete: every lower bound of the family has closed
    values that can be restricted to the merged grid without leaving
    the set of lower bounds or moving up past any of them, so a
    greatest lower bound exists among all bounded observables iff one
    exists among the grid observables.
    """
    return _brute_force(xs, cap, lower=True)


def brute_force_join(
    xs: Iterable[SimpleObservable],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BoundResult:
    """Certified join by enumeration; dual of brute_force_meet."""
    return _brute_force(xs, cap, lower=False)
