"""Spectral (Olson) order, meets and joins of simple observables.

The order compares interval resolutions pointwise, inverted: x is below y
when y((-inf,t)) <= x((-inf,t)) for every real t.  All resolutions here
are step functions, constant between consecutive points of the merged
grid t_0 < ... < t_{n-1} (the sorted union of the spectra), so their
values below the grid, at each grid point, inside each gap and above the
grid are all there is to compare.  One pointer walk per observable reads
them off: when c_j of its spectral points lie at or below t_j, both
x((-inf,t_j]) and the value throughout the gap (t_j, t_{j+1}) are the
c_j-th partial weight sum, x((-inf,t_j)) is the c_{j-1}-th (zero for
j = 0), and the resolution is zero below the grid and one above it.

A join is a meet with the order reversed, so one code path serves both,
with the direction as its parameter and the backend's n-ary bound
(join_many for meets, meet_many for joins) as its pointwise step.  The
bound is computed two independent ways and cross-checked: at grid
points on open resolutions packaged through left_regularize, and inside
the gaps on closed resolutions (the finite form of the inf-from-the-right
regularization; a right-continuous step attains that inf throughout the
open gap).  When some pointwise bound does not exist in the backend,
existence is settled by exhaustive enumeration of all observables on
the merged grid, which is sound and complete: any lower or upper bound
can be moved onto the grid without leaving the bounding set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .algebras import EffectAlgebra, EffectElement
from .errors import (
    BackendMismatch,
    CertificationTooLarge,
    EmptyFamily,
    InvalidAlgebra,
    NonIncreasingPoints,
    NonMonotoneInput,
    SpectrumOutsideUnitInterval,
)
from .observables import (
    Interval,
    PiecewiseMap,
    SimpleObservable,
    StepResolution,
    _rational,
    from_closed_values,
    question,
)

DEFAULT_ENUMERATION_CAP = 100_000


@dataclass(frozen=True)
class OlsonComparison:
    """Two-sided comparison verdict with a refuting grid point.

    verdict is one of "equal", "less_or_equal", "greater_or_equal",
    "incomparable".  witness_t is a merged-grid point at which the
    defining inequality of a failed direction is refuted: the failed
    direction itself for one-sided verdicts, the left-to-right direction
    when both fail.  Equal comparisons carry no witness.
    """

    verdict: str
    witness_t: Fraction | None


@dataclass(frozen=True)
class BoundResult:
    """Outcome of olson_meet/olson_join or their brute-force oracles.

    certified is "elementwise" when the result came from pointwise
    backend bounds on the merged grid, "exhaustive" when it came from
    enumerating every observable on the grid.  When a meet or join does
    not exist, frontier holds the maximal lower bounds (respectively
    minimal upper bounds) found by the enumeration.
    """

    exists: bool
    observable: SimpleObservable | None
    certified: str
    frontier: tuple[SimpleObservable, ...] = ()


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
    pts: set[Fraction] = set()
    for x in xs:
        pts.update(x.points)
    return tuple(sorted(pts))


def _closed_on_grid(x: SimpleObservable, grid: Sequence[Fraction]) -> list[EffectElement]:
    """x((-inf, t_j]) for every t_j of a grid holding all of x's points.

    One walk: c counts x's points <= t_j, and the value is x._cums[c].
    The same value holds throughout the gap (t_j, t_{j+1}) and, for the
    last point, everywhere above the grid.
    """
    points, cums = x.points, x._cums
    c, last = 0, len(points)
    out = []
    for t in grid:
        if c < last and points[c] == t:
            c += 1
        out.append(cums[c])
    return out


def _open_on_grid(x: SimpleObservable, grid: Sequence[Fraction]) -> list[EffectElement]:
    """x((-inf, t_j)) for every t_j: zero, then the closed values one
    point down."""
    return [x._cums[0], *_closed_on_grid(x, grid)[:-1]]


def _sample_values(x: SimpleObservable, grid: Sequence[Fraction]):
    """Open and closed values of x at one point below the grid, at each
    grid point and inside each gap (the last gap is above the grid)."""
    closed = _closed_on_grid(x, grid)
    zero = x._cums[0]
    # the open value at t_j is the closed value at t_{j-1}
    return [zero, zero, *closed[:-1], *closed], [zero, *closed, *closed]


def _agreed(open_ok: bool, closed_ok: bool) -> bool:
    if open_ok != closed_ok:
        raise InvalidAlgebra(
            "open and closed interval tests disagree; backend order is inconsistent"
        )
    return open_ok


def olson_leq(x: SimpleObservable, y: SimpleObservable) -> bool:
    """x is spectrally below y: y((-inf,t)) <= x((-inf,t)) for all t.

    The equivalent closed-interval test runs alongside and both verdicts
    must agree; a split verdict means the backend order is broken.
    """
    xs = _family((x, y))
    leq = xs[0].algebra.leq
    grid = merged_grid(xs)
    x_open, x_closed = _sample_values(x, grid)
    y_open, y_closed = _sample_values(y, grid)
    open_ok = all(map(leq, y_open, x_open))
    closed_ok = all(map(leq, y_closed, x_closed))
    return _agreed(open_ok, closed_ok)


def order_verdict(fwd: bool, bwd: bool) -> str:
    """Two-sided verdict from the one-sided tests x <= y (fwd) and y <= x (bwd)."""
    if fwd and bwd:
        return "equal"
    if fwd:
        return "less_or_equal"
    return "greater_or_equal" if bwd else "incomparable"


def compare(x: SimpleObservable, y: SimpleObservable) -> OlsonComparison:
    """Both directions of olson_leq in one walk over the order samples.

    The witness is the first merged-grid point refuting y-below-x for
    less_or_equal, x-below-y otherwise.
    """
    xs = _family((x, y))
    leq = xs[0].algebra.leq
    grid = merged_grid(xs)
    x_open, x_closed = _sample_values(x, grid)
    y_open, y_closed = _sample_values(y, grid)
    # per sample: x-below-y open and closed, then y-below-x open and closed
    tests = [
        (leq(yo, xo), leq(yc, xc), leq(xo, yo), leq(xc, yc))
        for xo, yo, xc, yc in zip(x_open, y_open, x_closed, y_closed)
    ]
    fwd_open, fwd_closed, bwd_open, bwd_closed = map(all, zip(*tests))
    verdict = order_verdict(_agreed(fwd_open, fwd_closed), _agreed(bwd_open, bwd_closed))
    if verdict == "equal":
        return OlsonComparison(verdict, None)
    side = 2 if verdict == "less_or_equal" else 0
    for t, row in zip(grid, tests[1:]):
        if not (row[side] and row[side + 1]):
            return OlsonComparison(verdict, t)
    raise InvalidAlgebra("refuted comparison has no grid witness; order is inconsistent")


# -- regularization of monotone grid families --------------------------------


def _grid_pairs(
    algebra: EffectAlgebra,
    pairs: Sequence[tuple[Fraction, EffectElement]],
) -> tuple[tuple[Fraction, ...], tuple[EffectElement, ...]]:
    if not pairs:
        raise NonMonotoneInput("need at least one grid value")
    ts = tuple(_rational(t) for t, _ in pairs)
    ws = tuple(w for _, w in pairs)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise NonIncreasingPoints(f"grid not strictly increasing: {ts}")
    for w in ws:
        algebra._payload(w)
    for a, b in zip(ws, ws[1:]):
        if not algebra.leq(a, b):
            raise NonMonotoneInput("grid values must be nondecreasing")
    return ts, ws


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
    value must be zero; a second application is the identity.
    """
    ts, ws = _grid_pairs(algebra, pairs)
    if ws[0] != algebra.zero:
        raise NonMonotoneInput("family must start at 0")
    return StepResolution(algebra, ts, (*ws, algebra.one))


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
    ts, ws = _grid_pairs(algebra, pairs)
    shifted = (*ws[1:], algebra.one)
    return tuple(zip(ts, shifted))


# -- meets and joins ----------------------------------------------------------


def _pointwise(
    bound_many: Callable[[list[EffectElement]], EffectElement | None],
    columns: Sequence[Sequence[EffectElement]],
) -> list[EffectElement] | None:
    """bound_many of each grid row of the columns; None once one is missing."""
    vals = []
    for row in zip(*columns):
        v = bound_many(list(row))
        if v is None:
            return None
        vals.append(v)
    return vals


def _open_route(
    bound_many: Callable[[list[EffectElement]], EffectElement | None],
    xs: Sequence[SimpleObservable],
    grid: Sequence[Fraction],
) -> SimpleObservable | None:
    """Bounds of the open values at the grid points, packaged through
    left_regularize; grid must hold every spectral point of xs."""
    vals = _pointwise(bound_many, [_open_on_grid(x, grid) for x in xs])
    if vals is None:
        return None
    return left_regularize(xs[0].algebra, tuple(zip(grid, vals))).to_observable()


def _closed_route(
    bound_many: Callable[[list[EffectElement]], EffectElement | None],
    xs: Sequence[SimpleObservable],
    grid: Sequence[Fraction],
) -> SimpleObservable | None:
    """Bounds of the closed values inside the gaps (just above each grid
    point), packaged through from_closed_values; grid must hold every
    spectral point of xs."""
    vals = _pointwise(bound_many, [_closed_on_grid(x, grid) for x in xs])
    if vals is None:
        return None
    return from_closed_values(xs[0].algebra, tuple(zip(grid, vals)))


def _olson_bound(xs: Iterable[SimpleObservable], cap: int, lower: bool) -> BoundResult:
    """Meet (lower) or join of a family: both routes, cross-checked, with
    the enumeration oracle deciding when a pointwise bound is missing."""
    family = _family(xs)
    alg = family[0].algebra
    grid = merged_grid(family)
    pointwise = alg.join_many if lower else alg.meet_many
    via_open = _open_route(pointwise, family, grid)
    via_closed = _closed_route(pointwise, family, grid)
    if via_open is not None and via_closed is not None:
        if via_open != via_closed:
            bound, dual = ("meet", "joins") if lower else ("join", "meets")
            raise InvalidAlgebra(
                f"open and closed {bound} routes disagree; backend {dual} are inconsistent"
            )
        return BoundResult(True, via_open, "elementwise")
    oracle = brute_force_meet if lower else brute_force_join
    return oracle(family, cap=cap)


def olson_meet(
    xs: Iterable[SimpleObservable],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BoundResult:
    """Greatest lower bound of a finite family in the spectral order.

    Pointwise joins of the resolutions on the merged grid give the meet
    whenever every needed join exists in the backend; the open-interval
    and closed-interval computations must produce the same observable.
    If some pointwise join is missing, existence is settled by the
    exhaustive grid-observable oracle and its answer is returned.
    """
    return _olson_bound(xs, cap, lower=True)


def olson_join(
    xs: Iterable[SimpleObservable],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BoundResult:
    """Least upper bound; dual of olson_meet in every respect."""
    return _olson_bound(xs, cap, lower=False)


# -- exhaustive oracles -------------------------------------------------------


def _grid_chains(
    algebra: EffectAlgebra,
    size: int,
    cap: int,
    keep: Callable[[int, EffectElement], bool] | None = None,
):
    """Yield every monotone chain c_1 <= ... <= c_size = one of closed
    values on a grid of size points, as a tuple of elements.

    Chains come depth first, each c_j running through algebra.elements()
    in order.  keep(j, e), when given, admits e at point j (j < size - 1)
    and the walk yields exactly the chains of admitted values, in the
    same order.  Raises CertificationTooLarge when the unpruned chain
    space can exceed cap; the carrier is listed only after that check
    and only for grids of 2+ points.
    """
    bound = algebra.size ** (size - 1)
    if bound > cap:
        raise CertificationTooLarge(
            f"up to {bound} grid observables exceeds cap {cap}"
        )
    one = algebra.one
    if size == 1:
        yield (one,)
        return
    elems = tuple(algebra.elements())
    levels = [[e for e in elems if keep is None or keep(j, e)] for j in range(size - 1)]
    leq = algebra.leq

    def walk(chain, prev, j):
        if j == size - 1:
            yield (*chain, one)
            return
        for e in levels[j]:
            if leq(prev, e):
                yield from walk((*chain, e), e, j + 1)

    yield from walk((), algebra.zero, 0)


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
    for chain in _grid_chains(algebra, len(pts), cap):
        yield from_closed_values(algebra, tuple(zip(pts, chain)))


def _brute_force(xs: Iterable[SimpleObservable], cap: int, lower: bool) -> BoundResult:
    """Greatest lower (lower) or least upper bound among the grid
    observables; without one, the maximal lower or minimal upper bounds
    in enumeration order.

    On one grid the Olson order is the reversed pointwise order of the
    closed values, so the walk admits at each point only the values that
    bound the family's there, candidates compare as chains, and only the
    answer is built as an observable.
    """
    family = _family(xs)
    alg = family[0].algebra
    grid = merged_grid(family)
    leq = alg.leq

    def value_le(a: EffectElement, b: EffectElement) -> bool:
        # le on closed values: the carrier order, reversed for meets
        return leq(b, a) if lower else leq(a, b)

    def le(g: tuple, h: tuple) -> bool:
        # the order of the bound's direction on chains: reversed for joins
        return all(map(value_le, g, h))

    rows = list(zip(*(_closed_on_grid(x, grid) for x in family)))
    bounds = list(_grid_chains(
        alg, len(grid), cap, lambda j, e: all(value_le(e, v) for v in rows[j])
    ))
    # never empty: the least (greatest) grid observable bounds any family
    # from below (above); a greatest bound, if there is one, survives the scan
    best = bounds[0]
    for g in bounds[1:]:
        if le(best, g):
            best = g

    def build(chain: tuple) -> SimpleObservable:
        return from_closed_values(alg, tuple(zip(grid, chain)))

    if all(le(h, best) for h in bounds):
        return BoundResult(True, build(best), "exhaustive")
    frontier = tuple(
        build(g) for g in bounds if not any(g != h and le(g, h) for h in bounds)
    )
    return BoundResult(False, None, "exhaustive", frontier)


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


# -- involution lattice on unit-interval observables --------------------------


def _require_unit_spectrum(x: SimpleObservable) -> None:
    if x.points[0] < 0 or x.points[-1] > 1:
        raise SpectrumOutsideUnitInterval(
            f"involution needs spectra inside [0,1], got {x.points}"
        )


def involution_suite(x: SimpleObservable, y: SimpleObservable) -> dict[str, bool]:
    """Check the involution-lattice identities on a pair of unit-interval
    observables.

    Most checks are unconditional; the question items apply when an
    input is a two-valued question and hold vacuously otherwise.  The
    spread bounds use g(t)=min{t,1-t} and h(t)=max{t,1-t}: mapping a
    spectrum through a pointwise-smaller function can only move the
    observable down, so g(x) sits below both x and its reflection and
    h(x) above both.  The flipped readings fail already at two-point
    questions.  The degenerate variant max{1,1-t} collapses to the
    constant map 1 on the unit interval, so its upper-bound claim holds
    for every input; it is reported under its own key and nothing
    stronger is asserted for it.
    """
    family = _family((x, y))
    alg = family[0].algebra
    for z in family:
        _require_unit_spectrum(z)
    g_map = PiecewiseMap.min_t_one_minus_t()
    h_map = PiecewiseMap.max_t_one_minus_t()
    h_literal = PiecewiseMap((
        (Interval(None, Fraction(0)), Fraction(-1), Fraction(1)),
        (Interval(Fraction(0), None, True), Fraction(0), Fraction(1)),
    ))

    report: dict[str, bool] = {}
    nx, ny = x.negate(), y.negate()

    report["double_negation"] = nx.negate() == x and ny.negate() == y

    antitone = True
    if olson_leq(x, y):
        antitone = antitone and olson_leq(ny, nx)
    if olson_leq(y, x):
        antitone = antitone and olson_leq(nx, ny)
    report["antitone"] = antitone

    report["bounds_reflection"] = (
        question(alg, alg.zero).negate() == question(alg, alg.one)
        and question(alg, alg.one).negate() == question(alg, alg.zero)
    )

    meet_xy = olson_meet((x, y))
    join_xy = olson_join((x, y))
    meet_neg = olson_meet((nx, ny))
    join_neg = olson_join((nx, ny))
    de_morgan_meet = True
    if meet_xy.exists:
        de_morgan_meet = (
            join_neg.exists and meet_xy.observable.negate() == join_neg.observable
        )
    de_morgan_join = True
    if join_xy.exists:
        de_morgan_join = (
            meet_neg.exists and join_xy.observable.negate() == meet_neg.observable
        )
    report["de_morgan_meet"] = de_morgan_meet
    report["de_morgan_join"] = de_morgan_join

    question_negation = True
    for z, nz in ((x, nx), (y, ny)):
        a = z.question_element()
        if a is not None:
            question_negation = question_negation and nz == question(
                alg, alg.complement(a)
            )
    report["question_negation"] = question_negation

    question_lattice = True
    a, b = x.question_element(), y.question_element()
    if a is not None and b is not None:
        ab_meet = alg.meet(a, b)
        ab_join = alg.join(a, b)
        if ab_meet is not None:
            question_lattice = question_lattice and (
                meet_xy.exists and meet_xy.observable == question(alg, ab_meet)
            )
        if ab_join is not None:
            question_lattice = question_lattice and (
                join_xy.exists and join_xy.observable == question(alg, ab_join)
            )
        question_lattice = question_lattice and (
            olson_leq(x, y) == alg.leq(a, b)
        ) and (olson_leq(y, x) == alg.leq(b, a))
    report["question_lattice"] = question_lattice

    spread_meet = True
    spread_join = True
    spread_join_literal = True
    sharp_kernel = True
    for z, nz in ((x, nx), (y, ny)):
        self_meet = olson_meet((z, nz))
        self_join = olson_join((z, nz))
        if self_meet.exists:
            spread_meet = spread_meet and olson_leq(
                z.apply_map(g_map), self_meet.observable
            )
        if self_join.exists:
            spread_join = spread_join and olson_leq(
                self_join.observable, z.apply_map(h_map)
            )
            spread_join_literal = spread_join_literal and olson_leq(
                self_join.observable, z.apply_map(h_literal)
            )
        a = z.question_element()
        if a is not None and self_meet.exists:
            is_bottom = self_meet.observable == question(alg, alg.zero)
            sharp_kernel = sharp_kernel and (is_bottom == alg.is_sharp(a))
    report["spread_meet"] = spread_meet
    report["spread_join"] = spread_join
    report["spread_join_literal"] = spread_join_literal
    report["sharp_question_kernel"] = sharp_kernel
    return report
