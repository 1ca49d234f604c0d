"""The fast paths of the exact core against their reference definitions.

The one-sort event pass over a family's spectra is checked, grid point
and jump by jump, against merged_grid and the bisection reference
closed_on_grid (in routes.py, with the full-row meet/join routes) on
families drawn from a pool of shared, negative, integer, float-tied,
out-of-float-range and tiny points.  The grid walk is checked against
the sampling reference: every resolution is looked up by bisection at
one point below the merged grid, at each grid point, at the midpoint of
each gap and at one point above the grid.  olson_leq, compare (verdict
and witness), both full-row routes and olson_meet/olson_join wherever
the pointwise bounds exist
must give the same answers as the reference on seeded families over
every shipped exact backend fixture and on hypothesis-drawn chain
families.

The frontier walk of brute_force_meet/brute_force_join is checked
against the enumeration reference: every observable on the merged grid
is built, the family's bounds are kept by olson_leq, and the frontier
keeps enumeration order.  Answers, frontier order, refusals and their
messages must agree.  The enumeration itself is checked against the
leq-monotone tuples of the carrier, listed by itertools.product.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from olsonorder import lattice
from olsonorder.algebras import FiniteSetAlgebra, FiniteTribe, MVChain, QuotientBooleanAlgebra
from olsonorder.errors import InvalidAlgebra, OlsonOrderError
from olsonorder.lattice import (
    DEFAULT_ENUMERATION_CAP,
    BoundResult,
    _events,
    brute_force_join,
    brute_force_meet,
    compare,
    enumerate_grid_observables,
    left_regularize,
    merged_grid,
    olson_join,
    olson_leq,
    olson_meet,
    order_verdict,
)
from olsonorder.observables import SimpleObservable, from_closed_values, question
from olsonorder.serialize import algebra_from_json

from conftest import load_fixture
from routes import closed_on_grid, closed_route, open_route
from test_golden import BACKENDS, CAP, POINTS, _draw

F = Fraction


def _samples(grid):
    mids = [(a + b) / 2 for a, b in zip(grid, grid[1:])]
    return (grid[0] - 1, *grid, *mids, grid[-1] + 1)


def _ref_tests(x, y):
    """Per sample: x-below-y open and closed, then y-below-x open and closed."""
    leq = x.algebra.leq
    rows = []
    for t in _samples(merged_grid((x, y))):
        xo, yo = x.resolution_open(t), y.resolution_open(t)
        xc, yc = x.resolution_closed(t), y.resolution_closed(t)
        rows.append((leq(yo, xo), leq(yc, xc), leq(xo, yo), leq(xc, yc)))
    return rows


def _ref_leq(x, y) -> bool:
    open_ok, closed_ok = map(all, list(zip(*_ref_tests(x, y)))[:2])
    if open_ok != closed_ok:
        raise InvalidAlgebra("open and closed tests disagree")
    return open_ok


def _ref_compare(x, y):
    verdict = order_verdict(_ref_leq(x, y), _ref_leq(y, x))
    if verdict == "equal":
        return verdict, None
    side = 2 if verdict == "less_or_equal" else 0
    grid = merged_grid((x, y))
    rows = _ref_tests(x, y)[1:1 + len(grid)]
    return verdict, next(t for t, row in zip(grid, rows) if not (row[side] and row[side + 1]))


def _ref_open_route(bound_many, xs, grid):
    vals = [bound_many([x.resolution_open(t) for x in xs]) for t in grid]
    if None in vals:
        return None
    return left_regularize(xs[0].algebra, tuple(zip(grid, vals))).to_observable()


def _ref_closed_route(bound_many, xs, grid):
    inside = _samples(grid)[1 + len(grid):]
    vals = [bound_many([x.resolution_closed(s) for x in xs]) for s in inside]
    if None in vals:
        return None
    return from_closed_values(xs[0].algebra, tuple(zip(grid, vals)))


def _assert_agree(xs):
    alg = xs[0].algebra
    for x in xs:
        for y in xs:
            assert olson_leq(x, y) == _ref_leq(x, y), (x, y)
            got = compare(x, y)
            assert (got.verdict, got.witness_t) == _ref_compare(x, y), (x, y)
    grid = merged_grid(xs)
    # meets (lower) take pointwise joins, joins take pointwise meets
    for lower, bound_many, bound in (
        (True, alg.join_many, olson_meet),
        (False, alg.meet_many, olson_join),
    ):
        ref_open = _ref_open_route(bound_many, xs, grid)
        ref_closed = _ref_closed_route(bound_many, xs, grid)
        assert open_route(xs, grid, lower) == ref_open, xs
        assert closed_route(xs, grid, lower) == ref_closed, xs
        refs = [ref for ref in (ref_open, ref_closed) if ref is not None]
        if refs:
            got = bound(xs)
            assert all(got == BoundResult(True, ref, "elementwise") for ref in refs), xs


def test_walk_matches_reference_on_every_fixture_backend():
    one_point = 0
    for seed, (name, count, questions) in enumerate(BACKENDS):
        alg = algebra_from_json(load_fixture(name + ".json"))
        elems = list(alg.elements())
        rng = random.Random(4242 + seed)
        for _ in range(count):
            xs = tuple(_draw(alg, elems, rng, questions) for _ in range(rng.choice((1, 2, 3))))
            one_point += sum(len(x.points) == 1 for x in xs)
            _assert_agree(xs)
    assert one_point > 0


@st.composite
def chain_families(draw, n=4):
    algebra = MVChain(n)
    out = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        nums = sorted(draw(st.lists(st.integers(-6, 10), min_size=size, max_size=size, unique=True)))
        levels = sorted(draw(st.lists(st.integers(0, n), min_size=size, max_size=size)))
        levels[-1] = n
        values = [algebra.element(F(k, n)) for k in levels]
        out.append(from_closed_values(algebra, tuple(zip([F(k, 3) for k in nums], values))))
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(chain_families())
def test_walk_matches_reference_on_chain_families(xs):
    _assert_agree(xs)


# -- the merge ------------------------------------------------------------------

# distinct rationals whose floats tie (1/3 and 1/3 + 10^-400, 2^53 and
# 2^53 + 1), rationals beyond the float range on both sides (their float
# conversion overflows) and below its resolution, around shared small points
_BIG = 10**400
MERGE_POOL = tuple(sorted({
    F(0), F(1), F(-1), F(2), F(-3), F(1, 2), F(-1, 2),
    F(1, 3), F(1, 3) + F(1, _BIG), F(1, 3) - F(1, _BIG), F(-1, 3),
    F(2**53), F(2**53 + 1),
    F(_BIG), F(-_BIG), F(_BIG + 1),
    F(2**1024 - 1), F(2**1024 + 1), F(-(2**1024 - 1)), F(-(2**1024 + 1)),
    F(1, _BIG), F(-1, _BIG), F(2, _BIG),
}))


@st.composite
def pooled_families(draw, n=4):
    algebra = MVChain(n)
    out = []
    for _ in range(draw(st.integers(1, 4))):
        points = sorted(draw(st.sets(st.sampled_from(MERGE_POOL), min_size=1, max_size=6)))
        levels = sorted(draw(st.lists(st.integers(0, n), min_size=len(points),
                                      max_size=len(points))))
        levels[-1] = n
        values = [algebra.element(F(k, n)) for k in levels]
        out.append(from_closed_values(algebra, tuple(zip(points, values))))
    return tuple(out)


@settings(max_examples=200, deadline=None)
@given(pooled_families())
def test_merge_matches_merged_grid_and_walk(xs):
    _assert_merge_matches_reference(xs)


def _pooled_observable(algebra, rng, points):
    n = algebra.n
    levels = sorted(rng.randint(0, n) for _ in points)
    levels[-1] = n
    values = [algebra.element(F(k, n)) for k in levels]
    return from_closed_values(algebra, tuple(zip(sorted(points), values)))


def _assert_events_match_reference(xs, grid, groups):
    """The event pass against merged_grid and closed_on_grid: each grid
    point's group holds, in member order, the members with a spectral point
    there, each with its closed values one point down (zero below the grid)
    and at the point."""
    assert tuple(grid) == merged_grid(xs)
    assert all(type(t) is Fraction for t in grid)
    zero = xs[0].algebra.zero.payload
    columns = [tuple(closed_on_grid(x, grid)) for x in xs]
    assert len(groups) == len(grid)
    for j, (t, group) in enumerate(zip(grid, groups)):
        assert [mark[3] for mark in group] == [m for m, x in enumerate(xs) if t in x.points]
        for _, _, _, m, point, old, new in group:
            assert point == t and (old, new) == ((zero, *columns[m])[j], columns[m][j])


def _assert_merge_matches_reference(xs):
    _assert_events_match_reference(xs, *_events(xs))


def test_merge_matches_reference_on_large_families():
    # 100-500 members drawing from a few shared points, with and without
    # the float collisions of MERGE_POOL
    algebra = MVChain(4)
    shared = tuple(F(k, 7) for k in range(-3, 10))
    rng = random.Random(1313)
    for members in (100, 250, 500):
        for pool in (shared, sorted({*shared, *MERGE_POOL})):
            xs = tuple(
                _pooled_observable(algebra, rng, rng.sample(pool, rng.randint(1, 6)))
                for _ in range(members)
            )
            _assert_merge_matches_reference(xs)


def _chain_observable(algebra, ups, rng, points):
    """A random observable with spectrum inside points: a random walk up
    the carrier, one at the last point."""
    cur, values = algebra.zero, []
    for _ in points[1:]:
        cur = rng.choice(ups[cur])
        values.append(cur)
    return from_closed_values(algebra, tuple(zip(sorted(points), (*values, algebra.one))))


def test_event_walk_matches_the_closed_route_on_lattice_backends():
    # families of 1-512 members on shared points, with and without the
    # float collisions of MERGE_POOL: the walk bounds only the values that
    # change, the closed route every full row
    shared = tuple(F(k, 7) for k in range(-3, 10))
    for seed, algebra in enumerate((MVChain(8), FiniteSetAlgebra(3), FiniteTribe(2, 4),
                                    QuotientBooleanAlgebra(4, (1, 3)))):
        elems = list(algebra.elements())
        ups = {a: [b for b in elems if algebra.leq(a, b)] for a in elems}
        rng = random.Random(3030 + seed)
        for members in (1, 2, 3, 16, 128, 512):
            for pool in (shared, sorted({*shared, *MERGE_POOL})):
                xs = tuple(
                    _chain_observable(algebra, ups, rng, rng.sample(pool, rng.randint(1, 6)))
                    for _ in range(members)
                )
                grid = merged_grid(xs)
                for lower, bound in ((True, olson_meet), (False, olson_join)):
                    want = BoundResult(True, closed_route(xs, grid, lower), "elementwise")
                    assert bound(xs) == want, (algebra, members, lower)


def _merge_passes(monkeypatch, xs) -> list[bool]:
    """The exact flag of each grouping pass _events makes on xs."""
    passes = []
    group = lattice._group

    def spy(marks, exact):
        passes.append(exact)
        return group(marks, exact)

    monkeypatch.setattr(lattice, "_group", spy)
    _assert_merge_matches_reference(xs)
    monkeypatch.undo()
    return passes


def test_float_collisions_take_the_exact_sort(monkeypatch):
    algebra = MVChain(4)
    third, top = F(1, 3), F(2**1024)
    pairs = (
        (third - F(1, _BIG), third, third + F(1, _BIG)),
        (F(2**53), F(2**53 + 1)),
        (top - 1, top + 1),
        (-top - 1, -top + 1),
    )
    rng = random.Random(77)
    for points in pairs:
        # one member per colliding point, sharing the points 0 and 1 with
        # the others, and one member holding them all
        xs = tuple(_pooled_observable(algebra, rng, [F(0), t, F(1)]) for t in points)
        xs += (_pooled_observable(algebra, rng, points),)
        assert _merge_passes(monkeypatch, xs) == [False, True]
    # shared points and distinct floats: one pass
    xs = tuple(_pooled_observable(algebra, rng, [F(0), F(k, 5), F(1)]) for k in range(1, 5))
    assert _merge_passes(monkeypatch, xs) == [False]


def test_merge_of_long_denominators_is_fast():
    # two observables over 400 points each, every point with its own
    # 4,000-digit denominator; their floats tie pairwise at the integers
    alg = MVChain(400)
    weights = [alg.element(F(1, 400))] * 400
    xs = tuple(
        SimpleObservable(alg, [k + F(shift, 10**3999 + 4 * k + 2 * shift - 1) for k in range(400)],
                         weights)
        for shift in (1, 2)
    )
    start = time.perf_counter()
    grid, groups = _events(xs)
    assert time.perf_counter() - start < 1.0
    assert len(grid) == 800 and len(groups) == 800
    _assert_events_match_reference(xs, grid, groups)


# -- brute force ----------------------------------------------------------------


def test_enumeration_matches_the_monotone_tuples_of_the_carrier():
    # independent of the walk: every tuple of carrier elements, kept when
    # leq-monotone, with one appended, in itertools.product order
    for name, _, _ in BACKENDS:
        alg = algebra_from_json(load_fixture(name + ".json"))
        elems = list(alg.elements())
        for k in (1, 2, 3):
            grid = (F(0), F(1, 2), F(1))[:k]
            expected = [
                from_closed_values(alg, tuple(zip(grid, (*vals, alg.one))))
                for vals in itertools.product(elems, repeat=k - 1)
                if all(map(alg.leq, vals, vals[1:]))
            ]
            got = list(enumerate_grid_observables(alg, grid, cap=DEFAULT_ENUMERATION_CAP))
            assert got == expected, (name, k)


def _ref_brute_force(xs, cap, lower):
    grid = merged_grid(xs)

    def le(g, h):
        return olson_leq(g, h) if lower else olson_leq(h, g)

    bounds = [
        g
        for g in enumerate_grid_observables(xs[0].algebra, grid, cap=cap)
        if all(le(g, x) for x in xs)
    ]
    for g in bounds:
        if all(le(h, g) for h in bounds):
            return BoundResult(True, g, "exhaustive")
    frontier = tuple(g for g in bounds if not any(g != h and le(g, h) for h in bounds))
    return BoundResult(False, None, "exhaustive", frontier)


def _outcome(fn):
    try:
        return fn()
    except OlsonOrderError as exc:
        return type(exc), str(exc)


def _assert_brute_force_agrees(xs, cap):
    """Both directions against the reference; returns the outcomes."""
    seen = []
    for lower, fast in ((True, brute_force_meet), (False, brute_force_join)):
        got = _outcome(lambda: fast(xs, cap=cap))
        assert got == _outcome(lambda: _ref_brute_force(xs, cap, lower)), (lower, xs)
        seen.append(got)
    return seen


def test_brute_force_matches_reference_on_every_fixture_backend():
    outcomes = []
    for seed, (name, count, questions) in enumerate(BACKENDS):
        alg = algebra_from_json(load_fixture(name + ".json"))
        elems = list(alg.elements())
        rng = random.Random(5151 + seed)
        for _ in range(count):
            xs = tuple(_draw(alg, elems, rng, questions) for _ in range(rng.choice((1, 2, 3))))
            outcomes += _assert_brute_force_agrees(xs, CAP)
    assert any(isinstance(got, tuple) for got in outcomes)  # refusals


def test_brute_force_frontiers_match_reference_where_bounds_are_missing():
    frontiers = 0
    for name in ("table_mo2", "table_block_cycle"):
        alg = algebra_from_json(load_fixture(name + ".json"))
        elems = list(alg.elements())
        for i, a in enumerate(elems):
            for b in elems[i + 1:]:
                if alg.meet(a, b) is not None and alg.join(a, b) is not None:
                    continue
                xs = (question(alg, a), question(alg, b))
                for got in _assert_brute_force_agrees(xs, DEFAULT_ENUMERATION_CAP):
                    frontiers += not got.exists
                    assert got.exists or len(got.frontier) >= 2
    assert frontiers > 0


@st.composite
def table_families(draw):
    name = draw(st.sampled_from(("table_mo2", "table_block_cycle")))
    alg = TABLES[name]
    elems = list(alg.elements())
    out = []
    for _ in range(draw(st.integers(1, 3))):
        grid = sorted(draw(st.sets(st.sampled_from(POINTS), min_size=1, max_size=3)))
        cur, vals = alg.zero, []
        for _ in grid[1:]:
            ups = [e for e in elems if alg.leq(cur, e)]
            cur = ups[draw(st.integers(0, len(ups) - 1))]
            vals.append(cur)
        vals.append(alg.one)
        out.append(from_closed_values(alg, tuple(zip(grid, vals))))
    return tuple(out)


TABLES = {
    name: algebra_from_json(load_fixture(name + ".json"))
    for name in ("table_mo2", "table_block_cycle")
}


@settings(max_examples=120, deadline=None)
@given(table_families(), st.sampled_from((CAP, DEFAULT_ENUMERATION_CAP)))
def test_brute_force_matches_reference_on_table_families(xs, cap):
    _assert_brute_force_agrees(xs, cap)


def test_scanned_chain_levels_match_the_reference_off_lattices():
    # a table flagged as a lattice takes the order-scan branch of
    # _extremes that lattice backends take; off a lattice a point's
    # minimal (maximal) bounds are not unique, so that branch can branch
    frontiers = 0
    for name in ("table_mo2", "table_block_cycle"):
        alg = algebra_from_json(load_fixture(name + ".json"))
        alg.lattice_guaranteed = True
        elems = list(alg.elements())
        families = [(question(alg, a), question(alg, b)) for a in elems for b in elems]
        rng = random.Random(6262)
        families += [tuple(_draw(alg, elems, rng, 0.0) for _ in range(2)) for _ in range(40)]
        for xs in families:
            for got in _assert_brute_force_agrees(xs, CAP):
                frontiers += isinstance(got, BoundResult) and len(got.frontier) > 1
    assert frontiers > 0

