"""The fast paths of the exact core against their reference definitions.

The grid walk is checked against the sampling reference: every
resolution is looked up by bisection at one point below the merged grid,
at each grid point, at the midpoint of each gap and at one point above
the grid.  olson_leq, compare (verdict and witness) and both meet/join
routes must give the same answers as the reference on seeded families
over every shipped exact backend fixture and on hypothesis-drawn chain
families.

The pruned chain walk of brute_force_meet/brute_force_join is checked
against the enumeration reference: every observable on the merged grid
is built, the family's bounds are kept by olson_leq, and the frontier
keeps enumeration order.  Answers, frontier order, refusals and their
messages must agree.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from olsonorder.algebras import MVChain
from olsonorder.errors import InvalidAlgebra, OlsonOrderError
from olsonorder.lattice import (
    DEFAULT_ENUMERATION_CAP,
    BoundResult,
    _closed_route,
    _open_route,
    brute_force_join,
    brute_force_meet,
    compare,
    enumerate_grid_observables,
    left_regularize,
    merged_grid,
    olson_leq,
    order_verdict,
)
from olsonorder.observables import from_closed_values, question
from olsonorder.serialize import algebra_from_json

from conftest import load_fixture
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
    for bound_many in (alg.join_many, alg.meet_many):
        assert _open_route(bound_many, xs, grid) == _ref_open_route(bound_many, xs, grid), xs
        assert _closed_route(bound_many, xs, grid) == _ref_closed_route(bound_many, xs, grid), xs


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


# -- brute force ----------------------------------------------------------------


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
