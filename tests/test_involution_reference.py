"""involution_suite against a frozen copy of its first form.

ref_involution_suite below is a copy of involution_suite as it
stood when every meet/join law was written out as two mirrored blocks
and the order tests and the bottom and top questions were recomputed
where each law used them; it is kept frozen here.  On every pair of
question observables of four backends, on seeded grid pairs where a
meet or join is missing, and on inputs that raise, both must return the
same report (the same keys in the same order, the same values) or raise
the same exception type with the same message.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from olsonorder.algebras import (
    MVChain,
    _shown,
    block_cycle_algebra,
    mo2_algebra,
    restricted_sum_tribe,
)
from olsonorder.errors import (
    BackendMismatch,
    CertificationTooLarge,
    OlsonOrderError,
    SpectrumOutsideUnitInterval,
)
from olsonorder.lattice import olson_join, olson_leq, olson_meet
from olsonorder.observables import Interval, PiecewiseMap, from_weights, question
from olsonorder.suites import involution_suite, random_grid_observable, random_unit_grid

F = Fraction


# -- frozen copy ---------------------------------------------------------------


def ref_involution_suite(x, y) -> dict[str, bool]:
    if x.algebra is not y.algebra:
        raise BackendMismatch("observables live over different backends")
    alg = x.algebra
    for z in (x, y):
        if z.points[0] < 0 or z.points[-1] > 1:
            raise SpectrumOutsideUnitInterval(
                f"involution needs spectra inside [0,1], got {_shown(z.points)}"
            )
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


# -- comparison ------------------------------------------------------------------


def _outcome(suite, x, y):
    """The report as an ordered item list, or the type and message raised."""
    try:
        return list(suite(x, y).items())
    except OlsonOrderError as exc:
        return type(exc), str(exc)


def _same(x, y):
    want = _outcome(ref_involution_suite, x, y)
    assert _outcome(involution_suite, x, y) == want, (x, y)
    return want


BACKENDS = {
    "block_cycle": block_cycle_algebra,
    "mo2": mo2_algebra,
    "restricted_tribe": restricted_sum_tribe,
    "mv4": lambda: MVChain(4),
}


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_every_question_pair_matches_the_frozen_suite(name):
    algebra = BACKENDS[name]()
    qs = [question(algebra, a) for a in algebra.elements()]
    outcomes = [_same(x, y) for x, y in itertools.product(qs, repeat=2)]
    # every pair answers; on the tables some law inputs have no meet
    assert all(isinstance(o, list) for o in outcomes)


def test_grid_pairs_without_a_bound_match_the_frozen_suite():
    # mo2 and the restricted tribe order their carriers as lattices, and
    # seeded grid pairs there always have both bounds; block_cycle does not
    algebra = block_cycle_algebra()
    elems = list(algebra.elements())
    rng = random.Random(31)
    missing = 0
    for _ in range(2000):
        x = random_grid_observable(algebra, random_unit_grid(rng, 3), rng, elems)
        y = random_grid_observable(algebra, random_unit_grid(rng, 2), rng, elems)
        try:
            if olson_meet((x, y)).exists and olson_join((x, y)).exists:
                continue
        except CertificationTooLarge:
            pass
        missing += 1
        _same(x, y)
    assert missing >= 20


def test_lattice_grid_pairs_match_the_frozen_suite(mv8):
    rng = random.Random(5)
    elems = list(mv8.elements())
    for _ in range(60):
        x = random_grid_observable(mv8, random_unit_grid(rng, 4), rng, elems)
        y = random_grid_observable(mv8, random_unit_grid(rng, 5), rng, elems)
        assert all(v for _, v in _same(x, y))


class _LyingBounds(MVChain):
    """The n-ary bound answers with its first input, for joins and meets."""

    def _bound(self, payloads, lower):
        return payloads[0]


def test_raised_errors_match_the_frozen_suite(mv4):
    q = question(mv4, mv4.element(F(1, 4)))
    wide = from_weights(mv4, (F(0), F(2)), (mv4.element(F(1, 2)), mv4.element(F(1, 2))))
    fresh = MVChain(4)
    other = question(fresh, fresh.one)
    # four-point grids on the 18-element table: where a bound is missing on a
    # merged grid of five or more points, 18**4 grid chains exceed the cap
    cycle = block_cycle_algebra()
    rng = random.Random(1)
    elems = list(cycle.elements())
    big = [random_grid_observable(cycle, random_unit_grid(rng, 4), rng, elems) for _ in range(160)]
    lying = _LyingBounds(4)
    q1, q3 = (question(lying, lying.element(F(k, 4))) for k in (1, 3))
    cases = [(q, wide), (wide, q), (q, other), (q3, q1)] + list(zip(big[::2], big[1::2]))
    raised = {o[0].__name__ for o in (_same(x, y) for x, y in cases) if isinstance(o, tuple)}
    assert raised == {
        "SpectrumOutsideUnitInterval", "BackendMismatch", "InvalidAlgebra", "CertificationTooLarge"
    }
