from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsonorder.algebras import MVChain, FiniteSetAlgebra, FiniteTribe
from olsonorder.errors import (
    InvalidAlgebra,
    MapUndefinedOnSpectrum,
    NonIncreasingPoints,
    NonMonotoneInput,
    ParseError,
    SpectrumOutsideUnitInterval,
    WeightsNotSummable,
)
from olsonorder.lattice import left_regularize, right_regularize
from olsonorder.observables import (
    BorelSetExpr,
    Interval,
    PiecewiseMap,
    SimpleObservable,
    StepResolution,
    from_closed_values,
    from_weights,
    question,
)

F = Fraction


def chain_observable(algebra, points, values):
    return from_closed_values(algebra, tuple(zip(points, values)))


def test_from_weights_validates(mv4):
    q = mv4.element(F(1, 4))
    h = mv4.element(F(1, 2))
    x = from_weights(mv4, (F(0), F(1)), (h, h))
    assert x.spectrum == (F(0), F(1))
    with pytest.raises(NonIncreasingPoints):
        from_weights(mv4, (F(1), F(0)), (h, h))
    with pytest.raises(WeightsNotSummable):
        from_weights(mv4, (F(0), F(1)), (mv4.element(F(3, 4)), h))
    with pytest.raises(WeightsNotSummable):
        from_weights(mv4, (F(0),), (q,))
    with pytest.raises(WeightsNotSummable):
        from_weights(mv4, (F(0), F(1)), (h,))


def test_zero_weights_dropped(mv4):
    x = from_weights(mv4, (F(0), F(1, 2), F(1)), (mv4.zero, mv4.element(F(1, 2)), mv4.element(F(1, 2))))
    assert x.spectrum == (F(1, 2), F(1))


def test_resolutions_step_through_spectrum(mv4):
    q = mv4.element(F(1, 4))
    h = mv4.element(F(1, 2))
    x = from_weights(mv4, (F(0), F(1, 2), F(1)), (q, q, h))
    assert x.resolution_open(F(0)) == mv4.zero
    assert x.resolution_closed(F(0)) == q
    assert x.resolution_open(F(1, 2)) == q
    assert x.resolution_closed(F(1, 2)) == h
    assert x.resolution_open(F(3, 4)) == h
    assert x.resolution_closed(F(1)) == mv4.one
    assert x.resolution_open(F(2)) == mv4.one
    res = x.resolution()
    assert res.open_at(F(1, 2)) == q and res.closed_at(F(1, 2)) == h


def test_evaluate_borel_expressions(set3):
    a, b, c = set3.subset((0,)), set3.subset((1,)), set3.subset((2,))
    x = from_weights(set3, (F(0), F(1, 2), F(1)), (a, b, c))
    assert x.evaluate(BorelSetExpr.point(F(1, 2))) == b
    assert x.evaluate(BorelSetExpr.below(F(1, 2))) == a
    assert x.evaluate(BorelSetExpr.below(F(1, 2), closed=True)) == set3.subset((0, 1))
    assert x.evaluate(BorelSetExpr.whole_line()) == set3.one
    assert x.evaluate(BorelSetExpr.empty()) == set3.zero
    band = BorelSetExpr.interval(F(1, 4), F(3, 4))
    assert x.evaluate(band) == b
    assert x.evaluate(band.complement()) == set3.subset((0, 2))


def test_apply_map_and_negate(mv4):
    q = mv4.element(F(1, 4))
    h = mv4.element(F(1, 2))
    x = from_weights(mv4, (F(0), F(1, 2), F(1)), (q, q, h))
    neg = x.negate()
    assert neg.spectrum == (F(0), F(1, 2), F(1))
    assert neg.resolution_closed(F(0)) == h
    assert neg.negate() == x
    doubled = x.apply_map(PiecewiseMap.identity())
    assert doubled == x
    const = x.apply_map(PiecewiseMap.constant(F(1, 2)))
    assert const == from_weights(mv4, (F(1, 2),), (mv4.one,))
    partial = PiecewiseMap(((Interval(None, F(1, 2)), F(1), F(0)),))
    with pytest.raises(MapUndefinedOnSpectrum):
        x.apply_map(partial)


def test_question_shape_and_sharpness(mv4, set2):
    q = question(mv4, mv4.element(F(1, 4)))
    assert q.spectrum == (F(0), F(1))
    assert q.question_element() == mv4.element(F(1, 4))
    assert question(mv4, mv4.zero).spectrum == (F(0),)
    assert question(mv4, mv4.one).spectrum == (F(1),)
    # in a Boolean algebra every observable is sharp
    for pts in ((0,), (1,), (0, 1)):
        assert question(set2, set2.subset(pts)).is_sharp_observable()
    # q_{1/4} has a fuzzy value, so it is not sharp
    assert not q.is_sharp_observable()


def test_from_closed_values_matches_resolution(mv4):
    q = mv4.element(F(1, 4))
    h = mv4.element(F(1, 2))
    x = chain_observable(mv4, (F(0), F(1, 2), F(1)), (q, h, mv4.one))
    assert x.resolution_closed(F(0)) == q
    assert x.resolution_closed(F(1, 2)) == h
    with pytest.raises(NonMonotoneInput):
        chain_observable(mv4, (F(0), F(1)), (h, q))
    with pytest.raises(WeightsNotSummable):
        chain_observable(mv4, (F(0), F(1)), (q, h))


def test_left_regularize_known_families(mv4):
    q = mv4.element(F(1, 4))
    h = mv4.element(F(1, 2))
    family = ((F(0), mv4.zero), (F(1, 2), q), (F(1), h))
    res = left_regularize(mv4, family)
    # the open resolution of the result extends the input family
    for t, w in family:
        assert res.open_at(t) == w
    assert res.closed_at(F(1)) == mv4.one
    again = left_regularize(
        mv4, tuple((t, res.open_at(t)) for t, _ in family)
    )
    assert again == res
    with pytest.raises(NonMonotoneInput):
        left_regularize(mv4, ((F(0), q), (F(1), h)))


def test_right_regularize_is_closed_form(mv4):
    q = mv4.element(F(1, 4))
    h = mv4.element(F(1, 2))
    family = ((F(0), mv4.zero), (F(1, 2), q), (F(1), h))
    left = left_regularize(mv4, family)
    right = right_regularize(mv4, family)
    x = left.to_observable()
    assert right == tuple((t, x.resolution_closed(t)) for t, _ in family)


@st.composite
def mv_observables(draw, n=4, max_points=4):
    algebra = MVChain(n)
    size = draw(st.integers(1, max_points))
    den = 8
    nums = sorted(draw(st.lists(st.integers(0, den), min_size=size, max_size=size, unique=True)))
    points = [F(k, den) for k in nums]
    levels = sorted(draw(st.lists(st.integers(0, n), min_size=size, max_size=size)))
    levels[-1] = n
    values = [algebra.element(F(k, n)) for k in levels]
    return from_closed_values(algebra, tuple(zip(points, values)))


@settings(max_examples=60, deadline=None)
@given(mv_observables())
def test_resolution_monotone_and_bounded(x):
    algebra = x.algebra
    pts = x.points
    samples = [pts[0] - 1, *pts, pts[-1] + 1]
    for a, b in zip(pts, pts[1:]):
        samples.append((a + b) / 2)
    samples.sort()
    prev_open = algebra.zero
    for t in samples:
        cur = x.resolution_open(t)
        assert algebra.leq(prev_open, cur)
        assert algebra.leq(cur, x.resolution_closed(t))
        prev_open = cur
    assert x.resolution_open(pts[0]) == algebra.zero
    assert x.resolution_closed(pts[-1]) == algebra.one


@settings(max_examples=60, deadline=None)
@given(mv_observables())
def test_double_negation_and_spectrum_flip(x):
    neg = x.negate()
    assert neg.negate() == x
    assert neg.spectrum == tuple(sorted(1 - t for t in x.spectrum))


# rationals with more digits than Python prints: the typed error's message
# must not fail while it is built
HUGE, TINY = F(10**5000), F(1, 10**5000)
_MV4 = MVChain(4)
_HALF = _MV4.element(F(1, 2))


@pytest.mark.parametrize("call, error", [
    (lambda: _MV4.element(HUGE), ParseError),
    (lambda: _MV4.element(TINY), ParseError),
    (lambda: SimpleObservable(_MV4, [HUGE, 0], [_MV4.one, _MV4.one]), NonIncreasingPoints),
    (lambda: StepResolution(_MV4, [HUGE, 0], [_MV4.zero, _HALF, _MV4.one]), NonIncreasingPoints),
    (lambda: from_closed_values(_MV4, ((HUGE, _HALF), (0, _MV4.one))), NonIncreasingPoints),
    (lambda: left_regularize(_MV4, ((HUGE, _MV4.zero), (0, _HALF))), NonIncreasingPoints),
    (lambda: SimpleObservable(_MV4, [HUGE], [_MV4.one]).negate(), SpectrumOutsideUnitInterval),
    (lambda: FiniteTribe(2, 4).element((TINY, 0)), ParseError),
    (lambda: FiniteTribe(2, 4).element((HUGE, 0)), ParseError),
    (lambda: FiniteTribe(1, 4, carrier=[(TINY,)]), InvalidAlgebra),
], ids=["mv_huge", "mv_tiny", "spectrum", "breakpoints", "closed_values", "regularize",
        "negate", "tribe_tiny", "tribe_huge", "tribe_carrier"])
def test_oversized_rationals_raise_typed_errors(call, error):
    start = time.perf_counter()
    with pytest.raises(error, match="rational of over 4300 digits"):
        call()
    assert time.perf_counter() - start < 1.0
