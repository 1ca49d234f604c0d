from __future__ import annotations

import random
import re
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsonorder import hilbert
from olsonorder.algebras import MVChain, FiniteSetAlgebra, FiniteTribe, mo2_algebra
from olsonorder.errors import (
    ElementForeignToAlgebra,
    EmptyFamily,
    InvalidAlgebra,
    MapUndefinedOnSpectrum,
    NonIncreasingPoints,
    NonMonotoneInput,
    NotAnEffect,
    ParseError,
    SpectrumOutsideUnitInterval,
    SpectrumTooLargeForSharpnessScan,
    WeightsNotSummable,
)
from olsonorder.lattice import enumerate_grid_observables, left_regularize, right_regularize
from olsonorder.observables import (
    BorelSetExpr,
    Interval,
    PiecewiseMap,
    SimpleObservable,
    StepResolution,
    _rational,
    from_closed_values,
    from_weights,
    question,
)
from olsonorder.serialize import algebra_from_json
from olsonorder.suites import run_lattice_oracle

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


def test_chain_entry_points_check_ownership_before_order(mv4):
    # the chain falls before it reaches the foreign value: every entry
    # point names the foreign value, as the one chain validator checks
    # ownership first
    pairs = ((F(0), mv4.element(F(1, 2))), (F(1, 2), mv4.element(F(1, 4))),
             (F(1), MVChain(4).one))
    for entry in (from_closed_values, right_regularize):
        with pytest.raises(ElementForeignToAlgebra):
            entry(mv4, pairs)


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


def test_negate_matches_one_minus_t_on_random_families():
    # the reference reflects each point by Fraction arithmetic, 1 - t, and
    # the weights through the map t -> 1 - t
    alg = MVChain(6)
    rng = random.Random(6060)
    for _ in range(120):
        pool = {F(0), F(1), *(F(rng.randint(0, 12), 12) for _ in range(3))}
        for _ in range(rng.randint(0, 3)):
            den = 10**3999 + rng.randrange(10**3999)
            pool.add(F(rng.randrange(den + 1), den))
        points = sorted(rng.sample(sorted(pool), rng.randint(1, min(6, len(pool)))))
        levels = sorted(rng.randint(1, 6) for _ in points)
        levels[-1] = 6
        x = from_closed_values(alg, [(t, alg.element(F(k, 6))) for t, k in zip(points, levels)])
        neg = x.negate()
        want = [1 - t for t in reversed(x.points)]
        assert [(t.numerator, t.denominator) for t in neg.points] == [
            (t.numerator, t.denominator) for t in want]
        assert all(type(t) is Fraction for t in neg.points)
        assert neg == x.apply_map(PiecewiseMap.one_minus_t())
        assert neg.negate() == x
    tiny = F(1, 10**50)
    for points in ([-tiny, F(1, 2)], [F(1, 2), 1 + tiny], [-tiny, 1 + tiny]):
        with pytest.raises(SpectrumOutsideUnitInterval):
            SimpleObservable(alg, points, [alg.element(F(3, 6))] * 2).negate()


# rationals with more digits than Python prints: the typed error's message
# must not fail while it is built; the scalars off the grid after them keep
# the whole message that names them
HUGE, TINY = F(10**5000), F(1, 10**5000)
OVER = "rational of over 4300 digits"
_MV4 = MVChain(4)
_HALF = _MV4.element(F(1, 2))


@pytest.mark.parametrize("call, error, message", [
    (lambda: _MV4.element(HUGE), ParseError, OVER),
    (lambda: _MV4.element(TINY), ParseError, OVER),
    (lambda: SimpleObservable(_MV4, [HUGE, 0], [_MV4.one, _MV4.one]), NonIncreasingPoints, OVER),
    (lambda: StepResolution(_MV4, [HUGE, 0], [_MV4.zero, _HALF, _MV4.one]), NonIncreasingPoints,
     OVER),
    (lambda: from_closed_values(_MV4, ((HUGE, _HALF), (0, _MV4.one))), NonIncreasingPoints, OVER),
    (lambda: left_regularize(_MV4, ((HUGE, _MV4.zero), (0, _HALF))), NonIncreasingPoints, OVER),
    (lambda: SimpleObservable(_MV4, [HUGE], [_MV4.one]).negate(), SpectrumOutsideUnitInterval,
     OVER),
    (lambda: FiniteTribe(2, 4).element((TINY, 0)), ParseError, OVER),
    (lambda: FiniteTribe(2, 4).element((HUGE, 0)), ParseError, OVER),
    (lambda: FiniteTribe(1, 4, carrier=[(TINY,)]), InvalidAlgebra, OVER),
    (lambda: _MV4.element(F(-1, 4)), ParseError, "-1/4 is not a multiple of 1/4 in [0,1]"),
    (lambda: _MV4.element("5/4"), ParseError, "5/4 is not a multiple of 1/4 in [0,1]"),
    (lambda: _MV4.element_from_json("1/3"), ParseError, "1/3 is not a multiple of 1/4 in [0,1]"),
    (lambda: FiniteTribe(2, 4).element(("1/3", 0)), ParseError,
     "value Fraction(1, 3) is not a multiple of 1/4 in [0,1]"),
    (lambda: FiniteTribe(1, 4, carrier=[(F(0),), (1,)]), InvalidAlgebra,
     "value 1 is not a multiple of 1/4 in [0,1]"),
], ids=["mv_huge", "mv_tiny", "spectrum", "breakpoints", "closed_values", "regularize",
        "negate", "tribe_tiny", "tribe_huge", "tribe_carrier", "mv_negative", "mv_above_one",
        "mv_third", "tribe_third", "tribe_carrier_int"])
def test_oversized_rationals_raise_typed_errors(call, error, message):
    start = time.perf_counter()
    with pytest.raises(error, match=re.escape(message)):
        call()
    assert time.perf_counter() - start < 1.0


_NAN, _INF = float("nan"), float("inf")
_X = SimpleObservable(_MV4, [0, 1], [_HALF, _HALF])


@pytest.mark.parametrize("call", [
    lambda: SimpleObservable(_MV4, [_NAN], [_MV4.one]),
    lambda: SimpleObservable(_MV4, [None], [_MV4.one]),
    lambda: StepResolution(_MV4, [-_INF], [_MV4.zero, _MV4.one]),
    lambda: from_closed_values(_MV4, (("1/0", _MV4.one),)),
    lambda: right_regularize(_MV4, ((_INF, _MV4.zero),)),
    lambda: _X.resolution_open("x"),
    lambda: _X.resolution_closed(_INF),
    lambda: _X.resolution_closed([1]),
    lambda: list(enumerate_grid_observables(_MV4, [0, _NAN])),
    lambda: PiecewiseMap.identity().evaluate(_NAN),
    lambda: Interval(F(0), F(1)).contains("a"),
    lambda: Interval(F(0), F(1)).contains(_INF),
    lambda: run_lattice_oracle(_MV4, grid=["a"]),
], ids=["nan_point", "none_point", "minus_inf_breakpoint", "zero_denominator",
        "inf_grid", "text_lookup", "inf_lookup", "list_lookup", "nan_grid",
        "nan_map_point", "text_interval_point", "inf_interval_point", "text_oracle_grid"])
def test_points_that_are_no_rationals_raise_parse_errors(call):
    with pytest.raises(ParseError, match="expected a rational number"):
        call()


@pytest.mark.parametrize("call, want", [
    (lambda: _rational("1e5000000"), None),
    (lambda: _rational("1E-5000000"), None),
    (lambda: SimpleObservable(_MV4, ["2e99999"], [_MV4.one]), None),
    (lambda: PiecewiseMap.identity().evaluate("1e5000000"), None),
    (lambda: Interval(F(0), F(1)).contains("1e5000000"), None),
    (lambda: PiecewiseMap.identity().evaluate(0.5), F(1, 2)),
    (lambda: Interval(F(0), F(1)).contains("1/2"), True),
    (lambda: _rational(Decimal("1e5000000")), None),
    (lambda: _rational(Decimal("1e-5000000")), None),
    (lambda: _rational(Decimal("0.25")), F(1, 4)),
], ids=["exponent", "negative_exponent", "spectrum_exponent", "map_point_exponent",
        "interval_point_exponent", "float_map_point", "text_interval_point",
        "decimal_exponent", "decimal_negative_exponent", "decimal"])
def test_points_are_read_as_rationals(call, want):
    # a string's or Decimal's exponent is refused before Fraction computes
    # 10**exponent
    start = time.perf_counter()
    if want is None:
        with pytest.raises(ParseError, match="exponent above 4300"):
            call()
    else:
        got = call()
        assert got == want and type(got) is type(want)
    assert time.perf_counter() - start < 0.5


# -- Borel sets and spectrum maps, checked point by point ---------------------

_ENDS = [F(k, 2) for k in range(-4, 5)]
# every endpoint, preimage of an endpoint and point between two of them
# in the drawn data is some k/8 here
_PROBES = [F(k, 8) for k in range(-80, 81)]


def _draw_interval(rng):
    while True:
        lo, hi = (None if rng.random() < 0.15 else rng.choice(_ENDS) for _ in "lh")
        try:
            return Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
        except ParseError:
            pass


def _draw_set(rng):
    return BorelSetExpr(_draw_interval(rng) for _ in range(rng.randrange(5)))


def _draw_map(rng):
    """Pieces between sorted cuts, each cut held by the piece on its left,
    on its right or by neither; some pieces dropped, so maps may be partial."""
    cuts = [None, *sorted(rng.sample(_ENDS, rng.randrange(4))), None]
    sides = [rng.randrange(3) for _ in cuts]
    pieces = []
    for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if rng.random() < 0.8:
            iv = Interval(lo, hi, sides[i] == 1, sides[i + 1] == 0)
            p = rng.choice((F(0), F(1), F(-1), F(2), F(-1, 2)))
            pieces.append((iv, p, rng.choice(_ENDS)))
    rng.shuffle(pieces)
    return PiecewiseMap(pieces)


def _assert_canonical(expr):
    # sorted, disjoint and not touching: two pieces that meet at a point
    # both leave it out
    for a, b in zip(expr.pieces, expr.pieces[1:]):
        assert a.hi is not None and b.lo is not None
        assert a.hi < b.lo or (a.hi == b.lo and not a.hi_closed and not b.lo_closed)


def test_set_operations_match_pointwise_membership():
    rng = random.Random(2024)
    for _ in range(150):
        a, b = _draw_set(rng), _draw_set(rng)
        union, meet, comp = a.union(b), a.intersect(b), a.complement()
        for expr in (a, union, meet, comp):
            _assert_canonical(expr)
        for t in _PROBES:
            in_a, in_b = a.contains(t), b.contains(t)
            assert union.contains(t) == (in_a or in_b)
            assert meet.contains(t) == (in_a and in_b)
            assert comp.contains(t) != in_a
        assert comp.complement() == a


def test_preimage_holds_the_points_mapped_into_the_set():
    rng = random.Random(4048)
    for _ in range(150):
        mapping, target = _draw_map(rng), _draw_set(rng)
        pulled = mapping.preimage(target)
        _assert_canonical(pulled)
        for t in _PROBES:
            try:
                want = target.contains(mapping.evaluate(t))
            except MapUndefinedOnSpectrum:
                want = False
            assert pulled.contains(t) == want


def test_borel_inputs_raise_parse_errors():
    with pytest.raises(ParseError, match=r"^empty interval \(1, 0\)$"):
        Interval(F(1), F(0), True, True)
    with pytest.raises(ParseError, match="empty interval"):
        Interval(F(1), F(1), True, False)
    with pytest.raises(ParseError, match="empty interval"):
        BorelSetExpr.interval(2, 2)
    with pytest.raises(ParseError, match=r"^map pieces overlap: \(-inf, 1\] and \[1, 2\)$"):
        PiecewiseMap((
            (Interval(None, F(1), False, True), F(1), F(0)),
            (Interval(F(1), F(2), True, False), F(0), F(0)),
        ))
    # endpoints too long to print still get the typed error
    with pytest.raises(ParseError, match="rational of over 4300 digits"):
        Interval(HUGE, F(0))
    with pytest.raises(ParseError, match="rational of over 4300 digits"):
        PiecewiseMap(((Interval(F(0), HUGE), F(1), F(0)), (Interval(F(1), F(2)), F(1), F(0))))


# every scalar of the Borel layer is read as its exact Fraction or refused
_SCALARS = (
    lambda rng: F(rng.randint(-8, 8), rng.randint(1, 4)),
    lambda rng: rng.randint(-3, 3),
    lambda rng: rng.choice((-1.5, -0.25, 0.0, 0.1, 0.5, 2.0)),
    lambda rng: rng.choice((_NAN, _INF, -_INF)),
    lambda rng: rng.choice(("1/2", "-3", "0.75", " 2 ", "1e1", "a", "", "1/0", "nan", "inf")),
    lambda rng: None,
)
_TARGET = BorelSetExpr((Interval(F(-1), F(0), True, False), Interval(F(1, 2), None, True)))
# (call, arity, whether None is an infinite endpoint there)
_BOREL_CALLS = (
    (lambda a, b: Interval(a, b, True, False), 2, True),
    (lambda a, b: BorelSetExpr.interval(a, b, False, True), 2, True),
    (lambda a: BorelSetExpr.point(a), 1, False),
    (lambda a: BorelSetExpr.below(a, True), 1, False),
    (lambda a: _TARGET.contains(a), 1, False),
    (lambda a, b: PiecewiseMap(((Interval(None, F(1)), a, b),)).preimage(_TARGET), 2, False),
    (lambda a: PiecewiseMap.constant(a).preimage(_TARGET), 1, False),
)


def _borel_outcome(call, args):
    try:
        got = call(*args)
    except ParseError:
        return ParseError
    for iv in (got,) if isinstance(got, Interval) else getattr(got, "pieces", ()):
        assert all(e is None or type(e) is F for e in (iv.lo, iv.hi)), args
    return repr(got)


def test_borel_scalars_answer_exactly_or_raise_parse_errors():
    rng = random.Random(5150)
    for _ in range(3000):
        call, arity, none_is_infinite = rng.choice(_BOREL_CALLS)
        args = [rng.choice(_SCALARS)(rng) for _ in range(arity)]
        try:
            exact = [None if a is None and none_is_infinite else F(a) for a in args]
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            assert _borel_outcome(call, args) is ParseError, args
            continue
        assert _borel_outcome(call, args) == _borel_outcome(call, exact), args


def test_typed_errors_of_lookups_literals_grids_and_scans_carry_their_messages():
    mv21 = MVChain(21)
    scan = from_weights(mv21, range(21), [mv21.element(F(1, 21))] * 21)
    cases = [
        (lambda: mo2_algebra().element(6), ParseError, "table element index 6 out of range"),
        (lambda: algebra_from_json({"kind": "tribe", "omega": 2, "den": 4, "carrier": [1, 2]}),
         ParseError, "tribe 'carrier' must be an array of value arrays"),
        (lambda: next(enumerate_grid_observables(MVChain(4), [])), EmptyFamily,
         "grid must be nonempty"),
        (lambda: hilbert.negate(np.diag([2.0, 0.0])), NotAnEffect,
         "negation is defined on effects"),
        (scan.is_sharp_observable, SpectrumTooLargeForSharpnessScan,
         "spectrum size 21 exceeds scan cap 20"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message
