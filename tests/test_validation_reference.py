"""The validating entry points against a frozen copy of their checks.

Observables store one resolution (points and partial sums), StepResolution
is a view of it, and the chain checks of StepResolution, left_regularize
and right_regularize are one validator.  The functions prefixed ref_
below are copies of the checks as they stood when each entry point
validated on its own (StepResolution storing breakpoints and values);
they are kept frozen here.  Every generated input, valid or carrying one
or two defects, must get the same answer from both, or the same
exception type with the same message, once _since_frozen has moved the
frozen outcome to the two typed errors that replaced it later.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from olsonorder.algebras import _shown
from olsonorder.errors import (
    ElementForeignToAlgebra,
    InvalidAlgebra,
    NonIncreasingPoints,
    NonMonotoneInput,
    ParseError,
    WeightsNotSummable,
)
from olsonorder.lattice import left_regularize, right_regularize
from olsonorder.observables import (
    SimpleObservable,
    StepResolution,
    from_closed_values,
    from_weights,
    question,
)
from olsonorder.serialize import algebra_from_json
from olsonorder.suites import random_monotone_family, random_unit_grid

from conftest import load_fixture

F = Fraction
HUGE = F(10**5000)


def _rational(t):
    return t if type(t) is Fraction else Fraction(t)


# -- frozen checks -------------------------------------------------------------


def ref_simple(algebra, points, weights):
    pts = tuple(map(_rational, points))
    wts = tuple(weights)
    if len(pts) != len(wts):
        raise WeightsNotSummable("points and weights must pair up")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise NonIncreasingPoints(f"spectrum not strictly increasing: {_shown(pts)}")
    zero = algebra.zero.payload
    cums = [zero]
    for w in wts:
        p = algebra._payload(w)
        if p == zero:
            raise WeightsNotSummable("canonical observables carry no zero weights")
        nxt = algebra._add(cums[-1], p)
        if nxt is None:
            raise WeightsNotSummable("running weight sum is undefined")
        cums.append(nxt)
    if not wts or cums[-1] != algebra.one.payload:
        raise WeightsNotSummable("weights must sum to 1")
    return pts, wts


def ref_from_weights(algebra, points, weights):
    if len(points) != len(weights):
        raise WeightsNotSummable("points and weights must pair up")
    kept_p, kept_w = [], []
    for t, w in zip(points, weights):
        algebra._payload(w)
        if w != algebra.zero:
            kept_p.append(t)
            kept_w.append(w)
    return ref_simple(algebra, kept_p, kept_w)


def ref_question(algebra, a):
    algebra._payload(a)
    if a == algebra.zero:
        return ref_simple(algebra, (F(0),), (algebra.one,))
    if a == algebra.one:
        return ref_simple(algebra, (F(1),), (algebra.one,))
    return ref_simple(algebra, (F(0), F(1)), (algebra.complement(a), a))


def ref_from_closed_values(algebra, pairs):
    if not pairs:
        raise WeightsNotSummable("at least one grid value is needed")
    ts = [_rational(t) for t, _ in pairs]
    vals = [v for _, v in pairs]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise NonIncreasingPoints(f"grid not strictly increasing: {_shown(ts)}")
    if not all(map(algebra.leq, [algebra.zero, *vals], vals)):
        raise NonMonotoneInput("closed-resolution values must be nondecreasing")
    if vals[-1] != algebra.one:
        raise WeightsNotSummable("closed-resolution values must reach 1")
    points, weights, prev = [], [], algebra.zero
    for t, v in zip(ts, vals):
        if v != prev:
            points.append(t)
            weights.append(algebra.diff(v, prev))
            prev = v
    return tuple(points), tuple(weights)


def ref_step(algebra, breakpoints, values):
    pts = tuple(map(_rational, breakpoints))
    vals = tuple(values)
    if len(vals) != len(pts) + 1:
        raise InvalidAlgebra("step resolution needs one more value than breakpoints")
    if any(b <= a for a, b in zip(pts, pts[1:])):
        raise NonIncreasingPoints(f"breakpoints not strictly increasing: {_shown(pts)}")
    for v in vals:
        algebra._payload(v)
    for a, b in zip(vals, vals[1:]):
        if not algebra.leq(a, b):
            raise NonMonotoneInput("step values must be nondecreasing")
    if vals[0] != algebra.zero:
        raise NonMonotoneInput("resolution must start at 0")
    if vals[-1] != algebra.one:
        raise NonMonotoneInput("resolution must end at 1")
    keep_pts, keep_vals = [], [vals[0]]
    for t, v in zip(pts, vals[1:]):
        if v != keep_vals[-1]:
            keep_pts.append(t)
            keep_vals.append(v)
    return tuple(keep_pts), tuple(keep_vals)


def ref_grid_pairs(algebra, pairs):
    if not pairs:
        raise NonMonotoneInput("need at least one grid value")
    ts = tuple(_rational(t) for t, _ in pairs)
    ws = tuple(w for _, w in pairs)
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise NonIncreasingPoints(f"grid not strictly increasing: {_shown(ts)}")
    for w in ws:
        algebra._payload(w)
    for a, b in zip(ws, ws[1:]):
        if not algebra.leq(a, b):
            raise NonMonotoneInput("grid values must be nondecreasing")
    return ts, ws


def ref_left_regularize(algebra, pairs):
    ts, ws = ref_grid_pairs(algebra, pairs)
    if ws[0] != algebra.zero:
        raise NonMonotoneInput("family must start at 0")
    return ref_step(algebra, ts, (*ws, algebra.one))


def ref_right_regularize(algebra, pairs):
    ts, ws = ref_grid_pairs(algebra, pairs)
    return tuple(zip(ts, (*ws[1:], algebra.one)))


# -- the entry points, each answer read as plain tuples -------------------------


def _observable(x):
    return x.points, x.weights


def _steps(r):
    return r.breakpoints, r.values


ENTRIES = {
    "SimpleObservable": (lambda a, ts, vs: _observable(SimpleObservable(a, ts, vs)), ref_simple),
    "from_weights": (lambda a, ts, vs: _observable(from_weights(a, ts, vs)), ref_from_weights),
    "from_closed_values": (
        lambda a, ts, vs: _observable(from_closed_values(a, list(zip(ts, vs)))),
        lambda a, ts, vs: ref_from_closed_values(a, list(zip(ts, vs)))),
    "StepResolution": (lambda a, ts, vs: _steps(StepResolution(a, ts, vs)), ref_step),
    "left_regularize": (
        lambda a, ts, vs: _steps(left_regularize(a, list(zip(ts, vs)))),
        lambda a, ts, vs: ref_left_regularize(a, list(zip(ts, vs)))),
    "right_regularize": (
        lambda a, ts, vs: right_regularize(a, list(zip(ts, vs))),
        lambda a, ts, vs: ref_right_regularize(a, list(zip(ts, vs)))),
    "question": (lambda a, ts, vs: _observable(question(a, vs[0])),
                 lambda a, ts, vs: ref_question(a, vs[0])),
}


def _valid(entry, alg, elems, rng):
    """A valid (points, values) input of one entry point, repeats included."""
    grid = random_unit_grid(rng, rng.randint(1, 5))
    ts, chain = map(list, zip(*random_monotone_family(alg, grid, rng, elems)))
    closed = [*chain[1:], alg.one]
    if entry in ("SimpleObservable", "from_weights"):
        weights = [alg.diff(v, u) for u, v in zip([alg.zero, *closed], closed)]
        if entry == "SimpleObservable":
            ts, weights = map(list, zip(*[(t, w) for t, w in zip(ts, weights) if w != alg.zero]))
        return ts, weights
    if entry == "from_closed_values":
        return ts, closed
    if entry == "StepResolution":
        return ts, [alg.zero, *closed]
    if entry == "question":
        return ts, [rng.choice(elems)]
    return ts, chain


def _defect(alg, twin, elems, ts, vs, rng):
    """One defect: points out of order, unprintable or not rational; a value
    that is foreign, not an element or another element; one entry dropped;
    or everything dropped."""
    kind = rng.choice(("tie", "swap", "huge", "text", "foreign", "payload", "other",
                       "other", "drop_point", "drop_value", "empty"))
    i, j = rng.randrange(len(ts) or 1), rng.randrange(len(vs) or 1)
    if kind == "empty":
        return [], []
    if kind in ("tie", "swap", "huge", "text", "drop_point") and ts:
        if kind == "tie" and i:
            ts[i] = ts[i - 1]
        elif kind == "swap" and i:
            ts[i - 1], ts[i] = ts[i], ts[i - 1]
        elif kind == "huge":
            ts[i] = HUGE
        elif kind == "text":
            ts[i] = "x/0"
        elif kind == "drop_point":
            del ts[i]
    elif vs:
        if kind == "foreign":
            vs[j] = twin._wrap(rng.choice(elems).payload)
        elif kind == "payload":
            vs[j] = rng.choice(elems).payload
        elif kind == "other":
            vs[j] = rng.choice(elems)
        elif kind == "drop_value":
            del vs[j]
    return ts, vs


def _since_frozen(entry, alg, vs, outcome):
    """The frozen outcome, moved to the two typed errors that replaced it
    since: a point that Fraction refuses raises ParseError instead of
    Fraction's own error, and from_closed_values checks every value's
    ownership before their order, as the other entry points do."""
    if outcome == (ValueError, "Invalid literal for Fraction: 'x/0'"):
        return ParseError, "expected a rational number, got 'x/0'"
    if entry == "from_closed_values" and outcome[0] is NonMonotoneInput:
        for v in vs:
            try:
                alg._payload(v)
            except ElementForeignToAlgebra as exc:
                return type(exc), str(exc)
    return outcome


def _outcome(call, alg, ts, vs):
    try:
        return "ok", call(alg, ts, vs)
    except Exception as exc:  # every exception is compared, typed or not
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["mv_chain_4", "set_algebra_2", "table_block_cycle",
                                  "tribe_restricted"])
def test_entry_points_fail_as_the_frozen_checks(name):
    alg = algebra_from_json(load_fixture(name + ".json"))
    twin = algebra_from_json(load_fixture(name + ".json"))
    elems = list(alg.elements())
    rng = random.Random(name)
    seen = set()
    for entry, (call, ref) in ENTRIES.items():
        for defects in (0, 1, 2):
            for _ in range(60):
                ts, vs = _valid(entry, alg, elems, rng)
                for _ in range(defects):
                    ts, vs = _defect(alg, twin, elems, ts, vs, rng)
                got = _outcome(call, alg, list(ts), list(vs))
                want = _since_frozen(entry, alg, vs, _outcome(ref, alg, list(ts), list(vs)))
                assert got == want, (entry, ts, vs)
                seen.add(got[0])
    assert {"ok", NonIncreasingPoints, NonMonotoneInput, WeightsNotSummable,
            InvalidAlgebra, ElementForeignToAlgebra} <= seen
