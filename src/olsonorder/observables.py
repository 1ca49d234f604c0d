"""Simple observables and their interval resolutions.

A simple observable over an effect algebra E is a finite spectrum
u_1 < ... < u_k of rationals with nonzero weights a_i in E summing to 1.
It is equivalently described by its open-interval resolution

    x((-inf, t)) = 0             for t <= u_1,
                 = a_1 + ... + a_i  for u_i < t <= u_{i+1},
                 = 1             for t > u_k,

a left-continuous monotone step function, or by the closed-interval
values x((-inf, t]) obtained by sampling just above t.  SimpleObservable
stores it once, as the points and the payloads of the partial sums; the
weights are read from it and StepResolution is a view of it.

All scalars are `fractions.Fraction`; Borel sets are finite unions of
rational intervals, and spectrum maps are piecewise affine with rational
coefficients, so every operation here is exact, including evaluate,
apply_map and preimage.

An interval is stored on the order of Dedekind cuts: the cut (t, 0) sits
just below t and (t, 1) just above it, and (-inf, 1) and (inf, 0) are
the two ends of the line.  An interval is the cut range start <= c < end
(a closed lower end a starts at (a, 0), an open one at (a, 1); a closed
upper end b ends at (b, 1), an open one at (b, 0)) and holds t iff
start <= (t, 0) < end.  So emptiness, intersection (the larger start,
the smaller end), the merge of a union (while the next start is at most
the current end), the complement (the gaps between consecutive cuts)
and a preimage (t -> p*t + q moves each cut, and p < 0 reverses them and
flips each side) are each one comparison of cuts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence

from .algebras import EffectAlgebra, EffectElement, _check_exponent, _shown
from .errors import (
    InvalidAlgebra,
    MapUndefinedOnSpectrum,
    NonIncreasingPoints,
    NonMonotoneInput,
    ParseError,
    SpectrumOutsideUnitInterval,
    SpectrumTooLargeForSharpnessScan,
    WeightsNotSummable,
)

SHARPNESS_SCAN_CAP = 20


def _rational(t) -> Fraction:
    """t as a Fraction; a Fraction passes through without a new object.
    What Fraction refuses (NaN, infinities, non-numbers) and a string or
    Decimal whose exponent exceeds RATIONAL_DIGIT_CAP raise ParseError."""
    if type(t) is Fraction:
        return t
    if isinstance(t, (str, Decimal)):
        _check_exponent(str(t))
    try:
        return Fraction(t)
    except (ValueError, OverflowError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"expected a rational number, got {_shown(t)}") from exc


_INF = float("inf")
_ENDS = (-_INF, _INF)


def _pulled(cut, p: Fraction, q: Fraction):
    """The cut that t -> p*t + q (p nonzero) sends onto cut: its point moves
    to (c - q)/p, and when p < 0 reverses the order its side flips."""
    c, side = cut
    if p > 0:
        return (c if c in _ENDS else (c - q) / p, side)
    return (-c if c in _ENDS else (c - q) / p, 1 - side)


class Interval:
    """One rational interval; None endpoints are infinite and always open,
    the others are read by _rational."""

    __slots__ = ("start", "end")

    def __init__(self, lo: Fraction | None, hi: Fraction | None,
                 lo_closed: bool = False, hi_closed: bool = False) -> None:
        self.start = (-_INF, 1) if lo is None else (_rational(lo), 0 if lo_closed else 1)
        self.end = (_INF, 0) if hi is None else (_rational(hi), 1 if hi_closed else 0)
        if self.end <= self.start:
            raise ParseError(f"empty interval ({_shown(lo, str)}, {_shown(hi, str)})")

    @classmethod
    def _cut(cls, start, end) -> "Interval | None":
        """The interval of the cut range [start, end), None when it is empty."""
        if end <= start:
            return None
        iv = object.__new__(cls)
        iv.start, iv.end = start, end
        return iv

    lo = property(lambda self: None if self.start[0] in _ENDS else self.start[0])
    hi = property(lambda self: None if self.end[0] in _ENDS else self.end[0])
    lo_closed = property(lambda self: self.start[1] == 0)
    hi_closed = property(lambda self: self.end[1] == 1)

    def contains(self, t: Fraction) -> bool:
        # start <= (t, 0) < end, one comparison of t per end
        t = _rational(t)
        (a, s), (b, e) = self.start, self.end
        return (a < t if s else a <= t) and (t <= b if e else t < b)

    def intersect(self, other: "Interval") -> "Interval | None":
        return Interval._cut(max(self.start, other.start), min(self.end, other.end))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.start, self.end) == (other.start, other.end)

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        lo = "(-inf" if self.lo is None else ("[" if self.lo_closed else "(") + str(self.lo)
        hi = "inf)" if self.hi is None else str(self.hi) + ("]" if self.hi_closed else ")")
        return f"{lo}, {hi}"


class BorelSetExpr:
    """Finite union of rational intervals, kept sorted, disjoint and merged."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Interval] = ()) -> None:
        merged: list[Interval] = []
        for piece in sorted(pieces, key=attrgetter("start")):
            # overlapping, or touching at a point one of them holds
            if merged and piece.start <= merged[-1].end:
                if merged[-1].end < piece.end:
                    merged[-1] = Interval._cut(merged[-1].start, piece.end)
            else:
                merged.append(piece)
        self.pieces = tuple(merged)

    @classmethod
    def empty(cls) -> "BorelSetExpr":
        return cls(())

    @classmethod
    def whole_line(cls) -> "BorelSetExpr":
        return cls((Interval(None, None),))

    @classmethod
    def interval(cls, lo: Fraction | int | None, hi: Fraction | int | None,
                 lo_closed: bool = False, hi_closed: bool = False) -> "BorelSetExpr":
        return cls((Interval(lo, hi, lo_closed, hi_closed),))

    @classmethod
    def point(cls, t: Fraction | int) -> "BorelSetExpr":
        t = _rational(t)
        return cls((Interval(t, t, True, True),))

    @classmethod
    def below(cls, t: Fraction | int, closed: bool = False) -> "BorelSetExpr":
        return cls((Interval(None, _rational(t), False, closed),))

    def contains(self, t: Fraction | int) -> bool:
        t = _rational(t)
        return any(piece.contains(t) for piece in self.pieces)

    def union(self, other: "BorelSetExpr") -> "BorelSetExpr":
        return BorelSetExpr(self.pieces + other.pieces)

    def complement(self) -> "BorelSetExpr":
        """The gaps before, between and after the pieces."""
        cuts = [(-_INF, 1), *(c for iv in self.pieces for c in (iv.start, iv.end)), (_INF, 0)]
        return BorelSetExpr(filter(None, map(Interval._cut, cuts[::2], cuts[1::2])))

    def intersect(self, other: "BorelSetExpr") -> "BorelSetExpr":
        pairs = (a.intersect(b) for a in self.pieces for b in other.pieces)
        return BorelSetExpr(filter(None, pairs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BorelSetExpr):
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self) -> int:
        return hash(self.pieces)

    def __repr__(self) -> str:
        if not self.pieces:
            return "BorelSetExpr(empty)"
        return "BorelSetExpr(" + " u ".join(repr(p) for p in self.pieces) + ")"


class PiecewiseMap:
    """Piecewise affine rational map of the real line.

    Pieces are pairwise disjoint intervals, each carrying t -> p*t + q.
    The map needs to cover only the points it is evaluated at; evaluation
    outside every piece raises MapUndefinedOnSpectrum.  The coefficients
    are read by _rational.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple[Interval, Fraction, Fraction]]) -> None:
        items = tuple((iv, _rational(p), _rational(q)) for iv, p, q in pieces)
        for i, (iv_a, _, _) in enumerate(items):
            for iv_b, _, _ in items[i + 1:]:
                if iv_a.intersect(iv_b) is not None:
                    raise ParseError(f"map pieces overlap: {_shown(iv_a)} and {_shown(iv_b)}")
        self.pieces = items

    @classmethod
    def identity(cls) -> "PiecewiseMap":
        return cls(((Interval(None, None), Fraction(1), Fraction(0)),))

    @classmethod
    def constant(cls, c: Fraction | int) -> "PiecewiseMap":
        return cls(((Interval(None, None), Fraction(0), c),))

    @classmethod
    def one_minus_t(cls) -> "PiecewiseMap":
        return cls(((Interval(None, None), Fraction(-1), Fraction(1)),))

    @classmethod
    def min_t_one_minus_t(cls) -> "PiecewiseMap":
        """t on (-inf, 1/2], 1 - t above: the pointwise min of t and 1-t."""
        half = Fraction(1, 2)
        return cls((
            (Interval(None, half, False, True), Fraction(1), Fraction(0)),
            (Interval(half, None, False, False), Fraction(-1), Fraction(1)),
        ))

    @classmethod
    def max_t_one_minus_t(cls) -> "PiecewiseMap":
        """1 - t on (-inf, 1/2], t above: the pointwise max of t and 1-t."""
        half = Fraction(1, 2)
        return cls((
            (Interval(None, half, False, True), Fraction(-1), Fraction(1)),
            (Interval(half, None, False, False), Fraction(1), Fraction(0)),
        ))

    def evaluate(self, t: Fraction) -> Fraction:
        t = _rational(t)
        for iv, p, q in self.pieces:
            if iv.contains(t):
                return p * t + q
        raise MapUndefinedOnSpectrum(f"map undefined at {t}")

    def preimage(self, target: BorelSetExpr) -> BorelSetExpr:
        """Exact preimage of a Borel set expression, one affine piece at a time."""
        out: list[Interval] = []
        for iv, p, q in self.pieces:
            if p == 0:
                if target.contains(q):
                    out.append(iv)
                continue
            for span in target.pieces:
                ends = sorted((_pulled(span.start, p, q), _pulled(span.end, p, q)))
                got = Interval._cut(*ends).intersect(iv)
                if got is not None:
                    out.append(got)
        return BorelSetExpr(out)


class StepResolution:
    """Left-continuous monotone step data of one observable, as a view of it.

    breakpoints t_1 < ... < t_n and values v_0 <= ... <= v_n with
    v_0 = 0 and v_n = 1; the function is v_i on (t_i, t_{i+1}] with
    t_0 = -inf and t_{n+1} = +inf.  Construction checks the data and
    packs the observable it views, dropping breakpoints without a jump.
    """

    __slots__ = ("_x",)

    def __init__(
        self,
        algebra: EffectAlgebra,
        breakpoints: Sequence[Fraction],
        values: Sequence[EffectElement],
    ) -> None:
        pts = tuple(map(_rational, breakpoints))
        vals = tuple(values)
        if len(vals) != len(pts) + 1:
            raise InvalidAlgebra("step resolution needs one more value than breakpoints")
        payloads = _checked_chain(algebra, pts, vals, ("breakpoints", "step values"))
        if payloads[0] != algebra.zero.payload:
            raise NonMonotoneInput("resolution must start at 0")
        if payloads[-1] != algebra.one.payload:
            raise NonMonotoneInput("resolution must end at 1")
        # v_i is the closed value at t_i
        self._x = _pack_closed(algebra, pts, payloads[1:])

    algebra = property(lambda self: self._x.algebra)
    breakpoints = property(lambda self: self._x.points)
    values = property(lambda self: tuple(map(self._x.algebra._wrap, self._x._cums)))

    def open_at(self, t: Fraction | int) -> EffectElement:
        """Value of x((-inf, t))."""
        return self._x.resolution_open(t)

    def closed_at(self, t: Fraction | int) -> EffectElement:
        """Value of x((-inf, t])."""
        return self._x.resolution_closed(t)

    def to_observable(self) -> "SimpleObservable":
        return self._x

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepResolution):
            return NotImplemented
        return self._x == other._x

    def __hash__(self) -> int:
        return hash(self._x)

    def __repr__(self) -> str:
        steps = ", ".join(
            f"{t}:{self.algebra.format_element(v)}"
            for t, v in zip(self.breakpoints, self.values[1:])
        )
        return f"StepResolution({steps})"


class SimpleObservable:
    """A finitely supported observable in canonical form.

    points are strictly increasing rationals and _cums the payloads of the
    partial weight sums 0 = c_0 < ... < c_k = 1, from which the nonzero
    weights are read.  Instances are immutable value objects; equality is
    canonical (same backend instance, same points, same partial sums).
    """

    __slots__ = ("algebra", "points", "_cums")

    def __init__(
        self,
        algebra: EffectAlgebra,
        points: Sequence[Fraction | int],
        weights: Sequence[EffectElement],
    ) -> None:
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
        self.algebra = algebra
        self.points = pts
        self._cums = tuple(cums)

    @classmethod
    def _from_cums(
        cls,
        algebra: EffectAlgebra,
        points: Sequence[Fraction],
        cums: Sequence,
    ) -> "SimpleObservable":
        """Trusted constructor for values the library computed itself.

        points are strictly increasing Fractions and cums the payloads of
        strictly increasing closed values 0 = c_0 < ... < c_k = 1 of the
        algebra, one more than points; nothing is checked.
        """
        self = object.__new__(cls)
        self.algebra = algebra
        self.points = tuple(points)
        self._cums = tuple(cums)
        return self

    @property
    def weights(self) -> tuple[EffectElement, ...]:
        """The point masses: weight i is the one _diff c_i - c_{i-1}."""
        alg, cums = self.algebra, self._cums
        return tuple(map(alg._wrap, map(alg._diff, cums[1:], cums)))

    # -- resolutions ------------------------------------------------------

    @property
    def spectrum(self) -> tuple[Fraction, ...]:
        return self.points

    def resolution(self) -> StepResolution:
        """The step-resolution view of this observable, not checked again."""
        view = object.__new__(StepResolution)
        view._x = self
        return view

    def resolution_open(self, t: Fraction | int) -> EffectElement:
        """x((-inf, t)): sum of weights strictly below t."""
        return self.algebra._wrap(self._cums[bisect_left(self.points, _rational(t))])

    def resolution_closed(self, t: Fraction | int) -> EffectElement:
        """x((-inf, t]): sum of weights at or below t."""
        return self.algebra._wrap(self._cums[bisect_right(self.points, _rational(t))])

    # -- set and map actions ----------------------------------------------

    def evaluate(self, borel: BorelSetExpr) -> EffectElement:
        got = self.algebra.sum(
            w for t, w in zip(self.points, self.weights) if borel.contains(t)
        )
        if got is None:
            raise InvalidAlgebra("subfamily sum undefined; backend is inconsistent")
        return got

    def apply_map(self, mapping: PiecewiseMap) -> "SimpleObservable":
        """Image observable under a piecewise affine map of the spectrum."""
        buckets: dict[Fraction, EffectElement] = {}
        for t, w in zip(self.points, self.weights):
            image = mapping.evaluate(t)
            if image in buckets:
                merged = self.algebra.add(buckets[image], w)
                if merged is None:
                    raise InvalidAlgebra("image weight sum undefined; backend inconsistent")
                buckets[image] = merged
            else:
                buckets[image] = w
        pts = sorted(buckets)
        return SimpleObservable(self.algebra, pts, [buckets[t] for t in pts])

    def negate(self) -> "SimpleObservable":
        """Reflect the spectrum through t -> 1 - t; needs spectrum inside [0,1]."""
        pts, alg = self.points, self.algebra
        # n/d lies in [0,1] iff 0 <= n <= d, and 1 - n/d = (d - n)/d in lowest terms
        if pts[0]._numerator < 0 or pts[-1]._numerator > pts[-1]._denominator:
            raise SpectrumOutsideUnitInterval(
                f"negation needs spectrum in [0,1], got {_shown(pts)}"
            )
        # the mass at or below 1 - u_j is the complement of the mass below u_j
        return SimpleObservable._from_cums(
            alg,
            [Fraction(t._denominator - t._numerator, t._denominator) for t in reversed(pts)],
            [alg.zero.payload, *map(alg._complement, reversed(self._cums[:-1]))],
        )

    # -- predicates ---------------------------------------------------------

    def is_sharp_observable(self) -> bool:
        """True when every subset sum of the weights is sharp (2^k scan)."""
        if len(self.points) > SHARPNESS_SCAN_CAP:
            raise SpectrumTooLargeForSharpnessScan(
                f"spectrum size {len(self.points)} exceeds scan cap {SHARPNESS_SCAN_CAP}"
            )
        sums = {self.algebra.zero}
        for w in self.weights:
            extra = set()
            for s in sums:
                nxt = self.algebra.add(s, w)
                if nxt is None:
                    raise InvalidAlgebra("subset sum undefined; backend inconsistent")
                extra.add(nxt)
            sums |= extra
        return all(self.algebra.is_sharp(s) for s in sums)

    def question_element(self) -> EffectElement | None:
        """The generating element when this observable is a yes-no question."""
        alg = self.algebra
        if self.points == (Fraction(0),):
            return alg.zero
        if self.points == (Fraction(1),):
            return alg.one
        if self.points == (Fraction(0), Fraction(1)):
            return self.weights[1]
        return None

    # -- value-object plumbing ---------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleObservable):
            return NotImplemented
        return (self.algebra is other.algebra
                and self.points == other.points
                and self._cums == other._cums)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.points, self._cums))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{t}:{self.algebra.format_element(w)}"
            for t, w in zip(self.points, self.weights)
        )
        return f"SimpleObservable({pairs})"


def from_weights(
    algebra: EffectAlgebra,
    points: Sequence[Fraction | int],
    weights: Sequence[EffectElement],
) -> SimpleObservable:
    """Canonical observable from possibly zero-padded weight data."""
    if len(points) != len(weights):
        raise WeightsNotSummable("points and weights must pair up")
    kept_p, kept_w = [], []
    for t, w in zip(points, weights):
        algebra._payload(w)
        if w != algebra.zero:
            kept_p.append(t)
            kept_w.append(w)
    return SimpleObservable(algebra, kept_p, kept_w)


def question(algebra: EffectAlgebra, a: EffectElement) -> SimpleObservable:
    """The yes-no observable of one effect: mass a at 1 and a' at 0, i.e.
    closed values a' at 0 and 1 at 1, a zero jump dropping out."""
    closed = (algebra._complement(algebra._payload(a)), algebra.one.payload)
    return _pack_closed(algebra, (Fraction(0), Fraction(1)), closed)


def from_closed_values(
    algebra: EffectAlgebra,
    pairs: Sequence[tuple[Fraction, EffectElement]],
) -> SimpleObservable:
    """Observable whose closed-interval resolution takes the given grid values.

    The values must be nondecreasing and end at 1; successive differences
    become the point masses and zero jumps are dropped.
    """
    if not pairs:
        raise WeightsNotSummable("at least one grid value is needed")
    ts = [_rational(t) for t, _ in pairs]
    payloads = _checked_chain(algebra, ts, [v for _, v in pairs],
                              ("grid", "closed-resolution values"))
    if payloads[-1] != algebra.one.payload:
        raise WeightsNotSummable("closed-resolution values must reach 1")
    return _pack_closed(algebra, ts, payloads)


def _checked_chain(
    algebra: EffectAlgebra,
    points: Sequence[Fraction],
    values: Sequence[EffectElement],
    nouns: tuple[str, str],
) -> list:
    """The payloads of values on points after the one check of step data:
    points strictly increasing, then every value owned by algebra, then
    the values nondecreasing.  nouns name the points and the values."""
    if any(b <= a for a, b in zip(points, points[1:])):
        raise NonIncreasingPoints(f"{nouns[0]} not strictly increasing: {_shown(points)}")
    payloads = list(map(algebra._payload, values))
    if not all(map(algebra._le, payloads, payloads[1:])):
        raise NonMonotoneInput(f"{nouns[1]} must be nondecreasing")
    return payloads


def _pack_closed(
    algebra: EffectAlgebra,
    grid: Sequence[Fraction],
    values: Sequence,
) -> SimpleObservable:
    """The observable with closed values of payloads `values` at the increasing
    Fractions of `grid`, for chains the library computed itself.

    Equal neighbours drop out, so each point kept carries a jump.  A
    chain that falls raises NonMonotoneInput and one that stops short of
    1 InvalidAlgebra: either means the backend's bounds are inconsistent.
    """
    le = algebra._le
    points, cums = [], [algebra.zero.payload]
    for t, v in zip(grid, values):
        if v == cums[-1]:
            continue
        if not le(cums[-1], v):
            raise NonMonotoneInput("closed-resolution values must be nondecreasing")
        points.append(t)
        cums.append(v)
    if cums[-1] != algebra.one.payload:
        raise InvalidAlgebra("closed-resolution values do not reach 1; backend is inconsistent")
    return SimpleObservable._from_cums(algebra, points, cums)
