"""Simple observables and their interval resolutions.

A simple observable over an effect algebra E is a finite spectrum
u_1 < ... < u_k of rationals with nonzero weights a_i in E summing to 1.
It is equivalently described by its open-interval resolution

    x((-inf, t)) = 0             for t <= u_1,
                 = a_1 + ... + a_i  for u_i < t <= u_{i+1},
                 = 1             for t > u_k,

a left-continuous monotone step function, or by the closed-interval
values x((-inf, t]) obtained by sampling just above t.  StepResolution
stores the step data; SimpleObservable stores spectrum and weights and
converts both ways losslessly.

All scalars are `fractions.Fraction`; Borel sets are finite unions of
rational intervals, and spectrum maps are piecewise affine with rational
coefficients, so every operation here is exact.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Sequence

from .algebras import EffectAlgebra, EffectElement, _shown
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
    """t as a Fraction; a Fraction passes through without a new object."""
    return t if type(t) is Fraction else Fraction(t)


class Interval:
    """One rational interval; None endpoints are infinite and always open."""

    __slots__ = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(
        self,
        lo: Fraction | None,
        hi: Fraction | None,
        lo_closed: bool = False,
        hi_closed: bool = False,
    ) -> None:
        if lo is None:
            lo_closed = False
        if hi is None:
            hi_closed = False
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
                raise ParseError(f"empty interval ({lo}, {hi})")
        self.lo = lo
        self.hi = hi
        self.lo_closed = lo_closed
        self.hi_closed = hi_closed

    def contains(self, t: Fraction) -> bool:
        if self.lo is not None and (t < self.lo or (t == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (t > self.hi or (t == self.hi and not self.hi_closed)):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        if other.lo is None or (self.lo is not None and self.lo > other.lo):
            lo, lo_closed = self.lo, self.lo_closed
        elif self.lo is None or other.lo > self.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if other.hi is None or (self.hi is not None and self.hi < other.hi):
            hi, hi_closed = self.hi, self.hi_closed
        elif self.hi is None or other.hi < self.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
                return None
        return Interval(lo, hi, lo_closed, hi_closed)

    def _key(self):
        return (
            self.lo is not None,
            self.lo if self.lo is not None else Fraction(0),
            not self.lo_closed,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (self.lo, self.hi, self.lo_closed, self.hi_closed) == (
            other.lo, other.hi, other.lo_closed, other.hi_closed)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.lo_closed, self.hi_closed))

    def __repr__(self) -> str:
        lo = "(-inf" if self.lo is None else ("[" if self.lo_closed else "(") + str(self.lo)
        hi = "inf)" if self.hi is None else str(self.hi) + ("]" if self.hi_closed else ")")
        return f"{lo}, {hi}"


class BorelSetExpr:
    """Finite union of rational intervals, kept sorted, disjoint and merged."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Interval] = ()) -> None:
        items = sorted(pieces, key=Interval._key)
        merged: list[Interval] = []
        for piece in items:
            if merged:
                last = merged[-1]
                # overlap, or touching with at least one closed end
                touches = last.hi is None or (
                    piece.lo is not None
                    and (piece.lo < last.hi
                         or (piece.lo == last.hi and (last.hi_closed or piece.lo_closed)))
                ) or piece.lo is None
                if touches:
                    if last.hi is None or (
                        piece.hi is not None and piece.hi < last.hi
                    ) or (piece.hi is not None and piece.hi == last.hi):
                        hi, hi_closed = last.hi, last.hi_closed or (
                            piece.hi == last.hi and piece.hi_closed)
                    else:
                        hi, hi_closed = piece.hi, piece.hi_closed
                    merged[-1] = Interval(last.lo, hi, last.lo_closed, hi_closed)
                    continue
            merged.append(piece)
        self.pieces = tuple(merged)

    @classmethod
    def empty(cls) -> "BorelSetExpr":
        return cls(())

    @classmethod
    def whole_line(cls) -> "BorelSetExpr":
        return cls((Interval(None, None),))

    @classmethod
    def interval(
        cls,
        lo: Fraction | int | None,
        hi: Fraction | int | None,
        lo_closed: bool = False,
        hi_closed: bool = False,
    ) -> "BorelSetExpr":
        lo = Fraction(lo) if lo is not None else None
        hi = Fraction(hi) if hi is not None else None
        return cls((Interval(lo, hi, lo_closed, hi_closed),))

    @classmethod
    def point(cls, t: Fraction | int) -> "BorelSetExpr":
        t = Fraction(t)
        return cls((Interval(t, t, True, True),))

    @classmethod
    def below(cls, t: Fraction | int, closed: bool = False) -> "BorelSetExpr":
        return cls((Interval(None, Fraction(t), False, closed),))

    def contains(self, t: Fraction | int) -> bool:
        t = Fraction(t)
        return any(piece.contains(t) for piece in self.pieces)

    def union(self, other: "BorelSetExpr") -> "BorelSetExpr":
        return BorelSetExpr(self.pieces + other.pieces)

    def complement(self) -> "BorelSetExpr":
        out: list[Interval] = []
        cursor: tuple[Fraction | None, bool] = (None, False)  # next gap start, closedness
        for piece in self.pieces:
            if piece.lo is not None:
                lo, lo_closed = cursor
                if lo is None or lo < piece.lo or (
                    lo == piece.lo and lo_closed and not piece.lo_closed
                ):
                    out.append(Interval(lo, piece.lo, lo_closed, not piece.lo_closed))
            if piece.hi is None:
                return BorelSetExpr(out)
            cursor = (piece.hi, not piece.hi_closed)
        out.append(Interval(cursor[0], None, cursor[1], False))
        return BorelSetExpr(out)

    def intersect(self, other: "BorelSetExpr") -> "BorelSetExpr":
        out = []
        for a in self.pieces:
            for b in other.pieces:
                got = a.intersect(b)
                if got is not None:
                    out.append(got)
        return BorelSetExpr(out)

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
    outside every piece raises MapUndefinedOnSpectrum.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple[Interval, Fraction, Fraction]]) -> None:
        items = tuple((iv, Fraction(p), Fraction(q)) for iv, p, q in pieces)
        for i, (iv_a, _, _) in enumerate(items):
            for iv_b, _, _ in items[i + 1:]:
                if iv_a.intersect(iv_b) is not None:
                    raise ParseError(f"map pieces overlap: {iv_a!r} and {iv_b!r}")
        self.pieces = items

    @classmethod
    def identity(cls) -> "PiecewiseMap":
        return cls(((Interval(None, None), Fraction(1), Fraction(0)),))

    @classmethod
    def constant(cls, c: Fraction | int) -> "PiecewiseMap":
        return cls(((Interval(None, None), Fraction(0), Fraction(c)),))

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
                if p > 0:
                    lo = None if span.lo is None else (span.lo - q) / p
                    hi = None if span.hi is None else (span.hi - q) / p
                    pulled = Interval(lo, hi, span.lo_closed, span.hi_closed)
                else:
                    lo = None if span.hi is None else (span.hi - q) / p
                    hi = None if span.lo is None else (span.lo - q) / p
                    pulled = Interval(lo, hi, span.hi_closed, span.lo_closed)
                got = pulled.intersect(iv)
                if got is not None:
                    out.append(got)
        return BorelSetExpr(out)


class StepResolution:
    """Left-continuous monotone step data of one observable.

    breakpoints t_1 < ... < t_n and values v_0 <= ... <= v_n with
    v_0 = 0 and v_n = 1; the function is v_i on (t_i, t_{i+1}] with
    t_0 = -inf and t_{n+1} = +inf.  Construction canonicalizes by
    dropping breakpoints that carry no jump.
    """

    __slots__ = ("algebra", "breakpoints", "values")

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
        keep_pts = []
        keep_vals = [vals[0]]
        for t, v in zip(pts, vals[1:]):
            if v == keep_vals[-1]:
                continue
            keep_pts.append(t)
            keep_vals.append(v)
        self.algebra = algebra
        self.breakpoints = tuple(keep_pts)
        self.values = tuple(keep_vals)

    def open_at(self, t: Fraction | int) -> EffectElement:
        """Value of x((-inf, t))."""
        return self.values[bisect_left(self.breakpoints, _rational(t))]

    def closed_at(self, t: Fraction | int) -> EffectElement:
        """Value of x((-inf, t])."""
        return self.values[bisect_right(self.breakpoints, _rational(t))]

    def to_observable(self) -> "SimpleObservable":
        alg = self.algebra
        weights = [
            alg.diff(b, a) for a, b in zip(self.values, self.values[1:])
        ]
        return SimpleObservable(alg, self.breakpoints, weights)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StepResolution):
            return NotImplemented
        return (self.algebra is other.algebra
                and self.breakpoints == other.breakpoints
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.breakpoints, self.values))

    def __repr__(self) -> str:
        steps = ", ".join(
            f"{t}:{self.algebra.format_element(v)}"
            for t, v in zip(self.breakpoints, self.values[1:])
        )
        return f"StepResolution({steps})"


class SimpleObservable:
    """A finitely supported observable in canonical form.

    points are strictly increasing rationals, weights are nonzero and sum
    to 1.  Instances are immutable value objects; equality is canonical
    (same backend instance, same points, same weights).
    """

    __slots__ = ("algebra", "points", "weights", "_cums")

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
        cums = [algebra.zero]
        for w in wts:
            algebra._payload(w)
            if w == algebra.zero:
                raise WeightsNotSummable("canonical observables carry no zero weights")
            nxt = algebra.add(cums[-1], w)
            if nxt is None:
                raise WeightsNotSummable("running weight sum is undefined")
            cums.append(nxt)
        if not wts or cums[-1] != algebra.one:
            raise WeightsNotSummable("weights must sum to 1")
        self.algebra = algebra
        self.points = pts
        self.weights = wts
        self._cums = tuple(cums)

    @classmethod
    def _from_cums(
        cls,
        algebra: EffectAlgebra,
        points: Sequence[Fraction],
        cums: Sequence[EffectElement],
    ) -> "SimpleObservable":
        """Trusted constructor for values the library computed itself.

        points are strictly increasing Fractions and cums the strictly
        increasing closed values 0 = c_0 < ... < c_k = 1 of the algebra,
        one more than points; nothing is checked, and weight i is the one
        diff c_i - c_{i-1}.
        """
        self = object.__new__(cls)
        self.algebra = algebra
        self.points = tuple(points)
        self._cums = tuple(cums)
        self.weights = tuple(map(algebra.diff, self._cums[1:], self._cums))
        return self

    # -- resolutions ------------------------------------------------------

    @property
    def spectrum(self) -> tuple[Fraction, ...]:
        return self.points

    def resolution(self) -> StepResolution:
        return StepResolution(self.algebra, self.points, self._cums)

    def resolution_open(self, t: Fraction | int) -> EffectElement:
        """x((-inf, t)): sum of weights strictly below t."""
        return self._cums[bisect_left(self.points, _rational(t))]

    def resolution_closed(self, t: Fraction | int) -> EffectElement:
        """x((-inf, t]): sum of weights at or below t."""
        return self._cums[bisect_right(self.points, _rational(t))]

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
        if self.points[0] < 0 or self.points[-1] > 1:
            raise SpectrumOutsideUnitInterval(
                f"negation needs spectrum in [0,1], got {_shown(self.points)}"
            )
        # the mass at or below 1 - u_j is the complement of the mass below u_j
        alg = self.algebra
        return SimpleObservable._from_cums(
            alg,
            [1 - t for t in reversed(self.points)],
            [alg.zero, *map(alg.complement, reversed(self._cums[:-1]))],
        )

    # -- predicates ---------------------------------------------------------

    def is_sharp_observable(self, cap: int = SHARPNESS_SCAN_CAP) -> bool:
        """True when every subset sum of the weights is sharp (2^k scan)."""
        if len(self.weights) > cap:
            raise SpectrumTooLargeForSharpnessScan(
                f"spectrum size {len(self.weights)} exceeds scan cap {cap}"
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
                and self.weights == other.weights)

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.points, self.weights))

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
    """The yes-no observable of one effect: mass a at 1 and a' at 0."""
    algebra._payload(a)
    if a == algebra.zero:
        return SimpleObservable(algebra, (Fraction(0),), (algebra.one,))
    if a == algebra.one:
        return SimpleObservable(algebra, (Fraction(1),), (algebra.one,))
    return SimpleObservable(
        algebra, (Fraction(0), Fraction(1)), (algebra.complement(a), a)
    )


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
    vals = [v for _, v in pairs]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise NonIncreasingPoints(f"grid not strictly increasing: {_shown(ts)}")
    if not all(map(algebra.leq, [algebra.zero, *vals], vals)):
        raise NonMonotoneInput("closed-resolution values must be nondecreasing")
    if vals[-1] != algebra.one:
        raise WeightsNotSummable("closed-resolution values must reach 1")
    return _pack_closed(algebra, ts, vals)


def _pack_closed(
    algebra: EffectAlgebra,
    grid: Sequence[Fraction],
    values: Sequence[EffectElement],
) -> SimpleObservable:
    """The observable with closed values `values` at the increasing Fractions
    of `grid`, for chains the library computed itself.

    Equal neighbours drop out, so each point kept carries a jump.  A
    chain that falls raises NonMonotoneInput and one that stops short of
    1 InvalidAlgebra: either means the backend's bounds are inconsistent.
    """
    leq = algebra.leq
    prev = algebra.zero
    points, cums = [], [prev]
    for t, v in zip(grid, values):
        if v == prev:
            continue
        if not leq(prev, v):
            raise NonMonotoneInput("closed-resolution values must be nondecreasing")
        points.append(t)
        cums.append(v)
        prev = v
    if prev != algebra.one:
        raise InvalidAlgebra("closed-resolution values do not reach 1; backend is inconsistent")
    return SimpleObservable._from_cums(algebra, points, cums)
