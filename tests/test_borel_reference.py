"""Borel sets and spectrum maps against a frozen copy of their first form.

Interval, BorelSetExpr and PiecewiseMap store the real line as a range of
Dedekind cuts.  The classes prefixed Ref below are copies of them as they
stood when an interval held rational endpoints with open/closed flags and
every operation wrote out its open and closed cases; they are kept frozen
here.  On seeded random data, every construction, query and operation
must give the same answer from both (same endpoints, flags and repr), or
the same exception type with the same message.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest

from olsonorder.algebras import MVChain
from olsonorder.errors import MapUndefinedOnSpectrum, OlsonOrderError, ParseError
from olsonorder.observables import BorelSetExpr, Interval, PiecewiseMap, from_weights

F = Fraction
CASES = 10_500  # a third each of intervals, sets and maps


# -- frozen classes ------------------------------------------------------------


class RefInterval:
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

    def intersect(self, other: "RefInterval") -> "RefInterval | None":
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
        return RefInterval(lo, hi, lo_closed, hi_closed)

    def _key(self):
        return (
            self.lo is not None,
            self.lo if self.lo is not None else Fraction(0),
            not self.lo_closed,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RefInterval):
            return NotImplemented
        return (self.lo, self.hi, self.lo_closed, self.hi_closed) == (
            other.lo, other.hi, other.lo_closed, other.hi_closed)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.lo_closed, self.hi_closed))

    def __repr__(self) -> str:
        lo = "(-inf" if self.lo is None else ("[" if self.lo_closed else "(") + str(self.lo)
        hi = "inf)" if self.hi is None else str(self.hi) + ("]" if self.hi_closed else ")")
        return f"{lo}, {hi}"


class RefBorelSetExpr:
    """Finite union of rational intervals, kept sorted, disjoint and merged."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[RefInterval] = ()) -> None:
        items = sorted(pieces, key=RefInterval._key)
        merged: list[RefInterval] = []
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
                    merged[-1] = RefInterval(last.lo, hi, last.lo_closed, hi_closed)
                    continue
            merged.append(piece)
        self.pieces = tuple(merged)

    @classmethod
    def empty(cls) -> "RefBorelSetExpr":
        return cls(())

    @classmethod
    def whole_line(cls) -> "RefBorelSetExpr":
        return cls((RefInterval(None, None),))

    @classmethod
    def interval(
        cls,
        lo: Fraction | int | None,
        hi: Fraction | int | None,
        lo_closed: bool = False,
        hi_closed: bool = False,
    ) -> "RefBorelSetExpr":
        lo = Fraction(lo) if lo is not None else None
        hi = Fraction(hi) if hi is not None else None
        return cls((RefInterval(lo, hi, lo_closed, hi_closed),))

    @classmethod
    def point(cls, t: Fraction | int) -> "RefBorelSetExpr":
        t = Fraction(t)
        return cls((RefInterval(t, t, True, True),))

    @classmethod
    def below(cls, t: Fraction | int, closed: bool = False) -> "RefBorelSetExpr":
        return cls((RefInterval(None, Fraction(t), False, closed),))

    def contains(self, t: Fraction | int) -> bool:
        t = Fraction(t)
        return any(piece.contains(t) for piece in self.pieces)

    def union(self, other: "RefBorelSetExpr") -> "RefBorelSetExpr":
        return RefBorelSetExpr(self.pieces + other.pieces)

    def complement(self) -> "RefBorelSetExpr":
        out: list[RefInterval] = []
        cursor: tuple[Fraction | None, bool] = (None, False)  # next gap start, closedness
        for piece in self.pieces:
            if piece.lo is not None:
                lo, lo_closed = cursor
                if lo is None or lo < piece.lo or (
                    lo == piece.lo and lo_closed and not piece.lo_closed
                ):
                    out.append(RefInterval(lo, piece.lo, lo_closed, not piece.lo_closed))
            if piece.hi is None:
                return RefBorelSetExpr(out)
            cursor = (piece.hi, not piece.hi_closed)
        out.append(RefInterval(cursor[0], None, cursor[1], False))
        return RefBorelSetExpr(out)

    def intersect(self, other: "RefBorelSetExpr") -> "RefBorelSetExpr":
        out = []
        for a in self.pieces:
            for b in other.pieces:
                got = a.intersect(b)
                if got is not None:
                    out.append(got)
        return RefBorelSetExpr(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RefBorelSetExpr):
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self) -> int:
        return hash(self.pieces)

    def __repr__(self) -> str:
        if not self.pieces:
            return "BorelSetExpr(empty)"
        return "BorelSetExpr(" + " u ".join(repr(p) for p in self.pieces) + ")"


class RefPiecewiseMap:
    """Piecewise affine rational map of the real line.

    Pieces are pairwise disjoint intervals, each carrying t -> p*t + q.
    The map needs to cover only the points it is evaluated at; evaluation
    outside every piece raises MapUndefinedOnSpectrum.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[tuple[RefInterval, Fraction, Fraction]]) -> None:
        items = tuple((iv, Fraction(p), Fraction(q)) for iv, p, q in pieces)
        for i, (iv_a, _, _) in enumerate(items):
            for iv_b, _, _ in items[i + 1:]:
                if iv_a.intersect(iv_b) is not None:
                    raise ParseError(f"map pieces overlap: {iv_a!r} and {iv_b!r}")
        self.pieces = items

    @classmethod
    def identity(cls) -> "RefPiecewiseMap":
        return cls(((RefInterval(None, None), Fraction(1), Fraction(0)),))

    @classmethod
    def constant(cls, c: Fraction | int) -> "RefPiecewiseMap":
        return cls(((RefInterval(None, None), Fraction(0), Fraction(c)),))

    @classmethod
    def one_minus_t(cls) -> "RefPiecewiseMap":
        return cls(((RefInterval(None, None), Fraction(-1), Fraction(1)),))

    @classmethod
    def min_t_one_minus_t(cls) -> "RefPiecewiseMap":
        """t on (-inf, 1/2], 1 - t above: the pointwise min of t and 1-t."""
        half = Fraction(1, 2)
        return cls((
            (RefInterval(None, half, False, True), Fraction(1), Fraction(0)),
            (RefInterval(half, None, False, False), Fraction(-1), Fraction(1)),
        ))

    @classmethod
    def max_t_one_minus_t(cls) -> "RefPiecewiseMap":
        """1 - t on (-inf, 1/2], t above: the pointwise max of t and 1-t."""
        half = Fraction(1, 2)
        return cls((
            (RefInterval(None, half, False, True), Fraction(-1), Fraction(1)),
            (RefInterval(half, None, False, False), Fraction(1), Fraction(0)),
        ))

    def evaluate(self, t: Fraction) -> Fraction:
        for iv, p, q in self.pieces:
            if iv.contains(t):
                return p * t + q
        raise MapUndefinedOnSpectrum(f"map undefined at {t}")

    def preimage(self, target: RefBorelSetExpr) -> RefBorelSetExpr:
        """Exact preimage of a Borel set expression, one affine piece at a time."""
        out: list[RefInterval] = []
        for iv, p, q in self.pieces:
            if p == 0:
                if target.contains(q):
                    out.append(iv)
                continue
            for span in target.pieces:
                if p > 0:
                    lo = None if span.lo is None else (span.lo - q) / p
                    hi = None if span.hi is None else (span.hi - q) / p
                    pulled = RefInterval(lo, hi, span.lo_closed, span.hi_closed)
                else:
                    lo = None if span.hi is None else (span.hi - q) / p
                    hi = None if span.lo is None else (span.lo - q) / p
                    pulled = RefInterval(lo, hi, span.hi_closed, span.lo_closed)
                got = pulled.intersect(iv)
                if got is not None:
                    out.append(got)
        return RefBorelSetExpr(out)



# -- drawing -------------------------------------------------------------------

# few distinct endpoints, so ties between ends and touching pieces are common
POOL = [F(k, 4) for k in range(-6, 7)]


def _end(rng):
    return None if rng.random() < 0.15 else rng.choice(POOL)


def _interval_args(rng):
    lo, hi = _end(rng), _end(rng)
    if lo is not None and hi is not None and lo > hi and rng.random() < 0.8:
        lo, hi = hi, lo
    return lo, hi, rng.random() < 0.5, rng.random() < 0.5


def _outcome(call, *args):
    """call(*args), or the typed error it raised."""
    try:
        return call(*args)
    except OlsonOrderError as exc:
        return exc


def _valid_intervals(rng, n):
    got = []
    while len(got) < n:
        args = _interval_args(rng)
        try:
            got.append((Interval(*args), RefInterval(*args)))
        except ParseError:
            pass
    return got


def _sets(rng):
    pairs = _valid_intervals(rng, rng.randrange(4))
    return BorelSetExpr(p for p, _ in pairs), RefBorelSetExpr(r for _, r in pairs)


def _map_args(rng):
    pieces = []
    for iv, ref in _valid_intervals(rng, rng.randrange(1, 4)):
        p = rng.choice((F(0), F(1), F(-1), F(2), F(-1, 3), F(5, 2)))
        pieces.append((iv, ref, p, rng.choice(POOL)))
    return pieces


def _samples():
    pts = sorted({*POOL, *(F(2 * k + 1, 8) for k in range(-13, 13))})
    return [pts[0] - 1, *pts, pts[-1] + 1]


SAMPLES = _samples()


def _probes(rng):
    return rng.sample(SAMPLES, 8)


# -- agreement -----------------------------------------------------------------


def _fields(iv):
    return (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed)


def _same_interval(new, ref):
    assert _fields(new) == _fields(ref)
    assert repr(new) == repr(ref)


def _same_set(new, ref):
    assert len(new.pieces) == len(ref.pieces)
    for a, b in zip(new.pieces, ref.pieces):
        _same_interval(a, b)
    assert repr(new) == repr(ref)


def _same_outcome(new, ref):
    """Both raised the same typed error with the same message, or neither
    did; True when both returned."""
    if isinstance(ref, Exception) or isinstance(new, Exception):
        assert type(new) is type(ref) and str(new) == str(ref)
        return False
    return True


def _check_intervals(rng):
    args = _interval_args(rng)
    new, ref = _outcome(Interval, *args), _outcome(RefInterval, *args)
    if not _same_outcome(new, ref):
        return "refused"
    _same_interval(new, ref)
    twin = Interval(*args)
    assert twin == new and hash(twin) == hash(new)
    probes = _probes(rng)
    assert [new.contains(t) for t in probes] == [ref.contains(t) for t in probes]
    (other, other_ref), = _valid_intervals(rng, 1)
    got, want = new.intersect(other), ref.intersect(other_ref)
    assert (got is None) == (want is None)
    if got is not None:
        _same_interval(got, want)
    assert (new == other) == (ref == other_ref)
    if new == other:
        assert hash(new) == hash(other)
    return "built"


def _check_sets(rng):
    a, a_ref = _sets(rng)
    b, b_ref = _sets(rng)
    _same_set(a, a_ref)
    probes = _probes(rng)
    assert [a.contains(t) for t in probes] == [a_ref.contains(t) for t in probes]
    _same_set(a.union(b), a_ref.union(b_ref))
    _same_set(a.intersect(b), a_ref.intersect(b_ref))
    _same_set(a.complement(), a_ref.complement())
    assert (a == b) == (a_ref == b_ref)
    if a == b:
        assert hash(a) == hash(b)
    # a set rebuilt from its own pieces in another order is the same set
    shuffled = list(a.pieces)
    rng.shuffle(shuffled)
    again = BorelSetExpr(shuffled)
    assert again == a and hash(again) == hash(a)
    return "built"


def _check_maps(rng, x):
    pieces = _map_args(rng)
    new = _outcome(PiecewiseMap, [(iv, p, q) for iv, _, p, q in pieces])
    ref = _outcome(RefPiecewiseMap, [(iv, p, q) for _, iv, p, q in pieces])
    if not _same_outcome(new, ref):
        return "refused"
    assert [(_fields(iv), p, q) for iv, p, q in new.pieces] == [
        (_fields(iv), p, q) for iv, p, q in ref.pieces]
    for t in _probes(rng):
        got, want = _outcome(new.evaluate, t), _outcome(ref.evaluate, t)
        assert not _same_outcome(got, want) or got == want
    target, target_ref = _sets(rng)
    _same_set(new.preimage(target), ref.preimage(target_ref))
    # the observable layer reads both forms the same way
    assert x.evaluate(target) == x.evaluate(target_ref)
    got, want = _outcome(x.apply_map, new), _outcome(x.apply_map, ref)
    assert not _same_outcome(got, want) or got == want
    return "built"


def test_borel_layer_matches_the_frozen_classes():
    rng = random.Random(1515)
    mv = MVChain(4)
    x = from_weights(mv, [F(-1, 2), F(0), F(1, 4), F(3, 4)],
                     [mv.element(F(1, 4))] * 4)
    checks = {"interval": _check_intervals, "set": _check_sets,
              "map": lambda rng: _check_maps(rng, x)}
    seen = Counter((kind, check(rng)) for _ in range(CASES // 3) for kind, check in checks.items())
    # both the accepted and the refused constructions are compared, often
    assert min(seen.values()) >= CASES // 30 and len(seen) == 5, seen


@pytest.mark.parametrize("args", [
    (F(1), F(0), True, True), (F(1), F(1), True, False), (F(1), F(1), False, True),
    (F(1), F(1)), (None, F(1)), (F(0), None, True, True),
])
def test_interval_construction_matches_the_frozen_class(args):
    new, ref = _outcome(Interval, *args), _outcome(RefInterval, *args)
    if _same_outcome(new, ref):
        _same_interval(new, ref)
