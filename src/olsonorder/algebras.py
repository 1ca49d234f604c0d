"""The arithmetic backends and the boundary where rationals are read.

Each backend here implements the `effect.EffectAlgebra` contract with
arithmetic on exact payloads: k for k/n on an MV chain, a bitmask of
points on a set algebra or a measure quotient, and a tuple of integer
numerators on a tribe.  Equality is literal and no floating point is
involved.  Lattice backends compute the n-ary bound with arithmetic; a
restricted tribe compiles its carrier like a table.

Rationals appear only where elements are built, printed or read back:
`_parse_rational` and `_bounded_rational` read a literal into a Fraction,
refusing one whose exponent or digits exceed RATIONAL_DIGIT_CAP before
Python computes it in full, and `rational_to_json` prints one.

The contract and the table backends are defined in `effect`, which a
table-only process loads alone, and are re-exported here, so every
backend and its contract import from this module.
"""

from __future__ import annotations

import functools
import itertools
import operator
from fractions import Fraction
from typing import Iterable

# OVERSIZED, SHOWN_CAP, ElementForeignToAlgebra and NotEnumerable are
# re-exported for callers that import them from here
from .errors import (
    OVERSIZED,
    RATIONAL_DIGIT_CAP,
    SHOWN_CAP,
    CarrierTooLarge,
    ElementForeignToAlgebra,
    InvalidAlgebra,
    NotEnumerable,
    ParseError,
    SetOutOfRange,
    _shown,
)
# the contract and the table backends, re-exported
from .effect import (
    DEFAULT_TABLE_CAP,
    EffectAlgebra,
    EffectElement,
    TableEffectAlgebra,
    _effect_laws,
    block_cycle_algebra,
    mo2_algebra,
)

GROUND_SET_CAP = 10**6  #: most points of a ground set, and bits of a full tribe's size


def _parse_rational(obj) -> Fraction:
    q = _bounded_rational(obj)
    if q is not None:
        return q
    if isinstance(obj, str):
        raise ParseError(f"bad rational literal {_shown(obj)}")
    raise ParseError(f"expected a rational literal, got {_shown(obj)}")


def _bounded_rational(obj) -> Fraction | None:
    """obj as a Fraction, or None when it is no rational literal.

    A literal whose decimal exponent exceeds RATIONAL_DIGIT_CAP in size
    is refused before the Fraction is built (10**exponent is computed
    in full), and one whose reduced numerator or denominator has more
    than RATIONAL_DIGIT_CAP digits afterwards, since Python refuses to
    print it; both raise ParseError.
    """
    if isinstance(obj, bool):
        return None
    if isinstance(obj, str):
        _check_exponent(obj)
        try:
            q = Fraction(obj)
        except (ValueError, ZeroDivisionError):
            return None
    elif isinstance(obj, int):
        q = Fraction(obj)
    else:
        return None
    # fewer than 3c bits means fewer than c digits (2**3 < 10)
    for term in (q.numerator, q.denominator):
        if term.bit_length() > 3 * RATIONAL_DIGIT_CAP and abs(term) >= 10**RATIONAL_DIGIT_CAP:
            raise ParseError(f"rational literal has more than {RATIONAL_DIGIT_CAP} digits")
    return q


def _check_exponent(text: str) -> None:
    """Refuse a literal whose decimal exponent exceeds RATIONAL_DIGIT_CAP in
    size before Fraction computes 10**exponent in full."""
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
    if exponent.isdecimal() and (len(exponent) > 9 or int(exponent) > RATIONAL_DIGIT_CAP):
        raise ParseError(
            f"rational literal {text[:40]!r} has an exponent above {RATIONAL_DIGIT_CAP}"
        )


def rational_to_json(q: Fraction) -> str:
    return str(q)


def _numerator(q, den: int) -> int | None:
    """The k with q = k/den in [0, 1], or None when q is no such Fraction."""
    if not isinstance(q, Fraction) or q < 0 or q > 1 or den % q.denominator:
        return None
    return q.numerator * (den // q.denominator)


def _ground_set(kind: str, omega) -> int:
    if not isinstance(omega, int) or omega < 1:
        raise InvalidAlgebra(f"{kind} needs an integer ground-set size >= 1")
    if omega > GROUND_SET_CAP:
        raise CarrierTooLarge(f"{kind} ground set exceeds cap {GROUND_SET_CAP}")
    return omega


class MVChain(EffectAlgebra):
    """The chain 0, 1/n, ..., 1 with truncated addition.

    a + b is defined iff a + b <= 1 as rationals; the order is the numeric
    order, so meets and joins are min and max and the only sharp elements
    are 0 and 1.  The payload of k/n is k.
    """

    kind = "mv_chain"
    lattice_guaranteed = True

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or n < 1:
            raise InvalidAlgebra("mv_chain needs an integer denominator n >= 1")
        self.n = n
        self.zero = self._wrap(0)
        self.one = self._wrap(n)

    def element(self, value: Fraction | int | str) -> EffectElement:
        q = value if isinstance(value, Fraction) else _parse_rational(value)
        k = _numerator(q, self.n)
        if k is None:
            raise ParseError(f"{_shown(q, str)} is not a multiple of 1/{self.n} in [0,1]")
        return self._wrap(k)

    def _add(self, pa, pb):
        s = pa + pb
        return s if s <= self.n else None

    def _complement(self, pa):
        return self.n - pa

    def _le(self, pa, pb):
        return pa <= pb

    def _bound(self, payloads, lower):
        return min(payloads) if lower else max(payloads)

    def elements(self):
        return map(self._wrap, range(self.n + 1))

    @property
    def size(self):
        return self.n + 1

    def describe(self):
        return {"kind": "mv_chain", "n": self.n}

    def element_to_json(self, a):
        return rational_to_json(Fraction(self._payload(a), self.n))

    def element_from_json(self, obj):
        return self.element(_parse_rational(obj))


class _BitmaskAlgebra(EffectAlgebra):
    """Boolean algebra of the submasks of a top bitmask over the ground
    set {0, ..., omega-1}; subclasses set omega.

    Addition is disjoint union, the order is inclusion, every element is
    sharp, and meets and joins are intersection and union.
    """

    lattice_guaranteed = True

    def __init__(self, top: int) -> None:
        self._top = top
        self.zero = self._wrap(0)
        self.one = self._wrap(top)

    def _mask_points(self, mask: int) -> tuple[int, ...]:
        return tuple(p for p in range(self.omega) if mask >> p & 1)

    def _add(self, pa, pb):
        return pa | pb if pa & pb == 0 else None

    def _complement(self, pa):
        return self._top ^ pa

    def _le(self, pa, pb):
        return pa & pb == pa

    def _bound(self, payloads, lower):
        return functools.reduce(operator.and_ if lower else operator.or_, payloads)

    def elements(self):
        """Every submask of the top mask, in increasing order."""
        live = self._mask_points(self._top)
        for bits in range(1 << len(live)):
            yield self._wrap(sum(1 << p for i, p in enumerate(live) if bits >> i & 1))

    @property
    def size(self):
        return 1 << self._top.bit_count()


class FiniteSetAlgebra(_BitmaskAlgebra):
    """The Boolean algebra of subsets of {0, ..., omega-1}.

    Payloads are bitmasks; addition is disjoint union, every element is
    sharp, and the order is set inclusion.
    """

    kind = "set_algebra"

    def __init__(self, omega: int) -> None:
        self.omega = _ground_set("set_algebra", omega)
        self.full_mask = (1 << omega) - 1
        super().__init__(self.full_mask)

    def subset(self, points: Iterable[int]) -> EffectElement:
        mask = 0
        for p in points:
            if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < self.omega:
                raise SetOutOfRange(f"point {_shown(p)} outside ground set of size {self.omega}")
            mask |= 1 << p
        return self._wrap(mask)

    def points(self, a: EffectElement) -> tuple[int, ...]:
        return self._mask_points(self._payload(a))

    def describe(self):
        return {"kind": "set_algebra", "omega": self.omega}

    def element_to_json(self, a):
        return list(self.points(a))

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise ParseError(f"set literal must be an array of indices, got {_shown(obj)}")
        seen = set()
        for p in obj:
            if isinstance(p, (list, dict)):
                break  # no point: subset refuses it
            if p in seen:
                raise ParseError(f"duplicate point {_shown(p)} in set literal")
            seen.add(p)
        return self.subset(obj)


class FiniteTribe(EffectAlgebra):
    """Pointwise fuzzy-set algebra on a finite ground set.

    Elements are functions from {0, ..., omega-1} into the rationals
    k/den in [0,1], added pointwise when the sum stays below 1 everywhere;
    the payload is the tuple of numerators k.  With the full grid carrier
    the order is pointwise and meets/joins are pointwise min/max.  A
    restricted carrier must contain 1, be closed under complement, and
    contain f + g whenever both lie in the carrier and f <= 1 - g
    pointwise; such a carrier need not be closed under pointwise min, so
    it is explicit: the validation pass checks both closures and compiles
    the order into bitsets for the bounds from the table of sums it reads,
    and `lattice_guaranteed` is False.  Sums and complements stay pointwise
    arithmetic, and so does the order: a carrier closed under both contains
    b - a = (a + b')' whenever a <= b pointwise, so the compiled order is
    the pointwise one.
    """

    kind = "tribe"

    def __init__(
        self,
        omega: int,
        den: int,
        carrier: Iterable[tuple[Fraction, ...]] | None = None,
    ) -> None:
        self.omega = _ground_set("tribe", omega)
        if not isinstance(den, int) or den < 1:
            raise InvalidAlgebra("tribe needs an integer denominator >= 1")
        self.den = den
        top = (den,) * omega
        self.carrier: frozenset[tuple[Fraction, ...]] | None = None
        self.lattice_guaranteed = carrier is None
        if carrier is not None:
            values = frozenset(tuple(v) for v in carrier)
            # the pass below compares every pair of functions
            if len(values) > DEFAULT_TABLE_CAP:
                raise CarrierTooLarge(
                    f"tribe carrier size {len(values)} exceeds cap {DEFAULT_TABLE_CAP}"
                )
            funcs = []
            for f in values:
                if len(f) != omega:
                    raise InvalidAlgebra("carrier function has wrong domain size")
                funcs.append(self._numerators(f, InvalidAlgebra))
            funcs.sort()
            index = {f: i for i, f in enumerate(funcs)}
            if top not in index:
                raise InvalidAlgebra("carrier must contain the constant-1 function")
            if any(self._complement(f) not in index for f in funcs):
                raise InvalidAlgebra("carrier not closed under complement")
            sums = [[self._add(f, g) for g in funcs] for f in funcs]
            if any(s is not None and s not in index for row in sums for s in row):
                raise InvalidAlgebra("carrier not closed under defined addition")
            self._index_carrier(funcs, [[index.get(s) for s in row] for row in sums])
            self.carrier = values
        self.zero = self._wrap((0,) * omega)
        self.one = self._wrap(top)

    def _numerators(self, f: tuple[Fraction, ...], error) -> tuple[int, ...]:
        """The payload of the values f; raises error at the first value that
        is no k/den in [0, 1]."""
        ks = tuple(_numerator(v, self.den) for v in f)
        for v, k in zip(f, ks):
            if k is None:
                raise error(f"value {_shown(v)} is not a multiple of 1/{self.den} in [0,1]")
        return ks

    def element(self, values: Iterable[Fraction | int | str]) -> EffectElement:
        f = tuple(v if isinstance(v, Fraction) else _parse_rational(v) for v in values)
        if len(f) != self.omega:
            raise ParseError(
                f"tribe element needs {self.omega} values, got {len(f)}"
            )
        p = self._numerators(f, ParseError)
        if self.carrier is not None and p not in self._bit:
            raise ParseError(f"function {_shown(f)} is outside the restricted carrier")
        return self._wrap(p)

    def function_values(self, a: EffectElement) -> tuple[Fraction, ...]:
        """The element's value vector over the ground set."""
        return tuple(Fraction(k, self.den) for k in self._payload(a))

    def _add(self, pa, pb):
        s = tuple(map(operator.add, pa, pb))
        return s if max(s) <= self.den else None

    def _complement(self, pa):
        return tuple(self.den - v for v in pa)

    def _le(self, pa, pb):
        return all(map(operator.le, pa, pb))

    def _bound(self, payloads, lower):
        if self.carrier is not None:
            return super()._bound(payloads, lower)
        return tuple(map(min if lower else max, zip(*payloads)))

    def elements(self):
        if self.carrier is not None:
            return iter(self._elems)
        return map(self._wrap, itertools.product(range(self.den + 1), repeat=self.omega))

    @property
    def size(self):
        if self.carrier is not None:
            return len(self.carrier)
        if self.omega * ((self.den + 1).bit_length() - 1) > GROUND_SET_CAP:
            raise CarrierTooLarge(f"tribe carrier has over 2**{GROUND_SET_CAP} elements")
        return (self.den + 1) ** self.omega

    def describe(self):
        desc = {"kind": "tribe", "omega": self.omega, "den": self.den}
        if self.carrier is not None:
            desc["carrier"] = [
                [rational_to_json(v) for v in f] for f in sorted(self.carrier)
            ]
        return desc

    def element_to_json(self, a):
        return [rational_to_json(v) for v in self.function_values(a)]

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise ParseError(f"tribe element must be an array of rationals, got {_shown(obj)}")
        return self.element(obj)


def restricted_sum_tribe(omega: int = 2, den: int = 4) -> FiniteTribe:
    """A tribe carrier closed under + and complement but not pointwise min.

    Keeps the grid functions whose coordinate total is an integer.  For
    omega = 2, den = 4 this is the seven-element carrier containing
    (1/4, 3/4) and (3/4, 1/4) but not their pointwise min (1/4, 1/4).
    """
    grid = [Fraction(k, den) for k in range(den + 1)]
    carrier = [
        f for f in itertools.product(grid, repeat=omega)
        if sum(f).denominator == 1
    ]
    return FiniteTribe(omega, den, carrier=carrier)


class QuotientBooleanAlgebra(_BitmaskAlgebra):
    """Subsets of a finite ground set modulo a principal null-set ideal.

    Two sets are identified when their symmetric difference lies inside
    the null set N; the canonical representative of a class is A minus N.
    The quotient is again Boolean, so every element is sharp and meets
    and joins always exist.  Classes are bitmasks below the live mask.
    """

    kind = "quotient"

    def __init__(self, omega: int, null_points: Iterable[int]) -> None:
        self.base = FiniteSetAlgebra(omega)
        self.omega = omega
        null_mask = 0
        for p in null_points:
            if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < omega:
                raise SetOutOfRange(f"null point {_shown(p)} outside ground set of size {omega}")
            null_mask |= 1 << p
        if null_mask == self.base.full_mask:
            raise InvalidAlgebra("null set cannot be the whole ground set")
        self.null_mask = null_mask
        self.live_mask = self.base.full_mask & ~null_mask
        self.live_points = self._mask_points(self.live_mask)
        super().__init__(self.live_mask)

    def quotient_map(self, a: EffectElement | Iterable[int]) -> EffectElement:
        """Class of a subset of the ground set; accepts base elements or indices."""
        if isinstance(a, EffectElement):
            mask = self.base._payload(a)
        else:
            mask = self.base._payload(self.base.subset(a))
        return self._wrap(mask & self.live_mask)

    def null_points_list(self) -> tuple[int, ...]:
        return self._mask_points(self.null_mask)

    def class_points(self, a: EffectElement) -> tuple[int, ...]:
        return self._mask_points(self._payload(a))

    def describe(self):
        return {
            "kind": "quotient",
            "omega": self.omega,
            "null": list(self.null_points_list()),
        }

    def element_to_json(self, a):
        return list(self.class_points(a))

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise ParseError(f"set literal must be an array of indices, got {_shown(obj)}")
        return self.quotient_map(obj)
