"""Finite effect-algebra backends with exact rational arithmetic.

An effect algebra is a set E with a partial binary operation + and two
constants 0, 1 such that for all a, b, c:

  (i)   a + b is defined iff b + a is defined, and then a + b = b + a;
  (ii)  a + b and (a + b) + c are defined iff b + c and a + (b + c) are
        defined, and then (a + b) + c = a + (b + c);
  (iii) there is a unique complement a' with a + a' = 1;
  (iv)  a + 1 is defined only for a = 0.

The induced order is a <= b iff a + c = b for some c; the witness c is
unique (written diff(b, a) here).  An element is sharp when the greatest
lower bound of a and a' exists and equals 0.

Every backend in this module is exact: payloads are integers, bitmasks or
`fractions.Fraction` values, equality is literal, and no floating point is
involved.  Elements are owned by the backend instance that created them;
mixing instances raises instead of coercing, even when parameters agree.

Meets and joins are dual, and each duality is written once with the
order direction as a parameter: `join_many`/`meet_many` share one n-ary
bound that folds the binary bound on lattice backends and scans the
carrier elsewhere, and the binary bounds of the table and restricted
tribe backends call that same scan.  The set and quotient backends share
one bitmask arithmetic against a top mask.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import (
    CarrierTooLarge,
    ElementForeignToAlgebra,
    InvalidAlgebra,
    NotEnumerable,
    ParseError,
    SetOutOfRange,
)

DEFAULT_TABLE_CAP = 256
#: digits of the longest numerator or denominator a rational literal may
#: have: Python's default limit for converting an int to a string
RATIONAL_DIGIT_CAP = 4300


class EffectElement:
    """An element of one backend instance.

    Wraps an exact payload together with the owning algebra.  Equality and
    hashing require the same owning instance; payloads never travel between
    backends.
    """

    __slots__ = ("algebra", "payload")

    def __init__(self, algebra: "EffectAlgebra", payload) -> None:
        self.algebra = algebra
        self.payload = payload

    def __eq__(self, other) -> bool:
        if not isinstance(other, EffectElement):
            return NotImplemented
        return self.algebra is other.algebra and self.payload == other.payload

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.payload))

    def __repr__(self) -> str:
        return f"<{self.algebra.kind}:{self.algebra.format_element(self)}>"


class EffectAlgebra(ABC):
    """Common contract of the finite backends.

    `add` returns None when the partial sum is undefined; `meet`/`join`
    return None when the bound does not exist in the carrier.  Everything
    else raises on misuse.
    """

    kind: str = "abstract"
    #: True when every pair of elements provably has a meet and a join, so
    #: lattice clients may skip nonexistence certification.
    lattice_guaranteed: bool = False

    zero: EffectElement
    one: EffectElement

    def _wrap(self, payload) -> EffectElement:
        return EffectElement(self, payload)

    def _payload(self, a: EffectElement):
        if not isinstance(a, EffectElement) or a.algebra is not self:
            raise ElementForeignToAlgebra(
                f"element {a!r} does not belong to this {self.kind} instance"
            )
        return a.payload

    # -- partial addition and derived structure -------------------------

    @abstractmethod
    def add(self, a: EffectElement, b: EffectElement) -> EffectElement | None:
        """Partial sum a + b, or None when undefined."""

    @abstractmethod
    def complement(self, a: EffectElement) -> EffectElement:
        """The unique a' with a + a' = 1."""

    @abstractmethod
    def leq(self, a: EffectElement, b: EffectElement) -> bool:
        """Induced order: a <= b iff a + c = b for some c."""

    def meet(self, a: EffectElement, b: EffectElement) -> EffectElement | None:
        """Greatest lower bound in the carrier, or None when it does not exist.

        Lattice backends override this with direct arithmetic; the
        fallback scans the carrier.
        """
        return self._carrier_bound([a, b], lower=True)

    def join(self, a: EffectElement, b: EffectElement) -> EffectElement | None:
        """Least upper bound in the carrier, or None when it does not exist."""
        return self._carrier_bound([a, b], lower=False)

    def diff(self, b: EffectElement, a: EffectElement) -> EffectElement:
        """The unique c with a + c = b; requires a <= b.

        Backends override this with direct arithmetic; the fallback scans.
        """
        if not self.leq(a, b):
            raise InvalidAlgebra("diff requires a <= b")
        for c in self.elements():
            if self.add(a, c) == b:
                return c
        raise InvalidAlgebra("order witness missing; carrier is inconsistent")

    def join_many(self, items: Iterable[EffectElement]) -> EffectElement | None:
        """Least upper bound of finitely many elements, None if there is none.

        On lattice backends a binary fold is exact.  Elsewhere the n-ary
        bound can exist even when intermediate binary joins do not, so the
        whole carrier is scanned.
        """
        return self._bound_many(items, lower=False)

    def meet_many(self, items: Iterable[EffectElement]) -> EffectElement | None:
        """Greatest lower bound of finitely many elements, None if there is none."""
        return self._bound_many(items, lower=True)

    def _bound_many(self, items: Iterable[EffectElement], lower: bool) -> EffectElement | None:
        got = list(items)
        if not got:
            return self.one if lower else self.zero
        if not self.lattice_guaranteed:
            return self._carrier_bound(got, lower)
        binary = self.meet if lower else self.join
        acc = got[0]
        for item in got[1:]:
            acc = binary(acc, item)
            if acc is None:
                return None
        return acc

    def _carrier_bound(self, items: list[EffectElement], lower: bool) -> EffectElement | None:
        """Greatest common lower bound (lower) or least common upper bound
        of items, found by scanning the carrier; None when it does not exist."""
        for a in items:
            self._payload(a)
        leq = self.leq

        def le(a: EffectElement, b: EffectElement) -> bool:
            # the order of the bound's direction: reversed for upper bounds
            return leq(a, b) if lower else leq(b, a)

        bounds = [u for u in self.elements() if all(le(u, a) for a in items)]
        for u in bounds:
            if all(le(v, u) for v in bounds):
                return u
        return None

    def is_sharp(self, a: EffectElement) -> bool:
        m = self.meet(a, self.complement(a))
        return m is not None and m == self.zero

    # -- enumeration -----------------------------------------------------

    def elements(self) -> Iterator[EffectElement]:
        raise NotEnumerable(f"{self.kind} carrier is not finitely enumerable")

    @property
    def size(self) -> int:
        raise NotEnumerable(f"{self.kind} carrier size is not available")

    def sum(self, items: Iterable[EffectElement]) -> EffectElement | None:
        """Fold of add over items; None as soon as a partial sum is undefined."""
        total = self.zero
        for item in items:
            total = self.add(total, item)
            if total is None:
                return None
        return total

    # -- serialization hooks ----------------------------------------------

    @abstractmethod
    def describe(self) -> dict:
        """JSON-ready backend descriptor, round-trippable by serialize.load_algebra."""

    @abstractmethod
    def element_to_json(self, a: EffectElement):
        """JSON-ready literal for one element."""

    @abstractmethod
    def element_from_json(self, obj) -> EffectElement:
        """Parse one element literal; raises ParseError on malformed input."""

    def format_element(self, a: EffectElement) -> str:
        return str(self.element_to_json(a))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


def _parse_rational(obj) -> Fraction:
    q = _bounded_rational(obj)
    if q is not None:
        return q
    if isinstance(obj, str):
        raise ParseError(f"bad rational literal {obj!r}")
    raise ParseError(f"expected a rational literal, got {obj!r}")


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
        exponent = obj.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
        if exponent.isdecimal() and (
            len(exponent) > 9 or int(exponent) > RATIONAL_DIGIT_CAP
        ):
            raise ParseError(
                f"rational literal {obj[:40]!r} has an exponent above {RATIONAL_DIGIT_CAP}"
            )
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


def rational_to_json(q: Fraction) -> str:
    return str(q)


class MVChain(EffectAlgebra):
    """The chain 0, 1/n, ..., 1 with truncated addition.

    a + b is defined iff a + b <= 1 as rationals; the order is the numeric
    order, so meets and joins are min and max and the only sharp elements
    are 0 and 1.
    """

    kind = "mv_chain"
    lattice_guaranteed = True

    def __init__(self, n: int) -> None:
        if not isinstance(n, int) or n < 1:
            raise InvalidAlgebra("mv_chain needs an integer denominator n >= 1")
        self.n = n
        self.zero = self._wrap(Fraction(0))
        self.one = self._wrap(Fraction(1))

    def element(self, value: Fraction | int | str) -> EffectElement:
        q = value if isinstance(value, Fraction) else _parse_rational(value)
        if q < 0 or q > 1 or (self.n % q.denominator) != 0:
            raise ParseError(f"{q} is not a multiple of 1/{self.n} in [0,1]")
        return self._wrap(q)

    def add(self, a, b):
        s = self._payload(a) + self._payload(b)
        return self._wrap(s) if s <= 1 else None

    def complement(self, a):
        return self._wrap(1 - self._payload(a))

    def leq(self, a, b):
        return self._payload(a) <= self._payload(b)

    def meet(self, a, b):
        return self._wrap(min(self._payload(a), self._payload(b)))

    def join(self, a, b):
        return self._wrap(max(self._payload(a), self._payload(b)))

    def diff(self, b, a):
        pa, pb = self._payload(a), self._payload(b)
        if pa > pb:
            raise InvalidAlgebra("diff requires a <= b")
        return self._wrap(pb - pa)

    def is_sharp(self, a):
        return self._payload(a) in (0, 1)

    def elements(self):
        for k in range(self.n + 1):
            yield self._wrap(Fraction(k, self.n))

    @property
    def size(self):
        return self.n + 1

    def describe(self):
        return {"kind": "mv_chain", "n": self.n}

    def element_to_json(self, a):
        return rational_to_json(self._payload(a))

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

    def add(self, a, b):
        pa, pb = self._payload(a), self._payload(b)
        return self._wrap(pa | pb) if pa & pb == 0 else None

    def complement(self, a):
        return self._wrap(self._top ^ self._payload(a))

    def leq(self, a, b):
        pa, pb = self._payload(a), self._payload(b)
        return pa & pb == pa

    def meet(self, a, b):
        return self._wrap(self._payload(a) & self._payload(b))

    def join(self, a, b):
        return self._wrap(self._payload(a) | self._payload(b))

    def diff(self, b, a):
        pa, pb = self._payload(a), self._payload(b)
        if pa & pb != pa:
            raise InvalidAlgebra("diff requires a <= b")
        return self._wrap(pb & ~pa)

    def is_sharp(self, a):
        self._payload(a)
        return True

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
        if not isinstance(omega, int) or omega < 1:
            raise InvalidAlgebra("set_algebra needs an integer ground-set size >= 1")
        self.omega = omega
        self.full_mask = (1 << omega) - 1
        super().__init__(self.full_mask)

    def subset(self, points: Iterable[int]) -> EffectElement:
        mask = 0
        for p in points:
            if not isinstance(p, int) or isinstance(p, bool) or not 0 <= p < self.omega:
                raise SetOutOfRange(f"point {p!r} outside ground set of size {self.omega}")
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
            raise ParseError(f"set literal must be an array of indices, got {obj!r}")
        seen = set()
        for p in obj:
            if p in seen:
                raise ParseError(f"duplicate point {p!r} in set literal")
            seen.add(p)
        return self.subset(obj)


class TableEffectAlgebra(EffectAlgebra):
    """An effect algebra given by an explicit partial-addition table.

    The table is validated eagerly against axioms (i)-(iv); the induced
    order, complements and a difference map are precomputed.  Meets and
    joins are the inherited carrier scans and may not exist, so
    `lattice_guaranteed` stays False and lattice clients must certify
    nonexistence themselves.
    """

    kind = "table"
    lattice_guaranteed = False

    def __init__(
        self,
        add_table: list[list[int | None]],
        zero: int,
        one: int,
        cap: int = DEFAULT_TABLE_CAP,
    ) -> None:
        m = len(add_table)
        if m == 0:
            raise InvalidAlgebra("table backend needs a nonempty carrier")
        if m > cap:
            raise CarrierTooLarge(f"carrier size {m} exceeds cap {cap}")
        for row in add_table:
            if len(row) != m:
                raise InvalidAlgebra("addition table must be square")
            for entry in row:
                if entry is not None and not (isinstance(entry, int) and 0 <= entry < m):
                    raise InvalidAlgebra(f"bad table entry {entry!r}")
        if not (0 <= zero < m and 0 <= one < m):
            raise InvalidAlgebra("zero/one indices out of range")
        if zero == one:
            raise InvalidAlgebra("degenerate table: zero and one coincide")

        self.m = m
        self.table = tuple(tuple(row) for row in add_table)
        self.zero_index = zero
        self.one_index = one
        self._validate_axioms()

        # a <= b iff b appears in a's row of sums.
        self._upper: tuple[frozenset[int], ...] = tuple(
            frozenset(v for v in row if v is not None) | {i}
            for i, row in enumerate(self.table)
        )
        self.zero = self._wrap(zero)
        self.one = self._wrap(one)

    def _validate_axioms(self) -> None:
        m, t = self.m, self.table
        for a in range(m):
            for b in range(m):
                if t[a][b] != t[b][a]:
                    raise InvalidAlgebra(f"commutativity fails at ({a},{b})")
        for a in range(m):
            ta = t[a]
            for b in range(m):
                ab = ta[b]
                tb = t[b]
                for c in range(m):
                    bc = tb[c]
                    lhs = t[ab][c] if ab is not None else None
                    rhs = ta[bc] if bc is not None else None
                    if lhs != rhs:
                        raise InvalidAlgebra(
                            f"associativity fails at ({a},{b},{c}): "
                            f"(a+b)+c={lhs!r}, a+(b+c)={rhs!r}"
                        )
        one = self.one_index
        self._complements = []
        for a in range(m):
            partners = [b for b in range(m) if t[a][b] == one]
            if len(partners) != 1:
                raise InvalidAlgebra(
                    f"element {a} has {len(partners)} complements, expected exactly 1"
                )
            self._complements.append(partners[0])
        for a in range(m):
            if t[a][one] is not None and a != self.zero_index:
                raise InvalidAlgebra(f"a + 1 defined for a={a} != 0")
        for a in range(m):
            if t[self.zero_index][a] != a:
                raise InvalidAlgebra(f"0 + {a} != {a}; zero is not neutral")

    def element(self, index: int) -> EffectElement:
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < self.m:
            raise ParseError(f"table element index {index!r} out of range")
        return self._wrap(index)

    def add(self, a, b):
        s = self.table[self._payload(a)][self._payload(b)]
        return None if s is None else self._wrap(s)

    def complement(self, a):
        return self._wrap(self._complements[self._payload(a)])

    def leq(self, a, b):
        return self._payload(b) in self._upper[self._payload(a)]

    def diff(self, b, a):
        pa, pb = self._payload(a), self._payload(b)
        row = self.table[pa]
        for c in range(self.m):
            if row[c] == pb:
                return self._wrap(c)
        raise InvalidAlgebra("diff requires a <= b")

    def elements(self):
        for i in range(self.m):
            yield self._wrap(i)

    @property
    def size(self):
        return self.m

    def describe(self):
        return {
            "kind": "table",
            "add": [list(row) for row in self.table],
            "zero": self.zero_index,
            "one": self.one_index,
        }

    def element_to_json(self, a):
        return self._payload(a)

    def element_from_json(self, obj):
        return self.element(obj)


def mo2_algebra() -> TableEffectAlgebra:
    """Horizontal sum of two four-element Boolean algebras (six elements).

    Carrier 0, 1, p, p', q, q' with p + p' = q + q' = 1 and no other
    nontrivial sums.  A lattice; useful as a small non-Boolean table.
    """
    Z, U, P, PC, Q, QC = range(6)
    n = None
    table: list[list[int | None]] = [[n] * 6 for _ in range(6)]
    for a in range(6):
        table[Z][a] = a
        table[a][Z] = a
    for a, b in ((P, PC), (Q, QC)):
        table[a][b] = U
        table[b][a] = U
    return TableEffectAlgebra(table, zero=Z, one=U)


def block_cycle_algebra() -> TableEffectAlgebra:
    """Eighteen-element orthoalgebra pasted from four 3-atom Boolean blocks.

    Blocks {a,b,c}, {c,d,e}, {e,f,g}, {g,h,a} share corner atoms in a
    cycle.  Within a block, two distinct atoms sum to the complement of
    the third; the only other sums are x + x' = 1 and sums with 0.  The
    result is a valid effect algebra that is not a lattice: c and g have
    the two minimal incomparable upper bounds a' and e', so join(c, g)
    does not exist.
    """
    names = ["0", "1", "a", "b", "c", "d", "e", "f", "g", "h",
             "a'", "b'", "c'", "d'", "e'", "f'", "g'", "h'"]
    index = {name: i for i, name in enumerate(names)}
    m = len(names)
    table: list[list[int | None]] = [[None] * m for _ in range(m)]

    def put(x: str, y: str, s: str) -> None:
        table[index[x]][index[y]] = index[s]
        table[index[y]][index[x]] = index[s]

    for name in names:
        table[index["0"]][index[name]] = index[name]
        table[index[name]][index["0"]] = index[name]
    for atom in "abcdefgh":
        put(atom, atom + "'", "1")
    blocks = [("a", "b", "c"), ("c", "d", "e"), ("e", "f", "g"), ("g", "h", "a")]
    for x, y, z in blocks:
        put(x, y, z + "'")
        put(y, z, x + "'")
        put(x, z, y + "'")
    alg = TableEffectAlgebra(table, zero=index["0"], one=index["1"])
    alg.atom_names = names
    return alg


class FiniteTribe(EffectAlgebra):
    """Pointwise fuzzy-set algebra on a finite ground set.

    Elements are functions from {0, ..., omega-1} into the rationals
    k/den in [0,1], added pointwise when the sum stays below 1 everywhere.
    With the full grid carrier the order is pointwise and meets/joins are
    pointwise min/max.  A restricted carrier must contain 1, be closed
    under complement, and contain f + g whenever both lie in the carrier
    and f <= 1 - g pointwise; such a carrier need not be closed under
    pointwise min, so meets and joins fall back to exhaustive scans and
    `lattice_guaranteed` is False.
    """

    kind = "tribe"

    def __init__(
        self,
        omega: int,
        den: int,
        carrier: Iterable[tuple[Fraction, ...]] | None = None,
    ) -> None:
        if not isinstance(omega, int) or omega < 1:
            raise InvalidAlgebra("tribe needs an integer ground-set size >= 1")
        if not isinstance(den, int) or den < 1:
            raise InvalidAlgebra("tribe needs an integer denominator >= 1")
        self.omega = omega
        self.den = den
        top = tuple([Fraction(1)] * omega)
        bottom = tuple([Fraction(0)] * omega)
        if carrier is None:
            self.carrier: frozenset[tuple[Fraction, ...]] | None = None
            self.lattice_guaranteed = True
        else:
            values = frozenset(tuple(v) for v in carrier)
            for f in values:
                if len(f) != omega:
                    raise InvalidAlgebra("carrier function has wrong domain size")
                for v in f:
                    self._check_scalar(v)
            if top not in values:
                raise InvalidAlgebra("carrier must contain the constant-1 function")
            for f in values:
                comp = tuple(1 - v for v in f)
                if comp not in values:
                    raise InvalidAlgebra("carrier not closed under complement")
            for f in values:
                for g in values:
                    if all(x <= 1 - y for x, y in zip(f, g)):
                        s = tuple(x + y for x, y in zip(f, g))
                        if s not in values:
                            raise InvalidAlgebra(
                                "carrier not closed under defined addition"
                            )
            self.carrier = values
            self.lattice_guaranteed = False
        self.zero = self._wrap(bottom)
        self.one = self._wrap(top)

    def _check_scalar(self, v: Fraction) -> None:
        if not isinstance(v, Fraction) or v < 0 or v > 1 or self.den % v.denominator:
            raise InvalidAlgebra(f"value {v!r} is not a multiple of 1/{self.den} in [0,1]")

    def _check_member(self, f: tuple[Fraction, ...]) -> None:
        if self.carrier is not None and f not in self.carrier:
            raise ParseError(f"function {f!r} is outside the restricted carrier")

    def element(self, values: Iterable[Fraction | int | str]) -> EffectElement:
        f = tuple(v if isinstance(v, Fraction) else _parse_rational(v) for v in values)
        if len(f) != self.omega:
            raise ParseError(
                f"tribe element needs {self.omega} values, got {len(f)}"
            )
        for v in f:
            try:
                self._check_scalar(v)
            except InvalidAlgebra as exc:
                raise ParseError(str(exc)) from exc
        self._check_member(f)
        return self._wrap(f)

    def function_values(self, a: EffectElement) -> tuple[Fraction, ...]:
        """The element's value vector over the ground set."""
        return self._payload(a)

    def add(self, a, b):
        fa, fb = self._payload(a), self._payload(b)
        s = tuple(x + y for x, y in zip(fa, fb))
        if any(v > 1 for v in s):
            return None
        if self.carrier is not None and s not in self.carrier:
            # closure validation makes this unreachable; keep the guard
            return None
        return self._wrap(s)

    def complement(self, a):
        return self._wrap(tuple(1 - v for v in self._payload(a)))

    def leq(self, a, b):
        return all(x <= y for x, y in zip(self._payload(a), self._payload(b)))

    def meet(self, a, b):
        if self.carrier is not None:
            return self._carrier_bound([a, b], lower=True)
        fa, fb = self._payload(a), self._payload(b)
        return self._wrap(tuple(min(x, y) for x, y in zip(fa, fb)))

    def join(self, a, b):
        if self.carrier is not None:
            return self._carrier_bound([a, b], lower=False)
        fa, fb = self._payload(a), self._payload(b)
        return self._wrap(tuple(max(x, y) for x, y in zip(fa, fb)))

    def diff(self, b, a):
        fa, fb = self._payload(a), self._payload(b)
        if any(x > y for x, y in zip(fa, fb)):
            raise InvalidAlgebra("diff requires a <= b")
        d = tuple(y - x for x, y in zip(fa, fb))
        if self.carrier is not None and d not in self.carrier:
            raise InvalidAlgebra("difference leaves the restricted carrier")
        return self._wrap(d)

    def _carrier_values(self):
        if self.carrier is not None:
            return sorted(self.carrier)
        grid = [Fraction(k, self.den) for k in range(self.den + 1)]
        return (tuple(f) for f in itertools.product(grid, repeat=self.omega))

    def elements(self):
        for f in self._carrier_values():
            yield self._wrap(f)

    @property
    def size(self):
        if self.carrier is not None:
            return len(self.carrier)
        return (self.den + 1) ** self.omega

    def describe(self):
        desc = {"kind": "tribe", "omega": self.omega, "den": self.den}
        if self.carrier is not None:
            desc["carrier"] = [
                [rational_to_json(v) for v in f] for f in sorted(self.carrier)
            ]
        return desc

    def element_to_json(self, a):
        return [rational_to_json(v) for v in self._payload(a)]

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise ParseError(f"tribe element must be an array of rationals, got {obj!r}")
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
                raise SetOutOfRange(f"null point {p!r} outside ground set of size {omega}")
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
            raise ParseError(f"set literal must be an array of indices, got {obj!r}")
        return self.quotient_map(obj)
