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

Every backend in this module is exact: payloads are integers (k for k/n
on a chain, a table index, a bitmask) or tuples of integer numerators,
equality is literal, and no floating point is involved; rationals appear
only where elements are built, printed or read back.  Elements are owned
by the backend instance that created them; every public primitive checks
that, and mixing instances raises even when parameters agree.

Meets and joins are dual, and each duality is written once with the
order direction as a parameter.  Lattice backends compute the n-ary
bound with arithmetic.  Explicit carriers (the table and a restricted
tribe) index their elements in elements() order while they validate,
keep one up-set and one down-set bitset per element, and find a bound
as the AND of those sets: it exists iff the AND is principal.
"""

from __future__ import annotations

import functools
import itertools
import operator
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
    else raises on misuse.  The order, bounds and differences here serve
    the explicit carriers; lattice backends override `leq` and `diff` and
    give the n-ary bound of a nonempty payload list as `_lattice_bound`.
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

    def _index_carrier(self, payloads, up, down, diffs) -> None:
        """Compile an explicit carrier: bit i stands for payloads[i] (elements()
        order), up[i]/down[i] are the sets of the elements above/below it,
        and diffs maps (b, a) to the index of the c with a + c = b."""
        self._elems = elems = tuple(map(self._wrap, payloads))
        self._bit = {p: i for i, p in enumerate(payloads)}
        self._up, self._down = dict(zip(payloads, up)), dict(zip(payloads, down))
        # a family's common upper bounds have a least one iff they form its up-set
        self._tops, self._bottoms = dict(zip(up, elems)), dict(zip(down, elems))
        self._diffs = {key: elems[c] for key, c in diffs.items()}
        self._full = (1 << len(elems)) - 1

    def _common(self, items: Iterable[EffectElement], upper: bool) -> int:
        """Bitset of the common upper (upper) or lower bounds of items."""
        sets, acc = (self._up if upper else self._down), self._full
        for a in items:
            acc &= sets[self._payload(a)]
        return acc

    # -- partial addition and derived structure -------------------------

    @abstractmethod
    def add(self, a: EffectElement, b: EffectElement) -> EffectElement | None:
        """Partial sum a + b, or None when undefined."""

    @abstractmethod
    def complement(self, a: EffectElement) -> EffectElement:
        """The unique a' with a + a' = 1."""

    def leq(self, a: EffectElement, b: EffectElement) -> bool:
        """Induced order: a <= b iff a + c = b for some c; a bit test."""
        bit = self._bit[self._payload(b)]
        return self._up[self._payload(a)] >> bit & 1 == 1

    def meet(self, a: EffectElement, b: EffectElement) -> EffectElement | None:
        """Greatest lower bound in the carrier, or None when it does not exist."""
        return self._bound_many((a, b), lower=True)

    def join(self, a: EffectElement, b: EffectElement) -> EffectElement | None:
        """Least upper bound in the carrier, or None when it does not exist."""
        return self._bound_many((a, b), lower=False)

    def diff(self, b: EffectElement, a: EffectElement) -> EffectElement:
        """The unique c with a + c = b; requires a <= b."""
        pa = self._payload(a)
        c = self._diffs.get((self._payload(b), pa))
        if c is not None:
            return c
        if self.leq(a, b):
            # a restricted tribe's pointwise order without a carrier witness
            raise InvalidAlgebra("difference leaves the restricted carrier")
        raise InvalidAlgebra("diff requires a <= b")

    def join_many(self, items: Iterable[EffectElement]) -> EffectElement | None:
        """Least upper bound of finitely many elements, None if there is none."""
        return self._bound_many(items, lower=False)

    def meet_many(self, items: Iterable[EffectElement]) -> EffectElement | None:
        """Greatest lower bound of finitely many elements, None if there is none."""
        return self._bound_many(items, lower=True)

    def _bound_many(self, items: Iterable[EffectElement], lower: bool) -> EffectElement | None:
        if self.lattice_guaranteed:
            got = [self._payload(a) for a in items]
            if not got:
                return self.one if lower else self.zero
            return self._wrap(self._lattice_bound(got, lower))
        # one AND for the whole family: the n-ary bound can exist where
        # binary ones do not; the empty family leaves the set of every element
        return (self._bottoms if lower else self._tops).get(self._common(items, not lower))

    def bounds(self, items: Iterable[EffectElement], upper: bool) -> list[EffectElement]:
        """The carrier elements above every item (upper) or below every
        item, in elements() order: one AND on explicit carriers, a leq scan
        of the carrier on the others."""
        if not self.lattice_guaranteed:
            acc = self._common(items, upper)
            return [e for i, e in enumerate(self._elems) if acc >> i & 1]
        items, leq = list(items), self.leq
        return [e for e in self.elements()
                if all(leq(a, e) if upper else leq(e, a) for a in items)]

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


def _shown(value, text=repr) -> str:
    """text(value) for an error message, or a placeholder when value holds
    a rational that Python refuses to print (over RATIONAL_DIGIT_CAP digits)."""
    try:
        return text(value)
    except ValueError:
        return f"<rational of over {RATIONAL_DIGIT_CAP} digits>"


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
        if q < 0 or q > 1 or (self.n % q.denominator) != 0:
            raise ParseError(f"{_shown(q, str)} is not a multiple of 1/{self.n} in [0,1]")
        return self._wrap(q.numerator * (self.n // q.denominator))

    def add(self, a, b):
        s = self._payload(a) + self._payload(b)
        return self._wrap(s) if s <= self.n else None

    def complement(self, a):
        return self._wrap(self.n - self._payload(a))

    def leq(self, a, b):
        return self._payload(a) <= self._payload(b)

    def _lattice_bound(self, payloads, lower):
        return min(payloads) if lower else max(payloads)

    def diff(self, b, a):
        pa, pb = self._payload(a), self._payload(b)
        if pa > pb:
            raise InvalidAlgebra("diff requires a <= b")
        return self._wrap(pb - pa)

    def is_sharp(self, a):
        return self._payload(a) in (0, self.n)

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

    def add(self, a, b):
        pa, pb = self._payload(a), self._payload(b)
        return self._wrap(pa | pb) if pa & pb == 0 else None

    def complement(self, a):
        return self._wrap(self._top ^ self._payload(a))

    def leq(self, a, b):
        pa, pb = self._payload(a), self._payload(b)
        return pa & pb == pa

    def _lattice_bound(self, payloads, lower):
        return functools.reduce(operator.and_ if lower else operator.or_, payloads)

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

    The table is validated eagerly against axioms (i)-(iv); the same
    pass precomputes complements and compiles the carrier: a <= b iff b
    appears in a's row of sums, and that row is the difference map.
    Meets and joins are the inherited bitset bounds and may not exist, so
    `lattice_guaranteed` stays False and lattice clients must certify
    nonexistence themselves.  Payloads are the indices, so bit i is
    element i.
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
        self.zero = self._elems[zero]
        self.one = self._elems[one]

    def _validate_axioms(self) -> None:
        m, t = self.m, self.table
        up, down, diffs = [0] * m, [0] * m, {}
        for a in range(m):
            for b in range(m):
                s = t[a][b]
                if s != t[b][a]:
                    raise InvalidAlgebra(f"commutativity fails at ({a},{b})")
                if s is not None:
                    up[a] |= 1 << s
                    down[s] |= 1 << a
                    diffs[s, a] = b
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
        self._index_carrier(range(m), up, down, diffs)

    def element(self, index: int) -> EffectElement:
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < self.m:
            raise ParseError(f"table element index {index!r} out of range")
        return self._elems[index]

    def add(self, a, b):
        s = self.table[self._payload(a)][self._payload(b)]
        return None if s is None else self._wrap(s)

    def complement(self, a):
        return self._wrap(self._complements[self._payload(a)])

    def elements(self):
        return iter(self._elems)

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
    k/den in [0,1], added pointwise when the sum stays below 1 everywhere;
    the payload is the tuple of numerators k.  With the full grid carrier
    the order is pointwise and meets/joins are pointwise min/max.  A
    restricted carrier must contain 1, be closed under complement, and
    contain f + g whenever both lie in the carrier and f <= 1 - g
    pointwise; such a carrier need not be closed under pointwise min, so
    it is explicit: the validation pass compiles its pointwise order and
    sums into bitsets, and `lattice_guaranteed` is False.
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
        top = (den,) * omega
        self.carrier: frozenset[tuple[Fraction, ...]] | None = None
        self.lattice_guaranteed = carrier is None
        if carrier is not None:
            values = frozenset(tuple(v) for v in carrier)
            for f in values:
                if len(f) != omega:
                    raise InvalidAlgebra("carrier function has wrong domain size")
                for v in f:
                    self._check_scalar(v)
            funcs = sorted(map(self._numerators, values))
            index = {f: i for i, f in enumerate(funcs)}
            if top not in index:
                raise InvalidAlgebra("carrier must contain the constant-1 function")
            if any(tuple(den - v for v in f) not in index for f in funcs):
                raise InvalidAlgebra("carrier not closed under complement")
            up, down, diffs = [0] * len(funcs), [0] * len(funcs), {}
            for i, f in enumerate(funcs):
                for j, g in enumerate(funcs):
                    if all(x <= y for x, y in zip(f, g)):
                        up[i] |= 1 << j
                        down[j] |= 1 << i
                    s = tuple(x + y for x, y in zip(f, g))
                    if max(s) <= den:
                        if s not in index:
                            raise InvalidAlgebra("carrier not closed under defined addition")
                        diffs[s, f] = j
            self._index_carrier(funcs, up, down, diffs)
            self.carrier = values
        self.zero = self._wrap((0,) * omega)
        self.one = self._wrap(top)

    def _check_scalar(self, v: Fraction) -> None:
        if not isinstance(v, Fraction) or v < 0 or v > 1 or self.den % v.denominator:
            raise InvalidAlgebra(f"value {_shown(v)} is not a multiple of 1/{self.den} in [0,1]")

    def _numerators(self, f: tuple[Fraction, ...]) -> tuple[int, ...]:
        return tuple(v.numerator * (self.den // v.denominator) for v in f)

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
        p = self._numerators(f)
        if self.carrier is not None and p not in self._bit:
            raise ParseError(f"function {f!r} is outside the restricted carrier")
        return self._wrap(p)

    def function_values(self, a: EffectElement) -> tuple[Fraction, ...]:
        """The element's value vector over the ground set."""
        return tuple(Fraction(k, self.den) for k in self._payload(a))

    def add(self, a, b):
        fa, fb = self._payload(a), self._payload(b)
        s = tuple(x + y for x, y in zip(fa, fb))
        if max(s) > self.den:
            return None
        if self.carrier is not None and s not in self._bit:
            # closure validation makes this unreachable; keep the guard
            return None
        return self._wrap(s)

    def complement(self, a):
        return self._wrap(tuple(self.den - v for v in self._payload(a)))

    def leq(self, a, b):
        if self.carrier is not None:
            return super().leq(a, b)
        return all(x <= y for x, y in zip(self._payload(a), self._payload(b)))

    def _lattice_bound(self, payloads, lower):
        return tuple(map(min if lower else max, zip(*payloads)))

    def diff(self, b, a):
        if self.carrier is not None:
            return super().diff(b, a)
        fa, fb = self._payload(a), self._payload(b)
        if any(x > y for x, y in zip(fa, fb)):
            raise InvalidAlgebra("diff requires a <= b")
        return self._wrap(tuple(y - x for x, y in zip(fa, fb)))

    def elements(self):
        if self.carrier is not None:
            return iter(self._elems)
        return map(self._wrap, itertools.product(range(self.den + 1), repeat=self.omega))

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
        return [rational_to_json(v) for v in self.function_values(a)]

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
