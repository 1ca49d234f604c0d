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

# OVERSIZED and SHOWN_CAP are re-exported for callers that import them from here
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

DEFAULT_TABLE_CAP = 256
GROUND_SET_CAP = 10**6  #: most points of a ground set, and bits of a full tribe's size


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

    def __hash__(self) -> int:
        return hash((id(self.algebra), self.payload))

    def __repr__(self) -> str:
        return f"<{self.algebra.kind}:{self.algebra.format_element(self)}>"


class EffectAlgebra(ABC):
    """Common contract of the finite backends.

    `add` returns None when the partial sum is undefined; `meet`/`join`
    return None when the bound does not exist in the carrier.  Everything
    else raises on misuse.  A backend is four hooks on payloads: the
    partial sum `_add` (None when undefined), `_complement`, the order `_le`
    and the n-ary bound `_bound`.  The difference `_diff` is derived from
    the first two, once, here.  The public primitives here are written
    once: each checks ownership of its arguments, calls a hook and wraps the
    answer, and the exact core calls the hooks directly.  The `_le` and
    `_bound` here serve the explicit carriers; lattice backends override them.
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
                f"element {_shown(a)} does not belong to this {self.kind} instance"
            )
        return a.payload

    def _index_carrier(self, payloads, sums) -> None:
        """Compile an explicit carrier: bit i stands for payloads[i] (elements()
        order), and sums[i][j] is the index of payloads[i] + payloads[j], or
        None.  The set of the elements above (below) each element is read off
        a <= a + b."""
        up, down = [0] * len(payloads), [0] * len(payloads)
        for i, row in enumerate(sums):
            for s in row:
                if s is not None:
                    up[i] |= 1 << s
                    down[s] |= 1 << i
        self._elems = tuple(map(self._wrap, payloads))
        self._payloads, self._ups, self._downs = tuple(payloads), tuple(up), tuple(down)
        self._bit = {p: i for i, p in enumerate(payloads)}
        self._up, self._down = dict(zip(payloads, up)), dict(zip(payloads, down))
        # a family's common upper bounds have a least one iff they form its up-set
        self._tops, self._bottoms = dict(zip(up, payloads)), dict(zip(down, payloads))
        self._full = (1 << len(payloads)) - 1

    def _common(self, payloads, upper: bool) -> int:
        """Bitset of the common upper (upper) or lower bounds of payloads."""
        sets, acc = (self._up if upper else self._down), self._full
        for p in payloads:
            acc &= sets[p]
        return acc

    # -- payload hooks ---------------------------------------------------

    @abstractmethod
    def _add(self, pa, pb):
        """Payload of the partial sum, or None when it is undefined."""

    @abstractmethod
    def _complement(self, pa):
        """Payload of the complement."""

    def _diff(self, pb, pa):
        """Payload of the c with a + c = b, called only when pa <= pb: by
        cancellation c = (a + b')', and a + b' is then defined unless the
        backend's order disagrees with its sums."""
        s = self._add(pa, self._complement(pb))
        if s is None:
            raise InvalidAlgebra("a + b' undefined though a <= b; backend is inconsistent")
        return self._complement(s)

    def _le(self, pa, pb) -> bool:
        """The order on payloads; a bit test on explicit carriers."""
        return self._up[pa] >> self._bit[pb] & 1 == 1

    def _bound(self, payloads, lower: bool):
        """Meet (lower) or join of nonempty payloads, or None: one AND of their sets."""
        return (self._bottoms if lower else self._tops).get(self._common(payloads, not lower))

    def _bounds(self, payloads, upper: bool) -> list:
        """Payloads of bounds(): one AND on explicit carriers, an order scan on the others."""
        if not self.lattice_guaranteed:
            acc = self._common(payloads, upper)
            return [e.payload for i, e in enumerate(self._elems) if acc >> i & 1]
        le = self._le
        return [q for q in (e.payload for e in self.elements())
                if all(le(p, q) if upper else le(q, p) for p in payloads)]

    def _extremes(self, payloads, upper: bool) -> list:
        """The minimal common upper bounds (upper) or maximal common lower
        bounds of payloads, in elements() order: on explicit carriers the
        bits i of S = _common with down[i] & S (up[i], for lower bounds)
        holding only i, on the others a minimal-element pass over _bounds."""
        if not self.lattice_guaranteed:
            s = self._common(payloads, upper)
            near, out, rest = self._downs if upper else self._ups, [], s
            while rest:
                low = rest & -rest
                i = low.bit_length() - 1
                if near[i] & s == low:
                    out.append(self._payloads[i])
                rest ^= low
            return out
        le = self._le
        toward = le if upper else (lambda a, b: le(b, a))
        ext: list = []
        for e in self._bounds(payloads, upper):
            if not any(toward(m, e) for m in ext):
                ext = [m for m in ext if not toward(e, m)] + [e]
        return ext

    # -- public primitives -------------------------------------------------

    def add(self, a: EffectElement, b: EffectElement) -> EffectElement | None:
        """Partial sum a + b, or None when undefined."""
        s = self._add(self._payload(a), self._payload(b))
        return None if s is None else self._wrap(s)

    def complement(self, a: EffectElement) -> EffectElement:
        """The unique a' with a + a' = 1."""
        return self._wrap(self._complement(self._payload(a)))

    def leq(self, a: EffectElement, b: EffectElement) -> bool:
        """Induced order: a <= b iff a + c = b for some c."""
        return self._le(self._payload(a), self._payload(b))

    def meet(self, a: EffectElement, b: EffectElement) -> EffectElement | None:
        """Greatest lower bound in the carrier, or None when it does not exist."""
        return self._element_bound((a, b), lower=True)

    def join(self, a: EffectElement, b: EffectElement) -> EffectElement | None:
        """Least upper bound in the carrier, or None when it does not exist."""
        return self._element_bound((a, b), lower=False)

    def diff(self, b: EffectElement, a: EffectElement) -> EffectElement:
        """The unique c with a + c = b; requires a <= b."""
        pa, pb = self._payload(a), self._payload(b)
        if not self._le(pa, pb):
            raise InvalidAlgebra("diff requires a <= b")
        return self._wrap(self._diff(pb, pa))

    def join_many(self, items: Iterable[EffectElement]) -> EffectElement | None:
        """Least upper bound of finitely many elements, None if there is none."""
        return self._element_bound(items, lower=False)

    def meet_many(self, items: Iterable[EffectElement]) -> EffectElement | None:
        """Greatest lower bound of finitely many elements, None if there is none."""
        return self._element_bound(items, lower=True)

    def _element_bound(self, items: Iterable[EffectElement], lower: bool) -> EffectElement | None:
        got = [self._payload(a) for a in items]
        p = self._bound(got, lower) if got else (self.one if lower else self.zero).payload
        return None if p is None else self._wrap(p)

    def bounds(self, items: Iterable[EffectElement], upper: bool) -> list[EffectElement]:
        """The carrier elements above every item (upper) or below every
        item, in elements() order."""
        return list(map(self._wrap, self._bounds([self._payload(a) for a in items], upper)))

    def is_sharp(self, a: EffectElement) -> bool:
        """True when the meet of a and a' exists and is 0."""
        p = self._payload(a)
        return self._bound((p, self._complement(p)), True) == self.zero.payload

    # -- enumeration -----------------------------------------------------

    def elements(self) -> Iterator[EffectElement]:
        """Every element once, with payloads in increasing order, so that
        sorting payload tuples restores the order of chains listed from it."""
        raise NotEnumerable(f"{self.kind} carrier is not finitely enumerable")

    @property
    def size(self) -> int:
        raise NotEnumerable(f"{self.kind} carrier size is not available")

    def sum(self, items: Iterable[EffectElement]) -> EffectElement | None:
        """Fold of add over items; None as soon as a partial sum is undefined."""
        total = self.zero.payload
        for item in items:
            total = self._add(total, self._payload(item))
            if total is None:
                return None
        return self._wrap(total)

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


def _effect_laws(S, zero: int, one: int) -> Iterator[tuple[str, str | None]]:
    """Each law on the index sum table S (S[a][b] the index of a + b, None
    where undefined), lazily and in order: axioms (i)-(iv), then 0 + a = a,
    as (law, message of its first violation or None).  Once (i)-(iv) hold,
    0 = 1' gives (0 + a) + a' = 1, so 0 + a = a by (iii): on a table the
    last law never fails first, but `check axioms` reports each law alone."""
    N = range(len(S))
    yield "commutative", next((
        f"commutativity fails at ({a},{b})" for a in N for b in N if S[a][b] != S[b][a]
    ), None)
    # row = S[a], ab = S[a][b], bc = S[b][c]: (a + b) + c against a + (b + c)
    yield "associative", next((
        f"associativity fails at ({a},{b},{c}): (a+b)+c={lhs!r}, a+(b+c)={rhs!r}"
        for a, row in enumerate(S) for b, ab in enumerate(row) for c, bc in enumerate(S[b])
        if (lhs := None if ab is None else S[ab][c]) != (rhs := None if bc is None else row[bc])
    ), None)
    yield "unique_complement", next((
        f"element {a} has {k} complements, expected exactly 1"
        for a, row in enumerate(S) if (k := row.count(one)) != 1
    ), None)
    yield "one_summable_only_with_zero", next((
        f"a + 1 defined for a={a} != 0" for a in N if S[a][one] is not None and a != zero
    ), None)
    yield "zero_neutral", next((
        f"0 + {a} != {a}; zero is not neutral" for a in N if S[zero][a] != a
    ), None)


class TableEffectAlgebra(EffectAlgebra):
    """An effect algebra given by an explicit partial-addition table.

    The table is validated eagerly against `_effect_laws`, and its carrier
    is compiled from it: a <= b iff b appears in a's row of sums.
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
    ) -> None:
        m = len(add_table)
        if m == 0:
            raise InvalidAlgebra("table backend needs a nonempty carrier")
        if m > DEFAULT_TABLE_CAP:
            raise CarrierTooLarge(f"carrier size {m} exceeds cap {DEFAULT_TABLE_CAP}")

        def is_index(v) -> bool:
            return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < m

        for row in add_table:
            if not isinstance(row, (list, tuple)) or len(row) != m:
                raise InvalidAlgebra("addition table must be square")
            for entry in row:
                if entry is not None and not is_index(entry):
                    raise InvalidAlgebra(f"bad table entry {_shown(entry)}")
        if not (is_index(zero) and is_index(one)):
            raise InvalidAlgebra("zero/one indices out of range")
        if zero == one:
            raise InvalidAlgebra("degenerate table: zero and one coincide")

        self.m = m
        self.table = tuple(tuple(row) for row in add_table)
        self.zero_index = zero
        self.one_index = one
        for _, failure in _effect_laws(self.table, zero, one):
            if failure is not None:
                raise InvalidAlgebra(failure)
        self._complements = [row.index(one) for row in self.table]
        self._index_carrier(range(m), self.table)
        self.zero = self._elems[zero]
        self.one = self._elems[one]

    def element(self, index: int) -> EffectElement:
        if not isinstance(index, int) or isinstance(index, bool) or not 0 <= index < self.m:
            raise ParseError(f"table element index {_shown(index)} out of range")
        return self._elems[index]

    def _add(self, pa, pb):
        return self.table[pa][pb]

    def _complement(self, pa):
        return self._complements[pa]

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
