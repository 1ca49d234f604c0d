"""The effect-algebra contract and the explicit table backends.

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

`EffectAlgebra` is the contract every backend implements: four payload
hooks, and the public primitives written once over them.  Elements are
owned by the backend instance that created them; every public primitive
checks that, and mixing instances raises even when parameters agree.
Meets and joins are dual, and each duality is written once with the
order direction as a parameter.

Explicit carriers (the tables here and a restricted tribe) index their
elements in elements() order while they validate, keep one up-set and
one down-set bitset per element, and find a bound as the AND of those
sets: it exists iff the AND is principal.  A table's payloads are its
indices, so this module needs no rational arithmetic; the arithmetic
backends live in `algebras`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator

from .errors import (
    CarrierTooLarge,
    ElementForeignToAlgebra,
    InvalidAlgebra,
    NotEnumerable,
    ParseError,
    _shown,
)

DEFAULT_TABLE_CAP = 256
# The classes here carry the module name `olsonorder.algebras`, which
# serves every backend class: class reprs, pickles, and tools that list
# a module's backend classes by __module__ see all backends in one place.
_PUBLIC_MODULE = "olsonorder.algebras"


class EffectElement:
    """An element of one backend instance.

    Wraps an exact payload together with the owning algebra.  Equality and
    hashing require the same owning instance; payloads never travel between
    backends.
    """

    __module__ = _PUBLIC_MODULE
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

    __module__ = _PUBLIC_MODULE
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

    __module__ = _PUBLIC_MODULE
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
