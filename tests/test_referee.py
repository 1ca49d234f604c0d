"""Generated non-lattice backends as a referee for the compiled carriers.

Seeded, validated table backends are built here:

* horizontal sums of Boolean algebras and MV-chains, glued at 0 and 1
  (mo2 is the sum of two four-element Boolean algebras);
* Greechie pastings of three-atom Boolean blocks along a loop, where
  neighbouring blocks share one corner atom (block_cycle is the 4-loop).

Greechie's loop lemma (Greechie 1971, J. Combin. Theory A 10; Kalmbach,
Orthomodular Lattices, 1983) predicts which pastings are lattices: with
no loop shorter than 5 the pasting is an orthomodular lattice, so every
binary join exists on the 5-loop; a 4-loop gives an orthomodular poset
and a 3-loop an orthoalgebra, and neither is a lattice.

Over these backends and every shipped one, each primitive must equal a
reference that uses nothing but the addition: the order by a witness
scan, the bounds by the carrier scan that the bitset bounds replaced,
differences and complements by scanning for the summand.  brute_force_*
must equal the enumeration reference of test_reference, refusals
included.
"""

from __future__ import annotations

import random

import pytest

from olsonorder.algebras import DEFAULT_TABLE_CAP, TableEffectAlgebra
from olsonorder.errors import InvalidAlgebra
from olsonorder.observables import question

from test_algebras import ALL_BACKENDS
from test_golden import CAP, _draw
from test_reference import _assert_brute_force_agrees


def _relabel(table, zero, one, rng):
    """The same algebra with its elements renumbered by a seeded permutation."""
    m = len(table)
    perm = list(range(m))
    rng.shuffle(perm)
    out = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            s = table[a][b]
            out[perm[a]][perm[b]] = None if s is None else perm[s]
    return TableEffectAlgebra(out, zero=perm[zero], one=perm[one])


def _block(kind, size):
    """(elements, add, zero, one) of a Boolean algebra on size atoms or of
    the MV-chain 0, 1/size, ..., 1, on integer payloads."""
    if kind == "bool":
        top = (1 << size) - 1
        return range(top + 1), lambda a, b: a | b if a & b == 0 else None, 0, top
    return range(size + 1), lambda a, b: a + b if a + b <= size else None, 0, size


def horizontal_sum(blocks, rng):
    """The blocks glued at 0 (index 0) and 1 (index 1); elements of
    different blocks add only when one of them is 0."""
    index, m = [], 2
    for kind, size in blocks:
        elems, add, zero, one = _block(kind, size)
        ids = {zero: 0, one: 1}
        for e in elems:
            if e not in ids:
                ids[e] = m
                m += 1
        index.append((elems, add, ids))
    table = [[None] * m for _ in range(m)]
    for elems, add, ids in index:
        for a in elems:
            for b in elems:
                s = add(a, b)
                if s is not None:
                    table[ids[a]][ids[b]] = ids[s]
    return _relabel(table, 0, 1, rng)


def loop_pasting(n, rng):
    """Three-atom blocks {c_i, d_i, c_{i+1}} around a loop of n blocks.

    Atom i has index 2 + i and its complement 2 + 2n + i; inside a block
    two atoms sum to the complement of the third, every atom sums with
    its complement to 1, and 0 is neutral.
    """
    atoms = 2 * n
    m = 2 + 2 * atoms
    table = [[None] * m for _ in range(m)]
    for e in range(m):
        table[0][e] = table[e][0] = e
    for i in range(atoms):
        table[2 + i][2 + atoms + i] = table[2 + atoms + i][2 + i] = 1
    for k in range(n):
        block = (2 * k, 2 * k + 1, (2 * k + 2) % atoms)
        for x in block:
            for y in block:
                if x != y:
                    (z,) = set(block) - {x, y}
                    table[2 + x][2 + y] = 2 + atoms + z
    return _relabel(table, 0, 1, rng)


def _generated():
    out = {}
    for seed in range(4):
        rng = random.Random(8100 + seed)
        blocks = [(rng.choice(("bool", "chain")), rng.randint(2, 3)) for _ in range(rng.randint(2, 3))]
        out[f"hsum{seed}"] = horizontal_sum(blocks, rng)
    for n in (3, 4, 5):
        out[f"loop{n}"] = loop_pasting(n, random.Random(8200 + n))
    return out


GENERATED = _generated()
REFEREED = {**GENERATED, **{f"{alg.kind}{i}": alg for i, alg in enumerate(ALL_BACKENDS)}}


def test_generated_backends_are_valid_tables_under_the_cap():
    assert GENERATED["loop4"].size == 18
    assert GENERATED["loop5"].size == 22
    for alg in GENERATED.values():
        assert 4 <= alg.size <= DEFAULT_TABLE_CAP
        assert not alg.lattice_guaranteed
    # two four-element Boolean algebras glue to mo2's six elements
    assert horizontal_sum([("bool", 2), ("bool", 2)], random.Random(0)).size == 6


def _missing_joins(alg):
    elems = list(alg.elements())
    return [(a, b) for a in elems for b in elems if alg.join(a, b) is None]


def test_loop_lemma_predicts_which_pastings_are_lattices():
    assert _missing_joins(GENERATED["loop5"]) == []
    for n in (3, 4):
        assert _missing_joins(GENERATED[f"loop{n}"]), n


# -- the reference, from the addition alone -------------------------------------


def _carrier_bound(items, lower, elems, le):
    """Greatest common lower bound (lower) or least common upper bound
    of items, found by scanning the carrier; None when it does not exist.

    The scan the bitset bounds replaced, with the order passed in.
    """

    def le_dir(a, b):
        # the order of the bound's direction: reversed for upper bounds
        return le(a, b) if lower else le(b, a)

    bounds = [u for u in elems if all(le_dir(u, a) for a in items)]
    for u in bounds:
        if all(le_dir(v, u) for v in bounds):
            return u
    return None


class _Reference:
    def __init__(self, alg):
        self.alg = alg
        self.elems = elems = list(alg.elements())
        add = alg.add
        self.sums = {(a, b): add(a, b) for a in elems for b in elems}
        self.order = {(a, b): any(self.sums[a, c] == b for c in elems) for a in elems for b in elems}

    def le(self, a, b):
        return self.order[a, b]

    def bound(self, items, lower):
        return _carrier_bound(items, lower, self.elems, self.le)

    def bounds(self, items, upper):
        return [e for e in self.elems if all(self.le(a, e) if upper else self.le(e, a) for a in items)]

    def diff(self, b, a):
        return next((c for c in self.elems if self.sums[a, c] == b), None)

    def complement(self, a):
        (c,) = [c for c in self.elems if self.sums[a, c] == self.alg.one]
        return c


def _assert_family(alg, ref, items):
    assert alg.join_many(items) == ref.bound(items, lower=False), items
    assert alg.meet_many(items) == ref.bound(items, lower=True), items
    for upper in (True, False):
        assert alg.bounds(items, upper) == ref.bounds(items, upper), items


@pytest.mark.parametrize("name", sorted(REFEREED))
def test_primitives_match_the_reference(name):
    alg = REFEREED[name]
    ref = _Reference(alg)
    elems = ref.elems
    _assert_family(alg, ref, [])
    for a in elems:
        assert alg.complement(a) == ref.complement(a)
        for b in elems:
            assert alg.leq(a, b) == ref.le(a, b), (a, b)
            assert alg.join(a, b) == ref.bound([a, b], lower=False), (a, b)
            assert alg.meet(a, b) == ref.bound([a, b], lower=True), (a, b)
            _assert_family(alg, ref, [a, b])
            want = ref.diff(b, a)
            if want is None:
                with pytest.raises(InvalidAlgebra):
                    alg.diff(b, a)
            else:
                assert alg.diff(b, a) == want, (a, b)
    rng = random.Random(len(elems))
    for _ in range(150):
        _assert_family(alg, ref, [rng.choice(elems) for _ in range(3)])


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_brute_force_matches_reference_on_generated_backends(name):
    alg = GENERATED[name]
    elems = list(alg.elements())
    rng = random.Random(8300 + alg.size)
    outcomes = []
    for _ in range(12):
        xs = tuple(_draw(alg, elems, rng, 0.6) for _ in range(rng.choice((1, 2, 2, 3))))
        outcomes += _assert_brute_force_agrees(xs, CAP)
    # questions on pairs without a join: the exhaustive frontier
    for a, b in _missing_joins(alg)[:6]:
        outcomes += _assert_brute_force_agrees((question(alg, a), question(alg, b)), CAP)
    refused = sum(isinstance(got, tuple) for got in outcomes)
    missing = sum(not isinstance(got, tuple) and not got.exists for got in outcomes)
    assert (refused > 0) == (alg.size >= 18), refused
    assert (missing > 0) == (name in ("loop3", "loop4")), missing
