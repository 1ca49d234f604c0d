"""The derived difference and the order compiled from a sum table against
frozen copies of their first form.

ref_table below is a copy of the validation of TableEffectAlgebra as it
stood when the table filled a difference map with one entry per defined
sum; ref_diff holds the difference each backend computed on its own
(k - j on a chain, XOR on bitmasks, pointwise subtraction on a tribe,
that map on a table), and ref_tribe_sets the pairwise pointwise pass that
compiled the order of a restricted tribe.  They are kept frozen here.
Today every backend derives the difference as (a + b')', and both
explicit carriers read their order off their sum table.  On seeded
mutations of three tables, both constructions must raise the same
exception type with the same message, or agree on the complements, the
up-sets, the down-sets and every difference; on every comparable pair of
the backends below, the differences must agree.
"""

from __future__ import annotations

import operator
import random

import pytest

from olsonorder.algebras import (
    DEFAULT_TABLE_CAP,
    FiniteSetAlgebra,
    FiniteTribe,
    MVChain,
    QuotientBooleanAlgebra,
    TableEffectAlgebra,
    _BitmaskAlgebra,
    _shown,
    block_cycle_algebra,
    mo2_algebra,
    restricted_sum_tribe,
)
from olsonorder.errors import CarrierTooLarge, InvalidAlgebra

# -- frozen copies -------------------------------------------------------------


def ref_table(add_table, zero, one):
    """The complements, up-sets, down-sets and difference map of a table,
    or the exception its validation raised."""
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

    t = tuple(tuple(row) for row in add_table)
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
    complements = []
    for a in range(m):
        partners = [b for b in range(m) if t[a][b] == one]
        if len(partners) != 1:
            raise InvalidAlgebra(
                f"element {a} has {len(partners)} complements, expected exactly 1"
            )
        complements.append(partners[0])
    for a in range(m):
        if t[a][one] is not None and a != zero:
            raise InvalidAlgebra(f"a + 1 defined for a={a} != 0")
    for a in range(m):
        if t[zero][a] != a:
            raise InvalidAlgebra(f"0 + {a} != {a}; zero is not neutral")
    return complements, tuple(up), tuple(down), diffs


def ref_diff(algebra, pb, pa):
    if isinstance(algebra, MVChain):
        return pb - pa
    if isinstance(algebra, _BitmaskAlgebra):
        return pb ^ pa
    if isinstance(algebra, FiniteTribe):
        return tuple(map(operator.sub, pb, pa))
    return ref_table(algebra.table, algebra.zero_index, algebra.one_index)[3][pb, pa]


def ref_tribe_sets(funcs):
    up, down = [0] * len(funcs), [0] * len(funcs)
    for i, f in enumerate(funcs):
        for j, g in enumerate(funcs):
            if all(map(operator.le, f, g)):
                up[i] |= 1 << j
                down[j] |= 1 << i
    return tuple(up), tuple(down)


# -- table mutations -----------------------------------------------------------


def _table_outcome(build, table, zero, one):
    try:
        return build(table, zero, one)
    except Exception as exc:  # every exception is compared, typed or not
        return type(exc), str(exc)


def _compiled(table, zero, one):
    alg = TableEffectAlgebra(table, zero, one)
    diffs = {(s, a): alg._diff(s, a)
             for a in range(alg.m) for s in range(alg.m) if alg._ups[a] >> s & 1}
    return list(alg._complements), alg._ups, alg._downs, diffs


def _mutant(table, rng):
    """table with one to three entries redrawn (most of them on both sides
    of the diagonal, so that later laws are reached), and now and then
    another zero or one."""
    m = len(table)
    t = [list(row) for row in table]
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randrange(m), rng.randrange(m)
        t[a][b] = rng.choice([None, *range(m)])
        if rng.random() < 0.75:
            t[b][a] = t[a][b]
    zero, one = 0, 1
    if rng.random() < 0.1:
        zero, one = rng.randrange(m), rng.randrange(m)
    return t, zero, one


TABLES = {
    "two_chain": [[0, 1], [1, None]],
    "mo2": [list(row) for row in mo2_algebra().table],
    "block_cycle": [list(row) for row in block_cycle_algebra().table],
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", TABLES)
def test_table_mutations_compile_as_the_frozen_table(name, seed):
    rng = random.Random(f"{name}-{seed}")
    valid = 0
    for _ in range(3000):
        table, zero, one = _mutant(TABLES[name], rng)
        got = _table_outcome(_compiled, table, zero, one)
        assert got == _table_outcome(ref_table, table, zero, one), (table, zero, one)
        valid += isinstance(got[0], list)
    assert valid > 0


# -- differences on every comparable pair --------------------------------------

TRIBES = [(2, 2), (2, 4), (2, 6), (3, 3), (3, 4), (3, 5), (4, 2), (4, 4)]
BACKENDS = {
    "mv_chain_8": MVChain(8),
    "set_algebra_3": FiniteSetAlgebra(3),
    "tribe_2_3": FiniteTribe(2, 3),
    "quotient_4": QuotientBooleanAlgebra(4, [1]),
    "mo2": mo2_algebra(),
    "block_cycle": block_cycle_algebra(),
    **{f"restricted_{omega}_{den}": restricted_sum_tribe(omega, den) for omega, den in TRIBES},
}


@pytest.mark.parametrize("name", BACKENDS)
def test_derived_difference_matches_each_backends_own(name):
    algebra = BACKENDS[name]
    payloads = [e.payload for e in algebra.elements()]
    pairs = [(pa, pb) for pa in payloads for pb in payloads if algebra._le(pa, pb)]
    assert pairs
    for pa, pb in pairs:
        assert algebra._diff(pb, pa) == ref_diff(algebra, pb, pa), (pb, pa)


@pytest.mark.parametrize("omega, den", TRIBES)
def test_restricted_tribe_order_from_sums_is_the_pointwise_order(omega, den):
    tribe = restricted_sum_tribe(omega, den)
    funcs = tuple(sorted(tuple(v.numerator * (den // v.denominator) for v in f)
                         for f in tribe.carrier))
    assert tribe._payloads == funcs
    assert (tribe._ups, tribe._downs) == ref_tribe_sets(funcs)
