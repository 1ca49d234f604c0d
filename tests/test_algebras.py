from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from olsonorder import algebras, effect
from olsonorder.algebras import (
    FiniteSetAlgebra,
    FiniteTribe,
    MVChain,
    QuotientBooleanAlgebra,
    TableEffectAlgebra,
    block_cycle_algebra,
    mo2_algebra,
    restricted_sum_tribe,
)
from olsonorder.errors import (
    CarrierTooLarge,
    ElementForeignToAlgebra,
    InvalidAlgebra,
    ParseError,
    SetOutOfRange,
)
from olsonorder.suites import run_axioms, run_order

F = Fraction

ALL_BACKENDS = [
    MVChain(2),
    MVChain(4),
    MVChain(8),
    FiniteSetAlgebra(1),
    FiniteSetAlgebra(2),
    FiniteSetAlgebra(3),
    mo2_algebra(),
    block_cycle_algebra(),
    FiniteTribe(2, 4),
    FiniteTribe(1, 3),
    restricted_sum_tribe(),
    QuotientBooleanAlgebra(3, (2,)),
    QuotientBooleanAlgebra(4, (1, 3)),
]


@pytest.mark.parametrize("algebra", ALL_BACKENDS, ids=lambda a: repr(a.describe())[:40])
def test_axioms_exhaustive(algebra):
    report = run_axioms(algebra)
    assert report["passed"], report


@pytest.mark.parametrize("algebra", ALL_BACKENDS, ids=lambda a: repr(a.describe())[:40])
def test_order_coherence(algebra):
    report = run_order(algebra)
    assert report["passed"], report


def test_mv_chain_arithmetic(mv4):
    q = mv4.element(F(1, 4))
    h = mv4.element(F(1, 2))
    assert mv4.add(q, q) == h
    assert mv4.add(h, mv4.element(F(3, 4))) is None
    assert mv4.complement(q) == mv4.element(F(3, 4))
    assert mv4.leq(q, h) and not mv4.leq(h, q)
    assert mv4.diff(h, q) == q
    assert mv4.meet(q, h) == q and mv4.join(q, h) == h
    with pytest.raises(ParseError):
        mv4.element(F(1, 3))


def test_set_algebra_masks(set3):
    a = set3.subset((0, 2))
    b = set3.subset((1,))
    assert set3.points(a) == (0, 2)
    assert set3.add(a, b) == set3.one
    assert set3.add(a, a) is None
    assert set3.meet(a, set3.subset((2,))) == set3.subset((2,))
    with pytest.raises(SetOutOfRange):
        set3.subset((3,))


def test_backends_implement_only_payload_hooks():
    # the public primitives, with their ownership checks, and the difference
    # derived from the sum and the complement live in EffectAlgebra alone
    public = {"add", "complement", "leq", "meet", "join", "diff",
              "meet_many", "join_many", "bounds", "is_sharp", "_diff"}
    backends = [c for c in vars(algebras).values()
                if isinstance(c, type) and issubclass(c, algebras.EffectAlgebra)
                and c is not algebras.EffectAlgebra]
    assert MVChain in backends and TableEffectAlgebra in backends
    for cls in backends:
        assert not public & set(vars(cls)), cls


def test_every_backend_class_is_named_under_algebras():
    # the contract and the table are defined in effect.py, which loads no
    # rational arithmetic, but are named by the module that serves every
    # backend: pickles, and listings of a module's own classes (as in
    # perfbench's tracer), find all of them in olsonorder.algebras
    classes = [c for c in vars(algebras).values() if isinstance(c, type)
               and issubclass(c, (algebras.EffectAlgebra, algebras.EffectElement))]
    assert {c.__module__ for c in classes} == {"olsonorder.algebras"}
    assert {effect.EffectAlgebra, effect.EffectElement, effect.TableEffectAlgebra} <= set(classes)
    table = mo2_algebra()
    assert pickle.loads(pickle.dumps(table)).describe() == table.describe()


def test_foreign_elements_rejected(mv4, set2):
    with pytest.raises(ElementForeignToAlgebra):
        mv4.add(mv4.element(F(1, 4)), set2.subset((0,)))
    other = MVChain(4)
    with pytest.raises(ElementForeignToAlgebra):
        mv4.leq(mv4.element(F(1, 4)), other.element(F(1, 4)))


@pytest.mark.parametrize("make", [mo2_algebra, block_cycle_algebra, restricted_sum_tribe])
def test_scanned_bounds_reject_foreign_elements(make, mv4):
    algebra = make()
    own = algebra.one
    # another backend, and a twin instance with the same parameters
    for stranger in (mv4.zero, make().zero):
        for op in (algebra.meet, algebra.join):
            with pytest.raises(ElementForeignToAlgebra):
                op(own, stranger)
            with pytest.raises(ElementForeignToAlgebra):
                op(stranger, own)
        for op in (algebra.meet_many, algebra.join_many):
            with pytest.raises(ElementForeignToAlgebra):
                op([own, stranger])


def test_table_validation_catches_broken_tables():
    # drop commutativity from the two-chain
    table = [[0, 1], [None, None]]
    with pytest.raises(InvalidAlgebra):
        TableEffectAlgebra(table, zero=0, one=1)
    # complement of the atom is missing entirely
    table = [[0, 1, 2], [1, None, None], [2, None, None]]
    with pytest.raises(InvalidAlgebra):
        TableEffectAlgebra(table, zero=0, one=2)
    # a boolean or a float is no index, though it compares equal to one
    with pytest.raises(InvalidAlgebra, match="bad table entry True"):
        TableEffectAlgebra([[0, True], [True, None]], zero=0, one=1)
    for zero, one in ((False, True), (0, 1.0)):
        with pytest.raises(InvalidAlgebra, match="zero/one indices out of range"):
            TableEffectAlgebra([[0, 1], [1, None]], zero=zero, one=one)


def test_mo2_shape(mo2):
    elems = list(mo2.elements())
    assert len(elems) == 6
    atoms = [e for e in elems if e not in (mo2.zero, mo2.one)]
    # two incomparable atom pairs, each summing to one with its partner
    for a in atoms:
        partners = [b for b in atoms if mo2.add(a, b) == mo2.one]
        assert len(partners) == 1
    assert not mo2.lattice_guaranteed


def test_block_cycle_meets_break(cycle):
    def elem(name):
        return cycle.element_from_json(cycle.atom_names.index(name))

    c, g = elem("c"), elem("g")
    assert cycle.join(c, g) is None
    uppers = [e for e in cycle.elements() if cycle.leq(c, e) and cycle.leq(g, e)]
    minimal = [
        u
        for u in uppers
        if not any(v != u and cycle.leq(v, u) for v in uppers)
    ]
    # the loop of blocks leaves two minimal upper bounds, so no join
    assert len(minimal) == 2
    assert {cycle.complement(elem("a")), cycle.complement(elem("e"))} == set(minimal)


def test_tribe_elements_and_carrier(tribe24):
    f = tribe24.element((F(1, 4), F(1, 2)))
    g = tribe24.element((F(1, 2), F(1, 4)))
    s = tribe24.add(f, g)
    assert tribe24.function_values(s) == (F(3, 4), F(3, 4))
    assert tribe24.complement(f) == tribe24.element((F(3, 4), F(1, 2)))
    with pytest.raises(ParseError):
        tribe24.element((F(1, 5), F(0)))
    with pytest.raises(ParseError):
        tribe24.element((F(1, 4),))


def test_restricted_carrier_is_not_min_closed(restricted):
    fs = [restricted.function_values(e) for e in restricted.elements()]
    assert all(sum(v * 4 for v in f) % 4 == 0 for f in fs)
    f = restricted.element((F(1, 4), F(3, 4)))
    g = restricted.element((F(3, 4), F(1, 4)))
    pointwise_min = tuple(min(a, b) for a, b in zip(
        restricted.function_values(f), restricted.function_values(g)
    ))
    assert all(pointwise_min != restricted.function_values(e) for e in restricted.elements())
    assert not restricted.lattice_guaranteed


def test_restricted_carrier_must_be_closed():
    with pytest.raises(InvalidAlgebra, match="not closed under complement"):
        FiniteTribe(2, 4, carrier=[(F(0), F(0)), (F(1), F(1)), (F(1, 2), F(0))])
    # closed under complement, but (1/4, 0) + (1/4, 0) is missing
    with pytest.raises(InvalidAlgebra, match="not closed under defined addition"):
        FiniteTribe(2, 4, carrier=[(F(0), F(0)), (F(1), F(1)), (F(1, 4), F(0)), (F(3, 4), F(1))])


def test_literal_and_carrier_errors_carry_their_messages():
    cases = [
        (lambda: FiniteSetAlgebra(3).element_from_json([0, 2, 0]), ParseError,
         "duplicate point 0 in set literal"),
        (lambda: FiniteTribe(2, 0), InvalidAlgebra, "tribe needs an integer denominator >= 1"),
        (lambda: FiniteTribe(2, 4, carrier=[(F(0), F(0)), (F(1),)]), InvalidAlgebra,
         "carrier function has wrong domain size"),
        (lambda: FiniteTribe(2, 4, carrier=[(F(0), F(0)), (F(1, 2), F(1, 2))]), InvalidAlgebra,
         "carrier must contain the constant-1 function"),
        (lambda: FiniteTribe(2, 4).element_from_json("1/2"), ParseError,
         "tribe element must be an array of rationals, got '1/2'"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_restricted_carrier_is_capped_like_a_table():
    # the validation pass compares every pair of carrier functions
    assert restricted_sum_tribe(4, 4).size <= algebras.DEFAULT_TABLE_CAP
    for omega, den in ((4, 6), (4, 10)):
        with pytest.raises(CarrierTooLarge, match=r"tribe carrier size \d+ exceeds cap 256"):
            restricted_sum_tribe(omega, den)


def test_quotient_canonical_representatives(quotient3):
    a = quotient3.quotient_map((0, 2))
    b = quotient3.quotient_map((0,))
    assert a == b
    assert quotient3.class_points(a) == (0,)
    assert quotient3.quotient_map((2,)) == quotient3.zero
    assert quotient3.complement(a) == quotient3.quotient_map((1,))
    with pytest.raises(InvalidAlgebra):
        QuotientBooleanAlgebra(2, (0, 1))


@pytest.mark.parametrize("algebra", ALL_BACKENDS, ids=lambda a: repr(a.describe())[:40])
def test_elements_list_payloads_in_increasing_order(algebra):
    # brute-force joins sort payload chains back into enumeration order
    payloads = [e.payload for e in algebra.elements()]
    assert len(payloads) == algebra.size
    assert all(a < b for a, b in zip(payloads, payloads[1:]))


def test_element_json_round_trips():
    for algebra in ALL_BACKENDS:
        for e in algebra.elements():
            assert algebra.element_from_json(algebra.element_to_json(e)) == e


def test_element_json_rejects_malformed(mv4, set2, tribe24):
    with pytest.raises(ParseError):
        mv4.element_from_json("1/3")
    with pytest.raises(ParseError):
        mv4.element_from_json(True)
    with pytest.raises(ParseError):
        set2.element_from_json("0")
    with pytest.raises(ParseError):
        tribe24.element_from_json(["1/4"])
