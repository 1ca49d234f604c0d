from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsonorder.algebras import GROUND_SET_CAP, FiniteSetAlgebra, MVChain, block_cycle_algebra
from olsonorder.errors import (
    BackendMismatch,
    CertificationTooLarge,
    EmptyFamily,
    InvalidAlgebra,
    NonMonotoneInput,
    SpectrumOutsideUnitInterval,
)
from olsonorder.lattice import (
    BoundResult,
    brute_force_join,
    brute_force_meet,
    compare,
    enumerate_grid_observables,
    merged_grid,
    olson_join,
    olson_leq,
    olson_meet,
    right_regularize,
)
from olsonorder.observables import SimpleObservable, from_closed_values, from_weights, question
from olsonorder.serialize import algebra_from_json
from olsonorder.suites import (
    involution_suite,
    random_grid_observable,
    random_monotone_family,
    random_unit_grid,
    run_axioms,
    run_involution,
    run_lattice_oracle,
    run_order,
)

from conftest import load_fixture

F = Fraction


def _grid_observable(algebra, n, draw_levels, points):
    values = [algebra.element(F(k, n)) for k in draw_levels]
    return from_closed_values(algebra, tuple(zip(points, values)))


@st.composite
def mv_pairs(draw, n=4):
    algebra = MVChain(n)
    out = []
    for _ in range(2):
        size = draw(st.integers(1, 3))
        nums = sorted(draw(st.lists(st.integers(-4, 8), min_size=size, max_size=size, unique=True)))
        levels = sorted(draw(st.lists(st.integers(0, n), min_size=size, max_size=size)))
        levels[-1] = n
        out.append(_grid_observable(algebra, n, levels, [F(k, 4) for k in nums]))
    return out


@settings(max_examples=80, deadline=None)
@given(mv_pairs())
def test_meet_join_match_brute_force_on_chain(pair):
    x, y = pair
    for fast, slow in (
        (olson_meet((x, y)), brute_force_meet((x, y))),
        (olson_join((x, y)), brute_force_join((x, y))),
    ):
        assert fast.exists == slow.exists
        if fast.exists:
            assert fast.observable == slow.observable


@settings(max_examples=80, deadline=None)
@given(mv_pairs())
def test_order_antisymmetry_and_bound_laws(pair):
    x, y = pair
    if olson_leq(x, y) and olson_leq(y, x):
        assert x == y
    meet = olson_meet((x, y)).observable
    join = olson_join((x, y)).observable
    assert olson_leq(meet, x) and olson_leq(meet, y)
    assert olson_leq(x, join) and olson_leq(y, join)
    assert olson_leq(meet, join)


def test_compare_verdicts_and_witness(mv4):
    q1 = question(mv4, mv4.element(F(1, 4)))
    q3 = question(mv4, mv4.element(F(3, 4)))
    assert compare(q1, q1).verdict == "equal"
    assert compare(q1, q1).witness_t is None
    fwd = compare(q1, q3)
    assert fwd.verdict == "less_or_equal" and fwd.witness_t is not None
    assert compare(q3, q1).verdict == "greater_or_equal"


def test_question_order_inversion(mv4):
    # bigger effects give spectrally smaller questions is FALSE:
    # the spectral order on questions matches the effect order, while
    # the resolutions themselves compare inverted
    a, b = mv4.element(F(1, 4)), mv4.element(F(3, 4))
    qa, qb = question(mv4, a), question(mv4, b)
    assert olson_leq(qa, qb)
    t = F(1, 2)
    assert mv4.leq(qb.resolution_open(t), qa.resolution_open(t))


def test_incomparable_crossing_pair(set2):
    up = from_weights(set2, (F(0), F(1)), (set2.subset((0,)), set2.subset((1,))))
    down = from_weights(set2, (F(0), F(1)), (set2.subset((1,)), set2.subset((0,))))
    verdict = compare(up, down)
    assert verdict.verdict == "incomparable"
    assert verdict.witness_t in merged_grid((up, down))
    meet = olson_meet((up, down))
    join = olson_join((up, down))
    assert meet.exists and join.exists
    assert meet.observable != up and meet.observable != down
    assert olson_leq(meet.observable, join.observable)


def test_family_operations_validate(mv4, set2):
    x = question(mv4, mv4.element(F(1, 4)))
    with pytest.raises(EmptyFamily):
        olson_meet(())
    with pytest.raises(BackendMismatch):
        olson_meet((x, question(set2, set2.subset((0,)))))


class _CountingChain(MVChain):
    def __init__(self, n):
        super().__init__(n)
        self.calls = Counter()

    def _le(self, pa, pb):
        self.calls["leq"] += 1
        return super()._le(pa, pb)

    def _bound(self, payloads, lower):
        self.calls["meet_many" if lower else "join_many"] += 1
        return super()._bound(payloads, lower)


def test_meet_and_order_test_each_grid_point_once():
    algebra = _CountingChain(8)
    x = _grid_observable(algebra, 8, [2, 5, 8], [F(0), F(1, 2), F(3, 4)])
    y = _grid_observable(algebra, 8, [1, 3, 8], [F(1, 4), F(1, 2), F(1)])
    k = len(merged_grid((x, y)))
    assert k == 5
    algebra.calls.clear()
    assert olson_meet((x, y)).certified == "elementwise"
    assert algebra.calls["join_many"] == k
    algebra.calls.clear()
    assert olson_leq(x, y)
    assert algebra.calls["leq"] <= k


def test_random_grid_observable_checks_each_jump_once():
    algebra = _CountingChain(8)
    elems = list(algebra.elements())
    rng, ref_rng = random.Random(17), random.Random()
    for _ in range(40):
        size = rng.randint(1, 6)
        grid = random_unit_grid(rng, size)
        ref_rng.setstate(rng.getstate())
        algebra.calls.clear()
        x = random_grid_observable(algebra, grid, rng, elems)
        # the draw tests every element at each step, the packer each jump once
        assert algebra.calls["leq"] == (size - 1) * len(elems) + len(x.points)
        # the same draw through the validating regularization and constructor
        family = random_monotone_family(algebra, grid, ref_rng, elems)
        assert x == from_closed_values(algebra, right_regularize(algebra, family))


class _LyingBounds(MVChain):
    """The n-ary bound answers with its first input, for joins and meets."""

    def _bound(self, payloads, lower):
        return payloads[0]


def test_pointwise_bounds_that_do_not_bound_are_refused():
    algebra = _LyingBounds(4)
    q1, q3 = (question(algebra, algebra.element(F(k, 4))) for k in (1, 3))
    with pytest.raises(InvalidAlgebra, match="join_many"):
        olson_meet((q3, q1))
    with pytest.raises(InvalidAlgebra, match="meet_many"):
        olson_join((q1, q3))


class _FallingBounds(MVChain):
    """The join answers 1 for values holding a quarter, and leaves the
    bound before (the walk's last input) out of the others: each answer
    bounds the values of its grid point, but the answers do not rise."""

    def _bound(self, payloads, lower):
        if not lower:
            if self.element(F(1, 4)).payload in payloads:
                return self.one.payload
            payloads = payloads[:-1]
        return super()._bound(payloads, lower)


class _ShortBounds(MVChain):
    """The meet answers 3/4 for a row of ones: a bound, but the chain stops short."""

    def _bound(self, payloads, lower):
        if lower and all(p == self.one.payload for p in payloads):
            return self.element(F(3, 4)).payload
        return super()._bound(payloads, lower)


def test_trusted_packing_refuses_inconsistent_bounds():
    falling = _FallingBounds(4)
    x = _grid_observable(falling, 4, [1, 2, 4], [F(0), F(1, 2), F(1)])
    # row bounds 1, 1/2, 1 fall at the second grid point
    with pytest.raises(NonMonotoneInput):
        olson_meet((x, x))
    short = _ShortBounds(4)
    q1, q3 = (question(short, short.element(F(k, 4))) for k in (1, 3))
    # row bounds 1/4, 3/4 never reach one
    with pytest.raises(InvalidAlgebra, match="reach 1"):
        olson_join((q1, q3))


@pytest.mark.parametrize("algebra", [FiniteSetAlgebra(40), MVChain(10**9)], ids=["set40", "mv1e9"])
def test_one_point_families_do_not_scan_the_carrier(algebra):
    # the only chain on a one-point grid is one there; no carrier is listed
    x = SimpleObservable(algebra, [F(1, 2)], [algebra.one])
    start = time.perf_counter()
    for op in (brute_force_meet, brute_force_join):
        assert op((x, x)) == BoundResult(True, x, "exhaustive")
    assert time.perf_counter() - start < 0.5


def test_enumeration_counts_grid_chains(mv4, set2):
    grid = (F(0), F(1, 2), F(1))
    assert len(list(enumerate_grid_observables(MVChain(2), grid, cap=1000))) == 6
    assert len(list(enumerate_grid_observables(set2, grid, cap=1000))) == 9
    with pytest.raises(CertificationTooLarge):
        list(enumerate_grid_observables(mv4, tuple(F(k, 10) for k in range(11)), cap=100))


def test_caps_refuse_before_listing_the_carrier():
    algebra = MVChain(300_000)

    def unlisted():
        raise AssertionError("carrier listed before the cap check")

    algebra.elements = unlisted
    family = tuple(question(algebra, algebra.element(F(1, k))) for k in (2, 3))
    with pytest.raises(CertificationTooLarge):
        brute_force_meet(family)
    with pytest.raises(CertificationTooLarge):
        brute_force_join(family)
    # a missing pointwise meet sends olson_join to the oracle
    algebra._bound = lambda payloads, lower: None
    with pytest.raises(CertificationTooLarge):
        olson_join(family)
    with pytest.raises(CertificationTooLarge):
        run_axioms(algebra)
    with pytest.raises(CertificationTooLarge):
        run_order(algebra)
    with pytest.raises(CertificationTooLarge):
        next(enumerate_grid_observables(algebra, (F(0), F(1))))
    with pytest.raises(CertificationTooLarge):
        run_involution(algebra)
    with pytest.raises(CertificationTooLarge):
        run_lattice_oracle(algebra)


def test_cap_refusal_prints_an_oversized_bound():
    algebra = FiniteSetAlgebra(20000)
    family = tuple(question(algebra, algebra.subset((p,))) for p in (0, 1))
    with pytest.raises(CertificationTooLarge, match="over 4300 digits"):
        brute_force_meet(family)


def test_cap_refusal_of_a_huge_carrier_does_not_form_the_bound():
    # |E|**(k-1) would have about 4 * 10**9 bits; the message is unchanged
    algebra = FiniteSetAlgebra(GROUND_SET_CAP)
    singletons = [algebra.subset((p,)) for p in range(3999)]
    rest = algebra.complement(algebra.subset(range(3999)))
    x = SimpleObservable(algebra, [F(k) for k in range(4000)], [*singletons, rest])
    start = time.perf_counter()
    with pytest.raises(CertificationTooLarge) as refused:
        brute_force_meet((x,))
    assert time.perf_counter() - start < 0.5
    assert str(refused.value) == (
        "up to <integer or rational of over 4300 digits> grid observables exceeds cap 100000"
    )


def test_brute_force_tests_the_order_only_to_pack_its_answer():
    # the walk's one step, _extremes, builds the frontier by bit operations
    # on the compiled carrier: the only _le calls left are _pack_closed's,
    # one per kept jump of the answer or of each frontier member
    checked = 0
    for name in ("table_mo2", "table_block_cycle", "tribe_restricted"):
        algebra = algebra_from_json(load_fixture(name + ".json"))
        questions = [question(algebra, a) for a in algebra.elements()]
        calls = Counter()
        le = algebra._le

        def counted(pa, pb, le=le, calls=calls):
            calls["le"] += 1
            return le(pa, pb)

        algebra._le = counted
        for pair in itertools.combinations(questions, 2):
            for oracle in (brute_force_meet, brute_force_join):
                calls.clear()
                got = oracle(pair)
                packed = (*got.frontier, *([got.observable] if got.exists else []))
                assert calls["le"] == sum(len(x.points) for x in packed)
                checked += 1
    assert checked == 2 * (15 + 153 + 21)


def test_brute_force_walks_the_frontier_on_lattice_backends():
    # one scan of the carrier and one minimal-element pass per grid point
    # of the single frontier chain, not a walk over every admitted chain
    algebra = _CountingChain(40)
    grid = (F(0), F(1, 3), F(2, 3), F(1))
    k, size = len(grid), algebra.size
    for oracle, levels in (
        (brute_force_meet, ((1, 2, 3), (2, 2, 4))),
        (brute_force_join, ((36, 37, 38), (37, 37, 39))),
    ):
        family = tuple(_grid_observable(algebra, 40, [*ks, 40], grid) for ks in levels)
        algebra.calls.clear()
        assert oracle(family).exists
        assert algebra.calls["leq"] <= 2 * (k - 1) * (len(family) + 2) * size


def test_enumerated_observables_live_on_grid(set2):
    grid = (F(0), F(1, 2), F(1))
    for x in enumerate_grid_observables(set2, grid, cap=1000):
        assert set(x.points) <= set(grid)
        assert x.resolution_closed(grid[-1]) == set2.one


def test_nonexistent_join_reports_frontier(cycle):
    def elem(name):
        return cycle.element_from_json(cycle.atom_names.index(name))

    qc, qg = question(cycle, elem("c")), question(cycle, elem("g"))
    result = olson_join((qc, qg))
    assert not result.exists
    assert result.certified == "exhaustive"
    assert len(result.frontier) >= 2
    for witness in result.frontier:
        assert olson_leq(qc, witness) and olson_leq(qg, witness)
    oracle = brute_force_join((qc, qg))
    assert not oracle.exists
    assert set(result.frontier) == set(oracle.frontier)


def test_meet_of_questions_is_question_of_meet(cycle):
    rng = random.Random(4)
    elems = list(cycle.elements())
    for _ in range(60):
        a, b = rng.choice(elems), rng.choice(elems)
        fast = olson_meet((question(cycle, a), question(cycle, b)))
        slow = brute_force_meet((question(cycle, a), question(cycle, b)))
        assert fast.exists == slow.exists
        if fast.exists:
            assert fast.observable == slow.observable
        ab = cycle.meet(a, b)
        if ab is not None and fast.exists:
            assert fast.observable == question(cycle, ab)


def test_involution_suite_all_keys_pass(mv8):
    rng = random.Random(12)
    elems = list(mv8.elements())
    for _ in range(40):
        x = random_grid_observable(mv8, random_unit_grid(rng, 4), rng, elems)
        y = random_grid_observable(mv8, random_unit_grid(rng, 4), rng, elems)
        report = involution_suite(x, y)
        assert all(report.values()), report
        assert set(report) == {
            "double_negation",
            "antitone",
            "bounds_reflection",
            "de_morgan_meet",
            "de_morgan_join",
            "question_negation",
            "question_lattice",
            "spread_meet",
            "spread_join",
            "spread_join_literal",
            "sharp_question_kernel",
        }


def test_involution_requires_unit_spectrum(mv4):
    x = from_weights(mv4, (F(0), F(2)), (mv4.element(F(1, 2)), mv4.element(F(1, 2))))
    with pytest.raises(SpectrumOutsideUnitInterval):
        involution_suite(x, x)


def test_spread_bounds_orientation(mv4):
    # the min{t,1-t} image of a question sits below the self-meet and the
    # flipped reading fails; q_{1/4} is the witness
    a = mv4.element(F(1, 4))
    x = question(mv4, a)
    g_image = from_weights(mv4, (F(0),), (mv4.one,))
    meet = olson_meet((x, x.negate()))
    assert meet.exists
    assert olson_leq(g_image, meet.observable)
    assert not olson_leq(meet.observable, g_image)


def test_self_meet_of_sharp_question_is_zero_question(set2):
    x = question(set2, set2.subset((0,)))
    meet = olson_meet((x, x.negate()))
    assert meet.exists
    assert meet.observable == question(set2, set2.zero)
