"""run_axioms and run_order against frozen copies of their first form.

ref_run_axioms and ref_run_order below are copies of the two suites as
they stood when each law was its own loop over the carrier, calling the
public add and leq afresh for every test; they are kept frozen here.  On
the nine backends of the fixture files, on small broken backends and,
for run_axioms, on seeded mutations of three sum tables taken without
validation, both must return the same report (the same keys in the same
order, the same values) or raise the same exception type with the same
message.  The broken backends and the mutations make checks fail, so the
failure side of every law runs too.  The one exception is a backend
whose zero is not the bottom of its order: the frozen run_order raises
NonMonotoneInput there, and run_order reports its two question checks
as failed.  What run_lattice_oracle and run_involution give on the
broken backends is pinned as observed.
"""

from __future__ import annotations

import json
import operator
import random

import pytest

from olsonorder.algebras import (EffectAlgebra, FiniteSetAlgebra, FiniteTribe, MVChain,
                                 QuotientBooleanAlgebra)
from olsonorder.errors import InvalidAlgebra, NonMonotoneInput, OlsonOrderError, WeightsNotSummable
from olsonorder.lattice import compare, olson_leq, order_verdict
from olsonorder.observables import question
from olsonorder.serialize import algebra_from_json
from olsonorder.suites import (AXIOM_SCAN_CAP, _check, _elements, _report, run_axioms,
                               run_involution, run_lattice_oracle, run_order,
                               run_representation)

from conftest import load_fixture
from test_carrier_reference import TABLES, _mutant


# -- frozen copies -------------------------------------------------------------


def ref_run_axioms(algebra, cap=AXIOM_SCAN_CAP):
    elems = _elements(algebra, cap)
    n = len(elems)
    add = algebra.add

    commutative = all(add(a, b) == add(b, a) for a in elems for b in elems)

    associative = True
    for a in elems:
        for b in elems:
            ab = add(a, b)
            for c in elems:
                bc = add(b, c)
                lhs = add(ab, c) if ab is not None else None
                rhs = add(a, bc) if bc is not None else None
                if lhs != rhs:
                    associative = False

    complements = True
    for a in elems:
        partners = [b for b in elems if add(a, b) == algebra.one]
        comp = algebra.complement(a)
        if partners != [comp]:
            complements = False
        if algebra.complement(comp) != a:
            complements = False

    zero_one = True
    for a in elems:
        if (add(a, algebra.one) is not None) != (a == algebra.zero):
            zero_one = False
        if add(algebra.zero, a) != a:
            zero_one = False

    induced = True
    for a in elems:
        for b in elems:
            witness = any(add(a, c) == b for c in elems)
            if algebra.leq(a, b) != witness:
                induced = False

    checks = [
        _check("commutative", commutative, n * n),
        _check("associative", associative, n ** 3),
        _check("unique_complement", complements, n),
        _check("zero_one_laws", zero_one, n),
        _check("induced_order", induced, n * n),
    ]
    return _report("axioms", algebra.describe(), checks)


def ref_run_order(algebra, cap=AXIOM_SCAN_CAP):
    elems = _elements(algebra, cap)
    n = len(elems)
    qs = [question(algebra, a) for a in elems]

    embedding = all(
        olson_leq(qs[i], qs[j]) == algebra.leq(elems[i], elems[j])
        for i in range(n)
        for j in range(n)
    )

    verdicts = True
    for i in range(n):
        for j in range(n):
            fwd = algebra.leq(elems[i], elems[j])
            bwd = algebra.leq(elems[j], elems[i])
            if compare(qs[i], qs[j]).verdict != order_verdict(fwd, bwd):
                verdicts = False

    reflexive = all(algebra.leq(a, a) for a in elems)
    antisymmetric = all(
        not (algebra.leq(a, b) and algebra.leq(b, a)) or a == b
        for a in elems
        for b in elems
    )
    transitive = True
    for a in elems:
        below = [b for b in elems if algebra.leq(a, b)]
        for b in below:
            for c in elems:
                if algebra.leq(b, c) and not algebra.leq(a, c):
                    transitive = False

    checks = [
        _check("question_embedding", embedding, n * n),
        _check("comparison_verdicts", verdicts, n * n),
        _check("reflexive", reflexive, n),
        _check("antisymmetric", antisymmetric, n * n),
        _check("transitive", transitive, n ** 3),
    ]
    return _report("order", algebra.describe(), checks)


# -- backends ------------------------------------------------------------------

FIXTURE_BACKENDS = [
    "mv_chain_4", "mv_chain_8", "quotient_3", "set_algebra_2", "set_algebra_3",
    "table_block_cycle", "table_mo2", "tribe_2_4", "tribe_restricted",
]


class NonCommutative(MVChain):
    """1/4 + 1/2 is undefined, 1/2 + 1/4 is 3/4."""

    def _add(self, pa, pb):
        return None if (pa, pb) == (1, 2) else super()._add(pa, pb)


class ZeroNotNeutral(MVChain):
    """0 + 1/4 = 1/2."""

    def _add(self, pa, pb):
        return 2 if {pa, pb} == {0, 1} else super()._add(pa, pb)


class MisnamedZero(MVChain):
    """Names 1/4 its zero."""

    def __init__(self, n):
        super().__init__(n)
        self.zero = self._wrap(1)


class ComplementNotInvolution(MVChain):
    """On the chain of thirds: 2/3 + 1/3 is undefined and 2/3 + 2/3 = 1, so
    the complement of 1/3 is 2/3, whose complement is itself."""

    def _add(self, pa, pb):
        if (pa, pb) == (2, 1):
            return None
        return self.n if (pa, pb) == (2, 2) else super()._add(pa, pb)

    def _complement(self, pa):
        return 2 if pa == 2 else self.n - pa


class ComplementIsIdentity(MVChain):
    """Every k/4 its own complement: an involution, but not the one b with
    k/4 + b = 1 except at 1/2."""

    def _complement(self, pa):
        return pa


class OneAbsorbs(MVChain):
    """1/4 + 1 = 1."""

    def _add(self, pa, pb):
        return self.n if {pa, pb} == {1, self.n} else super()._add(pa, pb)


class OrderAgainstSums(MVChain):
    """Puts 3/4 below 1/4 too, though no sum leads from 3/4 to 1/4."""

    def _le(self, pa, pb):
        return pa <= pb or (pa, pb) == (3, 1)


class OrderNotTransitive(MVChain):
    """1/4 <= 1/2 <= 3/4, but 1/4 is not below 3/4."""

    def _le(self, pa, pb):
        return pa <= pb and (pa, pb) != (1, 3)


# each broken backend, the checks its axioms report fails, and the checks
# its order report fails
BROKEN = [
    (NonCommutative(4), {"commutative", "associative", "induced_order"}, set()),
    (ZeroNotNeutral(4), {"associative", "zero_one_laws", "induced_order"}, set()),
    (MisnamedZero(4), {"zero_one_laws"}, {"question_embedding", "comparison_verdicts"}),
    (ComplementNotInvolution(3), {"commutative", "associative", "unique_complement"},
     {"question_embedding", "comparison_verdicts"}),
    (ComplementIsIdentity(4), {"unique_complement"}, {"question_embedding", "comparison_verdicts"}),
    (OneAbsorbs(4), {"associative", "unique_complement", "zero_one_laws"}, set()),
    (OrderAgainstSums(4), {"induced_order"}, {"antisymmetric", "transitive"}),
    (OrderNotTransitive(4), {"induced_order"}, {"transitive"}),
]


def _outcome(suite, algebra):
    try:
        return suite(algebra)
    except OlsonOrderError as exc:
        return (type(exc), str(exc))


def _failing(report):
    return {c["name"] for c in report["checks"] if not c["passed"]}


@pytest.mark.parametrize("name", FIXTURE_BACKENDS)
@pytest.mark.parametrize("suite, ref", [
    (run_axioms, ref_run_axioms), (run_order, ref_run_order),
], ids=["axioms", "order"])
def test_fixture_backends_match_the_frozen_suites(name, suite, ref):
    algebra = algebra_from_json(load_fixture(f"{name}.json"))
    got = suite(algebra)
    assert json.dumps(got) == json.dumps(ref(algebra))
    assert got["passed"]
    # a cap below the carrier refuses both the same way
    assert _outcome(lambda a: suite(a, cap=3), algebra) == _outcome(
        lambda a: ref(a, cap=3), algebra
    )


@pytest.mark.parametrize("algebra, axioms_failing, order_failing", BROKEN,
                         ids=[type(b).__name__ for b, _, _ in BROKEN])
def test_broken_backends_fail_like_the_frozen_suites(algebra, axioms_failing, order_failing):
    axioms = run_axioms(algebra)
    assert json.dumps(axioms) == json.dumps(ref_run_axioms(algebra))
    assert _failing(axioms) == axioms_failing
    order = run_order(algebra)
    assert _failing(order) == order_failing
    if not isinstance(algebra, MisnamedZero):
        assert json.dumps(order) == json.dumps(ref_run_order(algebra))
        return
    # the frozen suite raises here, since the question of 1 cannot be built;
    # the report fails the two question checks and keeps every count
    assert _outcome(ref_run_order, algebra)[0] is NonMonotoneInput
    expected = ref_run_order(MVChain(4))
    expected["passed"] = False
    for check in expected["checks"][:2]:
        check["passed"] = False
    assert json.dumps(order) == json.dumps(expected)


@pytest.mark.parametrize("algebra", [NonCommutative(4), OrderAgainstSums(4)],
                         ids=["NonCommutative", "OrderAgainstSums"])
def test_involution_fails_typed_where_a_difference_is_undefined(algebra):
    # some a <= b there has no sum a + b', so a mapped observable's weights,
    # the differences (a + b')', do not exist
    message = r"^a \+ b' undefined though a <= b; backend is inconsistent$"
    with pytest.raises(InvalidAlgebra, match=message):
        run_involution(algebra)


# what run_lattice_oracle and run_involution give on each broken backend:
# the set of checks a report fails, or the type and message of the error
# raised; InvalidAlgebra, WeightsNotSummable and NonMonotoneInput where an
# inconsistent sum table stops observables from being built
UNDEFINED_DIFF = (InvalidAlgebra, "a + b' undefined though a <= b; backend is inconsistent")
UNBOUNDED = (InvalidAlgebra, "join_many does not bound its inputs; backend is inconsistent")
ORACLE_AND_INVOLUTION = {
    "NonCommutative": (set(), UNDEFINED_DIFF),
    "ZeroNotNeutral": (set(), (WeightsNotSummable, "weights must sum to 1")),
    "MisnamedZero": (set(), (NonMonotoneInput, "closed-resolution values must be nondecreasing")),
    "ComplementNotInvolution": (
        set(), (WeightsNotSummable, "canonical observables carry no zero weights")),
    "ComplementIsIdentity": (
        set(), (InvalidAlgebra, "closed-resolution values do not reach 1; backend is inconsistent")),
    # passes both: a + 1 = 1 for a = 1/4 breaks no check of either suite
    "OneAbsorbs": (set(), set()),
    "OrderAgainstSums": ({"meet_matches_oracle"}, UNDEFINED_DIFF),
    "OrderNotTransitive": (UNBOUNDED, UNBOUNDED),
}


@pytest.mark.parametrize("algebra", [b for b, _, _ in BROKEN],
                         ids=[type(b).__name__ for b, _, _ in BROKEN])
def test_broken_backends_in_the_oracle_and_involution_suites(algebra):
    def outcome(suite):
        got = _outcome(suite, algebra)
        return got if isinstance(got, tuple) else _failing(got)

    expected = ORACLE_AND_INVOLUTION[type(algebra).__name__]
    assert (outcome(run_lattice_oracle), outcome(run_involution)) == expected


class SetComplementIsIdentity(FiniteSetAlgebra):
    """Every subset its own complement."""

    def _complement(self, pa):
        return pa


class SetBoundsSwapped(FiniteSetAlgebra):
    """Meets are unions and joins intersections."""

    def _bound(self, payloads, lower):
        return super()._bound(payloads, not lower)


class SetSumOverlaps(FiniteSetAlgebra):
    """a + b is the union even where a and b overlap."""

    def _add(self, pa, pb):
        return pa | pb


class QuotientOrderReversed(QuotientBooleanAlgebra):
    """Orders the classes by reverse inclusion."""

    def _le(self, pa, pb):
        return pa & pb == pb


class QuotientComplementIsIdentity(QuotientBooleanAlgebra):
    """Every class its own complement."""

    def _complement(self, pa):
        return pa


class TribeOrderMissesPair(FiniteTribe):
    """(1/4, 1/4) is not below (1/2, 1/2), though every coordinate is."""

    def _le(self, pa, pb):
        return all(map(operator.le, pa, pb)) and (pa, pb) != ((1, 1), (2, 2))


class TribeBoundsSwapped(FiniteTribe):
    """Meets are pointwise maxima and joins pointwise minima."""

    def _bound(self, payloads, lower):
        return super()._bound(payloads, not lower)


# what run_representation gives on each broken backend, as observed: the
# set of checks a report fails, or the type and message of the error
# raised.  The function harness reads no sum and the tribe harness no
# bound, so three of them pass.
BROKEN_REPRESENTATION = [
    (SetComplementIsIdentity(3), UNDEFINED_DIFF),
    (SetBoundsSwapped(3), UNBOUNDED),
    (SetSumOverlaps(3), set()),
    (QuotientOrderReversed(3, [0]),
     (NonMonotoneInput, "closed-resolution values must be nondecreasing")),
    (QuotientComplementIsIdentity(3, [0]), set()),
    (TribeOrderMissesPair(2, 4), {"kernel_order_agreement"}),
    (TribeBoundsSwapped(2, 4), set()),
]


@pytest.mark.parametrize("algebra, expected", BROKEN_REPRESENTATION,
                         ids=[type(b).__name__ for b, _ in BROKEN_REPRESENTATION])
def test_broken_backends_in_the_representation_suite(algebra, expected):
    got = _outcome(run_representation, algebra)
    assert (got if isinstance(got, tuple) else _failing(got)) == expected


class SumEscapes(MVChain):
    """Forgets the truncation: 3/4 + 1/2 is the payload 5 of a chain of 4."""

    def _add(self, pa, pb):
        return pa + pb


class ComplementEscapes(MVChain):
    """Complements k/4 to (5 - k)/4, so 0 goes to the payload 5."""

    def _complement(self, pa):
        return self.n + 1 - pa


@pytest.mark.parametrize("algebra", [SumEscapes(4), ComplementEscapes(4)],
                         ids=["sum", "complement"])
def test_elements_outside_the_carrier_are_refused(algebra):
    # the sum table holds carrier indices only; a backend that answers
    # outside its own listed carrier contradicts itself
    with pytest.raises(InvalidAlgebra, match="outside the listed carrier; backend is inconsistent"):
        run_axioms(algebra)


class RawTable(EffectAlgebra):
    """An index sum table taken as given, with no validation: the order is
    read off its sums, and the complement of a is the first b with
    a + b = 1, or a itself when there is none."""

    kind = "raw_table"

    def __init__(self, table, zero, one):
        self.table, self.one_index = table, one
        self._index_carrier(range(len(table)), table)
        self.zero, self.one = self._elems[zero], self._elems[one]

    def _add(self, pa, pb):
        return self.table[pa][pb]

    def _complement(self, pa):
        row = self.table[pa]
        return row.index(self.one_index) if self.one_index in row else pa

    def elements(self):
        return iter(self._elems)

    @property
    def size(self):
        return len(self.table)

    def describe(self):
        return {"kind": self.kind, "add": self.table,
                "zero": self.zero.payload, "one": self.one.payload}

    def element_to_json(self, a):
        return self._payload(a)

    def element_from_json(self, obj):
        return self._elems[obj]


@pytest.mark.parametrize("name", TABLES)
def test_table_mutations_fail_like_the_frozen_axioms(name):
    # the laws on tables the constructor would refuse, each law on its own;
    # the zero-neutral law, which never fails first there, fails here too
    rng = random.Random(f"axioms-{name}")
    failing = set()
    for _ in range(300):
        algebra = RawTable(*_mutant(TABLES[name], rng))
        report = run_axioms(algebra)
        assert json.dumps(report) == json.dumps(ref_run_axioms(algebra)), algebra.describe()
        failing |= _failing(report)
    assert failing >= {"commutative", "associative", "unique_complement", "zero_one_laws"}
