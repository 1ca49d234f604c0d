"""Self-checking property suites behind the check subcommand.

Each suite returns a JSON-ready report: suite name, backend
description, per-check pass flags with counts, and an overall verdict.
Randomized suites draw only from generators seeded by the caller, so a
fixed seed reproduces the report byte for byte.  Only the representation
suite reads the kernels module, and it imports it on first use.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .algebras import (
    EffectAlgebra,
    EffectElement,
    FiniteSetAlgebra,
    FiniteTribe,
    QuotientBooleanAlgebra,
    _effect_laws,
    _shown,
)
from .errors import (BackendMismatch, CertificationTooLarge, InvalidAlgebra, NonMonotoneInput,
                     SpectrumOutsideUnitInterval, _check, _report)
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    BoundResult,
    _family,
    brute_force_join,
    brute_force_meet,
    compare,
    enumerate_grid_observables,
    olson_join,
    olson_leq,
    olson_meet,
    order_verdict,
)
from .observables import (Interval, PiecewiseMap, SimpleObservable, _pack_closed, _rational,
                          question)

if TYPE_CHECKING:
    from .kernels import MeasurableFunction

AXIOM_SCAN_CAP = 64
PAIR_BUDGET = 2500
ORDER_PAIR_BUDGET = 20_000
#: most ground-set points of a set or quotient backend in the representation
#: suite, which draws each sampled function point by point
REPRESENTATION_OMEGA_CAP = 64
BASE_GRID = (Fraction(0), Fraction(1, 2), Fraction(1))


def _elements(algebra: EffectAlgebra, cap: int) -> list[EffectElement]:
    if algebra.size > cap:
        raise CertificationTooLarge(
            f"suite needs full enumeration, {_shown(algebra.size, str)} elements exceed cap {cap}"
        )
    return list(algebra.elements())


def _sample_pairs(rng: random.Random, n: int, budget: int) -> list[tuple[int, int]]:
    if n * n <= budget:
        return [(i, j) for i in range(n) for j in range(n)]
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(budget)]


def _grid_observables(
    algebra: EffectAlgebra,
    cap: int,
    pair_cap: int | None = None,
    grid: Sequence[Fraction] = BASE_GRID,
) -> list[SimpleObservable]:
    """Every observable on grid; CertificationTooLarge when the enumeration
    exceeds cap or, given pair_cap, when their pairs exceed it."""
    obs = list(enumerate_grid_observables(algebra, grid, cap=cap))
    if pair_cap is not None and len(obs) ** 2 > pair_cap:
        raise CertificationTooLarge("pair budget exceeded")
    return obs


# ---------------------------------------------------------------------------
# shared random generators (also used by the acceptance tests)


def random_unit_grid(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    """Strictly increasing rational grid inside [0,1]."""
    den = rng.choice((8, 12, 16))
    nums = sorted(rng.sample(range(den + 1), size))
    return tuple(Fraction(k, den) for k in nums)


def random_monotone_family(
    algebra: EffectAlgebra,
    grid: Sequence[Fraction],
    rng: random.Random,
    elems: list[EffectElement] | None = None,
) -> tuple[tuple[Fraction, EffectElement], ...]:
    """Grid family starting at zero, nondecreasing along a random chain."""
    if elems is None:
        elems = list(algebra.elements())
    cur = algebra.zero
    vals = [cur]
    for _ in range(len(grid) - 1):
        ups = [e for e in elems if algebra.leq(cur, e)]
        cur = rng.choice(ups)
        vals.append(cur)
    return tuple(zip(grid, vals))


def random_grid_observable(
    algebra: EffectAlgebra,
    grid: Sequence[Fraction],
    rng: random.Random,
    elems: list[EffectElement] | None = None,
) -> SimpleObservable:
    """Observable drawn as a random chain of closed-resolution values: the
    family shifted one knot left, with 1 last, packed and checked once."""
    _, vals = zip(*random_monotone_family(algebra, grid, rng, elems))
    return _pack_closed(algebra, grid, [v.payload for v in (*vals[1:], algebra.one)])


# ---------------------------------------------------------------------------
# axioms


def run_axioms(algebra: EffectAlgebra, cap: int = AXIOM_SCAN_CAP) -> dict:
    """Exhaustive effect-algebra axiom scan over the whole carrier, read once
    as the table S of partial sums by element index (None where undefined),
    on the laws the table constructor checks (`_effect_laws`)."""
    elems = _elements(algebra, cap)
    n, N = len(elems), range(len(elems))
    where = {a: i for i, a in enumerate(elems)}

    def index(a: EffectElement | None) -> int | None:
        try:
            return None if a is None else where[a]
        except KeyError:
            raise InvalidAlgebra(
                f"{_shown(a)} lies outside the listed carrier; backend is inconsistent"
            ) from None

    S = [[index(algebra.add(a, b)) for b in elems] for a in elems]
    zero, one = index(algebra.zero), index(algebra.one)
    comp = [index(algebra.complement(a)) for a in elems]
    ok = {law: failure is None for law, failure in _effect_laws(S, zero, one)}
    checks = [
        _check("commutative", ok["commutative"], n * n),
        _check("associative", ok["associative"], n ** 3),
        # the backend's complement is each element's one partner of 1, and an involution
        _check("unique_complement", ok["unique_complement"] and all(
            S[i].index(one) == comp[i] and comp[comp[i]] == i for i in N
        ), n),
        _check("zero_one_laws", ok["one_summable_only_with_zero"] and ok["zero_neutral"], n),
        _check("induced_order", all(
            algebra.leq(elems[i], elems[j]) == (j in S[i]) for i in N for j in N
        ), n * n),
    ]
    return _report("axioms", algebra.describe(), checks)


# ---------------------------------------------------------------------------
# order


def run_order(algebra: EffectAlgebra, cap: int = AXIOM_SCAN_CAP) -> dict:
    """Question embedding against the backend order, plus order axioms, on
    the carrier's questions and the table L of its order read once.  When a
    question cannot be built, as on a backend whose zero is not the bottom
    of its order, both question checks fail."""
    elems = _elements(algebra, cap)
    n, N = len(elems), range(len(elems))
    try:
        qs = [question(algebra, a) for a in elems]
    except NonMonotoneInput:
        qs = None
    L = [[algebra.leq(a, b) for b in elems] for a in elems]
    pairs = [(i, j) for i in N for j in N]
    checks = [
        _check("question_embedding", qs is not None and all(
            olson_leq(qs[i], qs[j]) == L[i][j] for i, j in pairs
        ), n * n),
        _check("comparison_verdicts", qs is not None and all(
            compare(qs[i], qs[j]).verdict == order_verdict(L[i][j], L[j][i]) for i, j in pairs
        ), n * n),
        _check("reflexive", all(L[i][i] for i in N), n),
        _check("antisymmetric", all(not (L[i][j] and L[j][i]) or i == j for i, j in pairs), n * n),
        _check("transitive", all(
            L[i][k] for i, j in pairs if L[i][j] for k in N if L[j][k]
        ), n ** 3),
    ]
    return _report("order", algebra.describe(), checks)


# ---------------------------------------------------------------------------
# lattice oracle


def run_lattice_oracle(
    algebra: EffectAlgebra,
    grid: Sequence[Fraction] | None = None,
    pair_cap: int = PAIR_BUDGET,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> dict:
    """Meets and joins against the brute-force enumeration oracle.

    Runs over every pair of grid observables when that square fits the
    pair budget, otherwise falls back to the question observables of the
    carrier, which keeps non-lattice table backends tractable.
    """
    grid = BASE_GRID if grid is None else tuple(map(_rational, grid))
    mode = "grid"
    try:
        obs = _grid_observables(algebra, cap, pair_cap, grid)
    except CertificationTooLarge:
        mode = "questions"
        if algebra.size ** 2 > pair_cap:
            raise CertificationTooLarge(
                f"{_shown(algebra.size, str)} question observables square to more than "
                f"the pair budget {pair_cap}"
            )
        obs = [question(algebra, a) for a in algebra.elements()]

    matches = {"meet": True, "join": True}
    for x, y in itertools.product(obs, repeat=2):
        for name, fast_op, slow_op in (
            ("meet", olson_meet, brute_force_meet),
            ("join", olson_join, brute_force_join),
        ):
            fast = fast_op((x, y), cap=cap)
            slow = slow_op((x, y), cap=cap)
            if fast.exists != slow.exists or (
                fast.exists and fast.observable != slow.observable
            ):
                matches[name] = False

    pairs = len(obs) ** 2
    checks = [_check(f"{name}_matches_oracle", ok, pairs) for name, ok in matches.items()]
    return _report(
        "lattice-oracle",
        algebra.describe(),
        checks,
        mode=mode,
        enumeration_count=len(obs),
    )


# ---------------------------------------------------------------------------
# involution


def involution_suite(x: SimpleObservable, y: SimpleObservable) -> dict[str, bool]:
    """Check the involution-lattice identities on a pair of unit-interval
    observables.

    Most checks are unconditional; the question items apply when an
    input is a two-valued question and hold vacuously otherwise.  The
    spread bounds use g(t)=min{t,1-t} and h(t)=max{t,1-t}: mapping a
    spectrum through a pointwise-smaller function can only move the
    observable down, so g(x) sits below both x and its reflection and
    h(x) above both.  The flipped readings fail already at two-point
    questions.  The degenerate variant max{1,1-t} collapses to the
    constant map 1 on the unit interval, so its upper-bound claim holds
    for every input; it is reported under its own key and nothing
    stronger is asserted for it.
    """
    family = _family((x, y))
    alg = family[0].algebra
    for z in family:
        if z.points[0] < 0 or z.points[-1] > 1:
            raise SpectrumOutsideUnitInterval(
                f"involution needs spectra inside [0,1], got {_shown(z.points)}"
            )
    g_map = PiecewiseMap.min_t_one_minus_t()
    h_maps = {
        "spread_join": PiecewiseMap.max_t_one_minus_t(),
        "spread_join_literal": PiecewiseMap((
            (Interval(None, Fraction(0)), Fraction(-1), Fraction(1)),
            (Interval(Fraction(0), None, True), Fraction(0), Fraction(1)),
        )),
    }
    nx, ny = x.negate(), y.negate()
    a, b = x.question_element(), y.question_element()
    fwd, bwd = olson_leq(x, y), olson_leq(y, x)
    bottom, top = question(alg, alg.zero), question(alg, alg.one)
    meet_xy, join_xy = olson_meet((x, y)), olson_join((x, y))
    meet_neg, join_neg = olson_meet((nx, ny)), olson_join((nx, ny))

    def negates_to(bound: BoundResult, dual: BoundResult) -> bool:
        """A bound that exists negates to the dual bound of the negations."""
        return not bound.exists or (dual.exists and bound.observable.negate() == dual.observable)

    def question_of(bound: BoundResult, e: EffectElement | None) -> bool:
        """A backend bound e that exists has the bound of the questions as its question."""
        return e is None or (bound.exists and bound.observable == question(alg, e))

    report = {
        "double_negation": nx.negate() == x and ny.negate() == y,
        "antitone": (not fwd or olson_leq(ny, nx)) and (not bwd or olson_leq(nx, ny)),
        "bounds_reflection": bottom.negate() == top and top.negate() == bottom,
        "de_morgan_meet": negates_to(meet_xy, join_neg),
        "de_morgan_join": negates_to(join_xy, meet_neg),
        "question_negation": all(q is None or nz == question(alg, alg.complement(q))
                                 for q, nz in ((a, nx), (b, ny))),
        "question_lattice": a is None or b is None or (
            question_of(meet_xy, alg.meet(a, b)) and question_of(join_xy, alg.join(a, b))
            and fwd == alg.leq(a, b) and bwd == alg.leq(b, a)),
        "spread_meet": True,
        **dict.fromkeys(h_maps, True),
        "sharp_question_kernel": True,
    }
    for z, nz, q in ((x, nx, a), (y, ny, b)):
        self_meet, self_join = olson_meet((z, nz)), olson_join((z, nz))
        if self_meet.exists:
            report["spread_meet"] = report["spread_meet"] and olson_leq(
                z.apply_map(g_map), self_meet.observable)
        if self_join.exists:
            for key, h_map in h_maps.items():
                report[key] = report[key] and olson_leq(self_join.observable, z.apply_map(h_map))
        if q is not None and self_meet.exists:
            report["sharp_question_kernel"] = report["sharp_question_kernel"] and (
                (self_meet.observable == bottom) == alg.is_sharp(q))
    return report


def run_involution(
    algebra: EffectAlgebra,
    seed: int = 0,
    samples: int = 200,
    pair_cap: int = PAIR_BUDGET,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> dict:
    """Involution-lattice identities, exhaustively when small plus seeded
    random triples with fresh grids."""
    fails: dict[str, int] = {}
    pairs = 0

    def absorb(result: dict[str, bool]) -> None:
        for key, ok in result.items():
            fails[key] = fails.get(key, 0) + (0 if ok else 1)

    exhaustive = 0
    try:
        for x, y in itertools.product(_grid_observables(algebra, cap, pair_cap), repeat=2):
            absorb(involution_suite(x, y))
            pairs += 1
        exhaustive = pairs
    except CertificationTooLarge:
        pass

    rng = random.Random(seed)
    elems = _elements(algebra, cap)
    # non-lattice backends answer meets by enumeration, so big merged
    # grids explode there; shrink and share the random grids for those
    lattice = algebra.lattice_guaranteed
    triple_fail = 0
    for _ in range(samples):
        if lattice:
            grids = [random_unit_grid(rng, 5) for _ in range(3)]
        else:
            grids = [random_unit_grid(rng, 2)] * 3
        x, y, z = (random_grid_observable(algebra, g, rng, elems) for g in grids)
        absorb(involution_suite(x, y))
        pairs += 1
        m = olson_meet((x, y, z), cap=cap)
        j = olson_join((x.negate(), y.negate(), z.negate()), cap=cap)
        ok = m.exists == j.exists and (
            not m.exists or m.observable.negate() == j.observable
        )
        if not ok:
            triple_fail += 1

    checks = [
        _check(f"involution:{key}", bad == 0, pairs, failures=bad)
        for key, bad in fails.items()
    ]
    checks.append(_check("de_morgan_triple", triple_fail == 0, samples))
    return _report(
        "involution",
        algebra.describe(),
        checks,
        seed=seed,
        exhaustive_pairs=exhaustive,
    )


# ---------------------------------------------------------------------------
# representation


def _functions(
    vals: Sequence[Fraction], omega: int, rng: random.Random, samples: int, limit: int
) -> list[MeasurableFunction]:
    """Every function into vals when there are at most limit, else a sample."""
    from .kernels import MeasurableFunction

    if omega > REPRESENTATION_OMEGA_CAP:
        raise CertificationTooLarge(
            f"representation suite draws functions on {omega} points, over cap {REPRESENTATION_OMEGA_CAP}"
        )
    if len(vals) ** omega <= limit:
        return [MeasurableFunction(c) for c in itertools.product(vals, repeat=omega)]
    return [
        MeasurableFunction(tuple(rng.choice(vals) for _ in range(omega)))
        for _ in range(samples)
    ]


def _function_representation(
    algebra: FiniteSetAlgebra | QuotientBooleanAlgebra, seed: int, samples: int, pair_cap: int
) -> list[dict]:
    """The observables of functions into a few values: on a set backend their
    round trip, then the function order against olson_leq on sampled pairs,
    then the Olson bounds of sampled pairs, each against the observable of
    its pointwise function bound."""
    from .kernels import (function_from_observable, function_max, function_min,
                          function_order_oracle, observable_from_function, pushforward_function,
                          quotient_order_criterion)

    if isinstance(algebra, FiniteSetAlgebra):
        vals = (
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(3, 4),
            Fraction(1),
        )
        limit, to_obs, back = 512, observable_from_function, function_from_observable
        order_check, leq = "pointwise_order_agreement", function_order_oracle
        bound_check = "min_max_lattice"
        ops = ((olson_meet, function_min), (olson_join, function_max))
    else:
        vals = (Fraction(0), Fraction(1, 2), Fraction(1))
        limit, to_obs, back = 729, pushforward_function, None
        order_check = "almost_everywhere_order"
        leq = functools.partial(quotient_order_criterion, algebra)
        bound_check, ops = "pushforward_min_meet", ((olson_meet, function_min),)
    rng = random.Random(seed)
    fs = _functions(vals, algebra.omega, rng, samples, limit)
    obs = [to_obs(algebra, f) for f in fs]
    checks = []
    if back is not None:
        round_trip = all(back(algebra, x) == f for f, x in zip(fs, obs))
        checks.append(_check("function_round_trip", round_trip, len(fs)))

    order_pairs = _sample_pairs(rng, len(fs), ORDER_PAIR_BUDGET)
    order_ok = all(leq(fs[i], fs[j]) == olson_leq(obs[i], obs[j]) for i, j in order_pairs)

    bound_pairs = _sample_pairs(rng, len(fs), pair_cap)
    bounds_ok = all(
        (got := op((obs[i], obs[j]))).exists
        and got.observable == to_obs(algebra, pointwise(fs[i], fs[j]))
        for i, j in bound_pairs
        for op, pointwise in ops
    )
    return checks + [
        _check(order_check, order_ok, len(order_pairs)),
        _check(bound_check, bounds_ok, len(bound_pairs)),
    ]


def _tribe_representation(
    algebra: FiniteTribe, seed: int, pair_cap: int, cap: int
) -> list[dict]:
    from .kernels import kernel_from_observable, kernel_leq, observable_from_kernel

    obs = _grid_observables(algebra, cap)
    kernels = [kernel_from_observable(algebra, x) for x in obs]
    rng = random.Random(seed)

    obs_trip = all(
        observable_from_kernel(algebra, k) == x for x, k in zip(obs, kernels)
    )
    ker_trip = all(
        kernel_from_observable(algebra, observable_from_kernel(algebra, k)) == k
        for k in kernels
    )

    order_pairs = _sample_pairs(rng, len(obs), pair_cap)
    order_ok = all(
        kernel_leq(kernels[i], kernels[j]) == olson_leq(obs[i], obs[j])
        for i, j in order_pairs
    )

    return [
        _check("kernel_round_trip", obs_trip and ker_trip, 2 * len(obs)),
        _check("kernel_order_agreement", order_ok, len(order_pairs)),
    ]


def run_representation(
    algebra: EffectAlgebra,
    seed: int = 0,
    samples: int = 300,
    pair_cap: int = PAIR_BUDGET,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> dict:
    """Round trips and order agreement between observables and their
    function, kernel, or quotient-class representations."""
    if isinstance(algebra, (FiniteSetAlgebra, QuotientBooleanAlgebra)):
        checks = _function_representation(algebra, seed, samples, pair_cap)
    elif isinstance(algebra, FiniteTribe):
        checks = _tribe_representation(algebra, seed, pair_cap, cap)
    else:
        raise BackendMismatch(
            "representation suite needs a set_algebra, tribe, or quotient backend"
        )
    return _report("representation", algebra.describe(), checks, seed=seed)

