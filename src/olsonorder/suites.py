"""Self-checking property suites behind the check subcommand.

Each suite returns a JSON-ready report: suite name, backend
description, per-check pass flags with counts, and an overall verdict.
Randomized suites draw only from generators seeded by the caller, so a
fixed seed reproduces the report byte for byte.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Sequence

from .algebras import (
    EffectAlgebra,
    EffectElement,
    FiniteSetAlgebra,
    FiniteTribe,
    QuotientBooleanAlgebra,
)
from .errors import BackendMismatch, CertificationTooLarge
from .kernels import (
    MeasurableFunction,
    function_from_observable,
    function_max,
    function_min,
    function_order_oracle,
    kernel_from_observable,
    kernel_leq,
    observable_from_function,
    observable_from_kernel,
    pushforward_function,
    quotient_order_criterion,
)
from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    brute_force_join,
    brute_force_meet,
    compare,
    enumerate_grid_observables,
    involution_suite,
    olson_join,
    olson_leq,
    olson_meet,
    order_verdict,
)
from .observables import SimpleObservable, _pack_closed, question

AXIOM_SCAN_CAP = 64
PAIR_BUDGET = 2500
ORDER_PAIR_BUDGET = 20_000


def _check(name: str, passed: bool, count: int, **extra) -> dict:
    out = {"name": name, "passed": bool(passed), "count": int(count)}
    out.update(extra)
    return out


def _report(suite: str, backend, checks: list[dict], seed: int | None = None, **extra) -> dict:
    out = {
        "suite": suite,
        "backend": backend,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
    if seed is not None:
        out["seed"] = int(seed)
    out.update(extra)
    return out


def _elements(algebra: EffectAlgebra, cap: int) -> list[EffectElement]:
    if algebra.size > cap:
        raise CertificationTooLarge(
            f"suite needs full enumeration, {algebra.size} elements exceed cap {cap}"
        )
    return list(algebra.elements())


def _sample_pairs(rng: random.Random, n: int, budget: int) -> list[tuple[int, int]]:
    if n * n <= budget:
        return [(i, j) for i in range(n) for j in range(n)]
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(budget)]


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
    return _pack_closed(algebra, grid, (*vals[1:], algebra.one))


# ---------------------------------------------------------------------------
# axioms


def run_axioms(algebra: EffectAlgebra, cap: int = AXIOM_SCAN_CAP) -> dict:
    """Exhaustive effect-algebra axiom scan over the whole carrier."""
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


# ---------------------------------------------------------------------------
# order


def run_order(algebra: EffectAlgebra, cap: int = AXIOM_SCAN_CAP) -> dict:
    """Question embedding against the backend order, plus order axioms."""
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
    if grid is None:
        grid = (Fraction(0), Fraction(1, 2), Fraction(1))
    grid = tuple(Fraction(t) for t in grid)
    mode = "grid"
    try:
        obs = list(enumerate_grid_observables(algebra, grid, cap=cap))
        if len(obs) ** 2 > pair_cap:
            raise CertificationTooLarge("pair budget exceeded")
    except CertificationTooLarge:
        mode = "questions"
        if algebra.size ** 2 > pair_cap:
            raise CertificationTooLarge(
                f"{algebra.size} question observables square to more than "
                f"the pair budget {pair_cap}"
            )
        obs = [question(algebra, a) for a in algebra.elements()]

    matches = {"meet": True, "join": True}
    pairs = 0
    for x in obs:
        for y in obs:
            pairs += 1
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


def run_involution(
    algebra: EffectAlgebra,
    seed: int = 0,
    samples: int = 200,
    pair_cap: int = PAIR_BUDGET,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> dict:
    """Involution-lattice identities, exhaustively when small plus seeded
    random triples with fresh grids."""
    base_grid = (Fraction(0), Fraction(1, 2), Fraction(1))
    fails: dict[str, int] = {}
    pairs = 0

    def absorb(result: dict[str, bool]) -> None:
        for key, ok in result.items():
            fails[key] = fails.get(key, 0) + (0 if ok else 1)

    exhaustive = 0
    try:
        obs = list(enumerate_grid_observables(algebra, base_grid, cap=cap))
        if len(obs) ** 2 <= pair_cap:
            for x in obs:
                for y in obs:
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
    triples = 0
    for _ in range(samples):
        if lattice:
            grids = [random_unit_grid(rng, 5) for _ in range(3)]
        else:
            grids = [random_unit_grid(rng, 2)] * 3
        x = random_grid_observable(algebra, grids[0], rng, elems)
        y = random_grid_observable(algebra, grids[1], rng, elems)
        z = random_grid_observable(algebra, grids[2], rng, elems)
        absorb(involution_suite(x, y))
        pairs += 1
        triples += 1
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
    checks.append(_check("de_morgan_triple", triple_fail == 0, triples))
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
    if len(vals) ** omega <= limit:
        return [MeasurableFunction(c) for c in itertools.product(vals, repeat=omega)]
    return [
        MeasurableFunction(tuple(rng.choice(vals) for _ in range(omega)))
        for _ in range(samples)
    ]


def _set_algebra_representation(
    algebra: FiniteSetAlgebra, seed: int, samples: int, pair_cap: int
) -> list[dict]:
    vals = (
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(1),
    )
    rng = random.Random(seed)
    fs = _functions(vals, algebra.omega, rng, samples, limit=512)
    obs = [observable_from_function(algebra, f) for f in fs]

    round_trip = all(function_from_observable(algebra, x) == f for f, x in zip(fs, obs))

    order_pairs = _sample_pairs(rng, len(fs), ORDER_PAIR_BUDGET)
    order_ok = all(
        function_order_oracle(fs[i], fs[j]) == olson_leq(obs[i], obs[j])
        for i, j in order_pairs
    )

    minmax_pairs = _sample_pairs(rng, len(fs), pair_cap)
    minmax_ok = True
    for i, j in minmax_pairs:
        meet = olson_meet((obs[i], obs[j]))
        join = olson_join((obs[i], obs[j]))
        if not (meet.exists and join.exists):
            minmax_ok = False
            continue
        if meet.observable != observable_from_function(
            algebra, function_min(fs[i], fs[j])
        ):
            minmax_ok = False
        if join.observable != observable_from_function(
            algebra, function_max(fs[i], fs[j])
        ):
            minmax_ok = False

    return [
        _check("function_round_trip", round_trip, len(fs)),
        _check("pointwise_order_agreement", order_ok, len(order_pairs)),
        _check("min_max_lattice", minmax_ok, len(minmax_pairs)),
    ]


def _tribe_representation(
    algebra: FiniteTribe, seed: int, pair_cap: int, cap: int
) -> list[dict]:
    grid = (Fraction(0), Fraction(1, 2), Fraction(1))
    obs = list(enumerate_grid_observables(algebra, grid, cap=cap))
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


def _quotient_representation(
    algebra: QuotientBooleanAlgebra, seed: int, samples: int, pair_cap: int
) -> list[dict]:
    vals = (Fraction(0), Fraction(1, 2), Fraction(1))
    rng = random.Random(seed)
    fs = _functions(vals, algebra.omega, rng, samples, limit=729)
    push = [pushforward_function(algebra, f) for f in fs]

    order_pairs = _sample_pairs(rng, len(fs), ORDER_PAIR_BUDGET)
    order_ok = all(
        quotient_order_criterion(algebra, fs[i], fs[j]) == olson_leq(push[i], push[j])
        for i, j in order_pairs
    )

    meet_pairs = _sample_pairs(rng, len(fs), pair_cap)
    meet_ok = True
    for i, j in meet_pairs:
        meet = olson_meet((push[i], push[j]))
        want = pushforward_function(algebra, function_min(fs[i], fs[j]))
        if not meet.exists or meet.observable != want:
            meet_ok = False

    return [
        _check("almost_everywhere_order", order_ok, len(order_pairs)),
        _check("pushforward_min_meet", meet_ok, len(meet_pairs)),
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
    if isinstance(algebra, FiniteSetAlgebra):
        checks = _set_algebra_representation(algebra, seed, samples, pair_cap)
    elif isinstance(algebra, FiniteTribe):
        checks = _tribe_representation(algebra, seed, pair_cap, cap)
    elif isinstance(algebra, QuotientBooleanAlgebra):
        checks = _quotient_representation(algebra, seed, samples, pair_cap)
    else:
        raise BackendMismatch(
            "representation suite needs a set_algebra, tribe, or quotient backend"
        )
    return _report("representation", algebra.describe(), checks, seed=seed)

