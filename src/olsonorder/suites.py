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

import numpy as np

from .algebras import (
    EffectAlgebra,
    EffectElement,
    FiniteSetAlgebra,
    FiniteTribe,
    QuotientBooleanAlgebra,
)
from .errors import BackendMismatch, CertificationTooLarge
from .hilbert import (
    DEFAULT_TOLERANCES,
    HermitianOperator,
    SpectralMeasure,
    Tolerances,
    _measures_leq,
    _norm,
    loewner_leq,
    matrix_to_json,
    range_leq,
    spectral_join,
    spectral_leq,
    spectral_measure,
    spectral_meet,
)
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
    right_regularize,
)
from .observables import SimpleObservable, from_closed_values, question

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
    """Observable drawn as a random chain of closed-resolution values."""
    family = random_monotone_family(algebra, grid, rng, elems)
    return from_closed_values(algebra, right_regularize(algebra, family))


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


# ---------------------------------------------------------------------------
# hilbert


def _random_effect(rng: np.random.Generator, dim: int, tol: Tolerances) -> HermitianOperator:
    g = rng.standard_normal((dim, dim))
    if rng.uniform() < 0.5:
        g = g + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(0.0, 1.0, size=dim)
    return HermitianOperator((q * lam) @ q.conj().T, tol)


def _random_projection(rng: np.random.Generator, dim: int, tol: Tolerances) -> HermitianOperator:
    rank = int(rng.integers(0, dim + 1))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    basis = q[:, :rank]
    return HermitianOperator(basis @ basis.conj().T, tol)


def _monotone_under_id(rng: np.random.Generator, grid: np.ndarray) -> np.ndarray:
    # nondecreasing images with g(t) <= t so the image sits spectrally below
    cand = np.maximum.accumulate(grid * rng.uniform(size=grid.shape[0]))
    return np.minimum(grid, cand)


def find_order_gap_pair(
    seed: int = 0,
    dim: int = 2,
    trials: int = 5000,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[int, HermitianOperator, HermitianOperator]:
    """Search for effects below in the Loewner order but spectrally
    incomparable; returns the first hit as (trial, a, b)."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(g)
        b = HermitianOperator((q * rng.uniform(0.0, 1.0, size=dim)) @ q.conj().T, tol)
        mb = spectral_measure(b, tol)
        root = mb.apply_monotone(np.sqrt(np.clip(mb.grid, 0.0, None)), tol).reconstruct()
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(g)
        c = (q * rng.uniform(0.0, 1.0, size=dim)) @ q.conj().T
        a = HermitianOperator(root @ c @ root, tol)
        if _norm(a.matrix @ b.matrix - b.matrix @ a.matrix) <= 0.05:
            continue
        if not loewner_leq(a, b, tol):
            continue
        if spectral_leq(a, b, tol) or spectral_leq(b, a, tol):
            continue
        return trial, a, b
    raise CertificationTooLarge(f"no order gap found in {trials} trials")


def run_hilbert(
    seed: int = 0,
    dims: Sequence[int] = (2, 3, 4, 8),
    pairs: int = 500,
    probes: int = 100,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> dict:
    """Numerical spectral-order checks on random effects and projections.

    Covers spectral-implies-Loewner, the projection equivalences, the
    lattice laws, commuting diagonal families, reconstruction residuals,
    randomized greatest-lower-bound probes, and a searched Loewner-versus-
    spectral gap witness.
    """
    rng = np.random.default_rng(seed)
    eye_cache = {d: HermitianOperator(np.eye(d), tol) for d in dims}
    zero_cache = {d: HermitianOperator(np.zeros((d, d)), tol) for d in dims}

    order_viol = 0
    order_pos = 0
    order_count = 0
    law_viol = 0
    law_count = 0
    probe_viol = 0
    probe_count = 0
    probe_meet3 = 0
    probe_indep = 0
    max_residual = 0.0

    proj_viol = 0
    proj_count = 0
    diag_viol = 0
    diag_count = 0

    for d in dims:
        eye = eye_cache[d]
        zero = zero_cache[d]
        for k in range(pairs):
            b = _random_effect(rng, d, tol)
            mb = spectral_measure(b, tol)
            if k % 2:
                ma = mb.apply_monotone(_monotone_under_id(rng, mb.grid), tol)
                a = ma.to_operator(tol)
            else:
                a = _random_effect(rng, d, tol)
                ma = spectral_measure(a, tol)

            max_residual = max(
                max_residual,
                _norm(ma.reconstruct() - a.matrix) / ma.scale,
                _norm(mb.reconstruct() - b.matrix) / mb.scale,
            )

            order_count += 1
            if _measures_leq(ma, mb, tol):
                order_pos += 1
                if not loewner_leq(a, b, tol):
                    order_viol += 1
            if _measures_leq(mb, ma, tol):
                order_pos += 1
                if not loewner_leq(b, a, tol):
                    order_viol += 1

            meet = spectral_meet((a, b), tol)
            join = spectral_join((a, b), tol)
            mm = spectral_measure(meet, tol)
            lat = tol.lat
            law_count += 1
            laws_ok = (
                _norm(spectral_meet((b, a), tol).matrix - meet.matrix) <= lat
                and _norm(spectral_meet((a, a), tol).matrix - a.matrix) <= lat
                and _norm(spectral_meet((a, join), tol).matrix - a.matrix) <= lat
                and _norm(spectral_join((a, meet), tol).matrix - a.matrix) <= lat
                and _norm(spectral_join((a, zero), tol).matrix - a.matrix) <= lat
                and _norm(spectral_meet((a, eye), tol).matrix - a.matrix) <= lat
                and _measures_leq(mm, ma, tol)
                and _measures_leq(mm, mb, tol)
            )
            if not laws_ok:
                law_viol += 1

            for p in range(probes):
                if p % 20 == 0:
                    # an independent third effect routed through the
                    # three-family meet gives a non-circular lower bound
                    r = _random_effect(rng, d, tol)
                    cand = spectral_meet((a, b, r), tol)
                    mc = spectral_measure(cand, tol)
                    probe_meet3 += 1
                    if not (
                        _measures_leq(mc, ma, tol) and _measures_leq(mc, mb, tol)
                    ):
                        continue
                elif p % 10 in (3, 7):
                    src = ma if p % 10 == 3 else mb
                    mc = src.apply_monotone(_monotone_under_id(rng, src.grid), tol)
                    if _measures_leq(mc, ma, tol) and _measures_leq(mc, mb, tol):
                        probe_indep += 1
                    else:
                        mc = mm.apply_monotone(_monotone_under_id(rng, mm.grid), tol)
                else:
                    # image of the meet: below both inputs by calculus,
                    # so only the bound itself needs testing
                    mc = mm.apply_monotone(_monotone_under_id(rng, mm.grid), tol)
                probe_count += 1
                if not _measures_leq(mc, mm, tol):
                    probe_viol += 1

        for _ in range(pairs):
            p = _random_projection(rng, d, tol)
            q = _random_projection(rng, d, tol)
            proj_count += 1
            for lo, hi in ((p, q), (q, p)):
                s = spectral_leq(lo, hi, tol)
                lw = loewner_leq(lo, hi, tol)
                rg = range_leq(lo, hi, tol)
                if not (s == lw == rg):
                    proj_viol += 1

        for _ in range(max(1, pairs // 10)):
            u = rng.uniform(0.0, 1.0, size=d)
            v = rng.uniform(0.0, 1.0, size=d)
            w = rng.uniform(0.0, 1.0, size=d)
            fam = [HermitianOperator(np.diag(x), tol) for x in (u, v, w)]
            diag_count += 1
            got_meet = spectral_meet(fam, tol).matrix
            got_join = spectral_join(fam, tol).matrix
            if _norm(got_meet - np.diag(np.minimum(np.minimum(u, v), w))) > tol.psd:
                diag_viol += 1
            if _norm(got_join - np.diag(np.maximum(np.maximum(u, v), w))) > tol.psd:
                diag_viol += 1

    gap_trial, gap_a, gap_b = find_order_gap_pair(seed=seed, tol=tol)
    gap_ok = (
        loewner_leq(gap_a, gap_b, tol)
        and not spectral_leq(gap_a, gap_b, tol)
        and not spectral_leq(gap_b, gap_a, tol)
    )

    checks = [
        _check("spectral_implies_loewner", order_viol == 0, order_count, positives=order_pos),
        _check("projection_order_equivalence", proj_viol == 0, proj_count),
        _check("lattice_laws", law_viol == 0, law_count),
        _check("commuting_diagonal_min_max", diag_viol == 0, diag_count),
        _check("reconstruction_residual", max_residual <= tol.rec, order_count, max_residual=max_residual),
        _check(
            "greatest_lower_bound_probes",
            probe_viol == 0,
            probe_count,
            meet3_probes=probe_meet3,
            independent_probes=probe_indep,
        ),
        _check(
            "loewner_spectral_gap",
            gap_ok,
            gap_trial + 1,
            trial=gap_trial,
            pair={"a": matrix_to_json(gap_a), "b": matrix_to_json(gap_b)},
        ),
    ]
    return _report(
        "hilbert",
        {"kind": "hilbert", "dims": [int(d) for d in dims]},
        checks,
        seed=seed,
        pairs=int(pairs),
        probes=int(probes),
    )
