"""The hilbert property suite: numerical spectral-order checks on random
effects and projections.

It is the one suite that needs numpy, so it lives apart from the exact
suites in `suites`, which run without numpy; it loads no exact module.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .errors import CertificationTooLarge, _check, _report
from .hilbert import (
    DEFAULT_TOLERANCES,
    HermitianOperator,
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


def _order_gap(a: HermitianOperator, b: HermitianOperator, tol: Tolerances) -> bool:
    """a lies below b in the Loewner order, and a and b are spectrally incomparable."""
    return loewner_leq(a, b, tol) and not spectral_leq(a, b, tol) and not spectral_leq(b, a, tol)


def _power_gap(a: HermitianOperator, b: HermitianOperator, tol: Tolerances) -> bool:
    """a lies below b and differs from it in the Loewner order, and some
    power a**n with 2 <= n <= 8 does not lie below b**n.  By Olson's theorem
    (Proc. AMS 28, 1971) effects with a spectrally below b have every
    a**n <= b**n, and b spectrally below a would put b <= a, so the pair is
    spectrally incomparable; no eigenprojection is read."""
    power = np.linalg.matrix_power
    return (loewner_leq(a, b, tol) and not loewner_leq(b, a, tol)
            and any(not loewner_leq(power(a.matrix, n), power(b.matrix, n), tol)
                    for n in range(2, 9)))


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
        if _norm(a.matrix @ b.matrix - b.matrix @ a.matrix) > 0.05 and _order_gap(a, b, tol):
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

    # examples run and violations found by each check, and the probe kinds
    n: Counter = Counter()
    max_residual = 0.0

    for d in dims:
        eye = HermitianOperator(np.eye(d), tol)
        zero = HermitianOperator(np.zeros((d, d)), tol)
        for k in range(pairs):
            b = _random_effect(rng, d, tol)
            mb = spectral_measure(b, tol)
            if k % 2:
                ma = mb.apply_monotone(_monotone_under_id(rng, mb.grid), tol)
                a = ma.to_operator(tol)
            else:
                a = _random_effect(rng, d, tol)
                ma = spectral_measure(a, tol)

            for m, op in ((ma, a), (mb, b)):
                residual = _norm(m.reconstruct() - op.matrix) / m.scale
                max_residual = max(max_residual, residual)
                # the solver's rebuild is within tol.rec, and clustering at
                # tol.eig moves the eigenvalues by sqrt(d) / 2 * tol.eig at most
                n["rec_viol"] += residual > tol.rec + tol.eig * d**0.5 / 2.0

            n["effect_pairs"] += 1
            for lo, hi, mlo, mhi in ((a, b, ma, mb), (b, a, mb, ma)):
                if _measures_leq(mlo, mhi, tol):
                    n["order_pos"] += 1
                    if not loewner_leq(lo, hi, tol):
                        n["order_viol"] += 1

            meet = spectral_meet((a, b), tol)
            join = spectral_join((a, b), tol)
            mm = spectral_measure(meet, tol)
            # commutativity, idempotence, absorption both ways and the two units
            laws_ok = all(
                _norm(bound(fam, tol).matrix - want.matrix) <= tol.lat
                for bound, fam, want in (
                    (spectral_meet, (b, a), meet),
                    (spectral_meet, (a, a), a),
                    (spectral_meet, (a, join), a),
                    (spectral_join, (a, meet), a),
                    (spectral_join, (a, zero), a),
                    (spectral_meet, (a, eye), a),
                )
            ) and _measures_leq(mm, ma, tol) and _measures_leq(mm, mb, tol)
            if not laws_ok:
                n["law_viol"] += 1

            for p in range(probes):
                if p % 20 == 0:
                    # an independent third effect routed through the
                    # three-family meet gives a non-circular lower bound
                    r = _random_effect(rng, d, tol)
                    cand = spectral_meet((a, b, r), tol)
                    mc = spectral_measure(cand, tol)
                    n["probe_meet3"] += 1
                    if not (
                        _measures_leq(mc, ma, tol) and _measures_leq(mc, mb, tol)
                    ):
                        continue
                elif p % 10 in (3, 7):
                    src = ma if p % 10 == 3 else mb
                    mc = src.apply_monotone(_monotone_under_id(rng, src.grid), tol)
                    if _measures_leq(mc, ma, tol) and _measures_leq(mc, mb, tol):
                        n["probe_indep"] += 1
                    else:
                        mc = mm.apply_monotone(_monotone_under_id(rng, mm.grid), tol)
                else:
                    # image of the meet: below both inputs by calculus,
                    # so only the bound itself needs testing
                    mc = mm.apply_monotone(_monotone_under_id(rng, mm.grid), tol)
                n["probe_count"] += 1
                if not _measures_leq(mc, mm, tol):
                    n["probe_viol"] += 1

        for _ in range(pairs):
            p = _random_projection(rng, d, tol)
            q = _random_projection(rng, d, tol)
            n["proj_count"] += 1
            for lo, hi in ((p, q), (q, p)):
                if len({leq(lo, hi, tol) for leq in (spectral_leq, loewner_leq, range_leq)}) > 1:
                    n["proj_viol"] += 1

        for _ in range(max(1, pairs // 10)):
            vecs = [rng.uniform(0.0, 1.0, size=d) for _ in range(3)]
            fam = [HermitianOperator(np.diag(x), tol) for x in vecs]
            n["diag_count"] += 1
            for bound, pointwise in ((spectral_meet, np.minimum), (spectral_join, np.maximum)):
                if _norm(bound(fam, tol).matrix - np.diag(pointwise.reduce(vecs))) > tol.psd:
                    n["diag_viol"] += 1

    gap_trial, gap_a, gap_b = find_order_gap_pair(seed=seed, tol=tol)

    checks = [
        _check(
            "spectral_implies_loewner", n["order_viol"] == 0, n["effect_pairs"],
            positives=n["order_pos"],
        ),
        _check("projection_order_equivalence", n["proj_viol"] == 0, n["proj_count"]),
        _check("lattice_laws", n["law_viol"] == 0, n["effect_pairs"]),
        _check("commuting_diagonal_min_max", n["diag_viol"] == 0, n["diag_count"]),
        _check(
            "reconstruction_residual", n["rec_viol"] == 0, n["effect_pairs"],
            max_residual=max_residual,
        ),
        _check(
            "greatest_lower_bound_probes",
            n["probe_viol"] == 0,
            n["probe_count"],
            meet3_probes=n["probe_meet3"],
            independent_probes=n["probe_indep"],
        ),
        _check(
            "loewner_spectral_gap",
            _power_gap(gap_a, gap_b, tol),
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
