"""The hilbert property suite: numerical spectral-order checks on random
effects and projections.

It is the one suite that needs numpy, so it lives apart from the exact
suites in `suites`, which run without numpy.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from .errors import CertificationTooLarge
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
from .suites import _check, _report


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

    # examples run and violations found by each check, and the probe kinds
    n: Counter = Counter()
    max_residual = 0.0

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

            n["order_count"] += 1
            if _measures_leq(ma, mb, tol):
                n["order_pos"] += 1
                if not loewner_leq(a, b, tol):
                    n["order_viol"] += 1
            if _measures_leq(mb, ma, tol):
                n["order_pos"] += 1
                if not loewner_leq(b, a, tol):
                    n["order_viol"] += 1

            meet = spectral_meet((a, b), tol)
            join = spectral_join((a, b), tol)
            mm = spectral_measure(meet, tol)
            lat = tol.lat
            n["law_count"] += 1
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
                s = spectral_leq(lo, hi, tol)
                lw = loewner_leq(lo, hi, tol)
                rg = range_leq(lo, hi, tol)
                if not (s == lw == rg):
                    n["proj_viol"] += 1

        for _ in range(max(1, pairs // 10)):
            u = rng.uniform(0.0, 1.0, size=d)
            v = rng.uniform(0.0, 1.0, size=d)
            w = rng.uniform(0.0, 1.0, size=d)
            fam = [HermitianOperator(np.diag(x), tol) for x in (u, v, w)]
            n["diag_count"] += 1
            got_meet = spectral_meet(fam, tol).matrix
            got_join = spectral_join(fam, tol).matrix
            if _norm(got_meet - np.diag(np.minimum(np.minimum(u, v), w))) > tol.psd:
                n["diag_viol"] += 1
            if _norm(got_join - np.diag(np.maximum(np.maximum(u, v), w))) > tol.psd:
                n["diag_viol"] += 1

    gap_trial, gap_a, gap_b = find_order_gap_pair(seed=seed, tol=tol)
    gap_ok = (
        loewner_leq(gap_a, gap_b, tol)
        and not spectral_leq(gap_a, gap_b, tol)
        and not spectral_leq(gap_b, gap_a, tol)
    )

    checks = [
        _check(
            "spectral_implies_loewner", n["order_viol"] == 0, n["order_count"],
            positives=n["order_pos"],
        ),
        _check("projection_order_equivalence", n["proj_viol"] == 0, n["proj_count"]),
        _check("lattice_laws", n["law_viol"] == 0, n["law_count"]),
        _check("commuting_diagonal_min_max", n["diag_viol"] == 0, n["diag_count"]),
        _check(
            "reconstruction_residual", max_residual <= tol.rec, n["order_count"],
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
