"""The batched Hilbert kernel against per-grid-point reference loops.

The references below are the loop forms of the projection meet, the
eigenvalue clustering, the resolution lookup, the spectral measure, the
spectral meet/join and the eager operator flags: one SVD per grid point,
one Python list per cluster, clip/where lookups and flags computed at
construction.  The library computes the same quantities in one numpy
call per bound or per measure; each test compares the two to 1e-12 with
identical flags.
"""

from __future__ import annotations

import numpy as np
import pytest

import olsonorder.hilbert as H
from olsonorder.errors import NotAProjection
from olsonorder.hilbert import (
    DEFAULT_TOLERANCES,
    HermitianOperator,
    SpectralMeasure,
    _cluster_means,
    _lattice_bound,
    _proj_join_many,
    _proj_meet_many,
    matrix_from_json,
    spectral_join,
    spectral_measure,
    spectral_meet,
)

from conftest import load_fixture

TOL = DEFAULT_TOLERANCES
ATOL = 1e-12
DIMS = (2, 3, 4, 8)


# -- references ----------------------------------------------------------------


def ref_proj_meet_many(mats, tol, dim):
    eye = np.eye(dim)
    if not mats:
        return eye
    stacked = np.vstack([eye - m for m in mats])
    _, svals, vh = np.linalg.svd(stacked)
    basis = vh[svals <= tol.ord].conj().T
    out = basis @ basis.conj().T
    return (out + out.conj().T) / 2.0


def ref_proj_join_many(mats, tol, dim):
    eye = np.eye(dim)
    return eye - ref_proj_meet_many([eye - m for m in mats], tol, dim)


def ref_cluster_means(values, gap):
    clusters = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return np.array([float(values[c].mean()) for c in clusters]), clusters


def ref_stack_at(measure, ts):
    idx = np.searchsorted(measure.grid, np.asarray(ts) + measure._slack, side="right") - 1
    out = measure.cumulative[np.clip(idx, 0, len(measure.grid) - 1)]
    return np.where((idx >= 0)[:, None, None], out, np.zeros_like(out[0]))


def ref_measure(matrix, tol):
    scale = max(1.0, float(np.linalg.norm(matrix)))
    evals, evecs = np.linalg.eigh(matrix)
    grid, clusters = ref_cluster_means(evals, tol.eig * scale)
    d = matrix.shape[0]
    cumulative = np.empty((len(clusters), d, d), dtype=evecs.dtype)
    running = np.zeros((d, d), dtype=evecs.dtype)
    for k, cluster in enumerate(clusters):
        block = evecs[:, cluster]
        running = running + block @ block.conj().T
        cumulative[k] = (running + running.conj().T) / 2.0
    cumulative[-1] = np.eye(d, dtype=evecs.dtype)
    return grid, cumulative


def ref_lattice_bound(measures, tol, meet):
    dim = measures[0].dim
    scale = max(1.0, *(m.scale for m in measures))
    merged = np.sort(np.concatenate([m.grid for m in measures]))
    grid, _ = ref_cluster_means(merged, tol.eig * scale)
    stacks = [ref_stack_at(m, grid) for m in measures]
    combine = ref_proj_join_many if meet else ref_proj_meet_many
    eye = np.eye(dim)
    cums, prev, repairs = [], None, 0
    for i in range(len(grid)):
        cur = combine([s[i] for s in stacks], tol, dim)
        if prev is not None and np.linalg.norm((eye - cur) @ prev) > tol.ord:
            cur = ref_proj_join_many([prev, cur], tol, dim)
            repairs += 1
        cums.append(cur)
        prev = cur
    cums[-1] = eye
    mat = np.zeros((dim, dim), dtype=cums[-1].dtype)
    last = np.zeros_like(mat)
    for t, cur in zip(grid, cums):
        mat = mat + t * (cur - last)
        last = cur
    return (mat + mat.conj().T) / 2.0, repairs


def ref_flags(matrix, tol=TOL):
    """(is_effect, is_projection, rank or None, repr) computed eagerly."""
    arr = np.asarray(matrix)
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
    scale = max(1.0, float(np.linalg.norm(arr)))
    arr = (arr + arr.conj().T) / 2.0
    evals = np.linalg.eigvalsh(arr)
    effect = bool(evals[0] >= -tol.psd * scale and evals[-1] <= 1.0 + tol.psd * scale)
    projection = bool(np.linalg.norm(arr @ arr - arr) <= tol.proj * scale)
    rank = int(round(float(np.trace(arr).real))) if projection else None
    tags = [f"dim={arr.shape[0]}"]
    if projection:
        tags.append(f"projection rank={rank}")
    elif effect:
        tags.append("effect")
    return effect, projection, rank, f"HermitianOperator({', '.join(tags)})"


# -- seeded inputs ---------------------------------------------------------------


def rand_unitary(rng, d):
    g = rng.standard_normal((d, d))
    if rng.uniform() < 0.5:
        g = g + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return q


def rand_effect(rng, d, degenerate=False):
    lam = rng.uniform(0.0, 1.0, size=d)
    if degenerate:
        # a few distinct values, so clusters hold several eigenvalues
        lam = np.round(lam * 3) / 3
    q = rand_unitary(rng, d)
    m = (q * lam) @ q.conj().T
    return (m + m.conj().T) / 2.0


def rand_projection(rng, d, rank=None):
    if rank is None:
        rank = int(rng.integers(0, d + 1))
    q = rand_unitary(rng, d)[:, :rank]
    return q @ q.conj().T


def families(seed, count=12):
    rng = np.random.default_rng(seed)
    for d in DIMS:
        for k in range(count):
            size = 1 + k % 3
            yield [rand_effect(rng, d, degenerate=k % 4 == 3) for _ in range(size)]
    yield [np.diag([0.3, 0.3, 0.7]), np.diag([0.7, 0.3, 0.3])]
    yield [np.diag([0.3, 0.3, 0.7]), np.diag([0.5, 0.5, 0.5]), np.eye(3)]


def rand_subspace_chain(rng, d, n):
    """n random projections (ranks 1..d-1) that are not nested, then I."""
    ranks = rng.integers(1, d, size=n)
    return np.stack([rand_projection(rng, d, int(r)) for r in ranks] + [np.eye(d)])


def close(a, b):
    return np.max(np.abs(a - b), initial=0.0) <= ATOL


# -- the kernel pieces -----------------------------------------------------------


def test_proj_meet_many_matches_one_svd_per_stack():
    rng = np.random.default_rng(11)
    for d in DIMS:
        for m in (1, 2, 3):
            stack = np.stack(
                [np.stack([rand_projection(rng, d) for _ in range(m)]) for _ in range(5)]
            )
            meets = _proj_meet_many(stack, TOL)
            joins = _proj_join_many(stack, TOL)
            assert meets.shape == joins.shape == (5, d, d)
            for k in range(5):
                mats = list(stack[k])
                assert close(meets[k], ref_proj_meet_many(mats, TOL, d))
                assert close(joins[k], ref_proj_join_many(mats, TOL, d))
            # no leading axes: one meet of m projections
            assert close(_proj_meet_many(stack[0], TOL), meets[0])


def test_cluster_means_match_the_list_loop():
    rng = np.random.default_rng(12)
    cases = [np.array([0.5]), np.array([0.3, 0.3, 0.7]), np.array([0.1, 0.1, 0.1, 0.1])]
    for n in (2, 5, 9, 24):
        cases.append(np.sort(np.round(rng.uniform(size=n) * 4) / 4))
        cases.append(np.sort(rng.uniform(size=n)))
    for values in cases:
        for gap in (0.0, 1e-8, 0.2):
            means, ends = _cluster_means(values, gap)
            ref_means, clusters = ref_cluster_means(values, gap)
            assert close(means, ref_means)
            assert ends.tolist() == [c[-1] for c in clusters]


def test_spectral_measures_and_lookups_match():
    rng = np.random.default_rng(13)
    for family in families(14):
        for mat in family:
            measure = spectral_measure(mat)
            grid, cumulative = ref_measure(HermitianOperator(mat).matrix, TOL)
            assert close(measure.grid, grid)
            assert close(measure.cumulative, cumulative)
            assert np.array_equal(measure.cumulative, measure.cumulative.conj().swapaxes(1, 2))
            # below the grid, on it, between its points and above it
            ts = np.concatenate(
                [measure.grid, measure.grid - 1e-3, [-1.0, -1e-12, 2.0], rng.uniform(size=6)]
            )
            assert np.array_equal(measure.cumulative_stack_at(ts), ref_stack_at(measure, ts))
            # with no slack, a lookup exactly at a grid point must include it
            exact = SpectralMeasure(measure.grid, measure.cumulative, 1.0, TOL.replace(eig=0.0))
            assert np.array_equal(exact.cumulative_stack_at(ts), ref_stack_at(exact, ts))
            images = np.minimum(measure.grid, 0.4)
            image = measure.apply_monotone(images)
            ref_grid, clusters = ref_cluster_means(images, TOL.eig * measure.scale)
            assert close(image.grid, ref_grid)
            assert np.array_equal(image.cumulative, measure.cumulative[[c[-1] for c in clusters]])


def test_meets_and_joins_match_the_per_point_loop():
    for family in families(15):
        measures = [spectral_measure(m) for m in family]
        for meet in (True, False):
            got = _lattice_bound(measures, TOL, meet)
            want, repairs = ref_lattice_bound(measures, TOL, meet)
            assert repairs == 0
            assert close(got.matrix, want)
            assert (got.is_effect, got.is_projection) == ref_flags(want)[:2]
        assert close(spectral_meet(family).matrix, _lattice_bound(measures, TOL, True).matrix)
        assert close(spectral_join(family).matrix, _lattice_bound(measures, TOL, False).matrix)


def test_monotone_repair_matches_the_sequential_rule(monkeypatch):
    # random effects never reach the repair: build resolutions that are not nested
    rng = np.random.default_rng(16)
    calls = []
    real_join = H._proj_join_many

    def counting_join(stack, tol):
        calls.append(stack.shape)
        return real_join(stack, tol)

    monkeypatch.setattr(H, "_proj_join_many", counting_join)
    total = 0
    for d in (2, 3, 4, 8):
        for n in (1, 2, 4):
            for size in (1, 2):
                measures = [
                    SpectralMeasure(
                        np.sort(rng.uniform(size=n + 1)), rand_subspace_chain(rng, d, n), 1.0
                    )
                    for _ in range(size)
                ]
                for meet in (True, False):
                    calls.clear()
                    got = _lattice_bound(measures, TOL, meet)
                    want, repairs = ref_lattice_bound(measures, TOL, meet)
                    assert close(got.matrix, want)
                    assert (got.is_effect, got.is_projection) == ref_flags(want)[:2]
                    # the combine call, then one binary join per repair
                    assert len(calls) == repairs + int(meet)
                    assert all(shape[-3] == 2 for shape in calls[int(meet):])
                    total += repairs
    assert total > 20


def test_one_batched_svd_per_bound(monkeypatch):
    rng = np.random.default_rng(17)
    svds = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svds.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for d in DIMS:
        family = [rand_effect(rng, d) for _ in range(3)]
        for op in (spectral_meet, spectral_join):
            svds.clear()
            op(family)
            assert len(svds) == 1
            # every merged grid point in one stack of 3 d x d complements
            assert svds[0][-2:] == (3 * d, d) and len(svds[0]) == 3


# -- operator flags --------------------------------------------------------------


def fixture_operators():
    for name in ("diag_quarter.json", "effect_a_3x3.json", "effect_b_3x3.json",
                 "proj_p_3x3.json", "proj_q_3x3.json"):
        yield matrix_from_json(load_fixture(name)).matrix
    pair = load_fixture("hilbert_noncommuting_pair.json")
    yield matrix_from_json(pair["a"]).matrix
    yield matrix_from_json(pair["b"]).matrix


def test_flags_on_demand_match_eager_flags():
    rng = np.random.default_rng(18)
    mats = list(fixture_operators())
    for d in DIMS:
        for _ in range(10):
            mats.append(rand_effect(rng, d))
            mats.append(rand_projection(rng, d))
            mats.append(rand_effect(rng, d) * 1.5)
            mats.append(rand_effect(rng, d) - 0.25 * np.eye(d))
        mats += [np.eye(d), np.zeros((d, d)), np.eye(d) * (1 + 1e-10)]
    kinds = set()
    for mat in mats:
        effect, projection, rank, text = ref_flags(mat)
        kinds.add((effect, projection))
        # each flag read first on a fresh operator, then all of them
        assert HermitianOperator(mat).is_effect == effect
        assert HermitianOperator(mat).is_projection == projection
        assert repr(HermitianOperator(mat)) == text
        op = HermitianOperator(mat)
        assert (op.is_effect, op.is_projection, repr(op)) == (effect, projection, text)
        if projection:
            assert op.rank == rank
        else:
            with pytest.raises(NotAProjection):
                op.rank
    assert kinds == {(True, True), (True, False), (False, False)}
