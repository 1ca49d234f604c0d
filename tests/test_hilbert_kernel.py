"""The batched Hilbert kernel against per-grid-point reference loops.

The references below are the loop forms of the projection meet, the
eigenvalue clustering, the resolution lookup, the spectral measure, the
spectral meet/join and the eager operator flags: one SVD per grid point,
one Python list per cluster, clip/where lookups and flags computed at
construction.  The library computes the same quantities in one numpy
call per bound or per measure, decomposes a family in one stacked eigh
per dtype and reads the meet/join effect check from those eigenvalues;
each test compares the two to 1e-12 with identical flags.  The order
test and the bounds read the eigenframes that measures keep, and are
held to the projections read back through `cumulative_stack_at`: the
frame order to the residual of those projections, the masked
eigenvector rows to their singular values.  The monotone repair, which
nested eigenframes never reach, is fed non-nested projection chains
directly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import olsonorder.hilbert as H
from olsonorder import cli
from olsonorder.errors import (
    DimensionMismatch,
    EigendecompositionFailure,
    NotAnEffect,
    NotAProjection,
    ParseError,
)
from olsonorder.hilbert import (
    DEFAULT_TOLERANCES,
    HermitianOperator,
    SpectralMeasure,
    _bound_from_rows,
    _cluster_means,
    _decompose,
    _effect_measures,
    _frames_residual,
    _lattice_bound,
    _measures_leq,
    _proj_join_many,
    _proj_meet_many,
    matrix_from_json,
    matrix_to_json,
    spectral_join,
    spectral_leq,
    spectral_measure,
    spectral_meet,
)

from conftest import fixture_path, load_fixture

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


def ref_cluster_means(values, gap, spread=False):
    clusters = [[0]]
    for i in range(1, len(values)):
        # within gap of the predecessor, or with `spread` of the cluster's first value
        if values[i] - values[clusters[-1][0] if spread else i - 1] <= gap:
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
    grid, clusters = ref_cluster_means(evals, tol.eig * scale, spread=True)
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
            meets = _proj_meet_many(np.eye(d) - stack, TOL)
            joins = _proj_join_many(stack, TOL)
            assert meets.shape == joins.shape == (5, d, d)
            for k in range(5):
                mats = list(stack[k])
                assert close(meets[k], ref_proj_meet_many(mats, TOL, d))
                assert close(joins[k], ref_proj_join_many(mats, TOL, d))
            # no leading axes: one meet of m projections
            assert close(_proj_meet_many(np.eye(d) - stack[0], TOL), meets[0])


def test_cluster_means_match_the_list_loop():
    rng = np.random.default_rng(12)
    cases = [np.array([0.5]), np.array([0.3, 0.3, 0.7]), np.array([0.1, 0.1, 0.1, 0.1])]
    for n in (2, 5, 9, 24):
        cases.append(np.sort(np.round(rng.uniform(size=n) * 4) / 4))
        cases.append(np.sort(rng.uniform(size=n)))
    # chains wider than a gap of 1e-8: one cluster, or cut by the spread
    cases += [0.1 + 9e-9 * np.arange(8), np.array([0.5, 0.5 + 6e-9, 0.5 + 1.2e-8, 0.7])]
    for values in cases:
        for gap in (0.0, 1e-8, 0.2):
            for spread in (False, True):
                means, rows = _cluster_means(values, gap, spread)
                ref_means, clusters = ref_cluster_means(values, gap, spread)
                assert close(means, ref_means)
                assert rows.tolist() == [0, *(c[-1] + 1 for c in clusters)]
                if spread:
                    assert all(values[c[-1]] - values[c[0]] <= gap for c in clusters)
    # the chain of eight is one cluster, or four pairs under the spread rule
    assert [len(_cluster_means(cases[-2], 1e-8, spread)[0]) for spread in (False, True)] == [1, 4]


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
            assert np.array_equal(measure.eigenprojections(), np.diff(measure._padded, axis=0))


def test_public_measures_refuse_malformed_input():
    grid, cums = np.array([0.25, 0.75]), np.stack([np.diag([1.0, 0.0]), np.eye(2)])
    SpectralMeasure(grid, cums, 1.0)
    shapes = [
        (np.array([0.1, 0.5, 0.9]), cums),  # three points, two projections
        (grid, np.eye(2)),  # one 2-d array
        (np.array([[0.25, 0.75]]), cums),
        (np.array([]), cums[:0]),
        (grid, np.ones((2, 2, 3))),
    ]
    for bad_grid, bad_cums in shapes:
        with pytest.raises(DimensionMismatch):
            SpectralMeasure(bad_grid, bad_cums, 1.0)
    values = [
        (np.array([0.75, 0.25]), cums, 1.0),  # unsorted
        (np.array([0.25, 0.25]), cums, 1.0),  # repeated
        (np.array([0.25, np.nan]), cums, 1.0),
        (np.array([-np.inf, 0.75]), cums, 1.0),
        (grid, cums * np.nan, 1.0),
        (grid, cums, float("inf")),
        (grid, cums, float("nan")),
        (grid, cums, -1.0),
        (["a", "b"], cums, 1.0),
        (grid + 0j, cums, 1.0),  # a complex array, even with zero imaginary parts
        (np.array([0.25 + 1e-3j, 0.75]), cums, 1.0),
        ([0.25 + 1e-3j, 0.75], cums, 1.0),
    ]
    for bad_grid, bad_cums, scale in values:
        with pytest.raises(ParseError):
            SpectralMeasure(bad_grid, bad_cums, scale)
    # a 3 x 3 measure beside a 2 x 2 one
    small = SpectralMeasure(grid, cums, 1.0)
    large = spectral_measure(np.diag([0.2, 0.5, 0.9]))
    for pair in ((small, large), (large, small)):
        with pytest.raises(DimensionMismatch):
            _measures_leq(*pair, TOL)
        for meet in (True, False):
            with pytest.raises(DimensionMismatch):
                _lattice_bound(pair, TOL, meet)


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
    # nested eigenframes never reach the repair: hand the bound's last stage
    # the rows of resolutions that are not nested
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
                merged = np.sort(np.concatenate([m.grid for m in measures]))
                grid = _cluster_means(merged, TOL.eig)[0]
                stacks = np.stack([m.cumulative_stack_at(grid[:-1]) for m in measures], axis=1)
                for meet in (True, False):
                    calls.clear()
                    got = _bound_from_rows(grid, stacks if meet else np.eye(d) - stacks, TOL, meet)
                    want, repairs = ref_lattice_bound(measures, TOL, meet)
                    assert close(got, want)
                    assert ref_flags(got)[:2] == ref_flags(want)[:2]
                    # the combine call, then one binary join per repair
                    assert len(calls) == repairs + int(meet)
                    assert all(shape[-3] == 2 for shape in calls[int(meet):])
                    total += repairs
    assert total > 20


# -- eigenframes -------------------------------------------------------------------


def ref_order_residual(ma, mb):
    """_measures_leq's residual: the largest ||(I - E_a(t)) E_b(t)|| on both
    grids, from the projections read back through cumulative_stack_at."""
    ts = np.concatenate((ma.grid, mb.grid))
    eye = np.eye(ma.dim)
    return max(float(np.linalg.norm((eye - pa) @ pb))
               for pa, pb in zip(ma.cumulative_stack_at(ts), mb.cumulative_stack_at(ts)))


def order_pairs():
    for family in list(families(26)) + list(mixed_families(27)):
        yield family[0], family[-1]
    rng = np.random.default_rng(28)
    for d in (1, *DIMS):
        for k in range(12):
            # a monotone image g(t) <= t shares the eigenvectors of its partner
            lam = np.sort(rng.uniform(size=d))
            if k % 3 == 2:
                lam = np.round(lam * 3) / 3
            image = np.minimum(lam, np.maximum.accumulate(lam * rng.uniform(size=d)))
            q = rand_unitary(rng, d)
            b = (q * lam) @ q.conj().T
            a = (q * image) @ q.conj().T
            yield (a + a.conj().T) / 2.0, (b + b.conj().T) / 2.0
        for _ in range(6):
            yield rand_effect(rng, d), rand_effect(rng, d)
            yield rand_projection(rng, d), rand_projection(rng, d)


def ref_leq(ma, mb):
    """_measures_leq's verdict from ref_order_residual."""
    return ref_order_residual(ma, mb) <= TOL.ord * max(1.0, ma.scale, mb.scale)


def test_frame_order_matches_the_measure_order():
    verdicts = set()
    for a, b in order_pairs():
        ops = [HermitianOperator(m) for m in (a, b)]
        measures = [spectral_measure(op) for op in ops]
        for (ma, mb), (oa, ob) in ((measures, ops), (measures[::-1], ops[::-1])):
            want = ref_leq(ma, mb)
            assert _measures_leq(ma, mb, TOL) == want
            assert spectral_leq(oa, ob) == want
            assert abs(_frames_residual(ma, mb) - ref_order_residual(ma, mb)) <= ATOL
            verdicts.add((want, ob.dim == 1))
    assert verdicts == {(True, False), (False, False), (True, True), (False, True)}


def monotone_maps(grid):
    """g(t) = min(t, c), a rounding map that merges clusters, and a constant map."""
    return np.minimum(grid, np.median(grid)), np.round(grid * 2) / 2, np.full(len(grid), 0.5)


def test_monotone_images_keep_their_frames():
    verdicts, rows = set(), set()
    for a, b in order_pairs():
        measures = [spectral_measure(m) for m in (a, b)]
        for parent in measures:
            for values in monotone_maps(parent.grid):
                image = parent.apply_monotone(values)
                assert image._frame is parent._frame
                others = (*measures, parent.apply_monotone(np.minimum(values, 0.4)))
                pairs = [p for other in others for p in ((image, other), (other, image))]
                got = [_measures_leq(ma, mb, TOL) for ma, mb in pairs]
                # the order test read the frames and built no projection stack
                assert image._stack is None
                for (ma, mb), verdict in zip(pairs, got):
                    want = ref_leq(ma, mb)
                    assert verdict == want
                    assert abs(_frames_residual(ma, mb) - ref_order_residual(ma, mb)) <= ATOL
                    verdicts.add(want)
                _, clusters = ref_cluster_means(values, TOL.eig * parent.scale)
                want_rows = parent.cumulative[[c[-1] for c in clusters]]
                assert np.array_equal(image.cumulative, want_rows)
                rows.add(len(image.grid))
    assert verdicts == {True, False}
    assert 1 in rows and max(rows) > 2


def test_the_suite_order_tests_read_the_frames(monkeypatch):
    from olsonorder import hilbert_suite

    counts = {"leq": 0, "frames": 0}
    real_leq, real_frames = H._measures_leq, H._frames_residual

    def counting_leq(ma, mb, tol):
        counts["leq"] += 1
        return real_leq(ma, mb, tol)

    def counting_frames(ma, mb):
        counts["frames"] += 1
        return real_frames(ma, mb)

    for module in (H, hilbert_suite):
        monkeypatch.setattr(module, "_measures_leq", counting_leq)
    monkeypatch.setattr(H, "_frames_residual", counting_frames)
    hilbert_suite.run_hilbert(seed=0, pairs=5)
    assert counts["leq"] > 1000
    assert counts["frames"] == counts["leq"]


def test_masked_rows_have_the_projection_singular_values():
    for family in list(families(29)) + list(mixed_families(30, count=4)):
        ops = [HermitianOperator(m) for m in family]
        measures = _effect_measures(ops, TOL)
        for meet in (True, False):
            _lattice_bound(measures, TOL, meet)
        # the bounds read the frames and build no member's projection stack
        assert all(m._stack is None for m in measures)
        scale = max(1.0, *(m.scale for m in measures))
        merged = np.sort(np.concatenate([m.grid for m in measures]))
        ts = _cluster_means(merged, TOL.eig * scale)[0][:-1]
        for meet in (True, False):
            rows = np.stack([m._bound_rows(ts, meet) for m in measures], axis=1)
            stacks = np.stack([m.cumulative_stack_at(ts) for m in measures], axis=1)
            d = rows.shape[-1]
            projections = stacks if meet else np.eye(d) - stacks
            for got, want in zip(rows, projections):
                sv_got = np.linalg.svd(got.reshape(-1, d), compute_uv=False)
                sv_want = np.linalg.svd(want.reshape(-1, d), compute_uv=False)
                assert close(sv_got, sv_want)


def test_perturbed_eigenvectors_fail_the_reconstruction_check(monkeypatch):
    rng = np.random.default_rng(31)
    real_eigh = np.linalg.eigh

    def perturbed_eigh(a, *args, **kwargs):
        evals, evecs = real_eigh(a, *args, **kwargs)
        return evals, evecs + 1e-4 * rng.standard_normal(evecs.shape)

    monkeypatch.setattr(np.linalg, "eigh", perturbed_eigh)
    for d in DIMS:
        # distinct eigenvalues, so the perturbation moves the reconstruction
        a, b = np.diag(np.linspace(0.1, 0.9, d)), rand_effect(rng, d)
        calls = (
            lambda: spectral_measure(a),
            lambda: spectral_leq(a, b),
            lambda: spectral_meet([a, b]),
            lambda: spectral_join([b, a]),
        )
        for call in calls:
            with pytest.raises(EigendecompositionFailure, match="reconstruction residual"):
                call()


def test_solver_failures_raise_the_typed_error(monkeypatch, capsys, tmp_path):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    a, b = np.diag([0.2, 0.7]), np.array([[0.5, 0.1], [0.1, 0.4]])
    p, q = np.diag([1.0, 0.0]), np.full((2, 2), 0.5)
    cases = (
        ("eigh", lambda: spectral_measure(a)),
        ("svd", lambda: spectral_meet([a, b])),
        ("svd", lambda: H.proj_meet(p, q)),
        ("eigvalsh", lambda: H.loewner_leq(a, b)),
    )
    for solver, call in cases:
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, solver, failing)
            with pytest.raises(EigendecompositionFailure, match="^did not converge$"):
                call()
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, mat in zip(paths, (a, b)):
        path.write_text(json.dumps(matrix_to_json(mat)), encoding="utf-8")
    monkeypatch.setattr(np.linalg, "eigh", failing)
    code = cli.main(["spectral", "cmp", *map(str, paths)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "EigendecompositionFailure: did not converge\n"


# eigenvalues 0.5, 0.5 + 0.95 g, 0.5 + 0.95 g, 0.5 + 1.05 g at the gap g =
# 1e-8: the spread rule cuts the chain after the third value, and the two
# cluster means lie 0.417 g apart, closer than the half-gap lookup slack
CUT_CHAIN = 0.5 + 1e-8 * np.array([0.0, 0.95, 0.95, 1.05])


def rotated(rng, values):
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    return (q * values) @ q.T


def near_degenerate_effects():
    """Valid effects with eigenvalues closer than the clustering gap of 1e-8:
    diag(0.5, 0.5 + delta), the cut chain above, plain and rotated, and
    eight values 9e-9 apart, a chain wider than the gap."""
    for delta in np.logspace(-10, -6, 41):
        yield np.diag([0.5, 0.5 + delta])
    yield np.diag(CUT_CHAIN)
    yield rotated(np.random.default_rng(30), CUT_CHAIN)
    yield np.diag(0.1 + 9e-9 * np.arange(8))


def test_near_degenerate_effects_get_answers():
    for mat in near_degenerate_effects():
        measure = spectral_measure(mat)
        evals = np.linalg.eigvalsh(mat)
        gap = TOL.eig * measure.scale
        rows = measure._table
        # no cluster is wider than the gap, so no eigenvalue moves further
        assert all(evals[hi - 1] - evals[lo] <= gap for lo, hi in zip(rows[:-1], rows[1:]))
        assert np.linalg.norm(measure.reconstruct() - mat) <= gap * np.sqrt(len(mat))
        # a lookup at a grid point reads that point's row, however close the
        # next mean lies
        assert np.array_equal(measure.cumulative_stack_at(measure.grid), measure.cumulative)
        assert _frames_residual(measure, measure) <= ATOL
        assert spectral_leq(mat, mat)
        for bound in (spectral_meet, spectral_join):
            assert np.abs(bound([mat, mat]).matrix - mat).max() <= gap
    # the cut chain gives two points, the chain of eight four pairs
    assert len(spectral_measure(np.diag(CUT_CHAIN)).grid) == 2
    assert len(spectral_measure(mat).grid) == 4


def test_monotone_images_and_merged_grids_keep_consecutive_chaining():
    # answered before the spread rule, so their answers stay: a chain wider
    # than the gap is one grid point of an image and of a merged grid
    measure = spectral_measure(np.diag([0.2, 0.4, 0.6, 0.8]))
    image = measure.apply_monotone([0.5, 0.5 + 9e-9, 0.5 + 1.8e-8, 0.9])
    assert image.grid.tolist() == [0.500000009, 0.9]
    assert image._table.tolist() == [0, 3, 4]
    family = [np.diag([0.3, 0.5 + k * 9e-9, 0.9]) for k in range(3)]
    assert np.diag(spectral_meet(family).matrix).tolist() == [0.3, 0.500000009, 0.9]


def test_the_suite_holds_clustered_rebuilds_to_the_clustering_bound(monkeypatch):
    from olsonorder import hilbert_suite

    # every random effect is a rotated cut chain, refused before the spread rule
    def cut_chains(rng, dim, tol):
        return HermitianOperator(rotated(rng, CUT_CHAIN), tol)

    monkeypatch.setattr(hilbert_suite, "_random_effect", cut_chains)
    report = hilbert_suite.run_hilbert(seed=0, dims=(4,), pairs=4, probes=2)
    check = {c["name"]: c for c in report["checks"]}["reconstruction_residual"]
    # clustering moves the chain's eigenvalues by more than tol.rec, and by
    # less than the bound sqrt(d) / 2 * tol.eig it allows on top of tol.rec
    assert check["passed"] and TOL.rec < check["max_residual"] <= TOL.rec + TOL.eig


def test_near_degenerate_files_are_answered(capsys):
    near = fixture_path("near_degenerate_2x2.json")
    assert cli.main(["spectral", "measure", near]) == 0
    grid = json.loads(capsys.readouterr().out)["grid"]
    assert len(grid) == 1 and abs(grid[0] - 0.5000000025) <= 1e-15
    assert cli.main(["spectral", "meet", near, fixture_path("diag_quarter.json")]) == 0
    got = json.loads(capsys.readouterr().out)["matrix"]["re"]
    assert np.abs(np.array(got) - np.diag([0.25, 0.5000000025])).max() <= 1e-15


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


# -- one stacked eigendecomposition per family -----------------------------------


def mixed_families(seed, count=12):
    """Families mixing real and complex members, degenerate ones included."""
    rng = np.random.default_rng(seed)
    for d in DIMS:
        for k in range(count):
            family = [rand_effect(rng, d, degenerate=k % 2 == 0) for _ in range(2 + k % 2)]
            # rand_effect draws real and complex unitaries at random: force both kinds
            family[0] = family[0].real.copy() if k % 3 else family[0] + 0j
            yield family


def test_stacked_family_measures_match_the_reference():
    dtypes = set()
    for family in list(families(19)) + list(mixed_families(20)):
        ops = [HermitianOperator(m) for m in family]
        dtypes.add(tuple(sorted({op.matrix.dtype.kind for op in ops})))
        for op, measure in zip(ops, _effect_measures(ops, TOL)):
            grid, cumulative = ref_measure(op.matrix, TOL)
            assert close(measure.grid, grid)
            assert close(measure.cumulative, cumulative)
            # a stacked eigh decomposes each matrix as a call of its own does
            alone = spectral_measure(op)
            assert np.array_equal(measure.grid, alone.grid)
            assert np.array_equal(measure.cumulative, alone.cumulative)
            assert measure.cumulative.dtype == op.matrix.dtype
    assert {("f",), ("c",), ("c", "f")} <= dtypes


def test_one_stacked_eigh_per_dtype_and_call(monkeypatch):
    rng = np.random.default_rng(25)
    calls = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append((a.shape, a.dtype.kind))
        return real_eigh(a, *args, **kwargs)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    for d in DIMS:
        cplx = [rand_effect(rng, d) + 0j for _ in range(3)]
        real = rand_effect(rng, d).real.copy()
        for bound in (spectral_meet, spectral_join):
            calls.clear()
            bound(cplx)
            assert calls == [((3, d, d), "c")]
            calls.clear()
            bound([cplx[0], real, cplx[1]])
            assert sorted(calls) == [((1, d, d), "f"), ((2, d, d), "c")]
        calls.clear()
        spectral_leq(cplx[0], cplx[1])
        assert calls == [((2, d, d), "c")]
        # operators that already hold their decomposition are not decomposed again
        ops = [HermitianOperator(m) for m in cplx]
        assert all(op.is_effect for op in ops)
        calls.clear()
        spectral_meet(ops)
        spectral_leq(ops[0], ops[1])
        assert calls == []


def test_stacked_eigh_is_bit_identical_per_dtype():
    rng = np.random.default_rng(21)
    for d in DIMS:
        real = [rand_effect(rng, d).real.copy() for _ in range(2)]
        cplx = [rand_effect(rng, d) + 0j for _ in range(2)]
        ops = [HermitianOperator(m) for m in (real[0], cplx[0], real[1], cplx[1])]
        _decompose(ops)
        for op in ops:
            evals, evecs = op._spectrum
            want_vals, want_vecs = np.linalg.eigh(op.matrix)
            assert np.array_equal(evals, want_vals)
            assert np.array_equal(evecs, want_vecs)
            assert evecs.dtype == op.matrix.dtype
        # an operator that has its decomposition is not decomposed again
        cached = [op._spectrum for op in ops]
        _decompose(ops[:2] + [HermitianOperator(real[0])])
        assert all(op._spectrum is c for op, c in zip(ops, cached))


def test_measures_do_not_depend_on_the_cached_decomposition():
    for family in mixed_families(24, count=4):
        fresh = [spectral_measure(m) for m in family]
        ops = [HermitianOperator(m) for m in family]
        spectral_meet(ops)
        for op, want in zip(ops, fresh):
            got = spectral_measure(op)
            assert np.array_equal(got.grid, want.grid)
            assert np.array_equal(got.cumulative, want.cumulative)


def at_slack(rng, d, low, factor):
    """A rotated effect with one eigenvalue `factor` psd slacks below 0
    (low) or above 1, the others 0.5."""
    vals = np.full(d, 0.5)
    vals[0] = 0.0 if low else 1.0
    scale = max(1.0, float(np.linalg.norm(vals)))
    vals[0] = -factor * TOL.psd * scale if low else 1.0 + factor * TOL.psd * scale
    q = rand_unitary(rng, d)
    m = (q * vals) @ q.conj().T
    return (m + m.conj().T) / 2.0


def boundary_matrices():
    rng = np.random.default_rng(22)
    for d in DIMS:
        yield np.eye(d) * (1 + 1e-10)
        yield np.eye(d) * -1e-10
        for low in (True, False):
            for factor in (0.999, 1.001, 2.0):
                yield at_slack(rng, d, low, factor)
        for _ in range(5):
            yield rand_effect(rng, d) * 1.5
            yield rand_effect(rng, d)
    yield from fixture_operators()


def test_effect_check_from_eigh_matches_the_eager_flag():
    verdicts = set()
    for mat in boundary_matrices():
        effect = ref_flags(mat)[0]
        verdicts.add(effect)
        op = HermitianOperator(mat)
        assert op.is_effect == effect
        assert np.array_equal(op._spectrum[0], np.linalg.eigh(op.matrix)[0])
        # a fresh operator, so the meet and join read the eigh eigenvalues
        for bound in (spectral_meet, spectral_join):
            if effect:
                bound([HermitianOperator(mat)])
            else:
                with pytest.raises(NotAnEffect):
                    bound([HermitianOperator(mat)])
    assert verdicts == {True, False}


def test_real_families_give_real_results():
    rng = np.random.default_rng(23)
    for d in DIMS:
        family = [rand_effect(rng, d).real.copy() for _ in range(3)]
        assert all(np.isrealobj(m) for m in family)
        for bound in (spectral_meet, spectral_join):
            got = bound(family)
            assert got.matrix.dtype == np.float64
            assert "im" not in matrix_to_json(got)
        assert spectral_measure(family[0]).cumulative.dtype == np.float64
        assert isinstance(spectral_leq(family[0], family[1]), bool)
