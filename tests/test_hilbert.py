from __future__ import annotations

import warnings

import numpy as np
import pytest

from olsonorder.errors import (
    CarrierTooLarge,
    DimensionMismatch,
    NotAnEffect,
    NotAProjection,
    NotHermitian,
    ParseError,
)
from olsonorder.hilbert import (
    DEFAULT_TOLERANCES,
    HermitianOperator,
    Tolerances,
    loewner_leq,
    logical_leq,
    matrix_from_json,
    matrix_to_json,
    negate,
    proj_join,
    proj_meet,
    range_leq,
    spectral_join,
    spectral_leq,
    spectral_measure,
    spectral_meet,
)

from conftest import load_fixture


def rand_effect(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return HermitianOperator((q * rng.uniform(0, 1, size=d)) @ q.conj().T)


def rand_projection(rng, d, r):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    return HermitianOperator(q[:, :r] @ q[:, :r].conj().T)


def test_operator_validation():
    with pytest.raises(NotHermitian):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(CarrierTooLarge):
        HermitianOperator(np.eye(17))
    with pytest.raises(DimensionMismatch):
        HermitianOperator(np.zeros((2, 3)))
    op = HermitianOperator(np.diag([0.25, 0.75]))
    assert op.is_effect and not op.is_projection
    assert HermitianOperator(np.diag([1.0, 0.0])).is_projection
    assert not HermitianOperator(np.diag([1.5, 0.0])).is_effect


def test_dtype_preserved():
    real = HermitianOperator(np.diag([0.5, 0.5]))
    assert real.matrix.dtype == np.float64
    cplx = HermitianOperator(np.array([[0.5, 0.5j], [-0.5j, 0.5]]))
    assert cplx.matrix.dtype == np.complex128
    meet = spectral_meet((real, HermitianOperator(np.diag([0.25, 0.75]))))
    assert meet.matrix.dtype == np.float64


def test_diagonal_spectral_measure():
    m = spectral_measure(np.diag([0.25, 0.75]))
    assert np.allclose(m.grid, [0.25, 0.75])
    assert np.allclose(m.cumulative[0], np.diag([1.0, 0.0]))
    assert np.allclose(m.cumulative[1], np.eye(2))
    assert np.allclose(m.reconstruct(), np.diag([0.25, 0.75]))
    # repeated eigenvalues cluster into one grid point
    flat = spectral_measure(np.eye(3) * 0.5)
    assert len(flat.grid) == 1


def test_projection_lattice_against_subspaces():
    rng = np.random.default_rng(3)
    for _ in range(25):
        p = rand_projection(rng, 4, int(rng.integers(0, 5)))
        q = rand_projection(rng, 4, int(rng.integers(0, 5)))
        meet = proj_meet(p, q)
        join = proj_join(p, q)
        assert meet.is_projection and join.is_projection
        assert range_leq(meet, p) and range_leq(meet, q)
        assert range_leq(p, join) and range_leq(q, join)
        # de morgan through the orthocomplement
        dual = negate(proj_join(negate(p), negate(q)))
        assert np.allclose(dual.matrix, meet.matrix, atol=1e-9)
    with pytest.raises(NotAProjection):
        proj_meet(np.diag([0.5, 0.5]), np.eye(2))


def test_order_relations_on_commuting_diagonals():
    a = np.diag([0.2, 0.8])
    b = np.diag([0.6, 0.9])
    assert loewner_leq(a, b)
    assert spectral_leq(a, b)
    assert not spectral_leq(b, a)
    # logical order is stricter than both
    p = np.diag([1.0, 0.0])
    assert logical_leq(p, np.eye(2))
    assert not logical_leq(np.diag([0.5, 0.0]), np.diag([0.9, 0.4]))


def test_spectral_meet_join_of_commuting_diagonals_exact():
    a = np.diag([0.2, 0.8])
    b = np.diag([0.6, 0.4])
    meet = spectral_meet((a, b)).matrix
    join = spectral_join((a, b)).matrix
    assert np.array_equal(np.diag(meet), [0.2, 0.4])
    assert np.array_equal(np.diag(join), [0.6, 0.8])


def test_meet_join_identity_bounds():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        for _ in range(20):
            a = rand_effect(rng, d)
            eye = HermitianOperator(np.eye(d))
            zero = HermitianOperator(np.zeros((d, d)))
            assert np.allclose(spectral_meet((a, eye)).matrix, a.matrix, atol=1e-9)
            assert np.allclose(spectral_join((a, zero)).matrix, a.matrix, atol=1e-9)


def test_spectral_implies_loewner_random():
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(150):
        a, b = rand_effect(rng, 3), rand_effect(rng, 3)
        if spectral_leq(a, b):
            hits += 1
            assert loewner_leq(a, b)
    ma = spectral_measure(rand_effect(rng, 3))
    img = ma.apply_monotone(np.minimum(ma.grid, 0.3))
    assert spectral_leq(img.to_operator(), ma.to_operator())


def test_effect_validation_for_lattice_ops():
    with pytest.raises(NotAnEffect):
        spectral_meet((np.diag([1.5, 0.5]), np.eye(2)))
    with pytest.raises(DimensionMismatch):
        spectral_meet((np.eye(2), np.eye(3)))


def test_apply_monotone_contract():
    m = spectral_measure(np.diag([0.25, 0.5, 0.75]))
    with pytest.raises(ParseError):
        m.apply_monotone([0.3, 0.2, 0.5])
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ParseError):
            m.apply_monotone([0.1, 0.2, bad])
    with pytest.raises(DimensionMismatch):
        m.apply_monotone([0.1, 0.2])
    img = m.apply_monotone([0.1, 0.1, 0.6])
    assert len(img.grid) == 2
    assert np.allclose(img.to_operator().matrix, np.diag([0.1, 0.1, 0.6]))


def test_matrix_json_round_trip():
    real = np.diag([0.25, 0.75])
    enc = matrix_to_json(real)
    assert "im" not in enc
    assert np.array_equal(matrix_from_json(enc).matrix, real)
    cplx = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    enc = matrix_to_json(cplx)
    assert "im" in enc
    assert np.array_equal(matrix_from_json(enc).matrix, cplx)
    with pytest.raises(ParseError):
        matrix_from_json({"dim": 2, "re": [[0.0, 0.0]]})
    with pytest.raises(ParseError):
        matrix_from_json({"dim": True, "re": []})


def test_matrix_json_refuses_non_finite_and_overflowing_entries():
    for bad in (float("nan"), float("inf"), float("-inf"), 1e308, 10**400):
        with pytest.raises(ParseError):
            matrix_from_json({"dim": 2, "re": [[bad, 0.0], [0.0, 0.5]]})
        with pytest.raises(ParseError):
            matrix_from_json(
                {"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, bad], [0.0, 0.0]]}
            )
    # every entry within range, but the norm is not
    with pytest.raises(ParseError, match="norm"):
        matrix_from_json({"dim": 2, "re": [[9e75, 9e75], [9e75, 9e75]]})
    assert matrix_from_json({"dim": 2, "re": [[1e75, 0.0], [0.0, 0.5]]}).dim == 2


def test_operators_refuse_non_finite_matrices():
    for bad in (float("nan"), float("inf"), float("-inf"), 1e200):
        mat = np.array([[bad, 0.0], [0.0, 0.5]])
        for arr in (mat, mat.astype(np.complex128)):
            with pytest.raises(ParseError):
                HermitianOperator(arr)
            with pytest.raises(ParseError):
                spectral_measure(arr)
            with pytest.raises(ParseError):
                spectral_leq(arr, arr)
            with pytest.raises(ParseError):
                spectral_leq(np.eye(2) / 2, arr)
    with pytest.raises(ParseError):
        HermitianOperator(np.array([[0.5, 0.0], [0.0, 0.5 + 1j * float("nan")]]))
    assert HermitianOperator(np.diag([1e150, 0.5])).dim == 2


def test_large_finite_matrices_are_not_projections_without_warnings():
    # both square to overflowing entries inside the idempotency residual
    for mat in (np.full((2, 2), 6e153), np.diag([1e150, 0.5])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            op = HermitianOperator(mat)
            assert op.is_projection is False
            assert repr(op) == "HermitianOperator(dim=2)"


def test_recorded_gap_pair_is_stable():
    pair = load_fixture("hilbert_noncommuting_pair.json")
    a = matrix_from_json(pair["a"])
    b = matrix_from_json(pair["b"])
    comm = a.matrix @ b.matrix - b.matrix @ a.matrix
    assert np.linalg.norm(comm) > 0.05
    assert loewner_leq(a, b)
    assert not spectral_leq(a, b)
    assert not spectral_leq(b, a)


def test_tolerance_overrides_change_verdicts():
    wobbly = np.array([[0.5, 1e-6], [0.0, 0.5]])
    with pytest.raises(NotHermitian):
        HermitianOperator(wobbly)
    loose = DEFAULT_TOLERANCES.replace(herm=1e-5)
    op = HermitianOperator(wobbly, loose)
    assert np.allclose(op.matrix, op.matrix.conj().T)
    assert Tolerances().replace(lat=1e-3).lat == 1e-3


def test_tolerances_refuse_nan_infinite_and_negative_values():
    for bad in (float("nan"), float("inf"), float("-inf"), -1e-12):
        with pytest.raises(ParseError):
            Tolerances(ord=bad)
        with pytest.raises(ParseError):
            DEFAULT_TOLERANCES.replace(lat=bad)
    assert Tolerances(psd=0.0).psd == 0.0
    assert DEFAULT_TOLERANCES.replace(ord=0).ord == 0
