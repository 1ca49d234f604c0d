"""Spectral order on finite-dimensional Hilbert-space effects.

Hermitian matrices stand in for bounded observables: the spectral
resolution of A is the cumulative projection family E_A((-inf, t]) and
A lies below B in the spectral (Olson) order when every E_B((-inf, t])
is range-contained in E_A((-inf, t]).  Meets and joins mirror the
step-resolution formulas with the projection lattice supplying the
pointwise operations, so E(H) computations here are the operator
analogue of the exact routines in `lattice`.

Everything is tolerance-based: checks scale with the operator norms and
the defaults leave two orders of magnitude over double-precision
eigensolver backward error at the supported sizes.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CarrierTooLarge,
    DimensionMismatch,
    EigendecompositionFailure,
    EmptyFamily,
    NotAnEffect,
    NotAProjection,
    NotHermitian,
    ParseError,
)

DIMENSION_CAP = 16


@dataclasses.dataclass(frozen=True)
class Tolerances:
    """Scale-relative tolerances for the numerical backend.

    herm: hermiticity residual; proj: idempotency residual; eig:
    eigenvalue clustering gap; psd: negative-eigenvalue slack; ord:
    range-containment residual and rank cutoff; rec: spectral
    reconstruction residual; lat: lattice-law residual; log: Gudder
    order residual.  Each must be finite and nonnegative (zero is
    allowed); anything else raises ParseError.
    """

    herm: float = 1e-9
    proj: float = 1e-9
    eig: float = 1e-8
    psd: float = 1e-9
    ord: float = 1e-8
    rec: float = 1e-9
    lat: float = 1e-7
    log: float = 1e-9

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            val = getattr(self, field.name)
            if not (math.isfinite(val) and val >= 0):
                raise ParseError(
                    f"tolerance {field.name} must be finite and nonnegative, got {val!r}"
                )

    def replace(self, **overrides: float) -> "Tolerances":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOLERANCES = Tolerances()


def _norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat))


class HermitianOperator:
    """A validated square Hermitian matrix with effect/projection flags."""

    __slots__ = ("matrix", "dim", "is_effect", "is_projection")

    def __init__(
        self,
        matrix,
        tol: Tolerances = DEFAULT_TOLERANCES,
        cap: int = DIMENSION_CAP,
    ) -> None:
        arr = np.asarray(matrix)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] > cap:
            raise CarrierTooLarge(f"dimension {arr.shape[0]} exceeds the cap {cap}")
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
        scale = max(1.0, _norm(arr))
        if _norm(arr - arr.conj().T) > tol.herm * scale:
            raise NotHermitian(
                f"hermiticity residual {_norm(arr - arr.conj().T):.3e} exceeds tolerance"
            )
        arr = (arr + arr.conj().T) / 2.0
        arr.setflags(write=False)
        self.matrix = arr
        self.dim = int(arr.shape[0])
        try:
            evals = np.linalg.eigvalsh(arr)
        except np.linalg.LinAlgError as exc:
            raise EigendecompositionFailure(str(exc)) from exc
        self.is_effect = bool(
            evals[0] >= -tol.psd * scale and evals[-1] <= 1.0 + tol.psd * scale
        )
        self.is_projection = bool(_norm(arr @ arr - arr) <= tol.proj * scale)

    @property
    def rank(self) -> int:
        if not self.is_projection:
            raise NotAProjection("rank is defined for projections")
        return int(round(float(np.trace(self.matrix).real)))

    def __repr__(self) -> str:
        tags = [f"dim={self.dim}"]
        if self.is_projection:
            tags.append(f"projection rank={self.rank}")
        elif self.is_effect:
            tags.append("effect")
        return f"HermitianOperator({', '.join(tags)})"


def _as_operator(obj, tol: Tolerances) -> HermitianOperator:
    if isinstance(obj, HermitianOperator):
        return obj
    return HermitianOperator(obj, tol)


def _same_dim(a: HermitianOperator, b: HermitianOperator) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"operators have dimensions {a.dim} and {b.dim}")


def _cluster_means(values: np.ndarray, gap: float) -> tuple[np.ndarray, list[list[int]]]:
    # consecutive chaining: near-degenerate values share one grid point
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] <= gap:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    means = np.array([float(values[c].mean()) for c in clusters])
    return means, clusters


class SpectralMeasure:
    """Clustered eigenvalue grid with cumulative spectral projections.

    cumulative[i] is E_A((-inf, grid[i]]); the last entry is the
    identity.  Lookups accept a half-gap slack so that thresholds merged
    from several operators pick up eigenvalues equal up to clustering
    noise.
    """

    __slots__ = ("grid", "cumulative", "scale", "_slack")

    def __init__(
        self,
        grid: np.ndarray,
        cumulative: np.ndarray,
        scale: float,
        tol: Tolerances = DEFAULT_TOLERANCES,
    ) -> None:
        self.grid = np.asarray(grid, dtype=np.float64)
        self.cumulative = cumulative
        self.scale = float(scale)
        self._slack = tol.eig * self.scale / 2.0

    @property
    def dim(self) -> int:
        return int(self.cumulative.shape[1])

    def cumulative_stack_at(self, ts: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.grid, np.asarray(ts) + self._slack, side="right") - 1
        out = self.cumulative[np.clip(idx, 0, len(self.grid) - 1)]
        out = np.where((idx >= 0)[:, None, None], out, np.zeros_like(out[0]))
        return out

    def eigenprojections(self) -> np.ndarray:
        prev = np.concatenate(
            [np.zeros_like(self.cumulative[:1]), self.cumulative[:-1]], axis=0
        )
        return self.cumulative - prev

    def reconstruct(self) -> np.ndarray:
        mat = np.einsum("t,tij->ij", self.grid, self.eigenprojections())
        return (mat + mat.conj().T) / 2.0

    def apply_monotone(self, values: Sequence[float], tol: Tolerances = DEFAULT_TOLERANCES) -> "SpectralMeasure":
        """The measure of g(A) for a nondecreasing g given by grid images.

        Equal images merge their eigenspaces; the cumulative family is a
        subfamily of this one, so no eigensolver call is needed.
        """
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise DimensionMismatch("need one image per grid point")
        if np.any(np.diff(vals) < 0):
            raise ParseError("apply_monotone needs nondecreasing images")
        new_grid, clusters = _cluster_means(vals, tol.eig * self.scale)
        # cumulative at a merged value is the last original cumulative in it
        picks = np.array([c[-1] for c in clusters])
        return SpectralMeasure(new_grid, self.cumulative[picks], self.scale, tol)

    def to_operator(self, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
        return HermitianOperator(self.reconstruct(), tol)


def spectral_measure(a, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralMeasure:
    """Eigendecompose into a clustered grid of cumulative projections."""
    op = _as_operator(a, tol)
    scale = max(1.0, _norm(op.matrix))
    try:
        evals, evecs = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    grid, clusters = _cluster_means(evals, tol.eig * scale)
    d = op.dim
    cumulative = np.empty((len(clusters), d, d), dtype=evecs.dtype)
    running = np.zeros((d, d), dtype=evecs.dtype)
    for k, cluster in enumerate(clusters):
        block = evecs[:, cluster]
        running = running + block @ block.conj().T
        cumulative[k] = (running + running.conj().T) / 2.0
    cumulative[-1] = np.eye(d, dtype=evecs.dtype)
    measure = SpectralMeasure(grid, cumulative, scale, tol)
    residual = _norm(measure.reconstruct() - op.matrix)
    if residual > tol.rec * scale:
        raise EigendecompositionFailure(
            f"spectral reconstruction residual {residual:.3e} exceeds tolerance"
        )
    return measure


def _require_projection(op: HermitianOperator) -> None:
    if not op.is_projection:
        raise NotAProjection("operation needs orthogonal projections")


def _proj_meet_many(mats: Sequence[np.ndarray], tol: Tolerances, dim: int) -> np.ndarray:
    """Projection onto the intersection of ranges.

    The intersection is the null space of the stacked orthogonal
    complements; singular values at or below the rank cutoff flag null
    directions.
    """
    eye = np.eye(dim)
    if not mats:
        return eye
    stacked = np.vstack([eye - m for m in mats])
    try:
        _, svals, vh = np.linalg.svd(stacked)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    basis = vh[svals <= tol.ord].conj().T
    out = basis @ basis.conj().T
    return (out + out.conj().T) / 2.0


def _proj_join_many(mats: Sequence[np.ndarray], tol: Tolerances, dim: int) -> np.ndarray:
    eye = np.eye(dim)
    return eye - _proj_meet_many([eye - m for m in mats], tol, dim)


def proj_meet(p, q, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Projection onto range(p) intersected with range(q)."""
    op_p, op_q = _as_operator(p, tol), _as_operator(q, tol)
    _same_dim(op_p, op_q)
    _require_projection(op_p)
    _require_projection(op_q)
    return HermitianOperator(
        _proj_meet_many([op_p.matrix, op_q.matrix], tol, op_p.dim), tol
    )


def proj_join(p, q, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Projection onto the closed span of range(p) and range(q)."""
    op_p, op_q = _as_operator(p, tol), _as_operator(q, tol)
    _same_dim(op_p, op_q)
    _require_projection(op_p)
    _require_projection(op_q)
    return HermitianOperator(
        _proj_join_many([op_p.matrix, op_q.matrix], tol, op_p.dim), tol
    )


def range_leq(p, q, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Range containment of projections: ||(I - q) p|| at tolerance."""
    op_p, op_q = _as_operator(p, tol), _as_operator(q, tol)
    _same_dim(op_p, op_q)
    _require_projection(op_p)
    _require_projection(op_q)
    eye = np.eye(op_p.dim)
    return bool(_norm((eye - op_q.matrix) @ op_p.matrix) <= tol.ord)


def loewner_leq(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Standard operator order: b - a positive semidefinite at tolerance."""
    op_a, op_b = _as_operator(a, tol), _as_operator(b, tol)
    _same_dim(op_a, op_b)
    scale = max(1.0, _norm(op_a.matrix), _norm(op_b.matrix))
    try:
        low = float(np.linalg.eigvalsh(op_b.matrix - op_a.matrix)[0])
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    return low >= -tol.psd * scale


def logical_leq(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Gudder order: a b = a^2 at tolerance."""
    op_a, op_b = _as_operator(a, tol), _as_operator(b, tol)
    _same_dim(op_a, op_b)
    na, nb = _norm(op_a.matrix), _norm(op_b.matrix)
    scale = max(1.0, na * max(1.0, nb))
    residual = _norm(op_a.matrix @ op_b.matrix - op_a.matrix @ op_a.matrix)
    return bool(residual <= tol.log * scale)


def _measures_leq(ma: SpectralMeasure, mb: SpectralMeasure, tol: Tolerances) -> bool:
    ts = np.unique(np.concatenate([ma.grid, mb.grid]))
    pa = ma.cumulative_stack_at(ts)
    pb = mb.cumulative_stack_at(ts)
    eye = np.eye(ma.dim)
    residual = (eye - pa) @ pb
    worst = float(np.sqrt((np.abs(residual) ** 2).sum(axis=(1, 2))).max())
    return worst <= tol.ord * max(1.0, ma.scale, mb.scale)


def spectral_leq(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Olson order: every E_b((-inf,t]) range-contained in E_a((-inf,t])."""
    op_a, op_b = _as_operator(a, tol), _as_operator(b, tol)
    _same_dim(op_a, op_b)
    return _measures_leq(spectral_measure(op_a, tol), spectral_measure(op_b, tol), tol)


def _effect_family(operators: Iterable, tol: Tolerances) -> list[HermitianOperator]:
    ops = [_as_operator(o, tol) for o in operators]
    if not ops:
        raise EmptyFamily("meet/join needs at least one operator")
    for op in ops[1:]:
        _same_dim(ops[0], op)
    for op in ops:
        if not op.is_effect:
            raise NotAnEffect("spectral meet/join is defined on effects")
    return ops


def _lattice_bound(
    measures: Sequence[SpectralMeasure], tol: Tolerances, meet: bool
) -> HermitianOperator:
    dim = measures[0].dim
    scale = max(1.0, *(m.scale for m in measures))
    merged = np.sort(np.concatenate([m.grid for m in measures]))
    grid, _ = _cluster_means(merged, tol.eig * scale)
    stacks = [m.cumulative_stack_at(grid) for m in measures]
    combine = _proj_join_many if meet else _proj_meet_many
    eye = np.eye(dim)
    cums: list[np.ndarray] = []
    prev: np.ndarray | None = None
    for i in range(len(grid)):
        cur = combine([s[i] for s in stacks], tol, dim)
        if prev is not None and _norm((eye - cur) @ prev) > tol.ord:
            # monotone repair: resolutions must be nondecreasing
            cur = _proj_join_many([prev, cur], tol, dim)
        cums.append(cur)
        prev = cur
    cums[-1] = eye
    mat = np.zeros((dim, dim), dtype=cums[-1].dtype)
    last = np.zeros_like(mat)
    for t, cur in zip(grid, cums):
        mat = mat + t * (cur - last)
        last = cur
    return HermitianOperator((mat + mat.conj().T) / 2.0, tol)


def spectral_meet(operators: Iterable, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Greatest lower bound of a family of effects in the spectral order.

    Realized on the merged eigenvalue grid: the meet's cumulative
    projection at t is the projection join of the family's cumulatives
    at t, with monotone repair, reconstructed as sum t_i (P_i - P_{i-1}).
    """
    ops = _effect_family(operators, tol)
    measures = [spectral_measure(op, tol) for op in ops]
    return _lattice_bound(measures, tol, meet=True)


def spectral_join(operators: Iterable, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Least upper bound of a family of effects in the spectral order."""
    ops = _effect_family(operators, tol)
    measures = [spectral_measure(op, tol) for op in ops]
    return _lattice_bound(measures, tol, meet=False)


def negate(a, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """The complement effect I - a; the operator form of x -> x~."""
    op = _as_operator(a, tol)
    if not op.is_effect:
        raise NotAnEffect("negation is defined on effects")
    return HermitianOperator(np.eye(op.dim) - op.matrix, tol)


def matrix_to_json(a) -> dict:
    """Matrix literal {dim, re, im?}; im omitted for real matrices."""
    mat = a.matrix if isinstance(a, HermitianOperator) else np.asarray(a)
    out: dict = {
        "dim": int(mat.shape[0]),
        "re": [[float(v) for v in row] for row in np.real(mat)],
    }
    if np.iscomplexobj(mat) and np.any(np.imag(mat) != 0.0):
        out["im"] = [[float(v) for v in row] for row in np.imag(mat)]
    return out


def matrix_from_json(
    obj,
    tol: Tolerances = DEFAULT_TOLERANCES,
    cap: int = DIMENSION_CAP,
) -> HermitianOperator:
    if not isinstance(obj, dict) or "dim" not in obj or "re" not in obj:
        raise ParseError(f"matrix literal needs 'dim' and 're', got {obj!r}")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"matrix 'dim' must be a positive integer, got {dim!r}")

    def _rows(field: str) -> np.ndarray:
        rows = obj[field]
        if (
            not isinstance(rows, list)
            or len(rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in rows)
        ):
            raise ParseError(f"matrix '{field}' must be a {dim}x{dim} array")
        for r in rows:
            for v in r:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ParseError(f"matrix entry {v!r} is not a number")
        return np.array(rows, dtype=np.float64)

    mat: np.ndarray = _rows("re")
    if "im" in obj:
        mat = mat + 1j * _rows("im")
    return HermitianOperator(mat, tol, cap=cap)
