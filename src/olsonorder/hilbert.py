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
# Largest Frobenius norm accepted from JSON: the validation squares the
# matrix and takes norms of the result, which stays in float range below
# the fourth root of the largest float.
NORM_CAP = 1e76


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
    """A validated square Hermitian matrix.

    The constructor checks shape, dimension cap, finiteness and
    hermiticity; the effect and projection flags are computed on first
    read and cached.
    """

    __slots__ = ("matrix", "dim", "_scale", "_tol", "_is_effect", "_is_projection")

    def __init__(
        self,
        matrix,
        tol: Tolerances = DEFAULT_TOLERANCES,
    ) -> None:
        arr = np.asarray(matrix)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] > DIMENSION_CAP:
            raise CarrierTooLarge(f"dimension {arr.shape[0]} exceeds the cap {DIMENSION_CAP}")
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64)
        with np.errstate(over="ignore"):
            norm = _norm(arr)
        # before max(): max(1.0, nan) is 1.0
        if not math.isfinite(norm):
            raise ParseError(f"matrix norm {norm} is not finite")
        scale = max(1.0, norm)
        if _norm(arr - arr.conj().T) > tol.herm * scale:
            raise NotHermitian(
                f"hermiticity residual {_norm(arr - arr.conj().T):.3e} exceeds tolerance"
            )
        arr = (arr + arr.conj().T) / 2.0
        arr.setflags(write=False)
        self.matrix = arr
        self.dim = int(arr.shape[0])
        self._scale = scale
        self._tol = tol
        self._is_effect: bool | None = None
        self._is_projection: bool | None = None

    @property
    def is_effect(self) -> bool:
        """Spectrum within [0, 1] at tolerance."""
        if self._is_effect is None:
            try:
                evals = np.linalg.eigvalsh(self.matrix)
            except np.linalg.LinAlgError as exc:
                raise EigendecompositionFailure(str(exc)) from exc
            slack = self._tol.psd * self._scale
            self._is_effect = bool(evals[0] >= -slack and evals[-1] <= 1.0 + slack)
        return self._is_effect

    @property
    def is_projection(self) -> bool:
        """Idempotent at tolerance."""
        if self._is_projection is None:
            arr = self.matrix
            # a projection has norm at most sqrt(dim), so a residual that
            # overflows to inf or nan rightly answers False
            with np.errstate(over="ignore", invalid="ignore"):
                residual = _norm(arr @ arr - arr)
            self._is_projection = bool(residual <= self._tol.proj * self._scale)
        return self._is_projection

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


def _cluster_means(values: np.ndarray, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """Means of the clusters of sorted `values` and the index of each
    cluster's last value.

    Consecutive chaining: a value within `gap` of its predecessor joins
    its cluster, so near-degenerate values share one grid point.
    """
    ends = np.append(np.flatnonzero(np.diff(values) > gap), len(values) - 1)
    starts = np.concatenate(([0], ends[:-1] + 1))
    return np.add.reduceat(values, starts) / (ends - starts + 1), ends


class SpectralMeasure:
    """Clustered eigenvalue grid with cumulative spectral projections.

    cumulative[i] is E_A((-inf, grid[i]]); the last entry is the
    identity.  Lookups accept a half-gap slack so that thresholds merged
    from several operators pick up eigenvalues equal up to clustering
    noise.
    """

    __slots__ = ("grid", "cumulative", "scale", "_slack", "_padded")

    def __init__(
        self,
        grid: np.ndarray,
        cumulative: np.ndarray,
        scale: float,
        tol: Tolerances = DEFAULT_TOLERANCES,
    ) -> None:
        self.grid = np.asarray(grid, dtype=np.float64)
        cumulative = np.asarray(cumulative)
        # row 0 is the zero projection, the resolution below the grid
        self._padded = np.concatenate([np.zeros_like(cumulative[:1]), cumulative])
        self.cumulative = self._padded[1:]
        self.scale = float(scale)
        self._slack = tol.eig * self.scale / 2.0

    @property
    def dim(self) -> int:
        return int(self.cumulative.shape[1])

    def cumulative_stack_at(self, ts: np.ndarray) -> np.ndarray:
        """E((-inf, t]) for each t in the 1-d array `ts`, shape (len(ts), d, d)."""
        return self._padded[
            np.searchsorted(self.grid, np.asarray(ts) + self._slack, side="right")
        ]

    def eigenprojections(self) -> np.ndarray:
        return np.diff(self._padded, axis=0)

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
        if not np.all(np.isfinite(vals)) or np.any(np.diff(vals) < 0):
            raise ParseError("apply_monotone needs finite nondecreasing images")
        new_grid, ends = _cluster_means(vals, tol.eig * self.scale)
        # cumulative at a merged value is the last original cumulative in it
        return SpectralMeasure(new_grid, self.cumulative[ends], self.scale, tol)

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
    grid, ends = _cluster_means(evals, tol.eig * scale)
    # running sums of the v_k v_k^*, read at the end of each cluster
    vecs = evecs.T
    cumulative = np.cumsum(vecs[:, :, None] @ vecs.conj()[:, None, :], axis=0)[ends]
    cumulative = (cumulative + cumulative.conj().swapaxes(1, 2)) / 2.0
    cumulative[-1] = np.eye(op.dim, dtype=evecs.dtype)
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


def _proj_meet_many(stack: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Projections onto the intersections of ranges, one batched SVD.

    `stack` has shape (..., m, d, d) with m >= 1: each entry over the
    leading axes holds m projections, and the result, of shape
    (..., d, d), projects onto the intersection of their ranges.  That
    intersection is the null space of the m stacked orthogonal
    complements, an (m d) x d matrix; singular values at or below the
    rank cutoff tol.ord flag null directions.
    """
    *lead, m, d, _ = stack.shape
    complements = (np.eye(d) - stack).reshape(*lead, m * d, d)
    try:
        _, svals, vh = np.linalg.svd(complements, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    null = vh.conj().swapaxes(-1, -2) * (svals <= tol.ord)[..., None, :]
    out = null @ vh
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def _proj_join_many(stack: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Projections onto the spans of ranges; same shapes as _proj_meet_many."""
    eye = np.eye(stack.shape[-1])
    return eye - _proj_meet_many(eye - stack, tol)


def proj_meet(p, q, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Projection onto range(p) intersected with range(q)."""
    op_p, op_q = _as_operator(p, tol), _as_operator(q, tol)
    _same_dim(op_p, op_q)
    _require_projection(op_p)
    _require_projection(op_q)
    return HermitianOperator(_proj_meet_many(np.stack([op_p.matrix, op_q.matrix]), tol), tol)


def proj_join(p, q, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Projection onto the closed span of range(p) and range(q)."""
    op_p, op_q = _as_operator(p, tol), _as_operator(q, tol)
    _same_dim(op_p, op_q)
    _require_projection(op_p)
    _require_projection(op_q)
    return HermitianOperator(_proj_join_many(np.stack([op_p.matrix, op_q.matrix]), tol), tol)


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
    scale = max(1.0, *(m.scale for m in measures))
    merged = np.sort(np.concatenate([m.grid for m in measures]))
    grid, _ = _cluster_means(merged, tol.eig * scale)
    # (points, family, d, d): every grid point combined in one call
    stack = np.stack([m.cumulative_stack_at(grid) for m in measures], axis=1)
    cums = (_proj_join_many if meet else _proj_meet_many)(stack, tol)
    eye = np.eye(cums.shape[-1])
    # monotone repair: resolutions must be nondecreasing, so a point whose
    # resolution misses its predecessor's range is joined with it; that
    # changes only the next point's residual, so rescan from there
    start = 1
    while True:
        residuals = np.linalg.norm((eye - cums[start:]) @ cums[start - 1 : -1], axis=(1, 2))
        failing = np.flatnonzero(residuals > tol.ord)
        if not failing.size:
            break
        i = start + int(failing[0])
        cums[i] = _proj_join_many(cums[i - 1 : i + 1], tol)
        start = i + 1
    cums[-1] = eye
    # sum_i t_i (P_i - P_{i-1})
    mat = np.einsum("t,tij->ij", grid, np.diff(cums, axis=0, prepend=np.zeros_like(cums[:1])))
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


def matrix_from_json(obj, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
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
                if not abs(v) <= NORM_CAP:  # also refuses NaN
                    raise ParseError(f"matrix entry {v!r} is not finite or too large")
        return np.array(rows, dtype=np.float64)

    mat: np.ndarray = _rows("re")
    if "im" in obj:
        mat = mat + 1j * _rows("im")
    norm = _norm(mat)
    if norm > NORM_CAP:
        raise ParseError(f"matrix norm {norm:.3e} exceeds {NORM_CAP:g}")
    return HermitianOperator(mat, tol)
