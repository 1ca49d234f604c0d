"""Spectral order on finite-dimensional Hilbert-space effects.

Hermitian matrices stand in for bounded observables: the spectral
resolution of A is the cumulative projection family E_A((-inf, t]) and
A lies below B in the spectral (Olson) order when every E_B((-inf, t])
is range-contained in E_A((-inf, t]).  Meets and joins mirror the
step-resolution formulas with the projection lattice supplying the
pointwise operations, so E(H) computations here are the operator
analogue of the exact routines in `lattice`.

A measure is its grid and one row table.  The measures
`spectral_measure` returns, and their monotone images, keep the
operator's eigenvectors and count in each row the leading ones that span
E_A((-inf, t]).  The order test, which reads the residual from
eigenvector overlaps, and the bounds, which hand the projection lattice
masked eigenvector rows, take only these framed measures and read them
at the cluster ends of their merged grid with no slack; the lookup slack
serves only `cumulative_stack_at`.  A measure the constructor builds
from projections keeps them as its table and serves the accessors.

Everything is tolerance-based: checks scale with the operator norms and
the defaults leave two orders of magnitude over double-precision
eigensolver backward error at the supported sizes.
"""

from __future__ import annotations

import dataclasses
import functools
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
    _shown,
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


@functools.lru_cache(maxsize=DIMENSION_CAP)
def _eye(dim: int) -> np.ndarray:
    """The read-only float identity of size dim, built on first use."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def _norm(mat: np.ndarray) -> float:
    """Frobenius norm, summed as np.linalg.norm sums it, without its wrapper."""
    flat = mat.ravel(order="K")
    if flat.dtype.kind == "c":
        re, im = flat.real, flat.imag
        return math.sqrt(float(re.dot(re)) + float(im.dot(im)))
    return math.sqrt(float(flat.dot(flat)))


def _sq_norms(stack: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a (n, d, d) stack."""
    flat = stack.reshape(len(stack), -1).view(np.float64)
    return (flat * flat).sum(axis=1)


class HermitianOperator:
    """A validated square Hermitian matrix.

    The constructor checks shape, dimension cap, finiteness and
    hermiticity; the effect and projection flags are computed on first
    read and cached, and so is the eigendecomposition that the effect
    flag and the spectral measures read.  `_trusted` wraps a matrix this
    module computed, which is Hermitian bit for bit, without checking it
    again.
    """

    __slots__ = ("matrix", "dim", "_scale", "_tol", "_is_effect", "_is_projection", "_spectrum")

    def __init__(self, matrix, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
        arr = np.asarray(matrix)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionMismatch(f"matrix must be square, got shape {arr.shape}")
        if arr.shape[0] > DIMENSION_CAP:
            raise CarrierTooLarge(f"dimension {arr.shape[0]} exceeds the cap {DIMENSION_CAP}")
        arr = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64, copy=False)
        with np.errstate(over="ignore"):
            norm = _norm(arr)
        # before max(): max(1.0, nan) is 1.0
        if not math.isfinite(norm):
            raise ParseError(f"matrix norm {norm} is not finite")
        scale = max(1.0, norm)
        adj = arr.conj().T
        residual = _norm(arr - adj)
        if residual > tol.herm * scale:
            raise NotHermitian(f"hermiticity residual {residual:.3e} exceeds tolerance")
        self._set((arr + adj) / 2.0, scale, tol)

    @classmethod
    def _trusted(cls, matrix: np.ndarray, tol: Tolerances) -> "HermitianOperator":
        op = cls.__new__(cls)
        op._set(matrix, max(1.0, _norm(matrix)), tol)
        return op

    def _set(self, matrix: np.ndarray, scale: float, tol: Tolerances) -> None:
        matrix.setflags(write=False)
        self.matrix, self.dim, self._scale, self._tol = matrix, int(matrix.shape[0]), scale, tol
        self._is_effect: bool | None = None
        self._is_projection: bool | None = None
        # (eigenvalues, eigenvectors), cached by _decompose
        self._spectrum: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def is_effect(self) -> bool:
        """Spectrum within [0, 1] at tolerance."""
        if self._is_effect is None:
            _decompose((self,))
            evals = self._spectrum[0]
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


def _same_dim(items: Sequence) -> None:
    """DimensionMismatch unless all operators or measures of `items` share one dimension."""
    for item in items[1:]:
        if item.dim != items[0].dim:
            raise DimensionMismatch(f"operators have dimensions {items[0].dim} and {item.dim}")


def _operators(objs: Iterable, tol: Tolerances) -> list[HermitianOperator]:
    """Each of `objs` as an operator, then their dimensions checked."""
    ops = [_as_operator(o, tol) for o in objs]
    _same_dim(ops)
    return ops


def _cluster_means(values: np.ndarray, gap: float, spread=False) -> tuple[np.ndarray, np.ndarray]:
    """Means of the clusters of sorted `values` and their row table
    [0, *(ends + 1)], ends the index of each cluster's last value.

    A value within `gap` of its predecessor joins its cluster, so
    near-degenerate values share one grid point; with `spread`, only while
    within `gap` of the cluster's first value, so no cluster is wider
    than `gap`.  When no value joins another, the means are `values`.
    """
    vals = values.tolist()
    starts = [0]
    for i in range(1, len(vals)):
        if vals[i] - vals[starts[-1] if spread else i - 1] > gap:
            starts.append(i)
    rows = np.array([*starts, len(vals)])
    if len(starts) == len(vals):
        return values, rows
    return np.add.reduceat(values, starts) / (rows[1:] - rows[:-1]), rows


def _rebuild(grid: np.ndarray, padded: np.ndarray) -> np.ndarray:
    """sum_i t_i (P_i - P_{i-1}) from the padded stack P at `grid`, symmetrized."""
    mat = np.einsum("t,tij->ij", grid, padded[1:] - padded[:-1])
    return (mat + mat.conj().T) / 2.0


class SpectralMeasure:
    """Clustered eigenvalue grid with cumulative spectral projections.

    cumulative[i] is E_A((-inf, grid[i]]); the last entry is the
    identity.  `cumulative_stack_at` picks a row of one table (row 0 below
    the grid, row i at grid[i - 1]) with a slack that lets thresholds from
    another operator pick up eigenvalues equal up to clustering noise:
    tol.eig * scale / 2, capped at half the smallest grid spacing so a grid
    point reads its own row.  The order test and the bounds read no slack
    (_merged_reading).  The constructor checks shapes (DimensionMismatch)
    and that the grid is finite and strictly increasing, the projections
    finite and the scale finite and nonnegative (ParseError); its table is
    the zero projection, then `cumulative`.  `_wrap` takes a measure this
    module computed as given.

    A measure from `spectral_measure` keeps its eigenframe (vecs, vh),
    the eigenvectors as the columns of vecs and the rows of vh, and as
    its table the counts n(t) of leading eigenvectors that span
    E((-inf, t]) = V_<n V_<n^*; a monotone image keeps the frame and
    restricts the table.  The order test and the bounds read only frames;
    the cumulative stack is built from the frame when first read.  A
    constructor-built measure has no frame and serves the public methods.
    """

    __slots__ = ("grid", "scale", "dim", "_slack", "_table", "_stack", "_frame")

    def __init__(
        self, grid: np.ndarray, cumulative: np.ndarray, scale: float,
        tol: Tolerances = DEFAULT_TOLERANCES,
    ) -> None:
        try:
            grid = np.asarray(grid)
            # a cast to float would drop an imaginary part with only a warning
            if grid.dtype.kind not in "biuf":
                raise TypeError(f"grid has dtype {grid.dtype}")
            grid = grid.astype(np.float64)
            cumulative = np.asarray(cumulative)
            cumulative = cumulative.astype(
                np.complex128 if cumulative.dtype.kind == "c" else np.float64, copy=False
            )
            scale = float(scale)
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"spectral measure needs a real grid and scale and numeric projections: {exc}"
            ) from exc
        if grid.ndim != 1 or not grid.size:
            raise DimensionMismatch(f"grid must be a nonempty 1-d array, got shape {grid.shape}")
        shape = cumulative.shape
        if len(shape) != 3 or shape[0] != grid.size or shape[1] != shape[2] or shape[1] < 1:
            raise DimensionMismatch(
                f"need {grid.size} square cumulative projections, got shape {shape}"
            )
        # a NaN fails every comparison
        if not (np.isfinite(grid).all() and (grid[1:] > grid[:-1]).all()):
            raise ParseError("spectral measure grid must be finite and strictly increasing")
        if not np.isfinite(cumulative).all():
            raise ParseError("cumulative projections must be finite")
        if not (math.isfinite(scale) and scale >= 0):
            raise ParseError(
                f"spectral measure scale must be finite and nonnegative, got {scale!r}"
            )
        # row 0 is the zero projection, the resolution below the grid
        padded = np.concatenate([np.zeros_like(cumulative[:1]), cumulative])
        self._set(grid, padded, scale, tol, None)

    @classmethod
    def _wrap(
        cls, grid: np.ndarray, table: np.ndarray, scale: float, tol: Tolerances,
        frame: tuple | None,
    ) -> "SpectralMeasure":
        measure = cls.__new__(cls)
        measure._set(grid, table, scale, tol, frame)
        return measure

    def _set(self, grid, table, scale, tol, frame) -> None:
        # a framed measure's stack is None until it is first read
        self.grid, self._table, self._frame = grid, table, frame
        self._stack = table if frame is None else None
        self.dim = int(table.shape[1]) if frame is None else len(frame[1])
        self.scale, self._slack = scale, tol.eig * scale / 2.0

    @property
    def _padded(self) -> np.ndarray:
        """The zero projection, then `cumulative`."""
        if self._stack is None:
            self._stack = self._frame_stack()
        return self._stack

    @property
    def cumulative(self) -> np.ndarray:
        return self._padded[1:]

    def _frame_stack(self) -> np.ndarray:
        (evecs, vh), counts = self._frame, self._table
        k, d = len(self.grid), self.dim
        # the zero projection, then the running sums of the v_j v_j^* read at
        # each row's count, the last of them I
        padded = np.empty((k + 1, d, d), dtype=evecs.dtype)
        padded[0] = 0.0
        padded[k] = _eye(d)
        if k > 1:
            n = counts[-2]
            run = (evecs.T[:n, :, None] @ vh[:n, None, :]).cumsum(axis=0)[counts[1:-1] - 1]
            inner = padded[1:k]
            np.add(run, run.conj().swapaxes(1, 2), out=inner)
            inner /= 2.0
        return padded

    def cumulative_stack_at(self, ts: np.ndarray) -> np.ndarray:
        """E((-inf, t]) for each t in the 1-d array `ts`, shape (len(ts), d, d)."""
        grid = self.grid
        slack = min(self._slack, float((grid[1:] - grid[:-1]).min(initial=math.inf)) / 2.0)
        return self._padded[grid.searchsorted(np.asarray(ts) + slack, side="right")]

    def eigenprojections(self) -> np.ndarray:
        # np.diff's own formula, without its wrapper
        padded = self._padded
        return padded[1:] - padded[:-1]

    def reconstruct(self) -> np.ndarray:
        return _rebuild(self.grid, self._padded)

    def apply_monotone(self, values: Sequence[float], tol: Tolerances = DEFAULT_TOLERANCES) -> "SpectralMeasure":
        """The measure of g(A) for a nondecreasing g given by grid images.

        Equal images merge their eigenspaces; the cumulative family is a
        subfamily of this one, so no eigensolver call is needed, and the
        image keeps this measure's eigenframe.
        """
        vals = np.array(values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise DimensionMismatch("need one image per grid point")
        # finite ends and no descent: a NaN fails every comparison
        if not (
            math.isfinite(vals[0]) and math.isfinite(vals[-1]) and (vals[1:] >= vals[:-1]).all()
        ):
            raise ParseError("apply_monotone needs finite nondecreasing images")
        # cumulative at a merged value is the last original cumulative in it
        new_grid, rows = _cluster_means(vals, tol.eig * self.scale)
        return SpectralMeasure._wrap(new_grid, self._table[rows], self.scale, tol, self._frame)

    def to_operator(self, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
        return HermitianOperator(self.reconstruct(), tol)


def _decompose(ops: Sequence[HermitianOperator]) -> None:
    """Cache the eigendecomposition of each operator that has none, one
    stacked eigh per dtype: stacking a real matrix with a complex one
    would cast it to complex and change its bits."""
    todo = [op for op in ops if op._spectrum is None]
    for dtype in {op.matrix.dtype for op in todo}:
        group = [op for op in todo if op.matrix.dtype == dtype]
        try:
            evals, evecs = np.linalg.eigh(np.array([op.matrix for op in group]))
        except np.linalg.LinAlgError as exc:
            raise EigendecompositionFailure(str(exc)) from exc
        evals.setflags(write=False)
        evecs.setflags(write=False)
        for op, spectrum in zip(group, zip(evals, evecs)):
            op._spectrum = spectrum


def spectral_measure(a, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralMeasure:
    """Eigendecompose into a clustered grid of cumulative projections.

    The eigensolver's own decomposition must rebuild the operator at
    tol.rec or EigendecompositionFailure is raised; its eigenvalues then
    cluster at tol.eig with no cluster wider than tol.eig * scale.  The
    measure keeps the eigenframe; see SpectralMeasure.
    """
    op = _as_operator(a, tol)
    _decompose((op,))
    evals, evecs = op._spectrum
    scale = max(1.0, _norm(op.matrix))
    vh = evecs.conj().T
    residual = _norm((evecs * evals) @ vh - op.matrix)
    if residual > tol.rec * scale:
        raise EigendecompositionFailure(
            f"spectral reconstruction residual {residual:.3e} exceeds tolerance"
        )
    grid, counts = _cluster_means(evals, tol.eig * scale, spread=True)
    return SpectralMeasure._wrap(grid, counts, scale, tol, (evecs, vh))


def _proj_meet_many(rows: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Projections onto common null spaces, one batched SVD.

    `rows` has shape (..., m, d, d) with m >= 1: each entry over the
    leading axes holds m matrices, and the result, of shape (..., d, d),
    projects onto the null space N of their (m d) x d stack; singular
    values at or below the rank cutoff tol.ord flag null directions.
    Given the complements I - P of m projections, or any matrices with
    their row spaces (a framed measure's masked eigenvector rows), N is
    the intersection of the ranges of the P.
    """
    *lead, m, d, _ = rows.shape
    try:
        _, svals, vh = np.linalg.svd(rows.reshape(*lead, m * d, d), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    null = vh.conj().swapaxes(-1, -2) * (svals <= tol.ord)[..., None, :]
    out = null @ vh
    return (out + out.conj().swapaxes(-1, -2)) / 2.0


def _proj_join_many(stack: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Projections onto the spans of ranges; same shapes as _proj_meet_many.

    The span is the complement I - N N^* of the common null space N of
    the stacked projections, or of any matrices with their row spaces.
    """
    return _eye(stack.shape[-1]) - _proj_meet_many(stack, tol)


def _projection_pair(p, q, tol: Tolerances) -> np.ndarray:
    op_p, op_q = _operators((p, q), tol)
    if not (op_p.is_projection and op_q.is_projection):
        raise NotAProjection("operation needs orthogonal projections")
    return np.array([op_p.matrix, op_q.matrix])


def proj_meet(p, q, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Projection onto range(p) intersected with range(q)."""
    pair = _projection_pair(p, q, tol)
    return HermitianOperator._trusted(_proj_meet_many(_eye(pair.shape[-1]) - pair, tol), tol)


def proj_join(p, q, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Projection onto the closed span of range(p) and range(q)."""
    return HermitianOperator._trusted(_proj_join_many(_projection_pair(p, q, tol), tol), tol)


def range_leq(p, q, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Range containment of projections: ||(I - q) p|| at tolerance."""
    mat_p, mat_q = _projection_pair(p, q, tol)
    return bool(_norm((_eye(len(mat_p)) - mat_q) @ mat_p) <= tol.ord)


def loewner_leq(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Standard operator order: b - a positive semidefinite at tolerance."""
    op_a, op_b = _operators((a, b), tol)
    scale = max(1.0, _norm(op_a.matrix), _norm(op_b.matrix))
    try:
        low = float(np.linalg.eigvalsh(op_b.matrix - op_a.matrix)[0])
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionFailure(str(exc)) from exc
    return low >= -tol.psd * scale


def logical_leq(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Gudder order: a b = a^2 at tolerance."""
    op_a, op_b = _operators((a, b), tol)
    na, nb = _norm(op_a.matrix), _norm(op_b.matrix)
    scale = max(1.0, na * max(1.0, nb))
    residual = _norm(op_a.matrix @ op_b.matrix - op_a.matrix @ op_a.matrix)
    return bool(residual <= tol.log * scale)


def _measures_leq(ma: SpectralMeasure, mb: SpectralMeasure, tol: Tolerances) -> bool:
    """The Olson order on two framed measures: the frame residual at tol.ord."""
    return _frames_residual(ma, mb, tol) <= tol.ord * max(1.0, ma.scale, mb.scale)


def _frames_residual(ma: SpectralMeasure, mb: SpectralMeasure, tol: Tolerances) -> float:
    """The largest ||(I - E_a(t)) E_b(t)||_F over the merged grid of two
    framed measures (_merged_reading), read from their eigenframes.

    With O = V_a^* V_b, (I - E_a(t)) E_b(t) = V_a[:, i >= n_a] O[i >= n_a,
    j < n_b] V_b[:, j < n_b]^*, so its squared norm is the sum of |O_ij|^2
    over that block: one entry of a 2-d cumulative sum of |O|^2.
    """
    _, (na, nb) = _merged_reading((ma, mb), tol)
    overlap = ma._frame[1] @ mb._frame[0]
    sq = (overlap * overlap.conj()).real
    d = len(sq)
    # tails[i, j]: the sum over rows >= i and columns < j
    tails = np.zeros((d + 1, d + 1))
    tails[:d, 1:] = sq[::-1].cumsum(axis=0)[::-1].cumsum(axis=1)
    return math.sqrt(float(tails[na, nb].max()))


def spectral_leq(a, b, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    """Olson order: every E_b((-inf,t]) range-contained in E_a((-inf,t])."""
    op_a, op_b = _operators((a, b), tol)
    _decompose((op_a, op_b))
    return _measures_leq(spectral_measure(op_a, tol), spectral_measure(op_b, tol), tol)


def _effect_measures(operators: Iterable, tol: Tolerances) -> list[SpectralMeasure]:
    """Framed measures of a family of effects, every member checked
    first; the check and the measures read one stacked decomposition."""
    ops = _operators(operators, tol)
    if not ops:
        raise EmptyFamily("meet/join needs at least one operator")
    _decompose(ops)
    for op in ops:
        if not op.is_effect:
            raise NotAnEffect("spectral meet/join is defined on effects")
    return [spectral_measure(op, tol) for op in ops]


def _merged_reading(measures: Sequence[SpectralMeasure], tol: Tolerances) -> tuple:
    """The merged grid of framed `measures` and each member's counts n(t)
    on it.  The members' sorted grid values cluster at tol.eig times the
    largest scale, chaining consecutive values, and that clustering alone
    decides which eigenvalues are one point: each member is read with no
    slack at the last value of every cluster."""
    _same_dim(measures)
    scale = max(1.0, *(m.scale for m in measures))
    values = np.sort(np.concatenate([m.grid for m in measures]))
    grid, table = _cluster_means(values, tol.eig * scale)
    ends = values[table[1:] - 1]
    return grid, [m._table[m.grid.searchsorted(ends, side="right")] for m in measures]


def _lattice_bound(
    measures: Sequence[SpectralMeasure], tol: Tolerances, meet: bool
) -> HermitianOperator:
    """The meet (join) of framed `measures`, one batched SVD over their
    merged reading (_merged_reading): at every point but the last, each
    member is vh with its rows j >= n(t) (j < n(t) for a join) zeroed,
    which the isometry V maps onto E(t) (I - E(t))."""
    grid, counts = _merged_reading(measures, tol)
    below = np.arange(measures[0].dim)[:, None] < np.stack(counts, axis=1)[:-1, :, None, None]
    # (points, family, d, d): every grid point but the last, where E is I
    rows = np.stack([m._frame[1] for m in measures]) * (below if meet else ~below)
    return HermitianOperator._trusted(_bound_from_rows(grid, rows, tol, meet), tol)


def _bound_from_rows(grid: np.ndarray, rows: np.ndarray, tol: Tolerances, meet: bool) -> np.ndarray:
    """The matrix of a meet (join) on `grid` from the members' rows, shape
    (len(grid) - 1, family, d, d), that span E(t) (I - E(t)) at every
    point but the last: combined per point, repaired to be nondecreasing
    and rebuilt as sum t_i (P_i - P_{i-1})."""
    k = len(grid)
    eye = _eye(rows.shape[-1])
    # row 0 is the zero projection below the grid, as in SpectralMeasure
    padded = np.zeros((k + 1, *eye.shape), dtype=rows.dtype)
    cums = padded[1:]
    # the meet's resolution spans the members' ranges, the join's is the
    # null space of their complements
    cums[:-1] = _proj_join_many(rows, tol) if meet else _proj_meet_many(rows, tol)
    cums[-1] = eye
    # monotone repair: resolutions must be nondecreasing, so a point whose
    # resolution misses its predecessor's range is joined with it; that
    # changes only the next point's residual, so rescan from there.  I
    # contains every range, so the scan stops before the last point.
    start = 1
    while start < k - 1:
        residuals = np.sqrt(_sq_norms((eye - cums[start:-1]) @ cums[start - 1 : -2]))
        failing = (residuals > tol.ord).nonzero()[0]
        if not failing.size:
            break
        i = start + int(failing[0])
        cums[i] = _proj_join_many(cums[i - 1 : i + 1], tol)
        start = i + 1
    return _rebuild(grid, padded)


def spectral_meet(operators: Iterable, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Greatest lower bound of a family of effects in the spectral order.

    Realized on the merged eigenvalue grid: the meet's cumulative
    projection at t is the projection join of the family's cumulatives
    at t, the span of their leading eigenvectors, with monotone repair,
    reconstructed as sum t_i (P_i - P_{i-1}).
    """
    return _lattice_bound(_effect_measures(operators, tol), tol, meet=True)


def spectral_join(operators: Iterable, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """Least upper bound of a family of effects in the spectral order."""
    return _lattice_bound(_effect_measures(operators, tol), tol, meet=False)


def negate(a, tol: Tolerances = DEFAULT_TOLERANCES) -> HermitianOperator:
    """The complement effect I - a; the operator form of x -> x~."""
    op = _as_operator(a, tol)
    if not op.is_effect:
        raise NotAnEffect("negation is defined on effects")
    return HermitianOperator._trusted(_eye(op.dim) - op.matrix, tol)


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
        raise ParseError(f"matrix literal needs 'dim' and 're', got {_shown(obj)}")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"matrix 'dim' must be a positive integer, got {_shown(dim)}")

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
                    raise ParseError(f"matrix entry {_shown(v)} is not a number")
                if not abs(v) <= NORM_CAP:  # also refuses NaN
                    raise ParseError(f"matrix entry {_shown(v)} is not finite or too large")
        return np.array(rows, dtype=np.float64)

    mat: np.ndarray = _rows("re")
    if "im" in obj:
        mat = mat + 1j * _rows("im")
    norm = _norm(mat)
    if norm > NORM_CAP:
        raise ParseError(f"matrix norm {norm:.3e} exceeds {NORM_CAP:g}")
    return HermitianOperator(mat, tol)
