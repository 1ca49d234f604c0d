"""The Hilbert kernels held to an exact referee: the subspace lattice of Q^d.

The projection lattice of R^d is a complete lattice effect algebra: a + b
is the span of orthogonal subspaces, the complement is the orthogonal
complement, and its observables are the symmetric operators, on which
the paper's order is Olson's spectral order.  `RationalSubspaces(d)`
computes in its rational part exactly: payloads are reduced row-echelon
bases over Q, so equal subspaces have equal payloads.  It lists no
carrier (`elements()` raises NotEnumerable), and the exact core needs
none, since every meet and join of the lattice exists and the event walk
certifies them elementwise.

The seeded families are operators sum_i lambda_i P_i over mutually
orthogonal rational eigenvectors with lambda_i in {0, 1/8, ..., 1}:
fresh eigenvectors per member, so members do not commute; repeated
eigenvalues and shared eigenvectors; and one family of 8 members.  Their
float matrices are the exact ones rounded entrywise.  `spectral_leq`,
`spectral_meet`, `spectral_join`, `apply_monotone` and `_frames_residual`
must agree with `olson_leq`, `olson_meet` and `olson_join` on the exact
observables: verdicts exactly, matrices and residuals to 1e-12.  The
families are sized to a budget of 5 s for the whole module; its two
tests take about 1.5 s on a 2-CPU x86-64 host under CPython 3.11.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from olsonorder.algebras import EffectAlgebra
from olsonorder.errors import NotEnumerable, ParseError
from olsonorder.hilbert import (
    DEFAULT_TOLERANCES,
    _frames_residual,
    _measures_leq,
    spectral_join,
    spectral_leq,
    spectral_measure,
    spectral_meet,
)
from olsonorder.lattice import olson_join, olson_leq, olson_meet
from olsonorder.observables import SimpleObservable

F = Fraction
TOL = DEFAULT_TOLERANCES
ATOL = 1e-12
EIGHTHS = [F(k, 8) for k in range(9)]
PER_DIM = 30  # families per dimension, besides the one of 8 members


# -- linear algebra over Q --------------------------------------------------------


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), F(0))


def rref(rows, d: int) -> tuple:
    """The reduced row-echelon basis of the span of rows, as a tuple of tuples."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(d):
        pivot = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        m[rank] = [x / m[rank][c] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return tuple(map(tuple, m[:rank]))


def null_space(basis, d: int) -> tuple:
    """The orthogonal complement of an RREF basis: its null space, in RREF."""
    pivots = [next(c for c in range(d) if row[c]) for row in basis]
    vecs = []
    for free in (c for c in range(d) if c not in pivots):
        v = [F(0)] * d
        v[free] = F(1)
        for row, p in zip(basis, pivots):
            v[p] = -row[free]
        vecs.append(v)
    return rref(vecs, d)


@functools.lru_cache(maxsize=1024)
def projection(basis: tuple, d: int) -> tuple:
    """The orthogonal projection onto the span of an RREF basis, exactly."""
    ortho = []
    for w in basis:
        u = list(w)
        for o in ortho:
            f = dot(w, o) / dot(o, o)
            u = [a - f * b for a, b in zip(u, o)]
        ortho.append(u)
    return tuple(tuple(sum((u[r] * u[c] / dot(u, u) for u in ortho), F(0)) for c in range(d))
                 for r in range(d))


def to_float(mat) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in mat])


class RationalSubspaces(EffectAlgebra):
    """The lattice of subspaces of Q^d under the standard inner product."""

    kind = "rational_subspaces"
    lattice_guaranteed = True

    def __init__(self, d: int) -> None:
        self.d = d
        self.zero = self._wrap(())
        self.one = self._wrap(rref([[F(int(i == j)) for j in range(d)] for i in range(d)], d))

    def _add(self, pa, pb):
        if any(dot(u, v) for u in pa for v in pb):
            return None
        return rref(pa + pb, self.d)

    def _complement(self, pa):
        return null_space(pa, self.d)

    def _le(self, pa, pb) -> bool:
        return len(rref(pa + pb, self.d)) == len(pb)

    def _bound(self, payloads, lower: bool):
        if lower:
            return null_space(rref([v for p in payloads for v in null_space(p, self.d)], self.d),
                              self.d)
        return rref([v for p in payloads for v in p], self.d)

    def describe(self) -> dict:
        return {"kind": self.kind, "dim": self.d}

    def element_to_json(self, a):
        return [[str(x) for x in row] for row in self._payload(a)]

    def element_from_json(self, obj):
        try:
            rows = [[F(x) for x in row] for row in obj]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"subspace literal must be rows of rationals: {exc}") from exc
        if any(len(row) != self.d for row in rows):
            raise ParseError(f"subspace literal rows must have length {self.d}")
        return self._wrap(rref(rows, self.d))


# -- seeded operators ---------------------------------------------------------------


def orthogonal_basis(rng: random.Random, d: int) -> list:
    """d mutually orthogonal integer vectors: Gram-Schmidt without normalizing."""
    basis: list = []
    while len(basis) < d:
        u = [F(rng.randint(-3, 3)) for _ in range(d)]
        for o in basis:
            f = dot(u, o) / dot(o, o)
            u = [a - f * b for a, b in zip(u, o)]
        if any(u):
            scale = math.lcm(*(x.denominator for x in u))
            basis.append([x * scale for x in u])
    return basis


class Operator:
    """sum_i lam_i P_i: its exact observable and its rounded float matrix."""

    def __init__(self, alg: RationalSubspaces, basis, lams) -> None:
        d = alg.d
        self.points = sorted(set(lams))
        self.weights = [rref([v for v, lam in zip(basis, lams) if lam == t], d)
                        for t in self.points]
        self.observable = SimpleObservable(alg, self.points, list(map(alg._wrap, self.weights)))
        exact = [[sum((lam * v[r] * v[c] / dot(v, v) for v, lam in zip(basis, lams)), F(0))
                  for c in range(d)] for r in range(d)]
        self.matrix = to_float(exact)


def observable_matrix(x: SimpleObservable, d: int) -> np.ndarray:
    """sum_j t_j P(w_j) of an exact observable, rounded at the end."""
    total = [[F(0)] * d for _ in range(d)]
    for t, w in zip(x.points, x.weights):
        p = projection(w.payload, d)
        total = [[a + t * b for a, b in zip(ra, rb)] for ra, rb in zip(total, p)]
    return to_float(total)


def exact_residual(x: SimpleObservable, y: SimpleObservable, d: int) -> float:
    """max over both spectra of ||(I - E_x(t)) E_y(t)||_F, from
    ||(I - P) Q||_F^2 = tr Q - tr PQ in exact arithmetic."""
    worst = F(0)
    for t in {*x.points, *y.points}:
        p = projection(x.resolution_closed(t).payload, d)
        q = projection(y.resolution_closed(t).payload, d)
        sq = sum((q[i][i] for i in range(d)), F(0)) - sum(
            (p[i][j] * q[j][i] for i in range(d) for j in range(d)), F(0))
        worst = max(worst, sq)
    return math.sqrt(worst)


def families(seed: int):
    """(d, members): fresh eigenvectors per member, shared eigenvectors,
    repeated eigenvalues, and one family of 8 members."""
    rng = random.Random(seed)
    algs = {d: RationalSubspaces(d) for d in (2, 3, 4)}
    for d, alg in algs.items():
        for k in range(PER_DIM):
            size = 2 + k % 2
            shared = orthogonal_basis(rng, d) if k % 3 == 1 else None
            # few distinct values, so eigenvalues repeat within and across members
            values = [F(0), F(1, 2), F(1)] if k % 3 == 2 else EIGHTHS
            yield alg, [Operator(alg, shared or orthogonal_basis(rng, d),
                                 [rng.choice(values) for _ in range(d)]) for _ in range(size)]
    alg = algs[4]
    shared = orthogonal_basis(rng, 4)
    yield alg, [Operator(alg, shared if i % 2 else orthogonal_basis(rng, 4),
                         [rng.choice(EIGHTHS) for _ in range(4)]) for i in range(8)]


def monotone_maps():
    """g(t) = min(t, 1/2), floor(3t)/3 and the constant 1/4: nondecreasing,
    with thresholds at no eighth, so no float rounding moves an image."""
    return (lambda t: min(t, F(1, 2)), lambda t: F(math.floor(3 * t), 3), lambda t: F(1, 4))


def image(alg: RationalSubspaces, op: Operator, g) -> SimpleObservable:
    """g(A) exactly: the weights of equal images summed."""
    points = sorted({g(t) for t in op.points})
    weights = [alg.sum(alg._wrap(w) for t, w in zip(op.points, op.weights) if g(t) == p)
               for p in points]
    return SimpleObservable(alg, points, weights)


def close(a, b) -> bool:
    return np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= ATOL


# -- the backend itself -------------------------------------------------------------------


def test_rational_subspaces_is_an_orthomodular_lattice_without_a_carrier():
    rng = random.Random(40)
    for d in (2, 3, 4):
        alg = RationalSubspaces(d)
        with pytest.raises(NotEnumerable):
            alg.elements()
        basis = orthogonal_basis(rng, d)
        subspaces = [alg._wrap(rref(basis[:k], d)) for k in range(d + 1)]
        subspaces += [alg._wrap(rref([v], d)) for v in basis]
        for a in subspaces:
            # a + a' = 1, a'' = a, and a and a' meet in 0
            assert alg.add(a, alg.complement(a)) == alg.one
            assert alg.complement(alg.complement(a)) == a
            assert alg.meet(a, alg.complement(a)) == alg.zero
            for b in subspaces:
                meet, join = alg.meet(a, b), alg.join(a, b)
                assert alg.leq(meet, a) and alg.leq(meet, b)
                assert alg.leq(a, join) and alg.leq(b, join)
                assert alg.leq(a, b) == (meet == a) == (join == b)
                if alg.leq(a, b):
                    # orthomodularity: b = a + (b - a)
                    assert alg.add(a, alg.diff(b, a)) == b
        literal = alg.element_to_json(subspaces[1])
        assert alg.element_from_json(literal) == subspaces[1]


# -- the kernels against it -----------------------------------------------------------------


def test_spectral_kernels_match_the_exact_subspace_lattice():
    verdicts, images = set(), 0
    for alg, ops in families(41):
        d = alg.d
        xs = [op.observable for op in ops]
        mats = [op.matrix for op in ops]
        for exact_bound, bound in ((olson_meet, spectral_meet), (olson_join, spectral_join)):
            want = exact_bound(xs)
            assert want.exists and want.certified == "elementwise"
            assert close(bound(mats).matrix, observable_matrix(want.observable, d))
        measures = [spectral_measure(m) for m in mats]
        for op, measure in zip(ops, measures):
            assert close(measure.grid, [float(t) for t in op.points])
        for i, (x, mx) in enumerate(zip(xs, measures)):
            for y, my, b in zip(xs, measures, mats):
                want = olson_leq(x, y)
                residual = exact_residual(x, y, d)
                # the exact residual is 0 or far from the float tolerance
                assert want == (residual == 0.0) and (want or residual > 1e-6)
                assert spectral_leq(mats[i], b) == want
                assert abs(_frames_residual(mx, my, TOL) - residual) <= ATOL
                verdicts.add(want)
        # the images of the first member, against every member and their own source
        op, measure = ops[0], measures[0]
        for g in monotone_maps():
            gx = image(alg, op, g)
            got = measure.apply_monotone([float(g(t)) for t in op.points])
            assert close(got.grid, [float(t) for t in gx.points])
            assert close(got.cumulative, [to_float(projection(gx.resolution_closed(t).payload, d))
                                          for t in gx.points])
            for y, my in zip(xs, measures):
                for (u, mu), (v, mv) in (((gx, got), (y, my)), ((y, my), (gx, got))):
                    assert _measures_leq(mu, mv, TOL) == olson_leq(u, v)
                    assert abs(_frames_residual(mu, mv, TOL) - exact_residual(u, v, d)) <= ATOL
            images += 1
    assert verdicts == {True, False}
    assert images == 3 * (3 * PER_DIM + 1)


def test_a_member_eigenvalue_beyond_the_slack_keeps_the_exact_bound():
    # A = diag(3/10, 1/2, 9/10) three times and D with 1/2 + 9e-9: the
    # merged mean is 1/2 + 2.25e-9, and D's value lies 6.75e-9 above it,
    # beyond D's lookup slack of 5.35e-9, so only the merged clustering
    # puts it on the point of A's 1/2; the order test reads the pair D, A
    # at its own merged clustering, so D compares with A as A with itself
    alg = RationalSubspaces(3)
    unit = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    x = Operator(alg, unit, [F(3, 10), F(1, 2), F(9, 10)])
    a, d = x.matrix, np.diag([0.3, 0.5 + 9e-9, 0.9])
    for exact_bound, bound in ((olson_meet, spectral_meet), (olson_join, spectral_join)):
        want = exact_bound([x.observable] * 4)
        assert want.exists and want.observable == x.observable
        got = bound([a, a, a, d]).matrix
        assert np.abs(got - observable_matrix(want.observable, 3)).max() <= 1e-8
        assert spectral_leq(got, a) and spectral_leq(a, got)
    assert olson_leq(x.observable, x.observable)
    assert spectral_leq(d, a) and spectral_leq(a, d)
