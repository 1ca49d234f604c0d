"""The meet/join routes over full rows of resolution values, kept as test
references for the event walk of olsonorder.lattice.

closed_on_grid reads each closed value by bisection.  closed_route bounds
the full rows of closed values inside the gaps and packs them by
_pack_closed; open_route bounds the open values at the grid points (zero,
then the closed values one point down) and packs them through
left_regularize.  grid must hold every spectral point of the family; a
route returns None when some row has no bound.
"""

from __future__ import annotations

from bisect import bisect_right

from olsonorder.lattice import _pointwise, left_regularize
from olsonorder.observables import _pack_closed


def closed_on_grid(x, grid) -> list:
    """Payloads of x((-inf, t]) at the points of grid."""
    return [x._cums[bisect_right(x.points, t)] for t in grid]


def open_route(xs, grid, lower: bool):
    alg = xs[0].algebra
    opens = ([alg.zero.payload, *closed_on_grid(x, grid)[:-1]] for x in xs)
    vals = _pointwise(alg, list(zip(*opens)), lower)
    if len(vals) < len(grid):
        return None
    return left_regularize(alg, tuple(zip(grid, map(alg._wrap, vals)))).to_observable()


def closed_route(xs, grid, lower: bool):
    vals = _pointwise(xs[0].algebra, list(zip(*(closed_on_grid(x, grid) for x in xs))), lower)
    if len(vals) < len(grid):
        return None
    return _pack_closed(xs[0].algebra, grid, vals)
