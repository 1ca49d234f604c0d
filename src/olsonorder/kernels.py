"""Function and Markov-kernel representations of simple observables.

Observables over a finite set algebra are exactly the rational-valued
functions on its ground set, and observables over a finite tribe are
exactly the Markov kernels whose set maps stay inside the tribe.  Both
correspondences turn the Olson order into a pointwise order, which makes
them independent oracles for the lattice routines: pointwise min/max of
functions must match olson_meet/olson_join of the induced observables,
and the kernel order must match olson_leq verbatim.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .algebras import (
    FiniteSetAlgebra,
    FiniteTribe,
    QuotientBooleanAlgebra,
    _parse_rational,
    _shown,
    rational_to_json,
)
from .errors import (
    BackendMismatch,
    DomainMismatch,
    KernelValueOutsideTribe,
    ParseError,
)
from .observables import SimpleObservable, from_weights


class MeasurableFunction:
    """A total rational-valued function on the ground set {0, ..., m-1}."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Fraction | int | str]) -> None:
        vals = tuple(
            v if isinstance(v, Fraction) else _parse_rational(v) for v in values
        )
        if not vals:
            raise ParseError("function needs at least one value")
        self.values = vals

    @property
    def domain_size(self) -> int:
        return len(self.values)

    def __eq__(self, other: object):
        if not isinstance(other, MeasurableFunction):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        body = ", ".join(str(v) for v in self.values)
        return f"MeasurableFunction(({body}))"

    def to_json(self) -> dict:
        return {"values": [rational_to_json(v) for v in self.values]}

    @classmethod
    def from_json(cls, obj) -> "MeasurableFunction":
        if not isinstance(obj, dict) or not isinstance(obj.get("values"), list):
            raise ParseError(f"function literal needs a 'values' array, got {_shown(obj)}")
        return cls(obj["values"])


def _same_domain(f: MeasurableFunction, g: MeasurableFunction) -> None:
    if f.domain_size != g.domain_size:
        raise DomainMismatch(
            f"functions live on ground sets of size {f.domain_size} and {g.domain_size}"
        )


def function_min(f: MeasurableFunction, g: MeasurableFunction) -> MeasurableFunction:
    _same_domain(f, g)
    return MeasurableFunction(tuple(min(x, y) for x, y in zip(f.values, g.values)))


def function_max(f: MeasurableFunction, g: MeasurableFunction) -> MeasurableFunction:
    _same_domain(f, g)
    return MeasurableFunction(tuple(max(x, y) for x, y in zip(f.values, g.values)))


def function_order_oracle(f: MeasurableFunction, g: MeasurableFunction) -> bool:
    """Pointwise order; agrees with olson_leq of the induced observables."""
    _same_domain(f, g)
    return all(x <= y for x, y in zip(f.values, g.values))


def _level_sets(f: MeasurableFunction) -> tuple[list[Fraction], dict[Fraction, list[int]]]:
    levels: dict[Fraction, list[int]] = {}
    for pt, v in enumerate(f.values):
        levels.setdefault(v, []).append(pt)
    return sorted(levels), levels


def observable_from_function(
    algebra: FiniteSetAlgebra, f: MeasurableFunction
) -> SimpleObservable:
    """The level-set observable of f: each Borel set E maps to f^{-1}(E)."""
    if not isinstance(algebra, FiniteSetAlgebra):
        raise BackendMismatch("function representation needs a set-algebra backend")
    if f.domain_size != algebra.omega:
        raise DomainMismatch(
            f"function has {f.domain_size} values, ground set has {algebra.omega}"
        )
    points, levels = _level_sets(f)
    return from_weights(algebra, points, [algebra.subset(levels[v]) for v in points])


def function_from_observable(
    algebra: FiniteSetAlgebra, x: SimpleObservable
) -> MeasurableFunction:
    """The unique function whose level-set observable is x."""
    if not isinstance(algebra, FiniteSetAlgebra):
        raise BackendMismatch("function representation needs a set-algebra backend")
    if x.algebra is not algebra:
        raise BackendMismatch("observable lives on a different backend")
    values: list[Fraction | None] = [None] * algebra.omega
    for point, weight in zip(x.points, x.weights):
        for pt in algebra.points(weight):
            values[pt] = point
    # weights are disjoint and sum to the whole ground set, so all slots fill
    return MeasurableFunction(values)


class MarkovKernel:
    """One discrete rational probability distribution per ground-set point.

    Rows are stored in canonical form: support points strictly increasing,
    zero masses dropped, masses summing to exactly 1.
    """

    __slots__ = ("rows",)

    def __init__(
        self,
        rows: Iterable[Iterable[tuple[Fraction | int | str, Fraction | int | str]]],
    ) -> None:
        canon = []
        for row in rows:
            cells: dict[Fraction, Fraction] = {}
            for support, mass in row:
                s = support if isinstance(support, Fraction) else _parse_rational(support)
                m = mass if isinstance(mass, Fraction) else _parse_rational(mass)
                if m < 0:
                    raise ParseError(f"negative kernel mass {m} at support {s}")
                if m == 0:
                    continue
                if s in cells:
                    raise ParseError(f"duplicate support point {s} in kernel row")
                cells[s] = m
            if sum(cells.values(), Fraction(0)) != 1:
                raise ParseError("kernel row masses must sum to 1")
            canon.append(tuple(sorted(cells.items())))
        if not canon:
            raise ParseError("kernel needs at least one row")
        self.rows = tuple(canon)

    @property
    def domain_size(self) -> int:
        return len(self.rows)

    def support_union(self) -> tuple[Fraction, ...]:
        pts: set[Fraction] = set()
        for row in self.rows:
            pts.update(s for s, _ in row)
        return tuple(sorted(pts))

    def mass_at(self, point: int, support: Fraction) -> Fraction:
        for s, m in self.rows[point]:
            if s == support:
                return m
        return Fraction(0)

    def cdf_below(self, point: int, t: Fraction) -> Fraction:
        """K(point, (-inf, t)): total mass strictly below t."""
        return sum((m for s, m in self.rows[point] if s < t), Fraction(0))

    def __eq__(self, other: object):
        if not isinstance(other, MarkovKernel):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"MarkovKernel(rows={len(self.rows)}, support={self.support_union()})"

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "support": [rational_to_json(s) for s, _ in row],
                    "mass": [rational_to_json(m) for _, m in row],
                }
                for row in self.rows
            ]
        }

    @classmethod
    def from_json(cls, obj) -> "MarkovKernel":
        if not isinstance(obj, dict) or not isinstance(obj.get("rows"), list):
            raise ParseError(f"kernel literal needs a 'rows' array, got {_shown(obj)}")
        rows = []
        for row in obj["rows"]:
            if (
                not isinstance(row, dict)
                or not isinstance(row.get("support"), list)
                or not isinstance(row.get("mass"), list)
                or len(row["support"]) != len(row["mass"])
            ):
                raise ParseError(
                    f"kernel row needs paired 'support' and 'mass' arrays, got {_shown(row)}"
                )
            rows.append(list(zip(row["support"], row["mass"])))
        return cls(rows)


def kernel_from_observable(tribe: FiniteTribe, x: SimpleObservable) -> MarkovKernel:
    """The kernel K(w, {u_i}) = a_i(w) read off the tribe-element weights."""
    if not isinstance(tribe, FiniteTribe):
        raise BackendMismatch("kernel representation needs a tribe backend")
    if x.algebra is not tribe:
        raise BackendMismatch("observable lives on a different backend")
    cols = [tribe.function_values(w) for w in x.weights]
    rows = []
    for pt in range(tribe.omega):
        rows.append([(u, col[pt]) for u, col in zip(x.points, cols)])
    return MarkovKernel(rows)


def observable_from_kernel(tribe: FiniteTribe, kernel: MarkovKernel) -> SimpleObservable:
    """The observable whose weight at u is the tribe element w -> K(w, {u})."""
    if not isinstance(tribe, FiniteTribe):
        raise BackendMismatch("kernel representation needs a tribe backend")
    if kernel.domain_size != tribe.omega:
        raise DomainMismatch(
            f"kernel has {kernel.domain_size} rows, ground set has {tribe.omega}"
        )
    support = kernel.support_union()
    weights = []
    for u in support:
        col = tuple(kernel.mass_at(pt, u) for pt in range(tribe.omega))
        try:
            weights.append(tribe.element(col))
        except ParseError as exc:
            raise KernelValueOutsideTribe(
                f"K(., {{{u}}}) = {tuple(str(v) for v in col)} is not a tribe element"
            ) from exc
    # a Borel set maps to a subset sum of the columns, which stays in a
    # restricted carrier: it is closed under defined addition
    return from_weights(tribe, support, weights)


def kernel_leq(k: MarkovKernel, h: MarkovKernel) -> bool:
    """Olson order on kernels: every H distribution sits left of K's.

    K is below H when H(w, (-inf, t)) <= K(w, (-inf, t)) for every point w
    and threshold t; on finite supports the merged support points are the
    only thresholds where either side changes value.
    """
    if k.domain_size != h.domain_size:
        raise DomainMismatch(
            f"kernels live on ground sets of size {k.domain_size} and {h.domain_size}"
        )
    cuts = sorted(set(k.support_union()) | set(h.support_union()))
    for pt in range(k.domain_size):
        for t in cuts:
            if not h.cdf_below(pt, t) <= k.cdf_below(pt, t):
                return False
    return True


def pushforward_function(
    quotient: QuotientBooleanAlgebra, f: MeasurableFunction
) -> SimpleObservable:
    """The observable sending each Borel set E to the class of f^{-1}(E).

    Level sets swallowed by the null set drop out of the spectrum.
    """
    if not isinstance(quotient, QuotientBooleanAlgebra):
        raise BackendMismatch("pushforward needs a quotient backend")
    if f.domain_size != quotient.omega:
        raise DomainMismatch(
            f"function has {f.domain_size} values, ground set has {quotient.omega}"
        )
    points, levels = _level_sets(f)
    return from_weights(
        quotient, points, [quotient.quotient_map(levels[v]) for v in points]
    )


def quotient_order_criterion(
    quotient: QuotientBooleanAlgebra, f: MeasurableFunction, g: MeasurableFunction
) -> bool:
    """True when {w : g(w) < f(w)} lies inside the null set.

    Agrees with olson_leq of the pushforward observables: violations of
    the pointwise order are forgiven exactly on null points.
    """
    if not isinstance(quotient, QuotientBooleanAlgebra):
        raise BackendMismatch("quotient criterion needs a quotient backend")
    _same_domain(f, g)
    if f.domain_size != quotient.omega:
        raise DomainMismatch(
            f"functions have {f.domain_size} values, ground set has {quotient.omega}"
        )
    for pt, (fv, gv) in enumerate(zip(f.values, g.values)):
        if gv < fv and not quotient.null_mask >> pt & 1:
            return False
    return True
