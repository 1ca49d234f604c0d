"""JSON codecs shared by the CLI, the fixtures, and golden-file tests.

Rationals travel as strings "k/n" so exact backends never touch floats;
matrices travel as nested float arrays emitted with shortest round-trip
precision.  A literal that fails to type-check against the backend it
is paired with raises BackendMismatch; structurally malformed input
raises ParseError.
"""

from __future__ import annotations

from .algebras import (
    EffectAlgebra,
    FiniteSetAlgebra,
    FiniteTribe,
    MVChain,
    QuotientBooleanAlgebra,
    TableEffectAlgebra,
    _bounded_rational,
    _parse_rational,
    rational_to_json,
)
from .errors import BackendMismatch, OlsonOrderError, ParseError
from .lattice import BoundResult, OlsonComparison
from .observables import SimpleObservable, StepResolution


def algebra_from_json(obj) -> EffectAlgebra:
    """Build a backend from its JSON description."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"backend literal needs a 'kind' field, got {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "mv_chain":
            return MVChain(_int_field(obj, "n"))
        if kind == "set_algebra":
            return FiniteSetAlgebra(_int_field(obj, "omega"))
        if kind == "table":
            add = obj.get("add")
            if not isinstance(add, list):
                raise ParseError("table backend needs an 'add' matrix")
            return TableEffectAlgebra(add, _int_field(obj, "zero"), _int_field(obj, "one"))
        if kind == "tribe":
            carrier = None
            if "carrier" in obj:
                rows = obj["carrier"]
                if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
                    raise ParseError("tribe 'carrier' must be an array of value arrays")
                carrier = [tuple(_parse_rational(v) for v in row) for row in rows]
            return FiniteTribe(_int_field(obj, "omega"), _int_field(obj, "den"), carrier=carrier)
        if kind == "quotient":
            null = obj.get("null")
            if not isinstance(null, list):
                raise ParseError("quotient backend needs a 'null' index array")
            return QuotientBooleanAlgebra(_int_field(obj, "omega"), null)
    except ParseError:
        raise
    except OlsonOrderError as exc:
        # construction-time validation failures are input errors here
        raise ParseError(str(exc)) from exc
    raise ParseError(f"unknown backend kind {kind!r}")


def _int_field(obj: dict, field: str) -> int:
    value = obj.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"backend field '{field}' must be an integer, got {value!r}")
    return value


def algebra_to_json(algebra: EffectAlgebra) -> dict:
    return algebra.describe()


def observable_to_json(x: SimpleObservable) -> dict:
    return {
        "points": [rational_to_json(t) for t in x.points],
        "weights": [x.algebra.element_to_json(w) for w in x.weights],
    }


def observable_from_json(algebra: EffectAlgebra, obj) -> SimpleObservable:
    if (
        not isinstance(obj, dict)
        or not isinstance(obj.get("points"), list)
        or not isinstance(obj.get("weights"), list)
    ):
        raise ParseError(
            f"observable literal needs 'points' and 'weights' arrays, got {obj!r}"
        )
    points = [_parse_rational(p) for p in obj["points"]]
    weights = []
    for w in obj["weights"]:
        # a rational too long for any backend is a parse error, not a mismatch
        for leaf in w if isinstance(w, list) else (w,):
            _bounded_rational(leaf)
        try:
            weights.append(algebra.element_from_json(w))
        except ParseError as exc:
            raise BackendMismatch(
                f"weight {w!r} does not type-check against the {algebra.kind} backend: {exc}"
            ) from exc
    return SimpleObservable(algebra, points, weights)


def resolution_to_json(x: SimpleObservable) -> list[dict]:
    """Golden-file dump: open and closed resolution values at each point."""
    alg = x.algebra
    return [
        {
            "t": rational_to_json(t),
            "open": alg.element_to_json(x.resolution_open(t)),
            "closed": alg.element_to_json(x.resolution_closed(t)),
        }
        for t in x.points
    ]


def comparison_to_json(cmp: OlsonComparison) -> dict:
    out: dict = {"verdict": cmp.verdict}
    if cmp.witness_t is not None:
        out["witness_t"] = rational_to_json(cmp.witness_t)
    return out


def bound_to_json(result: BoundResult) -> dict:
    if result.exists:
        out: dict = {"exists": True, "certified": result.certified}
        out["observable"] = observable_to_json(result.observable)
        return out
    out = {"exists": False, "certified": result.certified}
    if result.frontier:
        out["frontier"] = [observable_to_json(f) for f in result.frontier]
    return out
