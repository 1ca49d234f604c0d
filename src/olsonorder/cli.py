"""Command line front end.

Loads backends, observables, and matrices from JSON files, runs
comparisons, meets, joins, negations, spectral-operator commands, and
the property suites, and emits machine-readable JSON reports.

Exit codes: 0 success (all suite checks pass, comparable verdicts),
1 parse or usage error, 2 backend or dimension mismatch, 3 incomparable,
4 numerical tolerance violation, 5 suite failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import (
    BackendMismatch,
    DimensionMismatch,
    DomainMismatch,
    EigendecompositionFailure,
    ElementForeignToAlgebra,
    NotAnEffect,
    NotAProjection,
    NotHermitian,
    OlsonOrderError,
    ParseError,
)
from .lattice import compare, olson_join, olson_meet, order_verdict
from .serialize import (
    algebra_from_json,
    bound_to_json,
    comparison_to_json,
    observable_from_json,
    observable_to_json,
)

# hilbert and hilbert_suite need numpy; the commands that use them import
# them, so the exact commands start without numpy
if TYPE_CHECKING:
    from .hilbert import Tolerances

SUITES = ("axioms", "order", "lattice-oracle", "involution", "representation", "hilbert")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, but 2 is the backend-mismatch
    # code here; remap usage problems to the parse-error exit
    def error(self, message: str):
        raise ParseError(message)


def _seed(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= val < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit an unsigned 64-bit integer")
    return val


def _positive(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cap must be an integer, got {text!r}")
    if val < 1:
        raise argparse.ArgumentTypeError("cap must be positive")
    return val


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, UnicodeDecodeError and the int digit limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _tolerances(args) -> Tolerances:
    from .hilbert import DEFAULT_TOLERANCES

    overrides = {}
    for item in args.tol or ():
        name, eq, val = item.partition("=")
        if not eq or not name:
            raise ParseError(f"--tol needs NAME=FLOAT, got {item!r}")
        try:
            overrides[name] = float(val)
        except ValueError:
            raise ParseError(f"--tol value {val!r} is not a number")
    if not overrides:
        return DEFAULT_TOLERANCES
    try:
        return DEFAULT_TOLERANCES.replace(**overrides)
    except TypeError:
        known = ", ".join(sorted(DEFAULT_TOLERANCES.__dataclass_fields__))
        raise ParseError(f"unknown tolerance name; known names: {known}")


def _reject_tol(args) -> None:
    if args.tol:
        raise ParseError(
            "--tol applies only to the spectral subcommand and the hilbert suite"
        )


def _emit(obj, args) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_cmp(args) -> int:
    _reject_tol(args)
    algebra = algebra_from_json(_load_json(args.backend))
    x = observable_from_json(algebra, _load_json(args.x))
    y = observable_from_json(algebra, _load_json(args.y))
    verdict = compare(x, y)
    _emit(comparison_to_json(verdict), args)
    return 3 if verdict.verdict == "incomparable" else 0


def _cmd_meet(args) -> int:
    return _bound(args, olson_meet)


def _cmd_join(args) -> int:
    return _bound(args, olson_join)


def _bound(args, op) -> int:
    _reject_tol(args)
    algebra = algebra_from_json(_load_json(args.backend))
    xs = [observable_from_json(algebra, _load_json(p)) for p in args.observables]
    if args.cap is None:
        result = op(xs)
    else:
        result = op(xs, cap=args.cap)
    _emit(bound_to_json(result), args)
    return 0


def _cmd_neg(args) -> int:
    _reject_tol(args)
    algebra = algebra_from_json(_load_json(args.backend))
    x = observable_from_json(algebra, _load_json(args.observable))
    _emit(observable_to_json(x.negate()), args)
    return 0


def _cmd_spectral(args) -> int:
    from .hilbert import (
        _norm,
        loewner_leq,
        matrix_from_json,
        matrix_to_json,
        spectral_join,
        spectral_leq,
        spectral_measure,
        spectral_meet,
    )

    tol = _tolerances(args)
    mats = [matrix_from_json(_load_json(p), tol) for p in args.matrices]
    if args.op == "measure":
        if len(mats) != 1:
            raise ParseError("spectral measure takes exactly one matrix")
        measure = spectral_measure(mats[0], tol)
        _emit(
            {
                "grid": [float(t) for t in measure.grid],
                "cumulative": [matrix_to_json(p) for p in measure.cumulative],
            },
            args,
        )
        return 0
    if args.op == "cmp":
        if len(mats) != 2:
            raise ParseError("spectral cmp takes exactly two matrices")
        a, b = mats
        verdict = order_verdict(spectral_leq(a, b, tol), spectral_leq(b, a, tol))
        _emit({"verdict": verdict, "loewner": loewner_leq(a, b, tol)}, args)
        return 3 if verdict == "incomparable" else 0
    op = spectral_meet if args.op == "meet" else spectral_join
    bound = op(mats, tol)
    residual = _norm(spectral_measure(bound, tol).reconstruct() - bound.matrix)
    residual /= max(1.0, _norm(bound.matrix))
    _emit({"matrix": matrix_to_json(bound), "max_residual": residual}, args)
    return 0


def _cmd_check(args) -> int:
    if args.suite == "hilbert":
        from .hilbert_suite import run_hilbert

        if args.backend is not None:
            raise ParseError("the hilbert suite runs without a backend file")
        report = run_hilbert(
            seed=args.seed,
            pairs=args.cap if args.cap is not None else 500,
            tol=_tolerances(args),
        )
    else:
        from . import suites

        _reject_tol(args)
        if args.backend is None:
            raise ParseError(f"the {args.suite} suite needs a backend file")
        algebra = algebra_from_json(_load_json(args.backend))
        cap = args.cap
        if args.suite == "axioms":
            report = suites.run_axioms(algebra, cap=cap or suites.AXIOM_SCAN_CAP)
        elif args.suite == "order":
            report = suites.run_order(algebra, cap=cap or suites.AXIOM_SCAN_CAP)
        elif args.suite == "lattice-oracle":
            report = suites.run_lattice_oracle(
                algebra, pair_cap=cap or suites.PAIR_BUDGET
            )
        elif args.suite == "involution":
            report = suites.run_involution(algebra, seed=args.seed, samples=cap or 200)
        else:
            report = suites.run_representation(
                algebra, seed=args.seed, samples=cap or 300
            )
    _emit(report, args)
    return 0 if report["passed"] else 5


def _build_parser() -> _Parser:
    shared = _Parser(add_help=False)
    shared.add_argument("--seed", type=_seed, default=argparse.SUPPRESS)
    shared.add_argument("--cap", type=_positive, default=argparse.SUPPRESS)
    shared.add_argument("--tol", action="append", metavar="NAME=FLOAT", default=argparse.SUPPRESS)
    shared.add_argument("--out", default=argparse.SUPPRESS)

    parser = _Parser(prog="olsonorder", description=__doc__.split("\n\n")[1])
    parser.add_argument("--seed", type=_seed, default=0, help="seed for randomized suites")
    parser.add_argument("--cap", type=_positive, default=None, help="enumeration or sample cap")
    parser.add_argument("--tol", action="append", metavar="NAME=FLOAT", default=None,
                        help="numerical tolerance override, repeatable")
    parser.add_argument("--out", default=None, help="write the JSON report to a file")
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")

    c = sub.add_parser("cmp", parents=[shared], help="compare two observables")
    c.add_argument("backend")
    c.add_argument("x")
    c.add_argument("y")
    c.set_defaults(func=_cmd_cmp)

    for name, handler in (("meet", _cmd_meet), ("join", _cmd_join)):
        m = sub.add_parser(name, parents=[shared], help=f"{name} of a family of observables")
        m.add_argument("backend")
        m.add_argument("observables", nargs="+")
        m.set_defaults(func=handler)

    n = sub.add_parser("neg", parents=[shared], help="negation 1 - x of an observable")
    n.add_argument("backend")
    n.add_argument("observable")
    n.set_defaults(func=_cmd_neg)

    s = sub.add_parser("spectral", parents=[shared], help="Hilbert-space operator commands")
    s.add_argument("op", choices=("cmp", "meet", "join", "measure"))
    s.add_argument("matrices", nargs="+")
    s.set_defaults(func=_cmd_spectral)

    k = sub.add_parser("check", parents=[shared], help="run a property suite")
    k.add_argument("suite", choices=SUITES)
    k.add_argument("backend", nargs="?", default=None)
    k.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        return _fail(1, exc)
    except (BackendMismatch, DimensionMismatch, DomainMismatch, ElementForeignToAlgebra) as exc:
        return _fail(2, exc)
    except (NotHermitian, NotAnEffect, NotAProjection, EigendecompositionFailure) as exc:
        return _fail(4, exc)
    except OlsonOrderError as exc:
        return _fail(1, exc)


def _fail(code: int, exc: OlsonOrderError) -> int:
    sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
