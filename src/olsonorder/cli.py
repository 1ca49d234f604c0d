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
import functools
import json
import sys
from typing import TYPE_CHECKING

from .errors import OlsonOrderError, ParseError, _shown, order_verdict

# each command imports the modules it runs: the exact commands load no
# numpy, and the spectral commands load no exact backend
if TYPE_CHECKING:
    from .hilbert import Tolerances

SUITES = ("axioms", "order", "lattice-oracle", "involution", "representation", "hilbert")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, but 2 is the backend-mismatch
    # code here; remap usage problems to the parse-error exit
    def error(self, message: str):
        raise ParseError(message)


def _integer(name: str, fits, rule: str):
    """argparse type of the option `name`: an integer val with fits(val),
    refused with "`name` must `rule`" otherwise."""

    def read(text: str) -> int:
        try:
            val = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{name} must be an integer, got {_shown(text)}")
        if not fits(val):
            raise argparse.ArgumentTypeError(f"{name} must {rule}")
        return val

    return read


_seed = _integer("seed", lambda val: 0 <= val < 2 ** 64, "fit an unsigned 64-bit integer")
_positive = _integer("cap", lambda val: val >= 1, "be positive")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, UnicodeDecodeError, the int digit limit and
        # nesting deeper than the parser's recursion limit
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _tolerances(args) -> Tolerances:
    from .hilbert import DEFAULT_TOLERANCES

    overrides = {}
    for item in args.tol or ():
        name, eq, val = item.partition("=")
        if not eq or not name:
            raise ParseError(f"--tol needs NAME=FLOAT, got {_shown(item)}")
        try:
            overrides[name] = float(val)
        except ValueError:
            raise ParseError(f"--tol value {_shown(val)} is not a number")
    if not overrides:
        return DEFAULT_TOLERANCES
    try:
        return DEFAULT_TOLERANCES.replace(**overrides)
    except TypeError:
        known = ", ".join(sorted(DEFAULT_TOLERANCES.__dataclass_fields__))
        raise ParseError(f"unknown tolerance name; known names: {known}")


def _emit(obj, args) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _backend(args):
    """The backend in the file args.backend."""
    from .serialize import algebra_from_json

    return algebra_from_json(_load_json(args.backend))


def _observables(args, paths) -> list:
    """The observables in the files paths, over the backend of args.backend."""
    from .serialize import observable_from_json

    algebra = _backend(args)
    return [observable_from_json(algebra, _load_json(p)) for p in paths]


def _cmd_cmp(args) -> int:
    from .lattice import compare
    from .serialize import comparison_to_json

    verdict = compare(*_observables(args, (args.x, args.y)))
    _emit(comparison_to_json(verdict), args)
    return 3 if verdict.verdict == "incomparable" else 0


def _cmd_bound(args, op: str) -> int:
    from . import lattice
    from .serialize import bound_to_json

    xs = _observables(args, args.observables)
    bound = getattr(lattice, f"olson_{op}")
    result = bound(xs) if args.cap is None else bound(xs, cap=args.cap)
    _emit(bound_to_json(result), args)
    return 0


def _cmd_neg(args) -> int:
    from .serialize import observable_to_json

    (x,) = _observables(args, (args.observable,))
    _emit(observable_to_json(x.negate()), args)
    return 0


def _cmd_spectral(args) -> int:
    from . import hilbert as H

    tol = _tolerances(args)
    mats = [H.matrix_from_json(_load_json(p), tol) for p in args.matrices]
    if args.op == "measure":
        if len(mats) != 1:
            raise ParseError("spectral measure takes exactly one matrix")
        measure = H.spectral_measure(mats[0], tol)
        grid = [float(t) for t in measure.grid]
        _emit({"grid": grid, "cumulative": [H.matrix_to_json(p) for p in measure.cumulative]}, args)
        return 0
    if args.op == "cmp":
        if len(mats) != 2:
            raise ParseError("spectral cmp takes exactly two matrices")
        a, b = mats
        verdict = order_verdict(H.spectral_leq(a, b, tol), H.spectral_leq(b, a, tol))
        _emit({"verdict": verdict, "loewner": H.loewner_leq(a, b, tol)}, args)
        return 3 if verdict == "incomparable" else 0
    bound = (H.spectral_meet if args.op == "meet" else H.spectral_join)(mats, tol)
    residual = H._norm(H.spectral_measure(bound, tol).reconstruct() - bound.matrix)
    residual /= max(1.0, H._norm(bound.matrix))
    _emit({"matrix": H.matrix_to_json(bound), "max_residual": residual}, args)
    return 0


def _cmd_check(args) -> int:
    if args.suite == "hilbert":
        from .hilbert_suite import run_hilbert

        if args.backend is not None:
            raise ParseError("the hilbert suite runs without a backend file")
        report = run_hilbert(seed=args.seed, pairs=args.cap or 500, tol=_tolerances(args))
    else:
        from . import suites

        seeded = functools.partial(functools.partial, seed=args.seed)  # run with --seed bound
        # each exact suite, the parameter --cap sets and its default
        run, capped, default = {
            "axioms": (suites.run_axioms, "cap", suites.AXIOM_SCAN_CAP),
            "order": (suites.run_order, "cap", suites.AXIOM_SCAN_CAP),
            "lattice-oracle": (suites.run_lattice_oracle, "pair_cap", suites.PAIR_BUDGET),
            "involution": (seeded(suites.run_involution), "samples", 200),
            "representation": (seeded(suites.run_representation), "samples", 300),
        }[args.suite]
        if args.backend is None:
            raise ParseError(f"the {args.suite} suite needs a backend file")
        report = run(_backend(args), **{capped: args.cap or default})
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

    for op in ("meet", "join"):
        m = sub.add_parser(op, parents=[shared], help=f"{op} of a family of observables")
        m.add_argument("backend")
        m.add_argument("observables", nargs="+")
        m.set_defaults(func=functools.partial(_cmd_bound, op=op))

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
        # read before any file, where the subcommand takes no tolerances
        if args.tol and args.command != "spectral" and getattr(args, "suite", None) != "hilbert":
            raise ParseError("--tol applies only to the spectral subcommand and the hilbert suite")
        return args.func(args)
    except OlsonOrderError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return exc.exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
