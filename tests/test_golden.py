"""Golden pin of the exact core.

`fixtures/golden_exact.json` holds seeded sample families over every
shipped exact backend fixture, together with the JSON of compare,
olson_meet, olson_join, brute_force_meet, brute_force_join and negate on
them, and every binary meet and join of the backends whose bounds are
found by scanning the carrier.  The test replays the stored inputs and
requires byte-equal answers: frontier order, witness points, missing
bounds and refusals included.

Regenerate (only when an answer is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from olsonorder.errors import OlsonOrderError
from olsonorder.lattice import (
    brute_force_join,
    brute_force_meet,
    compare,
    olson_join,
    olson_meet,
)
from olsonorder.observables import from_closed_values, question
from olsonorder.serialize import (
    algebra_from_json,
    bound_to_json,
    comparison_to_json,
    observable_from_json,
    observable_to_json,
)

from conftest import fixture_path, load_fixture

F = Fraction
GOLDEN = fixture_path("golden_exact.json")

# small enough that the exhaustive oracle stays fast, large enough that
# every backend has both certified and refused enumerations
CAP = 600
POINTS = (F(0), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1))
# (fixture, families, share of question observables); questions on the
# block cycle reach its missing joins and meets
BACKENDS = (
    ("mv_chain_4", 24, 0.25),
    ("mv_chain_8", 24, 0.25),
    ("set_algebra_2", 24, 0.25),
    ("set_algebra_3", 24, 0.25),
    ("table_mo2", 24, 0.5),
    ("table_block_cycle", 60, 0.75),
    ("tribe_2_4", 16, 0.25),
    ("tribe_restricted", 24, 0.5),
    ("quotient_3", 24, 0.25),
)
SCANNED = ("table_mo2", "table_block_cycle", "tribe_restricted")


def _draw(alg, elems, rng: random.Random, questions: float):
    if rng.random() < questions:
        return question(alg, rng.choice(elems))
    grid = sorted(rng.sample(POINTS, rng.choice((1, 2, 2, 3))))
    cur, vals = alg.zero, []
    for _ in grid[1:]:
        cur = rng.choice([e for e in elems if alg.leq(cur, e)])
        vals.append(cur)
    vals.append(alg.one)
    return from_closed_values(alg, tuple(zip(grid, vals)))


def _guard(fn):
    try:
        return fn()
    except OlsonOrderError as exc:
        return {"error": type(exc).__name__}


def _answers(alg, xs) -> dict:
    x, y = xs[0], xs[1]
    return {
        "compare": _guard(lambda: comparison_to_json(compare(x, y))),
        "olson_meet": _guard(lambda: bound_to_json(olson_meet(xs, cap=CAP))),
        "olson_join": _guard(lambda: bound_to_json(olson_join(xs, cap=CAP))),
        "brute_force_meet": _guard(lambda: bound_to_json(brute_force_meet(xs, cap=CAP))),
        "brute_force_join": _guard(lambda: bound_to_json(brute_force_join(xs, cap=CAP))),
        "negate": [_guard(lambda z=z: observable_to_json(z.negate())) for z in xs],
    }


def _binary(alg) -> dict:
    elems = list(alg.elements())
    enc = alg.element_to_json

    def bound(op, a, b):
        got = op(a, b)
        return None if got is None else enc(got)

    return {
        op: [[enc(a), enc(b), bound(getattr(alg, op), a, b)] for a in elems for b in elems]
        for op in ("meet", "join")
    }


def _as_json(obj):
    return json.loads(json.dumps(obj))


def record() -> dict:
    out = {}
    for seed, (name, count, questions) in enumerate(BACKENDS):
        alg = algebra_from_json(load_fixture(name + ".json"))
        elems = list(alg.elements())
        rng = random.Random(1604 + seed)
        cases = []
        families = [
            tuple(_draw(alg, elems, rng, questions) for _ in range(rng.choice((2, 2, 3))))
            for _ in range(count)
        ]
        if name in SCANNED:
            # question pairs over a missing binary bound have no meet or join
            families += [
                (question(alg, a), question(alg, b))
                for i, a in enumerate(elems)
                for b in elems[i + 1:]
                if alg.meet(a, b) is None or alg.join(a, b) is None
            ]
        for xs in families:
            cases.append({
                "family": [observable_to_json(x) for x in xs],
                "answers": _answers(alg, xs),
            })
        entry = {"cases": cases}
        if name in SCANNED:
            entry["binary"] = _binary(alg)
        out[name] = entry
    return out


def test_exact_core_reproduces_golden_answers():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(name for name, _, _ in BACKENDS)
    for name, entry in golden.items():
        alg = algebra_from_json(load_fixture(name + ".json"))
        for case in entry["cases"]:
            xs = tuple(observable_from_json(alg, obj) for obj in case["family"])
            assert _as_json(_answers(alg, xs)) == case["answers"], (name, case["family"])
        if "binary" in entry:
            assert _as_json(_binary(alg)) == entry["binary"], name


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
