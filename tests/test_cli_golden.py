"""Golden pin of the command line.

`fixtures/golden_cli.json` maps argv to the exit code, stdout and stderr
of `cli.main`: cmp, meet, join and neg over sample observables on the
nine exact backend fixtures, the five exact check suites on each of them
at two seed/cap settings, the spectral commands, the hilbert suite, the
--seed/--cap/--tol and usage error matrix, and the typed errors of
malformed backends, observables and matrices.  Every README exit code
from 0 to 5 occurs.  The test replays the stored argv and requires the
same exit code and byte-equal streams; the stdout of the numerical
commands (spectral, check hilbert) is compared as parsed JSON within
FLOAT_TOL, since eigensolvers may differ in the last bits.

An argv entry "@name" is a file: the input stored under that name,
written to a scratch directory, or else the shipped fixture of that name.
Both directories read as "@" in the recorded streams.

Regenerate (only when an answer is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

from olsonorder.cli import main

from conftest import FIXTURES, fixture_path, load_fixture

GOLDEN = fixture_path("golden_cli.json")
FLOAT_TOL = 1e-9

BACKENDS = (
    "mv_chain_4", "mv_chain_8", "set_algebra_2", "set_algebra_3", "table_mo2",
    "table_block_cycle", "tribe_2_4", "tribe_restricted", "quotient_3",
)
# the explicit carriers whose golden_exact families end in question pairs
# over a missing binary bound
SCANNED = ("table_mo2", "table_block_cycle", "tribe_restricted")
SUITES = ("axioms", "order", "lattice-oracle", "involution", "representation")
MATRICES = ("diag_quarter", "effect_a_3x3", "effect_b_3x3", "proj_p_3x3", "proj_q_3x3")


def _families(name: str, golden: dict) -> list[list[str]]:
    cases = golden[name]["cases"]
    picked = cases[:4] + (cases[-1:] if name in SCANNED else [])
    return [[json.dumps(x) for x in case["family"]] for case in picked]


def battery() -> tuple[dict[str, str], list[list[str]]]:
    """The stored inputs (name -> file text) and the argv of every case."""
    golden = load_fixture("golden_exact.json")
    inputs: dict[str, str] = {}
    cases: list[list[str]] = []
    for name in BACKENDS:
        backend = f"@{name}.json"
        for i, family in enumerate(_families(name, golden)):
            files = []
            for j, text in enumerate(family):
                inputs[f"{name}_{i}_{j}.json"] = text
                files.append(f"@{name}_{i}_{j}.json")
            cases.append(["cmp", backend, *files[:2]])
            cases += [[op, backend, *files] for op in ("meet", "join")]
            cases += [["neg", backend, f] for f in files]
        cases += [["check", suite, backend, "--seed", "7", "--cap", "20"] for suite in SUITES]
        cases += [["check", suite, backend, "--seed", "3"] for suite in SUITES[:3]]
    cases += [[op, "@table_block_cycle.json", "@table_block_cycle_4_0.json",
               "@table_block_cycle_4_1.json", "--cap", "1"] for op in ("meet", "join")]
    cases += [["cmp", "@mv_chain_4.json", "@mv4_q_quarter.json", "@mv4_q_three_quarter.json"],
              ["meet", "@mv_chain_4.json", "@mv4_q_quarter.json", "@mv4_three_point.json"],
              ["join", "@set_algebra_2.json", "@set2_step_up.json", "@set2_step_down.json"],
              ["cmp", "@set_algebra_2.json", "@set2_step_up.json", "@set2_step_down.json"]]

    # the spectral commands and the hilbert suite
    mats = [f"@{m}.json" for m in MATRICES]
    cases += [["spectral", "measure", m] for m in mats]
    pairs = [(mats[0], mats[0]), (mats[1], mats[2]), (mats[3], mats[4]), (mats[1], mats[3])]
    cases += [["spectral", "cmp", a, b] for a, b in pairs]
    for op in ("meet", "join"):
        cases += [["spectral", op, a, b] for a, b in pairs[1:]]
        cases.append(["spectral", op, *mats[1:4]])
    inputs["not_hermitian.json"] = json.dumps({"dim": 2, "re": [[0.5, 0.1], [0.0, 0.5]]})
    inputs["not_effect.json"] = json.dumps({"dim": 2, "re": [[2.0, 0.0], [0.0, 0.5]]})
    inputs["huge_entry.json"] = '{"dim": 1, "re": [[1e400]]}'
    cases += [["spectral", "cmp", "@not_hermitian.json", mats[0]],
              ["spectral", "measure", "@not_effect.json"],
              ["spectral", "measure", "@huge_entry.json"],
              ["spectral", "cmp", mats[0], mats[1]],
              ["check", "hilbert", "--seed", "1", "--cap", "3"],
              ["check", "hilbert", "--seed", "0", "--cap", "3", "--tol", "lat=1e-30"]]

    # the option error matrix
    for val in ("-1", "18446744073709551616", "abc", "1.5", "", "9" * 5000):
        cases.append(["--seed", val, "check", "axioms", "@mv_chain_4.json"])
    cases.append(["check", "involution", "@set_algebra_2.json",
                  "--seed", "18446744073709551615", "--cap", "5"])
    for val in ("0", "-3", "x", "1.5"):
        cases.append(["check", "axioms", "@mv_chain_4.json", "--cap", val])
    for tol in ("ord=nan", "ord=inf", "ord=-inf", "ord=-1", "ord=0", "herm", "=1",
                "bogus=1", "herm=abc", "herm=1e-3"):
        cases.append(["spectral", "cmp", mats[0], mats[0], "--tol", tol])
    cases += [["cmp", "@mv_chain_4.json", "@mv4_q_quarter.json", "@mv4_q_quarter.json",
               "--tol", "herm=1e-3"],
              ["check", "axioms", "@mv_chain_4.json", "--tol", "herm=1e-3"]]

    # usage errors, unreadable files and mismatched backends
    inputs["garbled.json"] = "{not json"
    cases += [[], ["frobnicate"], ["check", "bogus", "@mv_chain_4.json"],
              ["cmp", "@mv_chain_4.json", "@mv4_q_quarter.json"],
              ["neg", "@mv_chain_4.json"], ["spectral", "measure"],
              ["spectral", "bogus", mats[0]], ["check", "axioms"],
              ["check", "hilbert", "@mv_chain_4.json", "--cap", "1"],
              ["spectral", "measure", mats[0], mats[0]], ["spectral", "cmp", mats[0]],
              ["cmp", "@mv_chain_4.json", "@nope.json", "@mv4_q_quarter.json"],
              ["cmp", "@mv_chain_4.json", "@garbled.json", "@mv4_q_quarter.json"],
              ["spectral", "measure", "@garbled.json"],
              ["cmp", "@mv_chain_4.json", "@set2_step_up.json", "@set2_step_down.json"],
              ["neg", "@set_algebra_2.json", "@mv4_three_point.json"]]

    # the typed errors of malformed backends and observables
    bad = {
        "bad_table.json": {"kind": "table", "zero": 0, "one": 1, "add": [[0, 1], [1, 1]]},
        "wide_set.json": {"kind": "set_algebra", "omega": 100000},
        "huge_tribe.json": {"kind": "tribe", "omega": 10**5, "den": 10**4000},
        "set_out.json": {"points": ["0", "1"], "weights": [[5], [0, 1]]},
        "decreasing.json": {"points": ["1/2", "0"], "weights": ["1/2", "1/2"]},
        "short_sum.json": {"points": ["0", "1"], "weights": ["1/2", "1/4"]},
        "wide_spectrum.json": {"points": ["0", "2"], "weights": ["1/2", "1/2"]},
    }
    inputs.update((name, json.dumps(obj)) for name, obj in bad.items())
    cases += [["check", "axioms", "@bad_table.json"], ["check", "axioms", "@wide_set.json"],
              ["check", "axioms", "@huge_tribe.json"],
              ["neg", "@set_algebra_2.json", "@set_out.json"]]
    cases += [["neg", "@mv_chain_4.json", f"@{name}.json"]
              for name in ("decreasing", "short_sum", "wide_spectrum")]
    cases.append(["spectral", "meet", "@not_effect.json", mats[0]])
    return inputs, cases


def _numerical(argv: list[str]) -> bool:
    return argv[:1] == ["spectral"] or argv[:2] == ["check", "hilbert"]


def _run(argv: list[str], inputs: dict[str, str], scratch: str) -> dict:
    def path(arg: str) -> str:
        if not arg.startswith("@"):
            return arg
        name = arg[1:]
        return os.path.join(scratch if name in inputs else FIXTURES, name)

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([path(arg) for arg in argv])

    def shown(text: str) -> str:
        for root in (scratch, FIXTURES):
            text = text.replace(root + os.sep, "@")
        return text

    return {"argv": argv, "code": code, "stdout": shown(out.getvalue()),
            "stderr": shown(err.getvalue())}


def _replay(inputs: dict[str, str], cases: list[list[str]]) -> list[dict]:
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in inputs.items():
            with open(os.path.join(scratch, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        return [_run(argv, inputs, scratch) for argv in cases]


def _close(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        return (isinstance(got, (int, float)) and isinstance(want, (int, float))
                and math.isclose(got, want, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL))
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(_close(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(map(_close, got, want)))
    return got == want


def test_cli_reproduces_golden_streams():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    want = golden["cases"]
    assert {case["code"] for case in want} == {0, 1, 2, 3, 4, 5}
    got = _replay(golden["inputs"], [case["argv"] for case in want])
    for g, w in zip(got, want):
        assert (g["code"], g["stderr"]) == (w["code"], w["stderr"]), w["argv"]
        if _numerical(w["argv"]) and w["stdout"]:
            assert _close(json.loads(g["stdout"]), json.loads(w["stdout"])), w["argv"]
        else:
            assert g["stdout"] == w["stdout"], w["argv"]


if __name__ == "__main__":
    inputs, cases = battery()
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"inputs": inputs, "cases": _replay(inputs, cases)}, fh,
                  sort_keys=True, indent=1)
        fh.write("\n")
