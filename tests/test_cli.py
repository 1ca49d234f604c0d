from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import olsonorder

from olsonorder.cli import main
from olsonorder.observables import question
from olsonorder.serialize import observable_from_json

from conftest import fixture_path, load_fixture


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    return str(path)


MV4 = fixture_path("mv_chain_4.json")
Q14 = fixture_path("mv4_q_quarter.json")
Q34 = fixture_path("mv4_q_three_quarter.json")
SET2 = fixture_path("set_algebra_2.json")
UP = fixture_path("set2_step_up.json")
DOWN = fixture_path("set2_step_down.json")
DIAG = fixture_path("diag_quarter.json")


def test_cmp_one_sided(capsys):
    code, out, err = run(["cmp", MV4, Q14, Q34], capsys)
    assert code == 0 and err == ""
    blob = json.loads(out)
    assert blob["verdict"] == "less_or_equal"
    assert "witness_t" in blob


def test_cmp_equal_has_no_witness(capsys):
    code, out, _ = run(["cmp", MV4, Q14, Q14], capsys)
    assert code == 0
    assert json.loads(out) == {"verdict": "equal"}


def test_cmp_incomparable_exit_code(capsys):
    code, out, _ = run(["cmp", SET2, UP, DOWN], capsys)
    assert code == 3
    assert json.loads(out)["verdict"] == "incomparable"


def test_meet_emits_certified_bound(capsys):
    code, out, _ = run(["meet", MV4, Q14, Q34], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["exists"] is True and blob["certified"] == "elementwise"


def test_join_of_crossing_steps(capsys, set2):
    code, out, _ = run(["join", SET2, UP, DOWN], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["exists"] is True
    joined = observable_from_json(set2, blob["observable"])
    up = observable_from_json(set2, load_fixture("set2_step_up.json"))
    down = observable_from_json(set2, load_fixture("set2_step_down.json"))
    from olsonorder.lattice import olson_leq

    assert olson_leq(up, joined) and olson_leq(down, joined)


def test_neg_round_trip(capsys, mv4):
    code, out, _ = run(["neg", MV4, Q14], capsys)
    assert code == 0
    negated = observable_from_json(mv4, json.loads(out))
    x = observable_from_json(mv4, load_fixture("mv4_q_quarter.json"))
    assert negated == x.negate()
    assert negated == question(mv4, mv4.complement(mv4.element_from_json("1/4")))


def test_spectral_cmp_diagonals(capsys, tmp_path):
    lo = write_json(tmp_path, "lo.json", {"dim": 2, "re": [[0.2, 0.0], [0.0, 0.4]]})
    hi = write_json(tmp_path, "hi.json", {"dim": 2, "re": [[0.6, 0.0], [0.0, 0.8]]})
    code, out, _ = run(["spectral", "cmp", lo, hi], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob == {"loewner": True, "verdict": "less_or_equal"}


def test_spectral_cmp_gap_pair_is_incomparable(capsys, tmp_path):
    pair = load_fixture("hilbert_noncommuting_pair.json")
    a = write_json(tmp_path, "a.json", pair["a"])
    b = write_json(tmp_path, "b.json", pair["b"])
    code, out, _ = run(["spectral", "cmp", a, b], capsys)
    assert code == 3
    blob = json.loads(out)
    assert blob["verdict"] == "incomparable" and blob["loewner"] is True


def test_spectral_meet_of_commuting_diagonals(capsys, tmp_path):
    lo = write_json(tmp_path, "lo.json", {"dim": 2, "re": [[0.2, 0.0], [0.0, 0.4]]})
    hi = write_json(tmp_path, "hi.json", {"dim": 2, "re": [[0.6, 0.0], [0.0, 0.8]]})
    code, out, _ = run(["spectral", "meet", lo, hi], capsys)
    assert code == 0
    blob = json.loads(out)
    got = blob["matrix"]["re"]
    assert abs(got[0][0] - 0.2) < 1e-12 and abs(got[1][1] - 0.4) < 1e-12
    assert abs(got[0][1]) < 1e-12 and abs(got[1][0]) < 1e-12
    assert blob["max_residual"] <= 1e-9


def test_spectral_measure_grid(capsys):
    code, out, _ = run(["spectral", "measure", DIAG], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["grid"] == [0.25, 0.75]
    top = blob["cumulative"][-1]["re"]
    assert top == [[1.0, 0.0], [0.0, 1.0]]


def test_spectral_measure_arity_check(capsys):
    code, _, err = run(["spectral", "measure", DIAG, DIAG], capsys)
    assert code == 1 and err.startswith("ParseError")


def test_exit_code_2_backend_mismatch(capsys):
    code, _, err = run(["cmp", MV4, UP, DOWN], capsys)
    assert code == 2 and err.startswith("BackendMismatch")


def test_exit_code_2_dimension_mismatch(capsys, tmp_path):
    a3 = fixture_path("effect_a_3x3.json")
    code, _, err = run(["spectral", "cmp", DIAG, a3], capsys)
    assert code == 2 and err.startswith("DimensionMismatch")


def test_exit_code_2_suite_on_wrong_backend(capsys):
    code, _, err = run(["check", "representation", MV4], capsys)
    assert code == 2 and err.startswith("BackendMismatch")


def test_non_finite_matrices_exit_1(capsys, tmp_path):
    for i, entry in enumerate(("NaN", "Infinity", "-Infinity", "1e308")):
        bad = str(tmp_path / f"bad{i}.json")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write(f'{{"dim": 2, "re": [[{entry}, 0.0], [0.0, 0.5]]}}')
        for argv in (["measure", bad], ["meet", bad, bad], ["cmp", bad, DIAG]):
            code, out, err = run(["spectral", *argv], capsys)
            assert code == 1 and out == "", argv
            assert err.startswith("ParseError") and "Traceback" not in err, argv


def test_undecodable_json_files_exit_1(capsys, tmp_path):
    # an integer literal beyond Python's digit limit, and a UTF-16 byte mark
    digits = tmp_path / "digits.json"
    digits.write_text('{"dim": 1, "re": [[' + "1" * 5000 + "]]}", encoding="utf-8")
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"dim": 1, "re": [[0.5]]}'.encode("utf-16-le"))
    for bad in (str(digits), str(utf16)):
        for argv in (["spectral", "measure", bad], ["cmp", bad, Q14, Q34]):
            code, out, err = run(argv, capsys)
            assert code == 1 and out == "", argv
            assert err.startswith("ParseError:") and err.count("\n") == 1, argv


def test_unprintable_rational_literals_exit_1(capsys, tmp_path):
    # 10**5000 cannot be printed, and 10**10000000 takes seconds to build
    for literal in ("1e5000", "1e10000000"):
        for name, obs in (
            ("point", {"points": [literal], "weights": ["1"]}),
            ("weight", {"points": ["0", "1"], "weights": [literal, "1"]}),
        ):
            bad = write_json(tmp_path, name + ".json", obs)
            for argv in (["neg", MV4, bad], ["join", MV4, bad, Q14]):
                start = time.perf_counter()
                code, out, err = run(argv, capsys)
                assert time.perf_counter() - start < 1.0, (literal, name, argv[0])
                assert code == 1 and out == "", (literal, name, argv[0])
                assert err.startswith("ParseError:") and err.count("\n") == 1, err


def test_exit_code_4_not_hermitian(capsys, tmp_path):
    bad = write_json(tmp_path, "bad.json", {"dim": 2, "re": [[0.0, 1.0], [0.0, 0.0]]})
    code, _, err = run(["spectral", "cmp", bad, bad], capsys)
    assert code == 4 and err.startswith("NotHermitian")


def test_exit_code_5_suite_failure(capsys):
    code, out, _ = run(
        ["check", "hilbert", "--seed", "0", "--cap", "3", "--tol", "lat=1e-30"], capsys
    )
    assert code == 5
    assert json.loads(out)["passed"] is False


def test_usage_errors_exit_1(capsys):
    assert run([], capsys)[0] == 1
    assert run(["frobnicate"], capsys)[0] == 1
    assert run(["check", "bogus", MV4], capsys)[0] == 1
    assert run(["cmp", MV4, Q14], capsys)[0] == 1
    assert run(["--seed", "not-a-number", "check", "axioms", MV4], capsys)[0] == 1
    assert run(["--cap", "0", "check", "axioms", MV4], capsys)[0] == 1


def test_missing_or_malformed_files_exit_1(capsys, tmp_path):
    code, _, err = run(["cmp", MV4, str(tmp_path / "nope.json"), Q14], capsys)
    assert code == 1 and err.startswith("ParseError")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    code, _, err = run(["cmp", MV4, str(garbled), Q14], capsys)
    assert code == 1 and err.startswith("ParseError")


def test_tol_only_applies_to_numerical_commands(capsys):
    code, _, err = run(["cmp", MV4, Q14, Q34, "--tol", "herm=1e-3"], capsys)
    assert code == 1 and "spectral" in err
    code, _, err = run(["check", "axioms", MV4, "--tol", "herm=1e-3"], capsys)
    assert code == 1
    code, _, err = run(["spectral", "measure", DIAG, "--tol", "bogus=1"], capsys)
    assert code == 1 and "known names" in err
    code, _, err = run(["spectral", "measure", DIAG, "--tol", "herm"], capsys)
    assert code == 1 and "NAME=FLOAT" in err


def test_tol_values_must_be_finite_and_nonnegative(capsys):
    for val in ("nan", "inf", "-inf", "-1"):
        code, out, err = run(["spectral", "cmp", DIAG, DIAG, "--tol", f"ord={val}"], capsys)
        assert code == 1 and err.startswith("ParseError") and "ord" in err, val
        assert out == ""
    code, out, _ = run(["spectral", "cmp", DIAG, DIAG, "--tol", "ord=0"], capsys)
    assert code == 0 and json.loads(out)["verdict"] == "equal"


def test_backend_requirements_for_suites(capsys):
    code, _, err = run(["check", "axioms"], capsys)
    assert code == 1 and "backend" in err
    code, _, err = run(["check", "hilbert", MV4, "--cap", "1"], capsys)
    assert code == 1 and "without a backend" in err


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(["cmp", MV4, Q14, Q14, "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text(encoding="utf-8")) == {"verdict": "equal"}


def test_flags_parse_before_and_after_subcommand(capsys):
    first = run(["--seed", "9", "--cap", "40", "check", "involution", MV4], capsys)
    second = run(["check", "involution", MV4, "--seed", "9", "--cap", "40"], capsys)
    assert first == second
    blob = json.loads(first[1])
    assert first[0] == 0 and blob["seed"] == 9 and blob["passed"] is True


def test_check_reports_are_deterministic(capsys):
    argv = ["check", "order", MV4]
    assert run(argv, capsys) == run(argv, capsys)
    argv = ["check", "lattice-oracle", SET2]
    first = run(argv, capsys)
    assert first == run(argv, capsys)
    assert first[0] == 0 and json.loads(first[1])["mode"] == "grid"


def test_join_cap_exhaustion_exits_1(capsys, cycle, tmp_path):
    # set-algebra meets are elementwise and never enumerate; a table
    # backend without guaranteed lattice structure does hit the cap
    def elem(name):
        return cycle.element_from_json(cycle.atom_names.index(name))

    from olsonorder.serialize import observable_to_json

    qc = write_json(tmp_path, "qc.json", observable_to_json(question(cycle, elem("c"))))
    qg = write_json(tmp_path, "qg.json", observable_to_json(question(cycle, elem("g"))))
    backend = fixture_path("table_block_cycle.json")
    code, _, err = run(["join", backend, qc, qg, "--cap", "1"], capsys)
    assert code == 1 and err.startswith("CertificationTooLarge")


def test_exact_commands_do_not_import_numpy():
    script = (
        "import sys\n"
        "import olsonorder\n"
        "assert 'numpy' not in sys.modules, 'import olsonorder'\n"
        "from olsonorder import cli\n"
        "assert cli.main(['neg', sys.argv[1], sys.argv[2]]) == 0\n"
        "assert 'numpy' not in sys.modules, 'neg'\n"
        "for suite in ('axioms', 'lattice-oracle'):\n"
        "    assert cli.main(['check', suite, sys.argv[1]]) == 0\n"
        "    assert 'numpy' not in sys.modules, suite\n"
        "from olsonorder import HermitianOperator\n"
        "assert 'numpy' in sys.modules and HermitianOperator.__module__ == 'olsonorder.hilbert'\n"
    )
    src = os.path.dirname(os.path.dirname(olsonorder.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
    done = subprocess.run(
        [sys.executable, "-c", script, MV4, fixture_path("mv4_three_point.json")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
