from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

import olsonorder

from olsonorder import cli, errors
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


# README's exit-code table: 2 for a backend, dimension or domain mismatch,
# 4 for a matrix that fails a numerical gate, 1 for every other error
_README_EXIT_CODES = {
    "BackendMismatch": 2,
    "DimensionMismatch": 2,
    "DomainMismatch": 2,
    "ElementForeignToAlgebra": 2,
    "NotHermitian": 4,
    "NotAnEffect": 4,
    "NotAProjection": 4,
    "EigendecompositionFailure": 4,
}


@pytest.mark.parametrize("error", errors.OlsonOrderError.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_every_error_class_exits_with_its_readme_code(error, capsys, monkeypatch):
    def raising(args):
        raise error("raised by the command")

    monkeypatch.setattr(cli, "_cmd_neg", raising)
    code, out, err = run(["neg", MV4, Q14], capsys)
    assert code == _README_EXIT_CODES.get(error.__name__, 1)
    assert out == "" and err == f"{error.__name__}: raised by the command\n"


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


def test_unwritable_out_exits_1(capsys, tmp_path):
    for target in (tmp_path / "no_such_dir" / "report.json", tmp_path):
        code, out, err = run(["cmp", MV4, Q14, Q34, "--out", str(target)], capsys)
        assert code == 1 and out == "", target
        assert err.startswith("ParseError: cannot write ") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_deeply_nested_json_exits_1(capsys, tmp_path):
    closed = tmp_path / "closed.json"
    closed.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    unclosed = tmp_path / "unclosed.json"
    unclosed.write_text("[" * 100_000, encoding="utf-8")
    for bad in (str(closed), str(unclosed)):
        for argv in (["cmp", bad, Q14, Q34], ["cmp", MV4, bad, Q34], ["spectral", "measure", bad]):
            code, out, err = run(argv, capsys)
            assert code == 1 and out == "", argv
            assert err.startswith(f"ParseError: {bad} is not valid JSON: maximum recursion")
            assert err.count("\n") == 1, err


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


# each entry point, run in a fresh interpreter, and the olsonorder modules
# (named without the package prefix; "" is the package) plus numpy it loads
_EXACT = {"", "cli", "errors", "effect", "algebras", "observables", "lattice", "serialize"}
_SPECTRAL = {"", "cli", "errors", "hilbert", "numpy"}
_ENTRY_POINTS = {
    "import": ("import olsonorder", {""}),
    "table-backend": ("import olsonorder; olsonorder.block_cycle_algebra()",
                      {"", "errors", "effect"}),
    "json-backend": ("import olsonorder as oo; oo.algebra_from_json({'kind': 'mv_chain', 'n': 8})",
                     {"", "errors", "effect", "algebras", "serialize"}),
    "observable-json": ("import olsonorder as oo; oo.observable_from_json("
                        "oo.algebra_from_json({'kind': 'mv_chain', 'n': 8}),"
                        " {'points': ['0', '1'], 'weights': ['1/8', '7/8']})",
                        {"", "errors", "effect", "algebras", "serialize", "observables"}),
    "submodule": ("import olsonorder; olsonorder.lattice",
                  {"", "errors", "effect", "algebras", "observables", "lattice"}),
    "import-star": ("from olsonorder import *",
                    {"", "errors", "effect", "algebras", "observables", "lattice", "kernels",
                     "serialize", "suites"}),
    "hilbert": ("import olsonorder.hilbert", {"", "errors", "hilbert", "numpy"}),
    "hilbert-name": ("from olsonorder import HermitianOperator",
                     {"", "errors", "hilbert", "numpy"}),
    "cmp": (["cmp", MV4, Q14, Q34], _EXACT),
    "meet": (["meet", MV4, Q14, fixture_path("mv4_three_point.json")], _EXACT),
    "neg": (["neg", MV4, fixture_path("mv4_three_point.json")], _EXACT - {"lattice"}),
    "check-axioms": (["check", "axioms", MV4], _EXACT | {"suites"}),
    "check-lattice-oracle": (["check", "lattice-oracle", MV4], _EXACT | {"suites"}),
    "check-representation": (["check", "representation", fixture_path("quotient_3.json")],
                             _EXACT | {"kernels", "suites"}),
    "spectral-cmp": (["spectral", "cmp", DIAG, DIAG], _SPECTRAL),
    "spectral-meet": (["spectral", "meet", fixture_path("effect_a_3x3.json"),
                       fixture_path("effect_b_3x3.json")], _SPECTRAL),
    "spectral-measure": (["spectral", "measure", DIAG], _SPECTRAL),
    "check-hilbert": (["check", "hilbert", "--cap", "1"], _SPECTRAL | {"hilbert_suite"}),
}


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_entry_point_loads_only_its_modules(entry):
    code, expected = _ENTRY_POINTS[entry]
    if isinstance(code, list):  # a command line, run through cli.main
        code = (f"import os; from olsonorder import cli\n"
                f"assert cli.main({code!r} + ['--out', os.devnull]) in (0, 3)")
    script = (
        "import json, sys\n"
        f"{code}\n"
        "print(json.dumps(sorted(name.partition('.')[2] for name in sys.modules\n"
        "                        if name.partition('.')[0] == 'olsonorder') +\n"
        "                 ['numpy'] * ('numpy' in sys.modules)))\n"
    )
    assert set(json.loads(_fresh(script))) == expected


def test_table_backend_loads_no_rational_arithmetic():
    # a table's payloads are indices: building one imports neither
    # fractions nor decimal (which fractions imports)
    script = ("import json, sys, olsonorder; olsonorder.block_cycle_algebra(); "
              "print(json.dumps(sorted({'fractions', 'decimal'} & set(sys.modules))))")
    assert json.loads(_fresh(script)) == []


def _fresh(script: str) -> str:
    """The last line that script prints in a fresh interpreter on this source tree."""
    src = os.path.dirname(os.path.dirname(olsonorder.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, os.environ.get("PYTHONPATH", "")))}
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_every_public_name_resolves_to_its_home_module():
    import importlib

    for name, home in olsonorder._HOME.items():
        module = importlib.import_module(f"olsonorder.{home}")
        assert getattr(olsonorder, name) is getattr(module, name), name
    assert sorted(olsonorder._HOME) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(olsonorder))
    assert olsonorder.lattice is importlib.import_module("olsonorder.lattice")
    with pytest.raises(AttributeError, match="^module 'olsonorder' has no attribute 'bogus'$"):
        olsonorder.bogus


# the names `olsonorder` exported when it imported every exact module
# eagerly and the Hilbert names through a module __getattr__
PUBLIC_NAMES = sorted("""
    BackendMismatch BorelSetExpr BoundResult CarrierTooLarge CertificationTooLarge
    DEFAULT_TOLERANCES DIMENSION_CAP DimensionMismatch DomainMismatch EffectAlgebra
    EffectElement EigendecompositionFailure ElementForeignToAlgebra EmptyFamily
    FiniteSetAlgebra FiniteTribe HermitianOperator Interval InvalidAlgebra
    KernelValueOutsideTribe MVChain MapUndefinedOnSpectrum MarkovKernel MeasurableFunction
    NonIncreasingPoints NonMonotoneInput NotAProjection NotAnEffect NotEnumerable
    NotHermitian OlsonComparison OlsonOrderError ParseError PiecewiseMap
    QuotientBooleanAlgebra SetOutOfRange SimpleObservable SpectralMeasure
    SpectrumOutsideUnitInterval StepResolution TableEffectAlgebra Tolerances
    WeightsNotSummable algebra_from_json algebra_to_json block_cycle_algebra
    bound_to_json brute_force_join brute_force_meet compare comparison_to_json
    enumerate_grid_observables from_closed_values from_weights function_from_observable
    function_max function_min function_order_oracle involution_suite kernel_from_observable
    kernel_leq left_regularize loewner_leq logical_leq matrix_from_json matrix_to_json
    merged_grid mo2_algebra negate observable_from_function observable_from_json
    observable_from_kernel observable_to_json olson_join olson_leq olson_meet proj_join
    proj_meet pushforward_function quotient_order_criterion question range_leq
    resolution_to_json restricted_sum_tribe right_regularize spectral_join spectral_leq
    spectral_measure spectral_meet
""".split())


# carriers whose sizes have more digits than Python prints
@pytest.mark.parametrize("backend, suite", [
    ({"kind": "set_algebra", "omega": 100000}, "axioms"),
    ({"kind": "set_algebra", "omega": 100000}, "order"),
    ({"kind": "set_algebra", "omega": 100000}, "lattice-oracle"),
    ({"kind": "set_algebra", "omega": 100000}, "involution"),
    ({"kind": "tribe", "omega": 5000, "den": 10}, "axioms"),
])
def test_oversized_carrier_counts_refuse_with_typed_errors(capsys, tmp_path, backend, suite):
    code, out, err = run(["check", suite, write_json(tmp_path, "b.json", backend)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("CertificationTooLarge: ") and "Traceback" not in err
    assert "over 4300 digits" in err


@pytest.mark.parametrize("backend", [
    {"kind": "set_algebra", "omega": 100000},
    {"kind": "quotient", "omega": 100000, "null": [0]},
])
def test_representation_refuses_large_ground_sets_up_front(capsys, tmp_path, backend):
    start = time.perf_counter()
    code, out, err = run(["check", "representation", write_json(tmp_path, "b.json", backend)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.startswith("CertificationTooLarge: ") and "Traceback" not in err


# ground sets and full tribe carriers whose payloads or sizes would not fit in memory
@pytest.mark.parametrize("backend, error", [
    ({"kind": "set_algebra", "omega": 10**12}, "ParseError"),
    ({"kind": "quotient", "omega": 10**12, "null": [0]}, "ParseError"),
    ({"kind": "tribe", "omega": 10**12, "den": 2}, "ParseError"),
    ({"kind": "tribe", "omega": 10**5, "den": 10**4000}, "CarrierTooLarge"),
])
def test_oversized_ground_sets_are_refused(capsys, tmp_path, backend, error):
    start = time.perf_counter()
    code, out, err = run(["check", "axioms", write_json(tmp_path, "b.json", backend)], capsys)
    assert code == 1 and out == "" and err.startswith(error + ": ")
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("backend, observable, code, error", [
    ({"kind": "table", "add": [0], "zero": 0, "one": 0}, None, 1, "ParseError"),
    ({"kind": "set_algebra", "omega": 2}, {"points": ["0"], "weights": [[[0]]]}, 1, "SetOutOfRange"),
    # JSON true is no table index, though Python reads it as 1; the
    # InvalidAlgebra of the table reaches the CLI as a ParseError
    ({"kind": "table", "add": [[0, True], [True, None]], "zero": 0, "one": 1},
     {"points": ["0"], "weights": [1]}, 1, "ParseError"),
])
def test_nested_literals_raise_typed_errors(capsys, tmp_path, backend, observable, code, error):
    obs = write_json(tmp_path, "x.json", observable) if observable else Q14
    got, out, err = run(["neg", write_json(tmp_path, "b.json", backend), obs], capsys)
    assert (got, out) == (code, "") and err.startswith(error + ": ")


def test_error_messages_clip_echoed_input(capsys, tmp_path):
    # the message shows the first 200 characters of an input it echoes
    ints = write_json(tmp_path, "ints.json", list(range(300_000)))
    long_weights = write_json(tmp_path, "x.json", {"points": ["0"], "weights": "w" * 10**6})
    for argv in (["cmp", ints, Q14, Q34], ["cmp", MV4, long_weights, Q34]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, "") and err.startswith("ParseError: ")
        assert len(err.encode()) < 1000 and "characters)" in err
