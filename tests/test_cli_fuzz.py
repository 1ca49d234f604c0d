"""Hypothesis-drawn input files and flags for the exact command line.

Each example writes one backend file and up to three observable files,
then runs cmp, meet, join, neg or one of the exact check suites through
cli.main in-process.  Backends range over the shipped fixtures, small
valid descriptors, oversized sizes (ground sets beyond the cap, integers
of thousands of digits, literals beyond Python's int-parsing limit),
unknown kinds, missing or ill-typed fields and malformed tables.
Observables range over the shipped fixtures and drawn point and weight
literals: floats, non-finite floats, huge and non-string values and
non-lists.  --cap and --tol come as arbitrary strings.

Every example must return an exit code documented in cli.py, raise
nothing, and print nothing or exactly one JSON document on stdout.

A valid --cap on a check suite is requested work (the scan cap of
axioms and order, the pair budget of lattice-oracle, the sample count
of involution and representation), so the suites get valid caps up to
the default scan cap only; meets and joins take any cap, where it only
bounds the enumeration.  The representation suite draws one sample of
ground-set size per requested sample and its work is not capped, so it
runs on the small backends only.

The examples are derandomized, so every run draws the same 200 and the
test is a stable gate; a wider search runs it with more examples and
other --hypothesis-seed values.

A second test does the same for `spectral measure|cmp|meet|join` on
matrix literals: seeded effects of dimension 1-4 (real and complex,
scaled out of [0, 1] or to the effect boundary) and the matrix
fixtures, mutated by dropping `dim` or `re`, resizing rows, ill-typed
`dim`, bool, string, null, non-finite and oversized entries (at and
beyond NORM_CAP), ill-formed `im` parts and asymmetric entries, plus
dimension 17, mixed dimensions, wrong matrix counts and `--tol`
overrides from 0 to 1e308.  Those commands exit 0-4 only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from olsonorder.cli import main
from olsonorder.hilbert import DEFAULT_TOLERANCES, NORM_CAP

from conftest import FIXTURES

EXIT_CODES = {0, 1, 2, 3, 4, 5}
EXACT_SUITES = ("axioms", "order", "lattice-oracle", "involution")

BACKEND_FIXTURES = sorted(
    name for name in os.listdir(FIXTURES)
    if name.startswith(("mv_chain", "set_algebra", "quotient", "tribe", "table"))
)
OBSERVABLE_FIXTURES = sorted(
    name for name in os.listdir(FIXTURES) if name.startswith(("mv4_", "set2_"))
)


def _fixture(name: str) -> str:
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        return fh.read()


# sizes: small valid, at and beyond the ground-set cap, thousands of
# digits, and values of the wrong type
SIZES = st.one_of(
    st.integers(-2, 4),
    st.sampled_from((100_000, 10**6, 10**6 + 1, 10**12, 10**4000, -10**4000)),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=3),
    st.none(),
)
LEAVES = st.one_of(
    st.integers(-3, 8),
    st.sampled_from((10**4000, -10**4000, 2**1024)),
    st.floats(),
    st.sampled_from(("0", "1", "1/2", "3/4", "-1/3", "1e4000", "1e-400", "1e99999",
                     "1/0", "9" * 5000, "1/" + "7" * 5000, "x")),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=8)

TABLES = st.one_of(
    st.lists(st.lists(st.one_of(st.none(), st.integers(-1, 4)), min_size=1, max_size=4),
             min_size=1, max_size=4),
    VALUES,
)

BACKENDS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("mv_chain"), "n": SIZES}),
    st.fixed_dictionaries({"kind": st.just("set_algebra"), "omega": SIZES}),
    st.fixed_dictionaries(
        {"kind": st.just("tribe"), "omega": SIZES, "den": SIZES},
        optional={"carrier": st.lists(st.lists(LEAVES, max_size=3), max_size=4)},
    ),
    st.fixed_dictionaries({"kind": st.just("quotient"), "omega": SIZES, "null": VALUES}),
    st.fixed_dictionaries({"kind": st.just("table"), "add": TABLES,
                           "zero": st.integers(-1, 4), "one": st.integers(-1, 4)}),
    st.fixed_dictionaries({"kind": st.one_of(st.text(max_size=8), st.integers())},
                          optional={"n": SIZES, "omega": SIZES}),
    VALUES,
)
OBSERVABLES = st.one_of(
    st.fixed_dictionaries({"points": st.lists(LEAVES, max_size=4),
                           "weights": st.lists(VALUES, max_size=4)}),
    st.fixed_dictionaries({}, optional={"points": VALUES, "weights": VALUES}),
    VALUES,
)

# whole files: a fixture, a drawn JSON document, or text that is no JSON
# document Python can read (truncated, an integer past the parsing limit)
RAW = st.sampled_from(("", "{", "[1, 2", '{"kind": "mv_chain", "n": ' + "9" * 5000 + "}",
                       "NaN", b"\xff\xfe{}"))
BACKEND_FILES = st.one_of(st.sampled_from(BACKEND_FIXTURES).map(_fixture),
                          BACKENDS.map(json.dumps), RAW)
OBSERVABLE_FILES = st.one_of(st.sampled_from(OBSERVABLE_FIXTURES).map(_fixture),
                             OBSERVABLES.map(json.dumps), RAW)

CAP_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(("0", "-3", "1e3", "9" * 5000)))
SUITE_CAPS = st.one_of(st.integers(1, 64).map(str), CAP_TEXT)
BOUND_CAPS = st.one_of(st.integers(1, 10**30).map(str), CAP_TEXT)
TOLS = st.one_of(st.text(max_size=8), st.sampled_from(("atol=1e-9", "atol=x", "bogus=1", "=")))


@st.composite
def commands(draw):
    """(argv template, backend text, observable texts); "{b}" and "{o0}".. name the files."""
    backend = draw(BACKEND_FILES)
    command = draw(st.sampled_from(("cmp", "meet", "join", "neg", "check", "representation")))
    if command == "representation":
        backend = draw(st.sampled_from(("set_algebra_2.json", "quotient_3.json",
                                        "tribe_2_4.json", "mv_chain_4.json")).map(_fixture))
        argv, caps = ["check", "representation", "{b}"], SUITE_CAPS
    elif command == "check":
        argv, caps = ["check", draw(st.sampled_from(EXACT_SUITES)), "{b}"], SUITE_CAPS
    else:
        count = {"cmp": 2, "neg": 1}.get(command) or draw(st.integers(1, 3))
        argv, caps = [command, "{b}", *(f"{{o{i}}}" for i in range(count))], BOUND_CAPS
    observables = [draw(OBSERVABLE_FILES) for _ in argv if _.startswith("{o")]
    if draw(st.booleans()):
        argv += ["--cap", draw(caps)]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--tol", draw(TOLS)]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--seed", draw(st.one_of(st.integers(-1, 2**64).map(str), st.text(max_size=4)))]
    return argv, backend, observables


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz")


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(commands())
def test_cli_answers_or_fails_typed_on_drawn_inputs(workdir, command):
    argv, backend, observables = command
    paths = {"{b}": workdir / "backend.json"}
    paths.update({f"{{o{i}}}": workdir / f"obs{i}.json" for i in range(len(observables))})
    for path, text in zip(paths.values(), (backend, *observables)):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = [str(paths.get(arg, arg)) for arg in argv]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES, (argv, code)
    text = out.getvalue()
    if text:
        json.loads(text)
    assert "Traceback" not in err.getvalue()


# -- spectral commands ------------------------------------------------------

MATRIX_FIXTURES = [
    lit
    for name in ("diag_quarter.json", "effect_a_3x3.json", "effect_b_3x3.json",
                 "proj_p_3x3.json", "proj_q_3x3.json", "hilbert_noncommuting_pair.json")
    for doc in [json.loads(_fixture(name))]
    for lit in ([doc["a"], doc["b"]] if "a" in doc else [doc])
]
SPECTRAL_EXIT_CODES = {0, 1, 2, 3, 4}
ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from((NORM_CAP, -NORM_CAP, NORM_CAP * (1 + 1e-15), 1e77, 1e308, 10**400, 0.5)),
    st.integers(-3, 3),
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)
MUTATIONS = ("entry", "entry", "pair", "drop", "rows", "row", "dim", "im")
TOL_NAMES = (*DEFAULT_TOLERANCES.__dataclass_fields__, "bogus")
TOL_VALUES = ("0", "1e308", "1e-300", "1e-12", "1e-3", "1", "-1", "nan", "inf", "1e309", "x", "")
SPECTRAL_TOLS = st.one_of(
    st.tuples(st.sampled_from(TOL_NAMES), st.sampled_from(TOL_VALUES)).map("=".join),
    st.tuples(st.sampled_from(TOL_NAMES[:-1]), st.sampled_from(("0", "1e308"))).map("=".join),
    st.text(max_size=8),
)


def _effect_literal(seed: int, dim: int, cplx: bool, scale: float) -> dict:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    if cplx:
        g = g + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    m = (q * rng.uniform(0.0, 1.0, size=dim)) @ q.conj().T
    m = (m + m.conj().T) / 2.0 * scale
    lit = {"dim": dim, "re": m.real.tolist()}
    if cplx:
        lit["im"] = m.imag.tolist()
    return lit


@st.composite
def matrix_literals(draw, dim: int):
    """A seeded effect or a fixture; one literal in four gets one mutation."""
    if draw(st.integers(0, 5)) == 5:
        lit = json.loads(json.dumps(draw(st.sampled_from(MATRIX_FIXTURES))))
    else:
        scale = draw(st.sampled_from((1.0, 1.0, 1.5, -1.0, 1e-10, 1 + 1e-10, 1e70)))
        lit = _effect_literal(draw(st.integers(0, 2**32 - 1)), dim, draw(st.booleans()), scale)
    n = lit["dim"]
    field = draw(st.sampled_from(("re", "im"))) if "im" in lit else "re"
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    # hypothesis leans to small integers, so the large one picks the rarer branch
    mutation = draw(st.sampled_from(MUTATIONS)) if draw(st.integers(0, 3)) == 3 else None
    if mutation == "entry":
        lit[field][i][j] = draw(ENTRIES)
    elif mutation == "pair":
        # both mirror entries, so the literal stays Hermitian when the value is a number
        value = draw(ENTRIES)
        lit[field][i][j] = value
        lit[field][j][i] = -value if field == "im" and isinstance(value, float) else value
    elif mutation == "drop":
        del lit[draw(st.sampled_from(("dim", "re")))]
    elif mutation == "rows":
        lit[field] = lit[field][:-1] if draw(st.booleans()) else lit[field] + [lit[field][-1]]
    elif mutation == "row":
        lit[field][i] = lit[field][i][:-1] if draw(st.booleans()) else lit[field][i] + [0.0]
    elif mutation == "dim":
        lit["dim"] = draw(st.one_of(st.integers(-1, 18), st.booleans(), st.none(),
                                    st.floats(), st.text(max_size=2)))
    elif mutation == "im":
        lit["im"] = draw(st.one_of(VALUES, st.just([[0.0] * n] * n), st.just([[0.1] * n] * n)))
    return lit


@st.composite
def spectral_commands(draw):
    """(argv template, matrix texts); "{o0}".. name the files."""
    op = draw(st.sampled_from(("measure", "cmp", "meet", "join")))
    count = {"measure": 1, "cmp": 2}.get(op) or draw(st.integers(1, 3))
    if draw(st.integers(0, 9)) == 9:
        count = draw(st.integers(1, 4))
    dim = draw(st.sampled_from((1, 2, 2, 3, 3, 4, 4, 17)))
    texts = []
    for _ in range(count):
        kind = draw(st.integers(0, 19))
        if kind == 19:
            texts.append(draw(RAW))
        elif kind == 18:
            texts.append(json.dumps(draw(VALUES)))
        else:
            # a member of another dimension now and then
            own = dim if kind < 16 else draw(st.sampled_from((1, 2, 3, 4)))
            texts.append(json.dumps(draw(matrix_literals(own))))
    argv = ["spectral", op, *(f"{{o{i}}}" for i in range(count))]
    for _ in range(draw(st.integers(1, 2)) if draw(st.integers(0, 2)) == 2 else 0):
        argv += ["--tol", draw(SPECTRAL_TOLS)]
    return argv, texts


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(spectral_commands())
def test_spectral_cli_answers_or_fails_typed_on_drawn_matrices(workdir, command):
    argv, texts = command
    paths = {f"{{o{i}}}": workdir / f"mat{i}.json" for i in range(len(texts))}
    for path, text in zip(paths.values(), texts):
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = [str(paths.get(arg, arg)) for arg in argv]

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in SPECTRAL_EXIT_CODES, (argv, code)
    text = out.getvalue()
    if text:
        json.loads(text)
    assert "Traceback" not in err.getvalue()
