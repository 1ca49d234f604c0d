"""Acceptance gate: one test per shipped guarantee.

Each test is a single pass/fail line under pytest -v.  The guarantees
are exercised at full stated scale, so this module is slower than the
unit tests; criterion 07 (the Hilbert backend) takes over a minute on
its own on a 2-CPU machine.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from olsonorder.algebras import FiniteSetAlgebra, MVChain, block_cycle_algebra
from olsonorder.hilbert import (
    DEFAULT_TOLERANCES,
    loewner_leq,
    matrix_from_json,
    spectral_leq,
)
from olsonorder.hilbert_suite import run_hilbert
from olsonorder.kernels import MeasurableFunction, observable_from_function
from olsonorder.lattice import (
    brute_force_join,
    enumerate_grid_observables,
    left_regularize,
    merged_grid,
    olson_join,
    olson_meet,
    right_regularize,
)
from olsonorder.observables import PiecewiseMap, question
from olsonorder.suites import (
    random_monotone_family,
    random_unit_grid,
    run_involution,
    run_lattice_oracle,
    run_order,
    run_representation,
)
from olsonorder import cli

from conftest import fixture_path, load_fixture
from routes import closed_route, open_route

F = Fraction
GRID3 = (F(0), F(1, 2), F(1))


def checks_by_name(report):
    return {c["name"]: c for c in report["checks"]}


def test_criterion_01_question_embedding_exhaustive(mo2):
    for algebra, pairs in ((MVChain(4), 25), (FiniteSetAlgebra(3), 64), (mo2, 36)):
        report = run_order(algebra)
        assert report["passed"], report
        embed = checks_by_name(report)["question_embedding"]
        assert embed["passed"] and embed["count"] == pairs


def test_criterion_02_lattice_matches_brute_force_oracle():
    for algebra, obs in ((FiniteSetAlgebra(2), 9), (MVChain(2), 6)):
        report = run_lattice_oracle(algebra, grid=GRID3)
        assert report["passed"], report
        assert report["mode"] == "grid"
        assert report["enumeration_count"] == obs
        named = checks_by_name(report)
        assert named["meet_matches_oracle"]["count"] == obs * obs
        assert named["join_matches_oracle"]["count"] == obs * obs


def test_criterion_03_open_and_closed_routes_agree():
    for algebra in (FiniteSetAlgebra(2), MVChain(2)):
        family = list(enumerate_grid_observables(algebra, GRID3))
        compared = 0
        for x in family:
            for y in family:
                grid = merged_grid((x, y))
                # meets (lower) take pointwise joins, joins take pointwise meets
                for lower in (True, False):
                    assert open_route((x, y), grid, lower) == closed_route((x, y), grid, lower)
                compared += 1
        assert compared == len(family) ** 2


def test_criterion_04_regularization_contract():
    mv8 = MVChain(8)
    elems = list(mv8.elements())
    rng = random.Random(20240)
    for _ in range(1000):
        grid = random_unit_grid(rng, rng.choice((3, 4, 5)))
        fam = random_monotone_family(mv8, grid, rng, elems=elems)
        left = left_regularize(mv8, fam)
        regrid = tuple((t, left.open_at(t)) for t in grid)
        assert left_regularize(mv8, regrid) == left
        x = left.to_observable()
        closed = tuple((t, x.resolution_closed(t)) for t in grid)
        assert right_regularize(mv8, regrid) == closed
        assert set(x.spectrum) <= set(grid)
        assert x.resolution_open(grid[0]) == mv8.zero
        assert x.resolution_closed(grid[-1]) == mv8.one


def test_criterion_05_involution_suite_and_unsharp_self_meet():
    small = run_involution(MVChain(2))
    assert small["passed"], small
    assert small["exhaustive_pairs"] == 36

    big = run_involution(MVChain(8), seed=0, samples=1000)
    assert big["passed"], big
    assert all(c["passed"] for c in big["checks"])

    # a sharp three-valued observable whose meet with its negation is
    # not the zero question: the infimum lands on min(t, 1-t) instead
    algebra = FiniteSetAlgebra(3)
    x = observable_from_function(algebra, MeasurableFunction((F(0), F(3, 10), F(1))))
    assert x.is_sharp_observable()
    met = olson_meet((x, x.negate()))
    assert met.exists
    assert met.observable != question(algebra, algebra.zero)
    assert met.observable.spectrum == (F(0), F(3, 10))
    assert met.observable == x.apply_map(PiecewiseMap.min_t_one_minus_t())


def test_criterion_06_representation_oracles(tribe24, restricted, quotient3):
    set2 = FiniteSetAlgebra(2)
    set3 = FiniteSetAlgebra(3)
    set4 = FiniteSetAlgebra(4)

    r2 = run_representation(set2)
    assert r2["passed"], r2
    named = checks_by_name(r2)
    assert named["function_round_trip"]["count"] == 49
    assert named["min_max_lattice"]["count"] == 49 * 49

    r3 = run_representation(set3)
    assert r3["passed"], r3
    assert checks_by_name(r3)["function_round_trip"]["count"] == 343

    r4 = run_representation(set4, seed=1)
    assert r4["passed"], r4

    for tribe in (tribe24, restricted):
        rt = run_representation(tribe, seed=2)
        assert rt["passed"], rt
        named = checks_by_name(rt)
        assert named["kernel_round_trip"]["passed"]
        assert named["kernel_order_agreement"]["passed"]

    rq = run_representation(quotient3, seed=3)
    assert rq["passed"], rq
    named = checks_by_name(rq)
    assert named["almost_everywhere_order"]["passed"]
    assert named["pushforward_min_meet"]["passed"]


def test_criterion_07_hilbert_backend_full_scale():
    assert DEFAULT_TOLERANCES.ord == 1e-8
    assert DEFAULT_TOLERANCES.lat == 1e-7
    assert DEFAULT_TOLERANCES.rec == 1e-9
    report = run_hilbert(seed=0)
    assert report["passed"], report
    named = checks_by_name(report)
    assert named["spectral_implies_loewner"]["count"] == 2000
    assert named["projection_order_equivalence"]["count"] == 2000
    assert named["lattice_laws"]["passed"]
    assert named["commuting_diagonal_min_max"]["passed"]
    assert named["reconstruction_residual"]["passed"]
    assert named["greatest_lower_bound_probes"]["count"] == 200000
    assert named["loewner_spectral_gap"]["passed"]

    pair = load_fixture("hilbert_noncommuting_pair.json")
    a = matrix_from_json(pair["a"], DEFAULT_TOLERANCES)
    b = matrix_from_json(pair["b"], DEFAULT_TOLERANCES)
    assert loewner_leq(a, b, DEFAULT_TOLERANCES)
    assert not spectral_leq(a, b, DEFAULT_TOLERANCES)
    assert not spectral_leq(b, a, DEFAULT_TOLERANCES)


def test_criterion_08_nonexistent_meets_match_enumeration():
    cycle = block_cycle_algebra()
    report = run_lattice_oracle(cycle)
    assert report["passed"], report
    assert report["mode"] == "questions"
    named = checks_by_name(report)
    assert named["meet_matches_oracle"]["count"] == 324
    assert named["join_matches_oracle"]["count"] == 324

    def q(name):
        return question(cycle, cycle.element_from_json(cycle.atom_names.index(name)))

    missing = olson_join((q("c"), q("g")))
    assert not missing.exists
    assert missing.certified == "exhaustive"
    assert len(missing.frontier) >= 2
    oracle = brute_force_join((q("c"), q("g")))
    assert not oracle.exists
    assert set(missing.frontier) == set(oracle.frontier)


def test_criterion_09_cli_determinism(capsys):
    mv4 = fixture_path("mv_chain_4.json")
    q14 = fixture_path("mv4_q_quarter.json")
    q34 = fixture_path("mv4_q_three_quarter.json")
    three = fixture_path("mv4_three_point.json")
    set2 = fixture_path("set_algebra_2.json")
    set3 = fixture_path("set_algebra_3.json")
    up = fixture_path("set2_step_up.json")
    down = fixture_path("set2_step_down.json")
    tribe = fixture_path("tribe_2_4.json")
    diag = fixture_path("diag_quarter.json")
    ea = fixture_path("effect_a_3x3.json")
    eb = fixture_path("effect_b_3x3.json")
    pp = fixture_path("proj_p_3x3.json")
    pq = fixture_path("proj_q_3x3.json")

    commands = [
        (["cmp", mv4, q14, q34], 0),
        (["cmp", set2, up, down], 3),
        (["meet", mv4, q14, q34], 0),
        (["join", set2, up, down], 0),
        (["neg", mv4, three], 0),
        (["spectral", "cmp", ea, eb], None),
        (["spectral", "meet", ea, eb], 0),
        (["spectral", "join", pp, pq], 0),
        (["spectral", "measure", diag], 0),
        (["check", "axioms", mv4], 0),
        (["check", "order", set3], 0),
        (["check", "lattice-oracle", set2], 0),
        (["check", "involution", mv4, "--seed", "11", "--cap", "60"], 0),
        (["check", "representation", tribe, "--seed", "3", "--cap", "80"], 0),
        (["check", "hilbert", "--seed", "2", "--cap", "3"], 0),
    ]
    for argv, expected in commands:
        first_code = cli.main(argv)
        first = capsys.readouterr()
        second_code = cli.main(argv)
        second = capsys.readouterr()
        assert first_code == second_code, argv
        assert first.out == second.out and first.err == second.err, argv
        assert first.err == ""
        if expected is None:
            # verdict depends on the fixture pair; the code must track it
            verdict = json.loads(first.out)["verdict"]
            expected = 3 if verdict == "incomparable" else 0
        assert first_code == expected, argv
