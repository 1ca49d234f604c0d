"""The trusted constructor against the validating one.

Observables the library computes itself (the closed route, the brute
force answer and frontier, grid enumeration and negation) are built by
SimpleObservable._from_cums without re-validation.  Each one must equal,
field by field, what the validating SimpleObservable(algebra, points,
weights) builds from its points and weights, and negation must equal the
image under the map t -> 1 - t, which stays the reference.
"""

from __future__ import annotations

import random
from fractions import Fraction

from olsonorder.errors import CertificationTooLarge
from olsonorder.lattice import (
    _brute_force,
    _closed_route,
    enumerate_grid_observables,
    merged_grid,
)
from olsonorder.observables import PiecewiseMap, SimpleObservable, from_closed_values
from olsonorder.serialize import algebra_from_json
from olsonorder.suites import random_grid_observable, random_unit_grid

from conftest import load_fixture
from test_golden import BACKENDS, CAP, _draw

F = Fraction
# enumerations stay small: every grid observable of up to three points
ENUM_CAP = 300


def _fields(x: SimpleObservable) -> tuple:
    return (x.points, x.weights, x._cums)


def _assert_valid(x: SimpleObservable) -> None:
    ref = SimpleObservable(x.algebra, x.points, x.weights)
    assert _fields(x) == _fields(ref)
    assert all(type(t) is Fraction for t in x.points)


def _negation_matches_reference(x: SimpleObservable) -> None:
    if x.points[0] < 0 or x.points[-1] > 1:
        return
    got = x.negate()
    _assert_valid(got)
    assert _fields(got) == _fields(x.apply_map(PiecewiseMap.one_minus_t()))


def _check_family(xs) -> int:
    """Checks every trusted build on one family; returns the count checked."""
    built = []
    grid = merged_grid(xs)
    for lower in (True, False):
        bound = _closed_route(xs, grid, lower)
        if bound is not None:
            built.append(bound)
        try:
            result = _brute_force(xs, CAP, lower)
        except CertificationTooLarge:
            continue
        built.extend(result.frontier)
        if result.exists:
            built.append(result.observable)
    for x in (*xs, *built):
        _assert_valid(x)
        _negation_matches_reference(x)
    return len(built)


def test_trusted_builds_match_validation_on_golden_backends():
    checked = 0
    for seed, (name, count, questions) in enumerate(BACKENDS):
        alg = algebra_from_json(load_fixture(name + ".json"))
        elems = list(alg.elements())
        rng = random.Random(7700 + seed)
        for _ in range(count):
            family = tuple(_draw(alg, elems, rng, questions) for _ in range(rng.choice((2, 3))))
            checked += _check_family(family)
        for grid in ((F(0),), (F(0), F(1)), (F(-1), F(1, 2), F(2))):
            try:
                enumerated = list(enumerate_grid_observables(alg, grid, cap=ENUM_CAP))
            except CertificationTooLarge:
                continue
            assert len(set(enumerated)) == len(enumerated)
            for x in enumerated:
                _assert_valid(x)
                _negation_matches_reference(x)
            checked += len(enumerated)
    assert checked > 1000


def test_trusted_builds_match_validation_on_seeded_families():
    rng = random.Random(31)
    for name, _, _ in BACKENDS:
        alg = algebra_from_json(load_fixture(name + ".json"))
        elems = list(alg.elements())
        for _ in range(30):
            family = tuple(
                random_grid_observable(alg, random_unit_grid(rng, rng.randint(1, 5)), rng, elems)
                for _ in range(rng.choice((1, 2, 3)))
            )
            _check_family(family)


def test_public_chain_constructor_matches_trusted_packing(mv4):
    q, h = mv4.element(F(1, 4)), mv4.element(F(1, 2))
    # repeated values and a trailing run of ones drop out
    x = from_closed_values(mv4, ((F(0), q), (F(1, 3), q), (F(1, 2), h), (F(1), mv4.one), (F(2), mv4.one)))
    _assert_valid(x)
    assert x.points == (F(0), F(1, 2), F(1))
    assert x._cums == (mv4.zero, q, h, mv4.one)
