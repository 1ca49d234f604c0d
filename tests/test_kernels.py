from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olsonorder.algebras import FiniteSetAlgebra, FiniteTribe
from olsonorder.errors import (
    BackendMismatch,
    DomainMismatch,
    KernelValueOutsideTribe,
    ParseError,
)
from olsonorder.kernels import (
    MarkovKernel,
    MeasurableFunction,
    function_from_observable,
    function_max,
    function_min,
    function_order_oracle,
    kernel_from_observable,
    kernel_leq,
    observable_from_function,
    observable_from_kernel,
    pushforward_function,
    quotient_order_criterion,
)
from olsonorder.lattice import olson_join, olson_leq, olson_meet

F = Fraction

VALUES = (F(0), F(1, 3), F(1, 2), F(1))


def all_functions(omega, values=VALUES):
    return [MeasurableFunction(c) for c in itertools.product(values, repeat=omega)]


def test_function_basics():
    f = MeasurableFunction(("1/2", 0, 1))
    assert f.values == (F(1, 2), F(0), F(1))
    assert f.domain_size == 3
    assert MeasurableFunction.from_json(f.to_json()) == f
    with pytest.raises(ParseError):
        MeasurableFunction((True,))
    with pytest.raises(ParseError):
        MeasurableFunction.from_json({"values": "nope"})


def test_pointwise_oracle_agrees_with_olson_everywhere(set2):
    fs = all_functions(2)
    obs = {f: observable_from_function(set2, f) for f in fs}
    for f, g in itertools.product(fs, repeat=2):
        assert function_order_oracle(f, g) == olson_leq(obs[f], obs[g])


def test_min_max_represent_meet_join(set2):
    fs = all_functions(2)
    obs = {f: observable_from_function(set2, f) for f in fs}
    for f, g in itertools.product(fs, repeat=2):
        meet = olson_meet((obs[f], obs[g]))
        join = olson_join((obs[f], obs[g]))
        assert meet.exists and join.exists
        assert meet.observable == obs[function_min(f, g)]
        assert join.observable == obs[function_max(f, g)]


def test_function_round_trip_is_identity(set3):
    for f in all_functions(3, (F(0), F(1, 2), F(1))):
        x = observable_from_function(set3, f)
        assert function_from_observable(set3, x) == f
        assert x.resolution_closed(F(1)) == set3.one


def test_level_sets_partition(set3):
    f = MeasurableFunction((F(0), F(1, 2), F(0)))
    x = observable_from_function(set3, f)
    assert x.spectrum == (F(0), F(1, 2))
    assert x.algebra.points(x.weights[0]) == (0, 2)
    assert x.algebra.points(x.weights[1]) == (1,)


def test_function_backend_checks(mv4, set2):
    with pytest.raises(BackendMismatch):
        observable_from_function(mv4, MeasurableFunction((F(0),)))
    with pytest.raises(DomainMismatch):
        observable_from_function(set2, MeasurableFunction((F(0),)))
    with pytest.raises(DomainMismatch):
        function_min(MeasurableFunction((F(0),)), MeasurableFunction((F(0), F(1))))


def test_kernel_canonical_form():
    k = MarkovKernel(((( F(1, 2), F(1, 4)), (F(1, 4), F(3, 4)), (F(3, 4), F(0))),))
    row = k.rows[0]
    # zero masses drop and the support sorts; pairs are (point, mass)
    assert row == ((F(1, 4), F(3, 4)), (F(1, 2), F(1, 4)))
    assert MarkovKernel.from_json(k.to_json()) == k
    with pytest.raises(ParseError):
        MarkovKernel((((F(1, 2), F(1, 4)),),))
    with pytest.raises(ParseError):
        MarkovKernel((((F(0), F(1, 2)), (F(0), F(1, 2))),))


def test_kernel_round_trip(tribe24):
    grid = (F(0), F(1, 2), F(1))
    from olsonorder.lattice import enumerate_grid_observables

    for x in enumerate_grid_observables(tribe24, grid, cap=10_000):
        k = kernel_from_observable(tribe24, x)
        assert observable_from_kernel(tribe24, k) == x
        assert kernel_from_observable(tribe24, observable_from_kernel(tribe24, k)) == k


def test_kernel_order_matches_olson(tribe24):
    from olsonorder.lattice import enumerate_grid_observables

    obs = list(enumerate_grid_observables(tribe24, (F(0), F(1), F(2)), cap=10_000))
    kernels = [kernel_from_observable(tribe24, x) for x in obs]
    import random

    rng = random.Random(0)
    n = len(obs)
    for _ in range(400):
        i, j = rng.randrange(n), rng.randrange(n)
        assert kernel_leq(kernels[i], kernels[j]) == olson_leq(obs[i], obs[j])


def test_restricted_tribe_rejects_foreign_kernel(restricted, tribe24):
    # a kernel legal over the full tribe can place columns outside the
    # restricted carrier
    x = observable_from_kernel(
        tribe24,
        MarkovKernel((
            ((F(0), F(3, 4)), (F(1), F(1, 4))),
            ((F(0), F(1, 2)), (F(1), F(1, 2))),
        )),
    )
    k = kernel_from_observable(tribe24, x)
    with pytest.raises(KernelValueOutsideTribe):
        observable_from_kernel(restricted, k)


def test_restricted_tribe_answers_kernels_of_many_support_points():
    # every column is a carrier element, so every subset sum of the columns
    # is one too: no support size is refused
    chain = FiniteTribe(1, 20, carrier=[(F(k, 20),) for k in range(21)])
    kernel = MarkovKernel([[(F(i), F(1, 20)) for i in range(20)]])
    x = observable_from_kernel(chain, kernel)
    assert x.points == tuple(F(i) for i in range(20))
    assert kernel_from_observable(chain, x) == kernel


def test_pushforward_and_quotient_criterion(quotient3):
    f = MeasurableFunction((F(0), F(1, 2), F(1)))
    g = MeasurableFunction((F(0), F(1, 2), F(0)))
    # f and g differ only at the null point, so both directions hold
    assert quotient_order_criterion(quotient3, f, g)
    assert quotient_order_criterion(quotient3, g, f)
    assert pushforward_function(quotient3, f) == pushforward_function(quotient3, g)
    h = MeasurableFunction((F(1, 2), F(0), F(1)))
    assert not quotient_order_criterion(quotient3, f, h)
    assert not olson_leq(
        pushforward_function(quotient3, f), pushforward_function(quotient3, h)
    )


def test_pushforward_of_min_is_meet(quotient3):
    fs = all_functions(3, (F(0), F(1, 2), F(1)))
    import random

    rng = random.Random(5)
    for _ in range(200):
        f, g = rng.choice(fs), rng.choice(fs)
        meet = olson_meet((
            pushforward_function(quotient3, f),
            pushforward_function(quotient3, g),
        ))
        assert meet.exists
        assert meet.observable == pushforward_function(quotient3, function_min(f, g))


def test_contract_errors_carry_their_messages(mv4, set2, tribe24, quotient3):
    one, two = MeasurableFunction((F(0),)), MeasurableFunction((F(0), F(1)))
    three = MeasurableFunction((F(0), F(1, 2), F(1)))
    kernel = MarkovKernel((((F(0), F(1)),),))
    foreign_set = observable_from_function(FiniteSetAlgebra(2), two)
    foreign_tribe = observable_from_kernel(FiniteTribe(2, 4), MarkovKernel([[(F(0), F(1))]] * 2))
    needs_set = "function representation needs a set-algebra backend"
    needs_tribe = "kernel representation needs a tribe backend"
    foreign = "observable lives on a different backend"
    cases = [
        (lambda: function_from_observable(mv4, foreign_set), BackendMismatch, needs_set),
        (lambda: function_from_observable(set2, foreign_set), BackendMismatch, foreign),
        (lambda: kernel_from_observable(set2, foreign_set), BackendMismatch, needs_tribe),
        (lambda: kernel_from_observable(tribe24, foreign_tribe), BackendMismatch, foreign),
        (lambda: observable_from_kernel(set2, kernel), BackendMismatch, needs_tribe),
        (lambda: observable_from_kernel(tribe24, kernel), DomainMismatch,
         "kernel has 1 rows, ground set has 2"),
        (lambda: kernel_leq(kernel, MarkovKernel([[(F(0), F(1))]] * 2)), DomainMismatch,
         "kernels live on ground sets of size 1 and 2"),
        (lambda: pushforward_function(set2, two), BackendMismatch,
         "pushforward needs a quotient backend"),
        (lambda: pushforward_function(quotient3, two), DomainMismatch,
         "function has 2 values, ground set has 3"),
        (lambda: quotient_order_criterion(set2, two, two), BackendMismatch,
         "quotient criterion needs a quotient backend"),
        (lambda: quotient_order_criterion(quotient3, one, three), DomainMismatch,
         "functions live on ground sets of size 1 and 3"),
        (lambda: quotient_order_criterion(quotient3, two, two), DomainMismatch,
         "functions have 2 values, ground set has 3"),
        (lambda: MeasurableFunction([]), ParseError, "function needs at least one value"),
        (lambda: MarkovKernel([[(F(0), F(3, 2)), (F(1), F(-1, 2))]]), ParseError,
         "negative kernel mass -1/2 at support 1"),
        (lambda: MarkovKernel([]), ParseError, "kernel needs at least one row"),
        (lambda: MarkovKernel.from_json([{"support": ["0"], "mass": ["1"]}]), ParseError,
         "kernel literal needs a 'rows' array, got [{'support': ['0'], 'mass': ['1']}]"),
        (lambda: MarkovKernel.from_json({"rows": [{"support": ["0", "1"], "mass": ["1"]}]}),
         ParseError,
         "kernel row needs paired 'support' and 'mass' arrays, "
         "got {'support': ['0', '1'], 'mass': ['1']}"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message
