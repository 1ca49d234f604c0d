"""Seeded inputs, the timed call and the answer check of each workload.

Inputs are drawn from the seed alone, on benchmark-side models of the
carriers (integers, bitmasks, index tables), so the same seed gives the
same inputs on every commit whatever the library does internally.  Each
op goes through four steps; only `call` is timed:

    draw        -> an op spec of plain data
    materialize -> the library objects the call receives
    call        -> the public olsonorder call (or one CLI process)
    check       -> the answer against an oracle that does not share the
                   code path under test

Library functions are looked up on their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import reduce

import numpy as np

import backends
import olsonorder.cli as C
import olsonorder.hilbert as H
import olsonorder.kernels as K
import olsonorder.lattice as L
import olsonorder.serialize as S
from olsonorder.errors import CertificationTooLarge
from olsonorder.observables import from_closed_values, question


# -- benchmark-side carrier models --------------------------------------------


class Carrier:
    """Payloads, order, difference and JSON literal of one finite carrier."""

    def __init__(self, elems, leq, diff, literal, zero, one):
        self.elems = list(elems)
        self.leq = leq
        self.diff = diff
        self.literal = literal
        self.zero = zero
        self.one = one
        self.ups = {a: [b for b in self.elems if leq(a, b)] for a in self.elems}


def _mask_points(mask: int) -> list[int]:
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def _bits(omega: int, null: int = 0) -> Carrier:
    masks = [m for m in range(1 << omega) if not m & null]
    return Carrier(masks, lambda a, b: a & b == a, lambda b, a: b & ~a, _mask_points,
                   0, ((1 << omega) - 1) & ~null)


def _table(describe: dict) -> Carrier:
    add = describe["add"]
    m = len(add)
    ups = [{i} | {v for v in row if v is not None} for i, row in enumerate(add)]

    def diff(b, a):
        return next(c for c in range(m) if add[a][c] == b)

    return Carrier(range(m), lambda a, b: b in ups[a], diff, lambda a: a,
                   describe["zero"], describe["one"])


CARRIERS = {
    "mv_chain": Carrier(range(9), lambda a, b: a <= b, lambda b, a: b - a,
                        lambda k: str(Fraction(k, 8)), 0, 8),
    "set_algebra": _bits(4),
    "tribe": Carrier(
        [(a, b) for a in range(5) for b in range(5)],
        lambda f, g: f[0] <= g[0] and f[1] <= g[1],
        lambda g, f: (g[0] - f[0], g[1] - f[1]),
        lambda f: [str(Fraction(v, 4)) for v in f], (0, 0), (4, 4)),
    "quotient": _bits(4, null=1 << 3),
}


# An observable spec is (grid, chain): the closed resolution takes the value
# chain[i] at grid[i], and chain[-1] is the carrier's one.


def unit_grid(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    den = rng.choice((8, 12, 16))
    return tuple(Fraction(k, den) for k in sorted(rng.sample(range(den + 1), size)))


def draw_chain(rng: random.Random, car: Carrier, grid) -> tuple:
    cur, chain = car.zero, []
    for _ in range(len(grid) - 1):
        cur = rng.choice(car.ups[cur])
        chain.append(cur)
    return (grid, (*chain, car.one))


def spec_points(car: Carrier, spec) -> list[Fraction]:
    """Spectrum of the observable: grid points where the chain moves."""
    grid, chain = spec
    prev, out = car.zero, []
    for t, c in zip(grid, chain):
        if c != prev:
            out.append(t)
        prev = c
    return out


def spec_literal(car: Carrier, spec) -> dict:
    """The observable's JSON literal, as the CLI and `serialize` read it."""
    grid, chain = spec
    prev, points, weights = car.zero, [], []
    for t, c in zip(grid, chain):
        if c != prev:
            points.append(str(t))
            weights.append(car.literal(car.diff(c, prev)))
        prev = c
    return {"points": points, "weights": weights}


def _open_at(car: Carrier, spec, t):
    grid, chain = spec
    val = car.zero
    for g, c in zip(grid, chain):
        if g >= t:
            break
        val = c
    return val


def model_leq(car: Carrier, x, y) -> bool:
    """Defining inequality y((-inf,t)) <= x((-inf,t)) on the carrier model.

    Open resolutions are left-continuous steps, so the merged grid plus one
    point above it are the only thresholds to test.
    """
    grid = sorted(set(x[0]) | set(y[0]))
    return all(car.leq(_open_at(car, y, t), _open_at(car, x, t)) for t in (*grid, grid[-1] + 1))


def model_verdict(car: Carrier, x, y) -> str:
    fwd, bwd = model_leq(car, x, y), model_leq(car, y, x)
    return ("equal" if fwd and bwd else "less_or_equal" if fwd
            else "greater_or_equal" if bwd else "incomparable")


def materialize_spec(alg, car: Carrier, spec):
    grid, chain = spec
    return from_closed_values(
        alg, [(t, alg.element_from_json(car.literal(c))) for t, c in zip(grid, chain)]
    )


def _merged_points(car: Carrier, family) -> int:
    return len({t for spec in family for t in spec_points(car, spec)})


def answer_bytes(result) -> bytes:
    """Canonical serialization of one answer, for byte-identity checks."""
    if isinstance(result, tuple):  # a CLI request: exit code and stdout
        return b"%d\n" % result[0] + result[1]
    if isinstance(result, L.BoundResult):
        obj = S.bound_to_json(result)
    elif isinstance(result, L.OlsonComparison):
        obj = S.comparison_to_json(result)
    elif isinstance(result, H.HermitianOperator):
        obj = H.matrix_to_json(result)
    elif isinstance(result, H.SpectralMeasure):
        obj = {"grid": result.grid.tolist(),
               "cumulative": [H.matrix_to_json(p) for p in result.cumulative]}
    elif hasattr(result, "points"):
        obj = S.observable_to_json(result)
    else:
        obj = result
    return json.dumps(obj, sort_keys=True).encode()


# -- workloads ------------------------------------------------------------------

REPEAT_WINDOW = 4096


class Workload:
    """Shared bookkeeping; subclasses define draw/materialize/call/check."""

    def __init__(self, seed: int, built: dict) -> None:
        self.rng = random.Random(seed)
        self.built = built
        self.props: dict[str, Counter] = {}
        self.cells: list[tuple] = []
        self._cycle: list[tuple] = []

    def next_cell(self) -> tuple:
        """Next cell of the op mix.

        Every cycle visits each cell once in a seeded order, so the mix is
        the same on every seed and only the inputs inside a cell vary.
        """
        if not self._cycle:
            self._cycle = list(self.cells)
            self.rng.shuffle(self._cycle)
        return self._cycle.pop()

    def note(self, prop: str, key) -> None:
        self.props.setdefault(prop, Counter())[str(key)] += 1

    def label(self, op) -> str:
        """Op kind and input class, for the per-kind latency breakdown."""
        return f"{op[0]} {op[1]}"

    def input_properties(self) -> dict:
        return {name: dict(sorted(c.items())) for name, c in sorted(self.props.items())}


class ExactWorkload(Workload):
    """Families of observables on finite backends; ops take a family."""

    def __init__(self, seed, built):
        super().__init__(seed, built)
        self.carriers = {name: (CARRIERS.get(name) or _table(alg.describe()))
                         for name, alg in built.items()}
        # hashes of the families of the first REPEAT_WINDOW draws; bounded, so
        # the benchmark's own heap does not grow with the library's speed
        self.seen: set[int] = set()
        self.draws = 0

    def draw_family(self, car: Carrier, shape: tuple) -> tuple:
        raise NotImplementedError

    def draw(self):
        kind, name, *shape = self.next_cell()
        car = self.carriers[name]
        family = self.draw_family(car, shape)
        self.draws += 1
        if self.draws <= REPEAT_WINDOW:
            key = hash((name, family))
            self.note("repeated_family", key in self.seen)
            self.seen.add(key)
        self.note("family_size", len(family))
        self.note("merged_grid_points", _merged_points(car, family))
        return kind, name, family

    def materialize(self, op):
        kind, name, family = op
        alg, car = self.built[name], self.carriers[name]
        return [materialize_spec(alg, car, spec) for spec in family]

    def call(self, op, xs):
        kind = op[0]
        if kind == "olson_meet":
            return L.olson_meet(xs)
        if kind == "olson_join":
            return L.olson_join(xs)
        if kind == "brute_force_meet":
            return L.brute_force_meet(xs)
        if kind == "brute_force_join":
            return L.brute_force_join(xs)
        if kind == "compare":
            return L.compare(xs[0], xs[1])
        if kind == "olson_leq":
            return L.olson_leq(xs[0], xs[1])
        return xs[0].negate()

    def record(self, op, result) -> None:
        if isinstance(result, L.BoundResult):
            self.note("certified", result.certified)

    def check_compare(self, op, xs, result) -> bool:
        _, name, (x, y) = op
        car = self.carriers[name]
        want = model_verdict(car, x, y)
        grid = {t for spec in (x, y) for t in spec_points(car, spec)}
        witness_ok = (result.witness_t is None) if want == "equal" else result.witness_t in grid
        return result.verdict == want and witness_ok


class ExactLattice(ExactWorkload):
    """Lattice backends; every meet and join certifies elementwise."""

    # (kind, family size): the five kinds weigh the same, families of 2 and 3
    # split the meets and joins
    mix = (("compare", 2), ("compare", 2), ("olson_leq", 2), ("olson_leq", 2),
           ("negate", 1), ("negate", 1), ("olson_meet", 2), ("olson_meet", 3),
           ("olson_join", 2), ("olson_join", 3))

    def __init__(self, seed, built):
        super().__init__(seed, built)
        self.cells = [(kind, name, size) for name in sorted(built) for kind, size in self.mix]

    def draw_family(self, car, shape):
        (size,) = shape
        return tuple(draw_chain(self.rng, car, unit_grid(self.rng, 5)) for _ in range(size))

    def check(self, op, xs, result) -> bool:
        kind, name, family = op
        if kind == "compare":
            return self.check_compare(op, xs, result)
        if name == "mv_chain":
            return self._check_mv_chain(op, xs, result)
        alg, car = self.built[name], self.carriers[name]
        if name == "tribe":
            return self._check_tribe(kind, alg, xs, result)
        if name == "set_algebra":
            fs = [K.function_from_observable(alg, x) for x in xs]
            to_obs = lambda f: K.observable_from_function(alg, f)  # noqa: E731
            leq = K.function_order_oracle
        else:
            fs = [K.MeasurableFunction(_level_values(car, spec)) for spec in family]
            if any(K.pushforward_function(alg, f) != x for f, x in zip(fs, xs)):
                return False
            to_obs = lambda f: K.pushforward_function(alg, f)  # noqa: E731
            leq = lambda f, g: K.quotient_order_criterion(alg, f, g)  # noqa: E731
        if kind == "olson_leq":
            return result == leq(fs[0], fs[1])
        if kind == "negate":
            return result == to_obs(K.MeasurableFunction([1 - v for v in fs[0].values]))
        pick = K.function_min if kind == "olson_meet" else K.function_max
        return (result.exists and result.certified == "elementwise"
                and result.observable == to_obs(reduce(pick, fs)))

    def _check_tribe(self, kind, tribe, xs, result) -> bool:
        ks = [K.kernel_from_observable(tribe, x) for x in xs]
        if kind == "olson_leq":
            return result == K.kernel_leq(ks[0], ks[1])
        if kind == "negate":
            rows = [[(1 - s, m) for s, m in row] for row in ks[0].rows]
            return K.kernel_from_observable(tribe, result) == K.MarkovKernel(rows)
        if not (result.exists and result.certified == "elementwise"):
            return False
        # the meet's cdf is the pointwise max of the family's cdfs (join: min)
        got = K.kernel_from_observable(tribe, result.observable)
        pick = max if kind == "olson_meet" else min
        cuts = sorted({s for k in (*ks, got) for s in k.support_union()})
        return all(
            got.cdf_below(w, t) == pick(k.cdf_below(w, t) for k in ks)
            for w in range(tribe.omega) for t in (*cuts, cuts[-1] + 1)
        )

    def _check_mv_chain(self, op, xs, result) -> bool:
        kind, name, family = op
        car = self.carriers[name]
        if kind == "olson_leq":
            return result == model_leq(car, family[0], family[1])
        if kind == "negate":
            pts = [1 - t for t in reversed(spec_points(car, family[0]))]
            return list(result.points) == pts and result.negate() == xs[0]
        if not (result.exists and result.certified == "elementwise"):
            return False
        # defining property: a meet lies below every member; de Morgan dual
        bound = result.observable
        meet = kind == "olson_meet"
        below = all(L.olson_leq(bound, x) if meet else L.olson_leq(x, bound) for x in xs)
        dual = (L.olson_join if meet else L.olson_meet)([x.negate() for x in xs])
        return below and dual.exists and dual.observable == bound.negate()


def _level_values(car: Carrier, spec) -> list[Fraction]:
    """A function whose level-set observable is spec; null points get grid[0]."""
    grid, chain = spec
    out = [grid[0]] * 4
    for w in range(4):
        for t, c in zip(grid, chain):
            if c >> w & 1:
                out[w] = t
                break
    return out


class ExactCertify(ExactWorkload):
    """Non-lattice tables: carrier scans, enumeration and brute force."""

    kinds = ("olson_meet", "olson_join", "compare", "brute_force_meet", "brute_force_join")
    # (family type, size) per kind: the olson ops take question families and
    # grid pairs alike; brute force takes grid pairs, where enumeration is real
    shapes = {"compare": (("question", 2), ("question", 2), ("grid", 2), ("grid", 2)),
              "brute_force_meet": (("grid", 2),) * 4,
              "brute_force_join": (("grid", 2),) * 4}
    default_shapes = (("question", 2), ("question", 3), ("grid", 2), ("grid", 2))

    def __init__(self, seed, built):
        super().__init__(seed, built)
        self.oracle: dict = {}
        self.cells = [(kind, name, *shape) for name in sorted(built) for kind in self.kinds
                      for shape in self.shapes.get(kind, self.default_shapes)]

    def draw_family(self, car, shape):
        rng = self.rng
        family_type, size = shape
        if family_type == "question":
            # question observables of a in a carrier of at most 18 elements,
            # so pairs repeat: closed values a' at 0 and 1 at 1
            return tuple(((Fraction(0), Fraction(1)), (car.diff(car.one, a), car.one))
                         for a in (rng.choice(car.elems) for _ in range(size)))
        return tuple(draw_chain(rng, car, unit_grid(rng, rng.choice((3, 4))))
                     for _ in range(size))

    def materialize(self, op):
        kind, name, family = op
        alg, car = self.built[name], self.carriers[name]
        if len(family[0][0]) == 2:  # only question families have 2-point grids
            return [question(alg, alg.element_from_json(car.diff(car.one, spec[1][0])))
                    for spec in family]
        return [materialize_spec(alg, car, spec) for spec in family]

    def check(self, op, xs, result) -> bool:
        kind, name, family = op
        if kind == "compare":
            return self.check_compare(op, xs, result)
        meet = kind.endswith("meet")
        # olson_* against brute_force_* and back; question families repeat,
        # so their reference answers are memoized
        key = (name, kind, family)
        want = self.oracle.get(key, False)
        if want is False:
            if kind.startswith("olson"):
                other = L.brute_force_meet if meet else L.brute_force_join
            else:
                other = L.olson_meet if meet else L.olson_join
            try:
                want = answer_bytes(other(xs))
            except CertificationTooLarge:
                want = None
            if len(family[0][0]) == 2:
                self.oracle[key] = want
        self.note("oracle", "refused" if want is None else "checked")
        if want is None:
            return True
        got = json.loads(answer_bytes(result))
        ref = json.loads(want)
        # the certification route differs by construction; the bound must not
        return {**got, "certified": None} == {**ref, "certified": None}


# -- hilbert --------------------------------------------------------------------


def random_effect(rng: np.random.Generator, d: int):
    g = rng.standard_normal((d, d))
    if rng.uniform() < 0.5:
        g = g + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(0.0, 1.0, size=d)
    return q, lam


def effect_matrix(q, lam) -> np.ndarray:
    m = (q * lam) @ q.conj().T
    return (m + m.conj().T) / 2.0


def monotone_image(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Nondecreasing images g(t) <= t, so g(A) lies spectrally below A."""
    order = np.argsort(lam)
    s = lam[order]
    img = np.minimum(s, np.maximum.accumulate(s * rng.uniform(size=len(s))))
    out = np.empty_like(lam)
    out[order] = img
    return out


class Hilbert(Workload):
    """The float stack: random effects at d in {2, 3, 4, 8}."""

    # (kind, family size, first member a monotone image of the second)
    mix = (("cmp", 2, True), ("cmp", 2, False), ("cmp", 2, True), ("cmp", 2, False),
           ("meet", 2, True), ("meet", 2, False), ("meet", 3, True), ("meet", 3, False),
           ("join", 2, True), ("join", 2, False), ("join", 3, True), ("join", 3, False),
           ("measure", 1, False), ("measure", 1, False), ("measure", 1, False),
           ("measure", 1, False))
    dims = (2, 3, 4, 8)

    def __init__(self, seed, built):
        super().__init__(seed, built)
        self.np_rng = np.random.default_rng(seed)
        self.tol = H.DEFAULT_TOLERANCES
        self.max_residual_ratio = 0.0
        self.cells = [(kind, d, size, monotone) for d in self.dims
                      for kind, size, monotone in self.mix]

    def draw(self):
        rng = self.np_rng
        kind, d, size, monotone = self.next_cell()
        qb, lb = random_effect(rng, d)
        b = effect_matrix(qb, lb)
        if kind == "measure":
            mats = (b,)
        else:
            # half of the pairs: a monotone image of the partner, so comparable
            a = effect_matrix(qb, monotone_image(rng, lb)) if monotone else effect_matrix(*random_effect(rng, d))
            mats = (a, b) if size == 2 else (a, b, effect_matrix(*random_effect(rng, d)))
            self.note("monotone_pair", monotone)
        self.note("dim", d)
        self.note("family_size", len(mats))
        return kind, d, mats

    def materialize(self, op):
        return op[2]

    def call(self, op, mats):
        kind = op[0]
        if kind == "cmp":
            a, b = mats
            return [H.spectral_leq(a, b), H.spectral_leq(b, a), H.loewner_leq(a, b)]
        if kind == "meet":
            return H.spectral_meet(mats)
        if kind == "join":
            return H.spectral_join(mats)
        return H.spectral_measure(mats[0])

    def record(self, op, result) -> None:
        if op[0] == "cmp":
            self.note("cmp_verdict", "comparable" if result[0] or result[1] else "incomparable")

    def residual_ratio(self, measure, matrix) -> float:
        res = np.linalg.norm(measure.reconstruct() - matrix) / max(1.0, np.linalg.norm(matrix))
        ratio = float(res) / self.tol.rec
        self.max_residual_ratio = max(self.max_residual_ratio, ratio)
        return ratio

    def check(self, op, mats, result) -> bool:
        kind = op[0]
        if kind == "cmp":
            fwd, bwd, loewner = result
            # spectral <= implies Loewner <=
            return not fwd or loewner
        if kind == "measure":
            return self.residual_ratio(result, mats[0]) <= 1.0
        got = result.matrix
        if kind == "meet":
            ordered = all(H.spectral_leq(got, m) for m in mats)
        else:
            ordered = all(H.spectral_leq(m, got) for m in mats)
        return ordered and self.residual_ratio(H.spectral_measure(got), got) <= 1.0


# -- cli ------------------------------------------------------------------------


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[int, bytes, int]:
    """Run one process to completion: exit code, stdout and peak RSS in KiB."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class Cli(Workload):
    """Each request is a fresh `python -m olsonorder.cli` process."""

    exact = ("cmp", "meet", "join", "neg")
    spectral = ("cmp", "meet", "measure")
    pool_size = 400

    def __init__(self, seed, built, workdir: str, src: str):
        super().__init__(seed, built)
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": src}
        self.peak_rss_kb = 0
        self.max_residual_ratio = 0.0
        self.np_rng = np.random.default_rng(seed)
        self.cells = [("exact", k) for k in self.exact] + [("spectral", k) for k in self.spectral]
        self.pool = [self._draw_request(i) for i in range(self.pool_size)]
        self.next = 0

    def _write(self, name: str, obj) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def _draw_request(self, i: int) -> list[str]:
        rng = self.rng
        family, kind = self.next_cell()
        self.note("request", f"{family} {kind}")
        if family == "spectral":
            d = rng.choice((2, 3, 4))
            self.note("dim", d)
            count = 1 if kind == "measure" else 2
            paths = []
            for j in range(count):
                m = effect_matrix(*random_effect(self.np_rng, d))
                lit = {"dim": d, "re": m.real.tolist()}
                if np.iscomplexobj(m):
                    lit["im"] = m.imag.tolist()
                paths.append(self._write(f"r{i}_m{j}.json", lit))
            return ["spectral", kind, *paths]
        name = rng.choice(sorted(CARRIERS))
        car = CARRIERS[name]
        self.note("backend", name)
        count = 1 if kind == "neg" else 2 if kind == "cmp" else rng.choice((2, 3))
        backend = self._write(f"{name}.json", backends.LATTICE[name])
        paths = [self._write(f"r{i}_x{j}.json",
                             spec_literal(car, draw_chain(rng, car, unit_grid(rng, 5))))
                 for j in range(count)]
        return [kind, backend, *paths]

    def label(self, argv) -> str:
        return " ".join(argv[:2]) if argv[0] == "spectral" else argv[0]

    def draw(self):
        argv = self.pool[self.next % len(self.pool)]
        self.next += 1
        return argv

    def materialize(self, argv):
        return argv

    def call(self, argv, _):
        code, out, rss = run_child([sys.executable, "-m", "olsonorder.cli", *argv],
                                   self.env, timeout=60.0)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return code, out

    def call_in_process(self, argv, _=None) -> tuple[int, bytes]:
        """The same request through `cli.main` in this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = C.main(list(argv))
        return code, buf.getvalue().encode()

    def record(self, argv, result) -> None:
        self.note("exit_code", result[0])
        if argv[:2] == ["spectral", "meet"] and result[0] == 0:
            residual = json.loads(result[1])["max_residual"]
            self.max_residual_ratio = max(self.max_residual_ratio, residual / H.DEFAULT_TOLERANCES.rec)

    def check(self, argv, _, result) -> bool:
        return result[0] in (0, 3) and result == self.call_in_process(argv)


WORKLOADS = {
    "exact-lattice": ExactLattice,
    "exact-certify": ExactCertify,
    "hilbert": Hilbert,
    "cli": Cli,
}
