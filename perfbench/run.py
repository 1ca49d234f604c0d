"""Benchmark runner for olsonorder.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
`src/` directory.  NAME is one of exact-lattice, exact-certify, hilbert,
cli, or `all`, which runs each workload in a fresh process and prints every
metric by name and unit.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the details (sample counts, input properties, refusals, p99).

--trace 0 times ops for S seconds in a closed loop from one client and
reports the end-to-end metrics.  --trace 1 replays one fixed, seeded list
of ops alternately without and with the layer tracer until S seconds are
used, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("exact-lattice", "exact-certify", "hilbert", "cli")

SETUP_REPS = 12
IMPORT_REPS = 5
MIN_SAMPLES = 100  # the p90 needs ten samples beyond it
HARD_LIMIT_S = 150.0
# ops in one traced pass, sized so a pass takes about a second untraced
TRACE_OPS = {"exact-lattice": 1500, "exact-certify": 300, "hilbert": 400, "cli": 150}

SETUP_CODE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; t0 = time.perf_counter(); "
    "import backends; backends.build(sys.argv[3]); print(time.perf_counter() - t0)"
)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: p90 of 100 samples leaves ten above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def ms(seconds: float) -> float | str:
    """Milliseconds for the details line, where a missed limit reads "inf"."""
    return seconds * 1e3 if math.isfinite(seconds) else "inf"


def by_kind(latencies, kind_of, labels) -> dict:
    """Sample count, p50 and p90 of each op kind, in ms."""
    out = {}
    for label, k in sorted(labels.items()):
        vals = [v for v, i in zip(latencies, kind_of) if i == k]
        out[label] = {"n": len(vals), "p50_ms": ms(percentile(vals, 50)),
                      "p90_ms": ms(percentile(vals, 90))}
    return out


def setup_probe(workload: str) -> float:
    """Set-up seconds of one fresh interpreter."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), workload]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def import_profile() -> tuple[float, float]:
    """Median import time of olsonorder.cli (ms) and numpy's share of it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    totals, shares = [], []
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import olsonorder.cli"],
                              capture_output=True, text=True, env=env, timeout=60, check=True)
        total = numpy = 0
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, name = int(parts[1]), parts[2]
            if name.strip() == "numpy":
                numpy = cumulative
            elif name.startswith(" olsonorder"):  # top level: one space, no nesting
                total += cumulative
        totals.append(total / 1e3)
        shares.append(numpy / total if total else 0.0)
    return statistics.median(totals), statistics.median(shares)


def make_workload(name: str, seed: int, workdir: Path):
    import backends
    import workloads

    built = backends.build(name)
    cls = workloads.WORKLOADS[name]
    if name == "cli":
        return cls(seed, built, str(workdir), str(SRC))
    return cls(seed, built)


def attempt(op, args, call):
    """One op: (status, seconds, result); only the call itself is timed."""
    from olsonorder.errors import CertificationTooLarge

    t0 = time.perf_counter()
    try:
        result = call(op, args)
    except CertificationTooLarge:
        return "refused", time.perf_counter() - t0, None
    except Exception as exc:  # an untyped failure is counted, not fatal
        return type(exc).__name__, time.perf_counter() - t0, None
    return "ok", time.perf_counter() - t0, result


def checked(wl, op, args, result) -> bool:
    try:
        return bool(wl.check(op, args, result))
    except Exception:  # a check that cannot run counts as a wrong answer
        return False


class Tally:
    """Outcome counts of a run: ok, wrong, refused and untyped errors."""

    def __init__(self) -> None:
        self.attempted = self.wrong = self.refused = 0
        self.errors: dict[str, int] = {}

    def add(self, wl, op, args, status, result) -> bool:
        self.attempted += 1
        if status == "refused":
            self.refused += 1
            return False
        if status != "ok":
            self.errors[status] = self.errors.get(status, 0) + 1
            return False
        wl.record(op, result)
        if not checked(wl, op, args, result):
            self.wrong += 1
            return False
        return True

    @property
    def failed(self) -> int:
        return self.wrong + sum(self.errors.values())

    def details(self) -> dict:
        n = max(1, self.attempted)
        return {"attempted": self.attempted, "wrong": self.wrong, "refused": self.refused,
                "errors": self.errors, "failed_ratio": (self.failed + self.refused) / n,
                "refused_ratio": self.refused / n}


def timed_run(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    setup_probe(name)  # warm-up, discarded: byte-compiles the sources once
    wl = make_workload(name, seed, workdir)
    tally = Tally()
    # flat arrays: the benchmark's own heap stays small and untracked by the GC
    latencies, kind_of, labels = array("d"), array("H"), {}
    setup: list[float] = []
    busy = 0.0
    start = time.perf_counter()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    while True:
        now = time.perf_counter()
        # set-up probes are spread over the run, so that their median sees
        # the same machine speed as the ops do; the op loop waits for each
        if len(setup) < SETUP_REPS and now >= start + len(setup) * seconds / SETUP_REPS:
            setup.append(setup_probe(name))
            continue
        if now >= hard or (now >= deadline and len(latencies) >= MIN_SAMPLES):
            break
        op = wl.draw()
        args = wl.materialize(op)
        status, dt, result = attempt(op, args, wl.call)
        busy += dt
        ok = tally.add(wl, op, args, status, result)
        # a refused or failed op misses every latency limit
        latencies.append(dt if ok else math.inf)
        kind_of.append(labels.setdefault(wl.label(op), len(labels)))
    wall = time.perf_counter() - start
    rss_kb = wl.peak_rss_kb if name == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    completed = tally.attempted - tally.failed - tally.refused
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (completed / busy, "1/s"),
        "op_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MiB"),
    }
    details = {
        **tally.details(),
        "samples": len(latencies),
        "wall_s": wall,
        "busy_s": busy,
        "op_p99_ms": ms(percentile(latencies, 99)),
        "setup_samples_s": setup,
        "by_kind": by_kind(latencies, kind_of, labels),
        "inputs": wl.input_properties(),
    }
    return finish(tally, metrics), details


def trace_run(name: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    import tracer as T
    import workloads

    wl = make_workload(name, seed, workdir)
    call = wl.call_in_process if name == "cli" else wl.call
    ops = [wl.draw() for _ in range(TRACE_OPS[name])]
    inputs = [wl.materialize(op) for op in ops]

    def run_pass(tr=None):
        t0 = time.perf_counter()
        if tr is None:
            out = [attempt(op, args, call) for op, args in zip(ops, inputs)]
        else:
            # one root span per op: all spans of an op share its root
            op_call = T.root_span(tr, "op", call)
            with T.installed(tr):
                out = [attempt(op, args, op_call) for op, args in zip(ops, inputs)]
        return time.perf_counter() - t0, out

    deadline = time.perf_counter() + seconds
    ratios, self_ms, counts = [], [], []
    first = None
    while not ratios or time.perf_counter() < deadline:
        plain_wall, plain = run_pass()
        tr = T.Tracer()
        traced_wall, traced = run_pass(tr)
        ratios.append(traced_wall / plain_wall)
        self_ms.append(tr.self_ms())
        counts.append(dict(tr.counts))
        if first is None:
            first = tr
            # tracing must not change a single answer
            same = all(a[0] == b[0] and (a[0] != "ok" or
                       workloads.answer_bytes(a[2]) == workloads.answer_bytes(b[2]))
                       for a, b in zip(plain, traced))
            tally = Tally()
            for op, args, (status, _, result) in zip(ops, inputs, traced):
                tally.add(wl, op, args, status, result)
        del tr
    spans = {span for ms in self_ms for span in ms}
    median_ms = {span: statistics.median(ms.get(span, 0.0) for ms in self_ms) for span in spans}
    values = first.layer_metrics(median_ms)
    values["hilbert.max_residual_ratio"] = getattr(wl, "max_residual_ratio", 0.0)
    values["cli.import_ms"], values["cli.import_numpy_share"] = (
        import_profile() if name == "cli" else (0.0, 0.0))
    values["trace.overhead_ratio"] = statistics.median(ratios)
    units = {metric: unit for metric, unit, _ in T.PER_LAYER}
    metrics = {metric: (values[metric], units[metric]) for metric, _, _ in T.PER_LAYER}
    details = {
        **tally.details(),
        "ops_per_pass": len(ops),
        "passes": len(ratios),
        "answers_identical_under_trace": same,
        "counts_repeat": all(c == counts[0] for c in counts),
        "missing": first.missing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": wl.input_properties(),
    }
    if not (same and details["counts_repeat"]):
        tally.wrong += 1
    return finish(tally, metrics), details


def finish(tally: Tally, metrics: dict) -> dict:
    out = {}
    for metric, (value, unit) in metrics.items():
        entry = {"value": value, "unit": unit}
        if value is None:
            entry["missing"] = True
        elif not math.isfinite(value):  # over 10% of ops refused or failed
            entry.update(value=None, infinite=True)
        out[metric] = entry
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": out}


def run_all(args) -> int:
    """Each workload in a fresh process; a metrics table, then one JSON line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=HARD_LIMIT_S + 60)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name:14} {metric:40} {entry['value']!s:>22} {entry['unit']}")
            total["metrics"][f"{name}.{metric}"] = entry
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "olsonorder" / "__init__.py").is_file():
        sys.stderr.write(f"no olsonorder sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    import olsonorder

    if not Path(olsonorder.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"olsonorder imported from {olsonorder.__file__}, not {SRC}\n")
        return 2

    workdir = BENCH / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = trace_run if args.trace else timed_run
        result, details = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, machine={"nproc": os.cpu_count(),
                                              "python": platform.python_version()})
    print(json.dumps(details, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
