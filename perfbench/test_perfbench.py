"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import olsonorder.hilbert as H  # noqa: E402
import olsonorder.lattice as L  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402
import workloads  # noqa: E402

OPS = {"exact-lattice": 120, "exact-certify": 40, "hilbert": 60, "cli": 30}


def _workload(name, tmp_path, seed=7):
    return run.make_workload(name, seed, tmp_path)


def _replay(wl, name, ops, inputs, tr=None):
    call = wl.call_in_process if name == "cli" else wl.call
    if tr is None:
        return [run.attempt(op, args, call) for op, args in zip(ops, inputs)]
    with T.installed(tr):
        return [run.attempt(op, args, call) for op, args in zip(ops, inputs)]


def _answers(outcomes):
    return [(status, workloads.answer_bytes(result) if status == "ok" else b"")
            for status, _, result in outcomes]


@pytest.mark.parametrize("name", sorted(OPS))
def test_tracer_leaves_answers_byte_identical(name, tmp_path):
    wl = _workload(name, tmp_path)
    ops = [wl.draw() for _ in range(OPS[name])]
    inputs = [wl.materialize(op) for op in ops]
    plain = _answers(_replay(wl, name, ops, inputs))
    tr = T.Tracer()
    traced = _answers(_replay(wl, name, ops, inputs, tr))
    assert plain == traced
    assert sum(tr.counts.values()) > 0
    assert not tr.missing


@pytest.mark.parametrize("name", ["exact-lattice", "exact-certify", "hilbert"])
def test_counts_repeat_for_the_same_seed(name, tmp_path):
    counts = []
    for _ in range(2):
        wl = _workload(name, tmp_path)
        ops = [wl.draw() for _ in range(OPS[name])]
        inputs = [wl.materialize(op) for op in ops]
        tr = T.Tracer()
        _replay(wl, name, ops, inputs, tr)
        counts.append(dict(tr.counts))
    assert counts[0] == counts[1]


def test_originals_are_restored():
    before = (L.olson_meet, H._lattice_bound, L.SimpleObservable.__init__)
    with T.installed(T.Tracer()):
        assert L.olson_meet is not before[0]
    assert (L.olson_meet, H._lattice_bound, L.SimpleObservable.__init__) == before


def test_missing_target_is_reported_not_raised(monkeypatch):
    targets = [*T.TARGETS, ("hilbert._no_such_helper", "hilbert.lattice_bound"),
               ("nosuchmodule.f", "cli.main")]
    monkeypatch.setattr(T, "TARGETS", targets)
    tr = T.Tracer()
    with T.installed(tr):
        H.spectral_meet([[[0.25, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, 0.25]]])
    assert tr.missing == ["hilbert._no_such_helper", "nosuchmodule.f"]
    values = tr.layer_metrics(tr.self_ms())
    assert values["hilbert.lattice_bound.self_ms"] is None
    assert values["hilbert.lattice_bound.grid_points"] is None
    assert values["cli.main.self_ms"] is None
    assert values["hilbert.spectral_measure.calls"] == 2


def test_self_time_excludes_children():
    tr = T.Tracer()
    outer, inner = tr.span_id("outer"), tr.span_id("inner")
    a = tr.open(outer)
    b = tr.open(inner)
    tr.close(b)
    tr.close(a)
    tr.start[a], tr.end[a], tr.start[b], tr.end[b] = 0.0, 1.0, 0.25, 0.75
    assert tr.self_ms() == {"outer": 500.0, "inner": 500.0}


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, _ in T.PER_LAYER]
    assert {m["name"] for m in spec["workloads"]} == set(run.WORKLOADS)
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "exact-lattice",
                           "--seed", "3", "--seconds", "0.2"],
                          capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m: e["unit"] for m, e in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]}


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, f"{BENCH.name}/run.py", "--workload", "hilbert",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""
