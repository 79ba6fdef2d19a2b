"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inproc  # noqa: E402
from common import hermetic_env  # noqa: E402
from probe import LAYER_TARGETS, Probe, _resolve  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(BENCH / "run.py") if cwd == ROOT else "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--size",
            "tiny",
        ],
        cwd=cwd,
        env=hermetic_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in doc["metrics"].items()
    }
    # the human-readable report names each metric with its sample count
    for m in declared:
        assert any(line.split()[:1] == [m["name"]] and "n=" in line for line in proc.stdout.splitlines())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("batch-skewed", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def tiny_groups():
    from repro.harness.batch import BatchJob

    return [
        (name, thunk, [BatchJob(dataset=name, algorithm="maxmin", schedule="stealing")])
        for name, thunk in inproc.skewed_graphs(1, "tiny")
    ]


def flip_one_color(fn):
    """An algorithm wrapper that gives vertex 0 the color of a neighbour."""

    def flipped(graph, *args, **kwargs):
        result = fn(graph, *args, **kwargs)
        nbr = graph.indices[graph.indptr[0]]
        result.colors[0] = result.colors[nbr]
        return result

    return flipped


def test_flipped_color_fails_the_run(monkeypatch):
    from repro.harness import runner

    monkeypatch.setitem(runner.GPU_ALGORITHMS, "maxmin", flip_one_color(runner.GPU_ALGORITHMS["maxmin"]))
    _, correct, attempted, failed, _, problems = inproc.run_workload(tiny_groups(), [0.1], 0.0, False)
    assert not correct
    assert failed == attempted > 0
    assert problems


def test_flipped_color_fails_the_benchmarks_own_check():
    """A coloring corrupted after the program validated it is still caught."""
    captured: list = []
    runner = inproc.Runner(tiny_groups(), Probe(trace=False, on_result=lambda g, r: captured.append((g, r))), captured)
    with runner.probe:
        p = runner.run_pass()
    digest, problems, failed = inproc.check_pass(p)
    assert not problems and failed == 0
    cell = p.cells[0]
    cell.result.colors[0] = cell.result.colors[cell.graph.indices[cell.graph.indptr[0]]]
    _, problems, failed = inproc.check_pass(p)
    assert failed == 1 and problems


def current_targets():
    from repro.coloring.kernels import GPUExecutor
    from repro.engine.plan import PlanCache
    from repro.serve.app import ServeApp
    from repro.store.db import RunStore

    found = {}
    for _, path, attr in LAYER_TARGETS:
        owner, name = _resolve(path, attr)
        value = getattr(owner, name)
        found[(path, attr)] = dict(value) if isinstance(value, dict) else value
    for cls, name in (
        (GPUExecutor, "time_iteration"),
        (GPUExecutor, "time_uniform"),
        (PlanCache, "get_or_build"),
        (RunStore, "update_job"),
        (ServeApp, "submit"),
        (ServeApp, "job"),
        (ServeApp, "result"),
    ):
        found[(cls.__name__, name)] = getattr(cls, name)
    return found


def test_wrappers_restore_the_originals():
    before = current_targets()
    probe = Probe(trace=True, on_result=lambda g, r: None)
    with probe:
        during = current_targets()
    after = current_targets()
    assert any(during[k] is not before[k] and during[k] != before[k] for k in before)
    for key, value in before.items():
        if isinstance(value, dict):
            assert after[key] == value, key
        else:
            assert after[key] is value, key


def test_span_stacks_are_per_thread():
    """Concurrent nested spans never charge one thread's child to another."""
    probe = Probe(trace=True)
    inner = probe.span("inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.03)
        inner()

    outer = probe.span("outer", outer_body)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=outer) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert probe.calls == {"outer": 6, "inner": 6}
    assert all(s[6] >= 0 for s in probe.spans)
    assert 6 * 0.03 <= probe.self_s["outer"] < 6 * 0.03 + 0.5
    assert 6 * 0.02 <= probe.self_s["inner"] < 6 * 0.02 + 0.5
