"""Pieces every workload shares: environment, statistics, digests, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import sys
from importlib.util import find_spec
from pathlib import Path

import numpy as np

#: where results and per-run temp files go, relative to the checkout root
OUT_DIR = Path("perfbench") / "out"

#: per-layer self times every traced run reports: metric -> probe layer
LAYER_TIMES = {
    "graphs.generate_s": "graphs.generate",
    "graphs.load_s": "graphs.load",
    "graphs.reorder_s": "graphs.reorder",
    "coloring.host_s": "coloring.host",
    "coloring.kernels.cost_s": "coloring.kernels.cost",
    "coloring.validate_s": "coloring.validate",
    "engine.plan_s": "engine.plan",
    "gpusim.dispatch_s": "gpusim.dispatch",
    "loadbalance.steal_s": "loadbalance.steal",
    "loadbalance.dynamic_s": "loadbalance.dynamic",
    "loadbalance.static_s": "loadbalance.static",
    "store.open_s": "store.open",
    "store.write_s": "store.write",
    "store.read_s": "store.read",
}

#: the serve layer's request metrics, reported as 0 where nothing is served
SERVE_METRICS = (
    ("serve.queue_ms_p50", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.notice_ms_p50", "ms"),
    ("serve.http_ms_p50", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.dedup_ratio", "ratio"),
)


def hermetic_env() -> dict[str, str]:
    """This process's environment without any ``REPRO_*`` setting.

    Drops ``REPRO_ARTIFACT_CACHE`` (an on-disk graph cache would skip
    generation), ``REPRO_SERVE_TEST_DELAY_MS`` (a per-cell sleep) and
    ``REPRO_RUN_STORE`` (a shared run database), and with them every
    other knob of the program, so runs see only generated inputs.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = "src"
    return env


def make_hermetic() -> None:
    """Drop every ``REPRO_*`` setting from this process's environment."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default); 0 if empty."""
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Digest:
    """Order-sensitive content digest of a workload's outputs."""

    def __init__(self) -> None:
        self._h = hashlib.blake2b(digest_size=16)
        self.items = 0

    def add(self, key: str, colors, iterations: int, cycles: float) -> None:
        """One cell: its name, colors (array or count), iterations, cycles."""
        self._h.update(key.encode())
        if isinstance(colors, (int, np.integer)):
            self._h.update(b"n%d" % int(colors))
        else:
            self._h.update(np.ascontiguousarray(colors, dtype=np.int64).tobytes())
        self._h.update(b"|%d|%r|" % (int(iterations), float(cycles)))
        self.items += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def coloring_is_proper(graph, colors) -> bool:
    """Every vertex colored (>= 0) and no edge joins two equal colors."""
    colors = np.asarray(colors)
    n = graph.num_vertices
    if colors.shape != (n,) or (n and colors.min() < 0):
        return False
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    return not bool(np.any(colors[src] == colors[graph.indices]))


def environment() -> dict[str, object]:
    """What the figures depend on besides the code: host and libraries."""
    import scipy

    from repro.engine.backend import get_default_backend, make_backend

    backend = get_default_backend()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cffi": find_spec("cffi") is not None,
        "cc": shutil.which("cc") is not None,
        "backend": backend.name,
        # the auto backend hands a neighbour reduction to a thread pool
        # once the graph has this many directed edges
        "backend_pool_threshold_edges": getattr(backend, "threshold", None),
        "backend_pool_threads": make_backend("chunked").num_threads,
    }


class Metrics:
    """Named metric values with their units and sample counts."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, str, int]] = {}

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.values[name] = (float(value), unit, int(samples))

    def lines(self) -> list[str]:
        return [
            f"  {name:32s} {value:16.6f} {unit:8s} n={samples}"
            for name, (value, unit, samples) in self.values.items()
        ]

    def as_json(self) -> dict[str, dict[str, object]]:
        return {n: {"value": v, "unit": u} for n, (v, u, _) in self.values.items()}


def layer_metrics(
    self_s: dict[str, float],
    calls: dict[str, int],
    counts: dict[str, float],
    *,
    iterations: int,
    edge_slots: float,
    overhead: float,
    unattributed: float,
    serve: dict[str, tuple[float, int]] | None = None,
) -> Metrics:
    """Every per-layer metric from one traced measurement.

    ``edge_slots`` is the sum, over cells whose algorithm times
    vertex-centric iterations, of iterations x directed edges: the edges
    a topology-driven sweep would touch, against which the active edges
    actually charged to the simulator are a useful-work share.
    """
    m = Metrics()
    for name, layer in LAYER_TIMES.items():
        m.put(name, self_s.get(layer, 0.0), "s", calls.get(layer, 0))
    active = counts.get("active_edges", 0.0)
    m.put("coloring.iterations", iterations, "count")
    m.put("coloring.active_edges", active, "count")
    m.put("coloring.active_edge_frac", active / edge_slots if edge_slots else 0.0, "ratio")
    lookups = counts.get("plan_lookups", 0.0)
    m.put(
        "engine.plan_hit_ratio",
        counts.get("plan_hits", 0.0) / lookups if lookups else 0.0,
        "ratio",
        int(lookups),
    )
    m.put("gpusim.kernels_launched", counts.get("kernels_launched", 0.0), "count")
    m.put("gpusim.sim_cycles", counts.get("sim_cycles", 0.0), "cycles")
    attempts = counts.get("steal_attempts", 0.0)
    m.put("loadbalance.steal_attempts", attempts, "count")
    m.put(
        "loadbalance.steal_success_ratio",
        counts.get("steals_succeeded", 0.0) / attempts if attempts else 0.0,
        "ratio",
        int(attempts),
    )
    m.put("store.opens", calls.get("store.open", 0), "count")
    m.put("store.writes", calls.get("store.write", 0), "count")
    serve = serve or {}
    for name, unit in SERVE_METRICS:
        value, samples = serve.get(name, (0.0, 0))
        m.put(name, value, unit, samples)
    m.put("trace.overhead_frac", overhead, "ratio")
    m.put("trace.unattributed_frac", unattributed, "ratio")
    return m


def emit(
    *,
    workload: str,
    seed: int,
    trace: bool,
    metrics: Metrics,
    correct: bool,
    attempted: int,
    failed: int,
    details: dict[str, object],
    problems: list[str],
) -> None:
    """Write the results file and print the report; the JSON line is last."""
    doc = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "environment": environment(),
        "metrics": {
            n: {"value": v, "unit": u, "samples": s}
            for n, (v, u, s) in metrics.values.items()
        },
        **details,
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"{workload}.trace{int(trace)}.json"
    path.write_text(json.dumps(doc, indent=1, default=float))
    print(f"workload {workload} seed {seed} trace {int(trace)} -> {path}")
    print("environment " + json.dumps(doc["environment"], sort_keys=True))
    for line in metrics.lines():
        print(line)
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  correct={correct} attempted={attempted} failed={failed}")
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics.as_json(),
            }
        )
    )
