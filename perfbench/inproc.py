"""The two in-process workloads: ``batch-skewed`` and ``files-sweep``.

Both run coloring cells through ``repro.harness.batch.run_batch_cell``
with one shared ``RunContext`` per pass, as ``repro batch`` does, and
differ in what they stress:

* ``batch-skewed`` generates degree-skewed graphs inside the timed pass
  and runs six algorithms on each under thread mapping + work stealing:
  the paper's load-imbalance regime, where host compute dominates.
* ``files-sweep`` loads near-uniform graphs from four file formats and
  sweeps every mapping x schedule: few iterations per cell, so the
  persistent-schedule simulators and plan cache dominate, and it is the
  only workload that reads files.

A pass is never cut short: a run measures whole passes until the next
one would overrun ``--seconds`` (at least ``MIN_PASSES``), so every pass
covers the same cells and the rates do not depend on where a deadline
fell. A job
here is one graph's request, awaited in-process with no serving layer in
between: generate or load the graph, then run all its cells.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    OUT_DIR,
    Digest,
    Metrics,
    coloring_is_proper,
    hermetic_env,
    layer_metrics,
    peak_rss_mb,
    percentile,
)
from probe import Probe

#: set-up is repeated this many times per run and its median reported
SETUP_REPEATS = 5
#: every cell runs at least this often per run; metrics use its median
MIN_PASSES = 3

SKEWED_ALGORITHMS = (
    "maxmin",
    "jp",
    "speculative",
    "partitioned",
    "hybrid-switch",
    "edge-centric",
)
SWEEP_MAPPINGS = ("thread", "wavefront", "hybrid")
SWEEP_SCHEDULES = ("grid", "static", "dynamic", "stealing")
SWEEP_ALGORITHMS = ("speculative", "maxmin")


def skewed_graphs(seed: int, size: str) -> list[tuple[str, object]]:
    """(name, builder) of the batch-skewed inputs, seeded from ``seed``."""
    from repro.graphs import generators as gen

    s = 1000 * seed
    if size == "tiny":
        return [
            ("rmat", lambda: gen.rmat(8, edge_factor=8, seed=s + 1)),
            ("powerlaw", lambda: gen.barabasi_albert(256, attach=4, seed=s + 2)),
            ("citation", lambda: gen.powerlaw_cluster(256, attach=4, triangle_p=0.6, seed=s + 3)),
        ]
    # the suite's standard Holme-Kim size; R-MAT one scale below standard
    # and Barabasi-Albert at half the standard vertex count
    return [
        ("rmat", lambda: gen.rmat(14, edge_factor=16, seed=s + 1)),
        ("powerlaw", lambda: gen.barabasi_albert(16384, attach=8, seed=s + 2)),
        ("citation", lambda: gen.powerlaw_cluster(12288, attach=6, triangle_p=0.6, seed=s + 3)),
    ]


def uniform_graphs(seed: int, size: str) -> list[tuple[str, str, object]]:
    """(name, file name, builder) of the files-sweep inputs."""
    from repro.graphs import generators as gen

    n = 256 if size == "tiny" else 8192
    s = 1000 * seed
    return [
        ("delaunay", "delaunay.mtx", lambda: gen.delaunay_mesh(n, seed=s + 1)),
        ("grid3d", "grid3d.graph", lambda: gen.grid_3d(32, n // 1024, 32) if n >= 1024 else gen.grid_3d(8, 8, n // 64)),
        ("regular", "regular.col", lambda: gen.random_regular(n, degree=16, seed=s + 2)),
        ("smallworld", "smallworld.el", lambda: gen.watts_strogatz(n, k=8, rewire_p=0.1, seed=s + 3)),
    ]


@dataclass
class Cell:
    """One executed cell; graph and result are dropped once checked."""

    job: object
    graph: object
    row: dict | None
    result: object | None
    ms: float
    active_edges: float
    error: str = ""

    @property
    def directed_edges(self) -> int:
        return self.row["num_edges"] * 2 if self.row is not None else 0


@dataclass
class Pass:
    seconds: float
    cells: list[Cell] = field(default_factory=list)
    start: float = 0.0
    #: milliseconds spent generating or loading each group's graph
    prep_ms: list[float] = field(default_factory=list)


class Runner:
    """Runs passes of one in-process workload under a probe."""

    def __init__(self, groups, probe: Probe, captured: list) -> None:
        #: [(graph name, graph thunk, [BatchJob])], in pass order
        self.groups = groups
        self.probe = probe
        self.captured = captured

    def run_pass(self) -> Pass:
        from repro.engine.context import RunContext
        from repro.harness.batch import run_batch_cell

        ctx = RunContext()
        counts = self.probe.counts
        cells: list[Cell] = []
        prep_ms: list[float] = []
        start = time.monotonic()
        for _, thunk, jobs in self.groups:
            t0 = time.monotonic()
            graph = thunk()
            prep_ms.append((time.monotonic() - t0) * 1e3)
            for job in jobs:
                self.captured.clear()
                edges0 = counts.get("active_edges", 0.0)
                t0 = time.monotonic()
                row, error = None, ""
                try:
                    row = run_batch_cell(job, graph, ctx)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    error = f"{type(exc).__name__}: {exc}"
                ms = (time.monotonic() - t0) * 1e3
                result = self.captured[0][1] if len(self.captured) == 1 else None
                cells.append(
                    Cell(job, graph, row, result, ms, counts.get("active_edges", 0.0) - edges0, error)
                )
        return Pass(time.monotonic() - start, cells, start, prep_ms)


def check_pass(p: Pass) -> tuple[Digest, list[str], int]:
    """Validate every coloring of a pass; (digest, problems, failed cells)."""
    digest = Digest()
    problems: list[str] = []
    failed = 0
    for cell in p.cells:
        name = cell.job.name
        if cell.row is None or cell.result is None:
            failed += 1
            problems.append(f"{name}: {cell.error or 'no coloring captured'}")
            continue
        colors = cell.result.colors
        ok = (
            coloring_is_proper(cell.graph, colors)
            and cell.row["colors"] == cell.result.num_colors
            and cell.row["iterations"] == cell.result.num_iterations
            and cell.row["cycles"] == cell.result.total_cycles
        )
        if not ok:
            failed += 1
            problems.append(f"{name}: coloring or row fails validation")
            continue
        digest.add(name, colors, cell.row["iterations"], cell.row["cycles"])
    return digest, problems, failed


def edge_slots(cells: list[Cell]) -> float:
    return float(
        sum(
            c.row["iterations"] * c.directed_edges
            for c in cells
            if c.row is not None and c.active_edges > 0
        )
    )


def measure(runner: Runner, seconds: float, after_pass) -> list[Pass]:
    """At least MIN_PASSES whole passes, more while they fit in ``seconds``.

    ``after_pass`` checks each pass outside the timed window.
    """
    passes: list[Pass] = []
    elapsed = 0.0
    while len(passes) < MIN_PASSES or elapsed * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(runner.run_pass())
        elapsed += passes[-1].seconds
        after_pass(passes[-1])
    return passes


def end_to_end(
    passes: list[Pass], setup: list[float], active_edges: float, group_sizes: list[int]
) -> Metrics:
    """Rates and percentiles over each cell's median time across passes.

    A typical pass is rebuilt from per-cell (and per-graph preparation)
    medians, so a burst of host noise that slows one pass, or part of
    one, moves no metric. A job is one graph's request: generating or
    loading it, then running its cells.
    """
    ok = {i for i in range(len(passes[0].cells)) if all(p.cells[i].row for p in passes)}
    cell_ms = {i: statistics.median(p.cells[i].ms for p in passes) for i in ok}
    prep_ms = [statistics.median(ms) for ms in zip(*(p.prep_ms for p in passes))]
    first = np.cumsum([0, *group_sizes])
    job_ms = [
        prep + sum(cell_ms[i] for i in range(first[g], first[g + 1]) if i in ok)
        for g, prep in enumerate(prep_ms)
    ]
    pass_s = sum(job_ms) / 1e3
    cells = len(ok) * len(passes)
    jobs = len(job_ms) * len(passes)
    m = Metrics()
    m.put("setup_s", statistics.median(setup), "s", len(setup))
    m.put("cells_per_s", len(ok) / pass_s, "1/s", cells)
    m.put("cell_ms_p50", percentile(list(cell_ms.values()), 50), "ms", cells)
    m.put("sim_edges_per_s", active_edges / len(passes) / pass_s, "1/s", cells)
    m.put("jobs_per_s", len(job_ms) / pass_s, "1/s", jobs)
    m.put("job_ms_p50", percentile(job_ms, 50), "ms", jobs)
    m.put("job_ms_p95", percentile(job_ms, 95), "ms", jobs)
    m.put("peak_rss_mb", peak_rss_mb(), "MB")
    return m


def run_workload(groups, setup: list[float], seconds: float, trace: bool, extra_checks=()):
    """Measure, check and (when tracing) trace one in-process workload.

    Returns (metrics, correct, attempted, failed, details, problems).
    """
    captured: list = []

    def on_result(graph, result):
        captured.append((graph, result))

    digests: list[str] = []
    problems: list[str] = []
    failed = 0

    def after_pass(p: Pass) -> str:
        nonlocal failed
        digest, bad, nfail = check_pass(p)
        if not digests:
            for check in extra_checks:
                bad += check(p)
        problems.extend(bad)
        failed += nfail
        for cell in p.cells:  # keep memory flat however many passes run
            cell.graph = cell.result = None
        return digest.hexdigest()

    runner = Runner(groups, Probe(trace=False, on_result=on_result), captured)
    with runner.probe:
        passes = measure(runner, seconds, lambda p: digests.append(after_pass(p)))
    if len(set(digests)) != 1:
        problems.append(f"passes disagree: {sorted(set(digests))}")
    attempted = sum(len(p.cells) for p in passes)
    details: dict[str, object] = {
        "digest": digests[0],
        "passes": [p.seconds for p in passes],
        "cell_ms": {
            c.job.name: [p.cells[i].ms for p in passes] for i, c in enumerate(passes[0].cells)
        },
        "prep_ms": [p.prep_ms for p in passes],
        "cells_per_pass": len(passes[0].cells),
        "counts_per_pass": {
            "active_edges": runner.probe.counts.get("active_edges", 0.0) / len(passes),
            "kernels_launched": runner.probe.counts.get("kernels_launched", 0.0) / len(passes),
            "sim_cycles": runner.probe.counts.get("sim_cycles", 0.0) / len(passes),
        },
    }
    if not trace:
        metrics = end_to_end(
            passes,
            setup,
            runner.probe.counts.get("active_edges", 0.0),
            [len(jobs) for _, _, jobs in groups],
        )
    else:
        traced = Runner(groups, Probe(trace=True, on_result=on_result), captured)
        with traced.probe:
            tp = traced.run_pass()
        traced_digest = after_pass(tp)
        attempted += len(tp.cells)
        if traced_digest != digests[0]:
            problems.append(f"traced pass digest {traced_digest} != untraced {digests[0]}")
        snap = traced.probe.snapshot()
        covered = traced.probe.covered_s(
            threading.get_ident(), tp.start, tp.start + tp.seconds
        )
        metrics = layer_metrics(
            snap["self_s"],
            snap["calls"],
            snap["counts"],
            iterations=sum(c.row["iterations"] for c in tp.cells if c.row is not None),
            edge_slots=edge_slots(tp.cells),
            overhead=tp.seconds / statistics.median(p.seconds for p in passes) - 1.0,
            unattributed=1.0 - covered / tp.seconds,
        )
        details["traced_digest"] = traced_digest
        details["spans"] = traced.probe.span_records()
    return metrics, not problems and not failed, attempted, failed, details, problems


def import_setup_s() -> float:
    """Seconds for a fresh interpreter to start and import the program."""
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli, repro.harness.batch"],
        env=hermetic_env(),
        check=True,
        timeout=120,
    )
    return time.monotonic() - t0


def batch_skewed(seed: int, seconds: float, trace: bool, size: str):
    from repro.harness.batch import BatchJob

    setup = [import_setup_s() for _ in range(1 if trace else SETUP_REPEATS)]
    groups = [
        (
            name,
            thunk,
            [
                BatchJob(dataset=name, algorithm=a, mapping="thread", schedule="stealing", seed=seed)
                for a in SKEWED_ALGORITHMS
            ],
        )
        for name, thunk in skewed_graphs(seed, size)
    ]
    return run_workload(groups, setup, seconds, trace)


def write_inputs(seed: int, size: str, directory: Path) -> dict[str, tuple[Path, object]]:
    """Generate the files-sweep graphs and write one file per format."""
    from repro.graphs import io

    writers = {
        ".mtx": io.write_matrix_market,
        ".graph": io.write_metis,
        ".col": io.write_dimacs_coloring,
        ".el": io.write_edge_list,
    }
    directory.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, filename, build in uniform_graphs(seed, size):
        graph = build()
        path = directory / filename
        writers[path.suffix](graph, path)
        written[name] = (path, graph)
    return written


def files_sweep(seed: int, seconds: float, trace: bool, size: str):
    import shutil

    from repro.graphs import io
    from repro.harness.batch import BatchJob

    tmp = OUT_DIR / f"tmp-files-{seed}"
    setup = []
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            shutil.rmtree(tmp, ignore_errors=True)
            t0 = time.monotonic()
            inputs = write_inputs(seed, size, tmp)
            setup.append(time.monotonic() - t0)

        def loader(path):
            return lambda: io.load_graph(path)

        groups = [
            (
                name,
                loader(path),
                [
                    BatchJob(dataset=name, algorithm=a, mapping=m, schedule=s, seed=seed)
                    for m in SWEEP_MAPPINGS
                    for s in SWEEP_SCHEDULES
                    for a in SWEEP_ALGORITHMS
                ],
            )
            for name, (path, _) in inputs.items()
        ]

        def loaded_graphs_match(p: Pass) -> list[str]:
            problems = []
            seen = {}
            for cell in p.cells:
                seen.setdefault(cell.job.dataset, cell.graph)
            for name, (path, original) in inputs.items():
                g = seen.get(name)
                if g is None or not (
                    np.array_equal(g.indptr, original.indptr)
                    and np.array_equal(g.indices, original.indices)
                ):
                    problems.append(f"{path.name}: loaded graph differs from the one written")
            return problems

        return run_workload(groups, setup, seconds, trace, (loaded_graphs_match,))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
