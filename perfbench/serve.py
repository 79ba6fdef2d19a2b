"""The ``serve-closed`` workload: two closed-loop clients of ``repro serve``.

The server runs as a child process (``serve_child.py``) on a Unix socket
with a fresh run store in a temporary directory, and is warmed with one
batch job over every suite dataset before timing, so that the window
sees no first-use graph builds. Each client submits a job and waits for
it as ``repro job submit --wait`` does (polling every 0.2 s), then
submits the next: a closed loop, because callers wait for their reply.

The mix, per client and seeded (see :func:`client_specs`): one submission
in four resubmits one of that client's earlier specs (a dedup read from
the job ledger, no compute); one in twelve is a two-by-two batch job
(more store writes per job); the rest are single-cell ``color`` jobs over
suite datasets, algorithms, mappings and schedules at ``small`` scale.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from common import (
    OUT_DIR,
    Digest,
    Metrics,
    coloring_is_proper,
    hermetic_env,
    layer_metrics,
    percentile,
)
from probe import Probe

CLIENTS = 2
SETUP_REPEATS = 3
#: jobs per client, in submission order, that the output digest covers
DIGEST_JOBS = 16
#: seed of the warm-up job; mix seeds are drawn below it
WARM_SEED = 2**31 - 1
JOB_TIMEOUT_S = 60.0


def client_specs(seed: int, client: int, scale: str):
    """The endless, seed-determined job mix of one client.

    Submissions come in blocks of twelve, in a seeded order: three
    resubmissions of earlier specs, one batch job, eight color jobs.
    Every seed draws from the same fixed menu, so a window of the loop
    sees nearly the same work whatever the seed: color jobs walk a seeded
    order of all 60 dataset x algorithm pairs, each with its fixed
    mapping and schedule (every one of the 12 combinations five times),
    and batch jobs a seeded order of five two-dataset, two-algorithm
    matrices. The seed also gives every fresh job its own run seed.
    """
    from itertools import product

    from repro.coloring.kernels import MAPPINGS, SCHEDULES
    from repro.harness.runner import GPU_ALGORITHMS
    from repro.harness.suite import SUITE

    datasets, algorithms = sorted(SUITE), sorted(GPU_ALGORITHMS)
    colors = [
        {
            "kind": "color",
            "dataset": d,
            "algorithm": a,
            "mapping": MAPPINGS[i % len(MAPPINGS)],
            "schedule": SCHEDULES[i // len(MAPPINGS) % len(SCHEDULES)],
        }
        for i, (d, a) in enumerate(product(datasets, algorithms))
    ]
    batches = [
        {
            "kind": "batch",
            "datasets": datasets[2 * k : 2 * k + 2],
            "algorithms": [algorithms[k % 3 * 2], algorithms[k % 3 * 2 + 1]],
            "schedule": SCHEDULES[k % len(SCHEDULES)],
        }
        for k in range(len(datasets) // 2)
    ]
    rng = np.random.default_rng([seed, client])
    color_order = rng.permutation(len(colors))
    batch_order = rng.permutation(len(batches))
    block = ["resubmit"] * 3 + ["batch"] + ["color"] * 8
    history: list[dict] = []
    made = {"color": 0, "batch": 0}
    while True:
        for kind in rng.permutation(block):
            if kind == "resubmit":
                if history:
                    yield history[rng.integers(len(history))]
                    continue
                kind = "color"
            menu, order = (colors, color_order) if kind == "color" else (batches, batch_order)
            spec = dict(menu[order[made[kind] % len(menu)]])
            made[kind] += 1
            spec.update(scale=scale, seed=int(rng.integers(2**30)))
            history.append(spec)
            yield spec


@dataclass
class JobRecord:
    client: int
    index: int
    spec: dict
    job_id: str
    deduped: bool
    state: str
    submitted: float
    seen_done: float
    error: str = ""


class Server:
    """One ``repro serve`` child with a fresh store; stop() collects its report."""

    def __init__(self, tag: str, trace: bool) -> None:
        self.dir = OUT_DIR / f"tmp-serve-{tag}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.socket = str(self.dir / "s.sock")
        self.report_path = self.dir / "server.json"
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "perfbench/serve_child.py",
                str(self.report_path),
                "1" if trace else "0",
                "--",
                "--store",
                str(self.dir / "runs.sqlite"),
                "--socket",
                self.socket,
            ],
            env=hermetic_env(),
            stdout=subprocess.DEVNULL,
        )

    def client(self):
        from repro.serve.client import ServeClient

        return ServeClient(socket_path=self.socket, timeout=JOB_TIMEOUT_S)

    def wait_ready(self, timeout: float = 60.0) -> None:
        client = self.client()
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                client.health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.01)

    def warm(self, scale: str) -> None:
        """Build every suite graph and import every lazy module once."""
        client = self.client()
        view = client.submit(
            {
                "kind": "batch",
                "datasets": "all",
                "algorithms": "all",
                "scale": scale,
                "seed": WARM_SEED,
            }
        )
        view = client.wait(view["job_id"], timeout=120.0, poll_s=0.01)
        if view["state"] != "done":
            raise RuntimeError(f"warm-up job ended {view['state']}: {view.get('error')}")

    def stop(self) -> dict:
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        try:
            return json.loads(self.report_path.read_text())
        except (OSError, ValueError):
            return {}
        finally:
            shutil.rmtree(self.dir, ignore_errors=True)


def start_server(tag: str, trace: bool, scale: str) -> tuple[Server, float]:
    """A ready, warmed server and the seconds that took."""
    t0 = time.monotonic()
    server = Server(tag, trace)
    try:
        server.wait_ready()
        server.warm(scale)
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - t0


class HttpLog:
    """Client-side HTTP round trips, recorded by wrapping ``ServeClient.request``."""

    def __init__(self) -> None:
        self.requests: list[tuple[str, str, float, float]] = []
        self._lock = threading.Lock()

    def __enter__(self) -> "HttpLog":
        from repro.serve.client import ServeClient

        self._original = original = ServeClient.request
        log = self

        def request(client, method, path, body=None):
            t0 = time.monotonic()
            try:
                return original(client, method, path, body)
            finally:
                with log._lock:
                    log.requests.append((method, path, t0, time.monotonic()))

        ServeClient.request = request
        return self

    def __exit__(self, *exc_info: object) -> None:
        from repro.serve.client import ServeClient

        ServeClient.request = self._original


def run_clients(server: Server, seed: int, seconds: float, scale: str) -> list[JobRecord]:
    from repro.store.db import TERMINAL_JOB_STATES

    records: list[JobRecord] = []
    lock = threading.Lock()
    deadline = time.monotonic() + seconds

    def loop(client_id: int) -> None:
        client = server.client()
        for index, spec in enumerate(client_specs(seed, client_id, scale)):
            if time.monotonic() >= deadline:
                return
            t0 = time.monotonic()
            job_id, deduped, state, error = "", False, "error", ""
            try:
                view = client.submit(spec)
                job_id, deduped = view["job_id"], bool(view.get("deduped"))
                if view["state"] not in TERMINAL_JOB_STATES:
                    view = client.wait(job_id, timeout=JOB_TIMEOUT_S)
                state, error = view["state"], view.get("error") or ""
            except Exception as exc:  # noqa: BLE001 - a failed job, counted
                error = f"{type(exc).__name__}: {exc}"
            record = JobRecord(
                client_id, index, spec, job_id, deduped, state, t0, time.monotonic(), error
            )
            with lock:
                records.append(record)

    threads = [threading.Thread(target=loop, args=(i,)) for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=seconds + 2 * JOB_TIMEOUT_S)
    return sorted(records, key=lambda r: (r.client, r.index))


def check_results(server: Server, records: list[JobRecord]) -> tuple[dict, list[str], int]:
    """Served rows must equal the same cells run in-process.

    Runs after the timed window. Every coloring computed in-process is
    validated against its graph. Returns the served rows by job id,
    the problems found and the number of failed jobs.
    """
    from repro.engine.context import RunContext
    from repro.gpusim.device import named_device
    from repro.harness.batch import run_batch_cell
    from repro.harness.suite import build
    from repro.serve.model import expand_spec, normalize_spec

    captured: list = []
    client = server.client()
    problems: list[str] = []
    rows_by_job: dict[str, list] = {}
    with Probe(trace=False, on_result=lambda g, r: captured.append((g, r))):
        for rec in records:
            if rec.state != "done" or rec.job_id in rows_by_job:
                continue
            served = client.result(rec.job_id)["result"]
            plan = expand_spec(normalize_spec(rec.spec))
            ctx = RunContext(device=named_device(plan.device))
            local = [
                run_batch_cell(cell, build(cell.dataset, plan.scale), ctx)
                for cell in plan.cells
            ]
            local = json.loads(json.dumps(local, default=lambda o: o.item()))
            if local != served:
                problems.append(f"job {rec.job_id} {rec.spec}: served rows differ")
            rows_by_job[rec.job_id] = served
    for graph, result in captured:
        if not coloring_is_proper(graph, result.colors):
            problems.append(f"an in-process {graph.num_vertices}-vertex coloring is not proper")
    failed = sum(1 for r in records if r.state != "done")
    problems += [
        f"job {r.client}/{r.index} ended {r.state}: {r.error}" for r in records if r.state != "done"
    ]
    return rows_by_job, problems, failed


def output_digest(records: list[JobRecord], rows_by_job: dict, jobs: dict[int, int]) -> Digest:
    """Digest of the rows of each client's first ``jobs[client]`` jobs."""
    digest = Digest()
    for rec in records:
        if rec.index >= jobs.get(rec.client, 0) or rec.job_id not in rows_by_job:
            continue
        for row in rows_by_job[rec.job_id]:
            key = f"{rec.client}/{rec.index}/{json.dumps(rec.spec, sort_keys=True)}/{row['job']}"
            digest.add(key, row["colors"], row["iterations"], row["cycles"])
    return digest


def jobs_per_client(records: list[JobRecord]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for rec in records:
        counts[rec.client] = counts.get(rec.client, 0) + 1
    return counts


def session(seed: int, seconds: float, trace: bool, scale: str, setup_repeats: int):
    """Set up (repeatedly), run the window, stop, check; one server's worth."""
    setup: list[float] = []
    server = None
    try:
        for k in range(setup_repeats):
            if server is not None:
                server.stop()
            server, s = start_server(f"{seed}-{int(trace)}-{k}", trace, scale)
            setup.append(s)
        http = HttpLog()
        with http if trace else contextlib.nullcontext():
            records = run_clients(server, seed, seconds, scale)
        rows_by_job, problems, failed = check_results(server, records)
    finally:
        report = server.stop() if server is not None else {}
    if not report:
        problems.append("server wrote no report")
    return setup, records, http.requests, report, rows_by_job, problems, failed


def window(records: list[JobRecord]) -> tuple[float, float]:
    return min(r.submitted for r in records), max(r.seen_done for r in records)


def end_to_end(setup, records, report) -> Metrics:
    start, end = window(records)
    span = end - start
    done = [r for r in records if r.state == "done"]
    job_ms = [(r.seen_done - r.submitted) * 1e3 for r in done]
    cells = [c for c in report.get("cells", []) if c["start"] >= start]
    cell_ms = [(c["end"] - c["start"]) * 1e3 for c in cells]
    edges = sum(c["counts"].get("active_edges", 0.0) for c in cells)
    m = Metrics()
    m.put("setup_s", statistics.median(setup), "s", len(setup))
    m.put("cells_per_s", len(cells) / span, "1/s", len(cells))
    m.put("cell_ms_p50", percentile(cell_ms, 50), "ms", len(cells))
    m.put("sim_edges_per_s", edges / span, "1/s", len(cells))
    m.put("jobs_per_s", len(done) / span, "1/s", len(done))
    m.put("job_ms_p50", percentile(job_ms, 50), "ms", len(done))
    m.put("job_ms_p95", percentile(job_ms, 95), "ms", len(done))
    m.put("peak_rss_mb", report.get("peak_rss_mb", 0.0), "MB")
    return m


def serve_layers(records, http_requests, report, overhead: float) -> Metrics:
    """Per-layer metrics of a traced session, restricted to its window."""
    start, end = window(records)
    spans = [s for s in report.get("spans", []) if s["start"] >= start and s["end"] <= end]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        self_s[s["layer"]] = self_s.get(s["layer"], 0.0) + s["self_s"]
        calls[s["layer"]] = calls.get(s["layer"], 0) + 1
    cells = [c for c in report.get("cells", []) if c["start"] >= start]
    counts: dict[str, float] = {}
    for c in cells:
        for k, v in c["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
    slots = sum(
        c["iterations"] * c["directed_edges"] for c in cells if c["counts"].get("active_edges")
    )

    events = report.get("job_events", {})
    queue, run, notice = [], [], []
    for r in records:
        ev = events.get(r.job_id, {})
        if r.deduped or r.state != "done" or not {"submitted", "running", "done"} <= set(ev):
            continue
        queue.append((ev["running"] - ev["submitted"]) * 1e3)
        run.append((ev["done"] - ev["running"]) * 1e3)
        notice.append((r.seen_done - ev["done"]) * 1e3)
    polls: dict[str, int] = {}
    for method, path, _, _ in http_requests:
        parts = path.strip("/").split("/")
        if method == "GET" and len(parts) == 2 and parts[0] == "jobs":
            polls[parts[1]] = polls.get(parts[1], 0) + 1
    fresh = [r for r in records if not r.deduped and r.job_id]
    http_ms = [(t1 - t0) * 1e3 for _, _, t0, t1 in http_requests if t0 >= start]

    # job execution intervals on the worker thread (the one that colors;
    # handler threads answering polls carry the job id too), against the
    # top-level spans that thread recorded inside them
    busy = covered = 0.0
    by_thread: dict[int, list] = {}
    thread_of: dict[str, int] = {}
    for s in spans:
        if s["depth"] == 0:
            by_thread.setdefault(s["thread"], []).append(s)
        if s["layer"] == "coloring.host" and s["job_id"]:
            thread_of.setdefault(s["job_id"], s["thread"])
    for r in fresh:
        ev = events.get(r.job_id, {})
        if not {"running", "done"} <= set(ev):
            continue
        a, b = ev["running"], ev["done"]
        busy += b - a
        covered += sum(
            max(0.0, min(s["end"], b) - max(s["start"], a))
            for s in by_thread.get(thread_of.get(r.job_id), [])
        )

    def p50(values):
        return percentile(values, 50), len(values)

    serve = {
        "serve.queue_ms_p50": p50(queue),
        "serve.run_ms_p50": p50(run),
        "serve.notice_ms_p50": p50(notice),
        "serve.http_ms_p50": p50(http_ms),
        "serve.polls_per_job": (
            sum(polls.get(r.job_id, 0) for r in fresh) / len(fresh) if fresh else 0.0,
            len(fresh),
        ),
        "serve.dedup_ratio": (
            sum(r.deduped for r in records) / len(records),
            len(records),
        ),
    }
    return layer_metrics(
        self_s,
        calls,
        counts,
        iterations=sum(c["iterations"] for c in cells),
        edge_slots=float(slots),
        overhead=overhead,
        unattributed=1.0 - covered / busy if busy else 0.0,
        serve=serve,
    )


def serve_closed(seed: int, seconds: float, trace: bool, size: str):
    scale = "tiny" if size == "tiny" else "small"
    setup, records, _, report, rows, problems, failed = session(
        seed, seconds, False, scale, 1 if trace else SETUP_REPEATS
    )
    if not records:
        raise RuntimeError("no job completed in the window")
    attempted = len(records)
    covered = {c: min(n, DIGEST_JOBS) for c, n in jobs_per_client(records).items()}
    digest = output_digest(records, rows, covered)
    details: dict[str, object] = {
        "digest": digest.hexdigest(),
        "digest_jobs": covered,
        "jobs": len(records),
        "deduped": sum(r.deduped for r in records),
    }
    if not trace:
        metrics = end_to_end(setup, records, report)
        return metrics, not problems and not failed, attempted, failed, details, problems

    _, t_records, t_http, t_report, t_rows, t_problems, t_failed = session(
        seed, seconds, True, scale, 1
    )
    if not t_records:
        raise RuntimeError("no job completed in the traced window")
    problems += t_problems
    failed += t_failed
    attempted += len(t_records)
    # both sessions submit the same sequence; compare the common prefix
    t_covered = jobs_per_client(t_records)
    common = {c: min(n, t_covered.get(c, 0)) for c, n in covered.items()}
    untraced, traced = output_digest(records, rows, common), output_digest(t_records, t_rows, common)
    if traced.hexdigest() != untraced.hexdigest():
        problems.append(f"traced digest {traced.hexdigest()} != untraced {untraced.hexdigest()}")

    def rate(recs):
        start, end = window(recs)
        return sum(r.state == "done" for r in recs) / (end - start)

    metrics = serve_layers(t_records, t_http, t_report, rate(records) / rate(t_records) - 1.0)
    details["traced_digest"] = traced.hexdigest()
    details["spans"] = t_report.get("spans", [])
    return metrics, not problems and not failed, attempted, failed, details, problems
