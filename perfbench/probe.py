"""Layer probes: time and count the program's layers from outside.

A :class:`Probe` wraps the public functions the program calls into and
restores them on :meth:`Probe.uninstall`. Every name is patched where it
is *looked up*, e.g. ``repro.coloring.kernels.simulate_work_stealing``
rather than the ``repro.loadbalance`` definition, because the executor
calls the name it imported.

Two modes:

* counting only (``trace=False``): the simulator's work counts (active
  edges, kernels, simulated cycles) are taken at the executor boundary.
  These counts are what ``sim_edges_per_s`` divides by host time, so the
  untraced measurement needs them too; they cost one array sum per
  simulated iteration.
* tracing (``trace=True``): additionally one span per layer call. Span
  stacks are per thread, so concurrent server handler and worker
  threads never charge their children to each other; a span's self time
  is its duration minus the time its direct children cover. Spans stay
  in memory until :meth:`Probe.span_records` is read at the end.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

__all__ = ["LAYER_TARGETS", "Probe"]

#: (layer, module path, attribute). ``attribute`` may be ``Class.method``.
#: A dict-valued module attribute (``GPU_ALGORITHMS``) is patched per key.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("graphs.generate", "repro.graphs.generators", "rmat"),
    ("graphs.generate", "repro.graphs.generators", "barabasi_albert"),
    ("graphs.generate", "repro.graphs.generators", "powerlaw_cluster"),
    ("graphs.generate", "repro.graphs.generators", "erdos_renyi"),
    ("graphs.generate", "repro.graphs.generators", "delaunay_mesh"),
    ("graphs.generate", "repro.graphs.generators", "random_geometric"),
    ("graphs.generate", "repro.graphs.generators", "grid_2d"),
    ("graphs.generate", "repro.graphs.generators", "grid_3d"),
    ("graphs.generate", "repro.graphs.generators", "watts_strogatz"),
    ("graphs.generate", "repro.graphs.generators", "random_regular"),
    ("graphs.load", "repro.graphs.io", "load_graph"),
    ("graphs.reorder", "repro.graphs.reorder", "bfs_order"),
    ("coloring.host", "repro.harness.runner", "GPU_ALGORITHMS"),
    ("coloring.validate", "repro.coloring.base", "ColoringResult.validate"),
    ("engine.plan", "repro.coloring.kernels", "build_plan"),
    ("gpusim.dispatch", "repro.coloring.kernels", "dispatch"),
    ("gpusim.dispatch", "repro.coloring.kernels", "dispatch_tasks"),
    ("loadbalance.steal", "repro.coloring.kernels", "simulate_work_stealing"),
    ("loadbalance.dynamic", "repro.coloring.kernels", "simulate_dynamic_fetch"),
    ("loadbalance.static", "repro.coloring.kernels", "simulate_static_persistent"),
    ("store.open", "repro.store.db", "RunStore.__init__"),
    ("store.write", "repro.store.db", "RunStore.insert_job"),
    ("store.write", "repro.store.db", "RunStore.update_job"),
    ("store.write", "repro.store.db", "RunStore.upsert_run"),
    ("store.write", "repro.store.db", "RunStore.upsert_graph"),
    ("store.read", "repro.store.db", "RunStore.job"),
    ("store.read", "repro.store.db", "RunStore.jobs_by_digest"),
    ("store.read", "repro.store.db", "RunStore.list_jobs"),
    ("store.read", "repro.store.db", "RunStore.counts"),
    ("store.read", "repro.store.db", "RunStore.schema_version"),
)

#: the executor methods whose self time is the kernel cost model
COST_LAYER = "coloring.kernels.cost"

#: marks a patch that replaced a dict's values rather than an attribute
_DICT_ITEMS = "<dict items>"

#: ServeApp entry points whose ``job_id`` names the request they serve
_JOB_ENTRY_POINTS = ("job", "result", "cancel", "restart")


def _resolve(path: str, attr: str):
    """(owner object, attribute name) for ``module`` + ``[Class.]name``."""
    import importlib

    owner = importlib.import_module(path)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


class Probe:
    """Installs layer wrappers and accumulates their spans and counts."""

    def __init__(self, *, trace: bool, on_result=None) -> None:
        self.trace = trace
        #: ``on_result(graph, result)`` sees every coloring an algorithm
        #: returns, before the program validates it
        self.on_result = on_result
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: layer -> summed self seconds / call count (traced only)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: named work counts (always collected)
        self.counts: dict[str, float] = defaultdict(float)
        #: (layer, job_id, thread id, start, end, depth, self seconds) per
        #: finished span; times are ``time.monotonic()``, which is
        #: comparable across processes on one host
        self.spans: list[tuple[str, str | None, int, float, float, int, float]] = []
        #: job_id -> {event: time.monotonic()} stamps of lifecycle events
        self.job_events: dict[str, dict[str, float]] = defaultdict(dict)

    # -- per-thread state ----------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def job_id(self) -> str | None:
        """The request the current thread is working for, if known."""
        return getattr(self._local, "job_id", None)

    @job_id.setter
    def job_id(self, value: str | None) -> None:
        self._local.job_id = value

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    # -- spans -----------------------------------------------------------

    def span(self, layer: str, fn, *, after=None):
        """``fn`` wrapped in a ``layer`` span; ``after(result, args)`` counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                stack.pop()
                duration = t1 - t0
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                with self._lock:
                    self.self_s[layer] += own
                    self.calls[layer] += 1
                    self.spans.append(
                        (layer, self.job_id, threading.get_ident(), t0, t1, len(stack), own)
                    )
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _counted(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(result, args)
            return result

        return wrapper

    def _wrap(self, layer: str, fn, *, after=None):
        if self.trace:
            return self.span(layer, fn, after=after)
        return self._counted(fn, after) if after is not None else fn

    # -- installation --------------------------------------------------

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _patch_dict(self, table: dict, wrap) -> None:
        """Replace every value of ``table`` by ``wrap(value)``, in place."""
        self._patches.append((table, _DICT_ITEMS, dict(table)))
        table.update({k: wrap(fn) for k, fn in table.items()})

    def install(self) -> "Probe":
        """Patch every layer boundary (counts always, spans when tracing)."""
        import numpy as np

        from repro.coloring.kernels import GPUExecutor

        def on_iteration(timing, args):
            deg = np.asarray(args[1])
            if deg.size:
                self.count("active_edges", float(deg.sum()))
                self.count("kernels_launched")
                self.count("sim_cycles", timing.cycles)

        def on_uniform(timing, args):
            if args[1] > 0:
                self.count("kernels_launched")
                self.count("sim_cycles", timing.cycles)

        self._patch(
            GPUExecutor,
            "time_iteration",
            self._wrap(COST_LAYER, GPUExecutor.time_iteration, after=on_iteration),
        )
        self._patch(
            GPUExecutor,
            "time_uniform",
            self._wrap(COST_LAYER, GPUExecutor.time_uniform, after=on_uniform),
        )
        self._install_plan_cache_counts()
        if self.on_result is not None:
            self._install_result_capture()
        if self.trace:
            for layer, path, attr in LAYER_TARGETS:
                self._install_target(layer, path, attr)
            self._install_serve_hooks()
        return self

    def _install_plan_cache_counts(self) -> None:
        from repro.engine.plan import PlanCache

        original = PlanCache.get_or_build
        probe = self

        @functools.wraps(original)
        def get_or_build(cache, key, builder):
            hits = cache.hits
            plan = original(cache, key, builder)
            probe.count("plan_lookups")
            if cache.hits > hits:
                probe.count("plan_hits")
            return plan

        self._patch(PlanCache, "get_or_build", get_or_build)

    def _install_result_capture(self) -> None:
        from repro.harness import runner

        on_result = self.on_result

        def capture(fn):
            @functools.wraps(fn)
            def wrapper(graph, *args, **kwargs):
                result = fn(graph, *args, **kwargs)
                on_result(graph, result)
                return result

            return wrapper

        self._patch_dict(runner.GPU_ALGORITHMS, capture)

    def _install_target(self, layer: str, path: str, attr: str) -> None:
        owner, name = _resolve(path, attr)
        current = getattr(owner, name)
        if isinstance(current, dict):
            self._patch_dict(current, lambda fn: self.span(layer, fn))
            return
        after = None
        if layer == "loadbalance.steal":

            def after(result, args):
                self.count("steal_attempts", result.steal_attempts)
                self.count("steals_succeeded", result.steals_succeeded)

        self._patch(owner, name, self.span(layer, current, after=after))

    def _install_serve_hooks(self) -> None:
        """Key server spans by ``job_id`` and stamp job lifecycle events."""
        from repro.serve.app import ServeApp
        from repro.store.db import RunStore

        probe = self
        update_job = RunStore.update_job  # already wrapped in a span

        @functools.wraps(update_job)
        def stamped_update_job(store, job_id, **fields):
            state = fields.get("state")
            if state == "running":
                probe.job_id = job_id
                probe._stamp(job_id, "running")
            try:
                return update_job(store, job_id, **fields)
            finally:
                if state in ("done", "failed", "cancelled"):
                    probe._stamp(job_id, state)
                    probe.job_id = None

        self._patch(RunStore, "update_job", stamped_update_job)

        submit = ServeApp.submit

        @functools.wraps(submit)
        def stamped_submit(app, raw_spec):
            t0 = time.monotonic()
            view, deduped = submit(app, raw_spec)
            if not deduped:
                probe._stamp(view["job_id"], "submitted", t0)
            return view, deduped

        self._patch(ServeApp, "submit", stamped_submit)

        for verb in _JOB_ENTRY_POINTS:
            self._patch(ServeApp, verb, self._keyed(getattr(ServeApp, verb)))

    def _keyed(self, method):
        probe = self

        @functools.wraps(method)
        def keyed(app, job_id, *args, **kwargs):
            previous = probe.job_id
            probe.job_id = job_id
            try:
                return method(app, job_id, *args, **kwargs)
            finally:
                probe.job_id = previous

        return keyed

    def _stamp(self, job_id: str, event: str, at: float | None = None) -> None:
        with self._lock:
            self.job_events[job_id].setdefault(
                event, time.monotonic() if at is None else at
            )

    def uninstall(self) -> None:
        """Restore every patched name, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            if name is _DICT_ITEMS:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- reading results -----------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """A copy of the accumulated self times, calls and counts."""
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def covered_s(self, thread: int, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` on ``thread`` inside top-level spans."""
        with self._lock:
            spans = [s for s in self.spans if s[2] == thread and s[5] == 0]
        return sum(max(0.0, min(s[4], end) - max(s[3], start)) for s in spans)

    def span_records(self) -> list[dict[str, object]]:
        keys = ("layer", "job_id", "thread", "start", "end", "depth", "self_s")
        with self._lock:
            return [dict(zip(keys, s)) for s in self.spans]
