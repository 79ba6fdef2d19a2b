"""Max-min independent-set coloring — the paper's baseline GPU algorithm.

This is the Pannotia ``color_maxmin`` kernel (first author's own suite):
every uncolored vertex compares its random priority against its
uncolored neighbors'; local *maxima* take color ``2k`` and local
*minima* take ``2k + 1`` in round ``k`` — two independent sets per
kernel sweep, halving the iteration count of plain Jones–Plassmann at
the cost of a second comparison per neighbor.

The numpy implementation performs the real algorithm (the returned
coloring is genuine and validated); when a
:class:`~repro.coloring.kernels.GPUExecutor` is supplied, each sweep is
also charged simulated device time for the active set it scanned. On
the host the sweeps are data-driven: they reduce over the live subgraph
of uncolored vertices only (:class:`~repro.coloring._nbr.LiveSubgraph`).
:func:`maxmin_sweeps` is the loop itself, shared with the edge-centric
variant, which charges the same sweeps differently.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..engine.context import RunContext, resolve_context
from ..graphs.csr import CSRGraph
from ._nbr import LiveSubgraph
from .base import UNCOLORED, ColoringResult, IterationRecord
from .kernels import GPUExecutor
from .priorities import make_priorities

__all__ = ["maxmin_coloring", "compact_colors"]

#: What a sweep's charge callback returns: simulated cycles, SIMD
#: efficiency (``None`` untimed) and the kernel names of the sweep.
SweepCharge = tuple[float, float | None, tuple[str, ...]]


def compact_colors(colors: np.ndarray) -> np.ndarray:
    """Remap used colors to a dense ``0..k-1`` range (order-preserving)."""
    out = np.asarray(colors, dtype=np.int64).copy()
    mask = out != UNCOLORED
    used = np.unique(out[mask])
    remap = np.full(int(used.max()) + 1 if used.size else 0, -1, dtype=np.int64)
    remap[used] = np.arange(used.size)
    out[mask] = remap[out[mask]]
    return out


def maxmin_coloring(
    graph: CSRGraph,
    executor: GPUExecutor | None = None,
    *,
    seed: int | None = None,
    priority: str = "random",
    max_iterations: int | None = None,
    stop_when_active_below: int = 0,
    compact: bool = True,
    context: RunContext | None = None,
) -> ColoringResult:
    """Color ``graph`` with the max-min independent-set method.

    Parameters
    ----------
    graph:
        Input graph.
    executor:
        Optional simulated-GPU execution engine; when given, every sweep
        is timed and the result carries the total device cycles.
    seed:
        Seed for the priority tie-break permutation (priorities are
        unique, so progress is guaranteed: the globally extreme
        uncolored vertex is always a local extremum). ``None`` falls
        back to the run context's seed.
    priority:
        Priority function — ``random`` (paper baseline), ``degree``
        (hubs colored first), or ``smallest_last``; see
        :mod:`repro.coloring.priorities`.
    max_iterations:
        Safety cap; the algorithm needs at most ``n`` sweeps.
    stop_when_active_below:
        Return early (with uncolored vertices) once the active set drops
        below this count — the hook the algorithm-switch hybrid uses to
        hand the low-parallelism tail to speculative first-fit.
    compact:
        Remap the final colors to a dense ``0..k-1`` range.
    context:
        Run context supplying the default seed; resolved from
        ``executor`` (or a fresh default) when omitted.
    """
    ctx = resolve_context(context, executor)
    seed = ctx.resolve_seed(seed)
    degrees = graph.degrees

    def charge(k: int, active_ids: np.ndarray) -> SweepCharge:
        name = f"maxmin_it{k}"
        if executor is None:
            return 0.0, None, (name,)
        timing = executor.time_iteration(degrees[active_ids], name=name)
        return timing.cycles, timing.simd_efficiency, (name,)

    colors = np.full(graph.num_vertices, UNCOLORED, dtype=np.int64)
    iterations, total_cycles = maxmin_sweeps(
        graph,
        make_priorities(graph, priority, seed=seed),
        colors,
        charge,
        max_iterations=max_iterations,
        stop_when_active_below=stop_when_active_below,
    )
    return ColoringResult(
        algorithm="maxmin",
        colors=compact_colors(colors) if compact else colors,
        iterations=iterations,
        total_cycles=total_cycles,
        device=executor.device if executor is not None else None,
    )


def maxmin_sweeps(
    graph: CSRGraph,
    priorities: np.ndarray,
    colors: np.ndarray,
    charge: Callable[[int, np.ndarray], SweepCharge],
    *,
    max_iterations: int | None = None,
    stop_when_active_below: int = 0,
) -> tuple[list[IterationRecord], float]:
    """The max-min sweep loop, coloring ``colors`` in place.

    Each sweep reduces priorities over the live subgraph of uncolored
    vertices, colors its local maxima ``2k`` and minima ``2k + 1``, then
    calls ``charge(k, active_ids)`` for the sweep's simulated cycles,
    SIMD efficiency and kernel names. Returns the per-sweep records and
    the total cycles.
    """
    cap = max_iterations if max_iterations is not None else graph.num_vertices + 1
    live = LiveSubgraph(graph)
    iterations: list[IterationRecord] = []
    total_cycles = 0.0
    k = 0
    while live.ids.size and k < cap and live.ids.size >= stop_when_active_below:
        # One kernel sweep: every uncolored vertex reads uncolored
        # neighbors' priorities and tests for local max / local min.
        active_ids = live.ids
        own = priorities[active_ids]
        nbr = live.neighbor_values(priorities)
        is_max = own > live.reduce(nbr, np.maximum, -np.inf)
        is_min = (own < live.reduce(nbr, np.minimum, np.inf)) & ~is_max
        del nbr  # the largest temporary: free it before drop() allocates
        colors[active_ids[is_max]] = 2 * k
        colors[active_ids[is_min]] = 2 * k + 1
        done = is_max | is_min

        cycles, eff, kernels = charge(k, active_ids)
        total_cycles += cycles
        iterations.append(
            IterationRecord(
                index=k,
                active_vertices=int(active_ids.size),
                newly_colored=int(done.sum()),
                cycles=cycles,
                simd_efficiency=eff,
                kernels=kernels,
            )
        )
        live.drop(done)
        k += 1
    return iterations, total_cycles
