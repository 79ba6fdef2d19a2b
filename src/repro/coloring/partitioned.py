"""Partitioned coloring — the multi-device extension.

To color a graph across ``P`` devices, partition the vertices into
blocks and split them into *interior* vertices (every neighbor in the
same block) and *boundary* vertices (at least one neighbor elsewhere):

* interiors of different blocks are never adjacent, so each device can
  color its interior **independently with the full palette** — perfect
  scaling, zero communication;
* the boundary subgraph is then colored centrally (speculative rounds)
  against the already-fixed interior colors.

The boundary fraction grows with the partition count — the communication
wall every distributed coloring hits — which experiment E17 quantifies.
Blocks come from slicing the BFS order (locality-aware) or raw index
ranges — see :func:`partition_blocks`.
"""

from __future__ import annotations

import numpy as np

from ..engine.context import RunContext, resolve_context
from ..graphs.csr import CSRGraph
from .base import UNCOLORED, ColoringResult, IterationRecord
from .kernels import GPUExecutor
from .speculative import speculative_rounds

__all__ = ["partitioned_coloring", "partition_blocks", "boundary_mask"]


def partition_blocks(
    graph: CSRGraph, num_partitions: int, *, method: str = "bfs"
) -> np.ndarray:
    """Block id per vertex.

    ``method="bfs"`` (default) slices the BFS visit order into equal
    pieces — blocks are connected-ish regions with small boundaries on
    meshes. ``method="range"`` slices raw vertex ids — only sensible if
    the labeling is already locality-aware (e.g. after RCM).
    """
    if num_partitions <= 0:
        raise ValueError("num_partitions must be positive")
    n = graph.num_vertices
    per = -(-n // num_partitions) if n else 1
    if method == "range":
        return np.arange(n, dtype=np.int64) // per
    if method == "bfs":
        from ..graphs.reorder import bfs_order

        position = bfs_order(graph)  # position[v] = BFS visit rank of v
        return position // per
    raise ValueError(f"unknown partition method {method!r}")


def boundary_mask(graph: CSRGraph, block: np.ndarray) -> np.ndarray:
    """True for vertices with a neighbor in a different block."""
    b = np.asarray(block, dtype=np.int64)
    if b.shape != (graph.num_vertices,):
        raise ValueError("block must have one entry per vertex")
    owner = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    cross = b[owner] != b[graph.indices]
    out = np.zeros(graph.num_vertices, dtype=bool)
    out[owner[cross]] = True
    return out


def partitioned_coloring(
    graph: CSRGraph,
    executor: GPUExecutor | None = None,
    *,
    num_partitions: int = 4,
    method: str = "bfs",
    seed: int | None = None,
    max_iterations: int | None = None,
    context: RunContext | None = None,
) -> ColoringResult:
    """Color ``graph`` as ``num_partitions`` devices would.

    Phase 1 (parallel across devices): each block's interior is colored
    locally — simulated time is the **max** over blocks of the local
    kernel time, since the devices run concurrently. Local coloring is
    the speculative first-fit restricted to the block's interior (any
    proper local coloring works; interiors never interact).

    Phase 2 (central): boundary vertices are colored by speculative
    rounds against the fixed interiors, on one device.

    ``extras`` records the boundary fraction and per-phase cycles.
    """
    ctx = resolve_context(context, executor)
    seed = ctx.resolve_seed(seed)
    n = graph.num_vertices
    block = partition_blocks(graph, num_partitions, method=method)
    boundary = boundary_mask(graph, block)
    colors = np.full(n, UNCOLORED, dtype=np.int64)
    iterations: list[IterationRecord] = []

    # --- phase 1: per-block interior coloring ------------------------
    # Each device runs its own GPU-style speculative coloring over its
    # interior. Interiors of different blocks are never adjacent, so the
    # devices proceed without communication, and the simulated phase
    # time is the *max* over blocks (they run concurrently).
    interior_ids = np.flatnonzero(~boundary)
    rng = np.random.default_rng(seed)
    priorities = rng.permutation(n)
    phase1_cycles = 0.0
    num_blocks = int(block.max()) + 1 if n else 0
    for blk in range(num_blocks):
        members = interior_ids[block[interior_ids] == blk]
        if members.size == 0:
            continue
        _, blk_cycles = speculative_rounds(
            graph,
            colors,
            members,
            priorities,
            executor,
            name_prefix=f"part{blk}",
            max_iterations=max_iterations,
            context=ctx,
        )
        phase1_cycles = max(phase1_cycles, blk_cycles)
    iterations.append(
        IterationRecord(
            index=0,
            active_vertices=int(interior_ids.size),
            newly_colored=int(interior_ids.size),
            cycles=phase1_cycles,
            kernels=("interior",),
        )
    )

    # --- phase 2: boundary resolution ---------------------------------
    boundary_ids = np.flatnonzero(boundary)
    tail_iters, phase2_cycles = speculative_rounds(
        graph,
        colors,
        boundary_ids,
        priorities,
        executor,
        name_prefix="boundary",
        start_index=1,
        max_iterations=max_iterations,
        context=ctx,
    )
    iterations.extend(tail_iters)

    return ColoringResult(
        algorithm=f"partitioned-{num_partitions}",
        colors=colors,
        iterations=iterations,
        total_cycles=phase1_cycles + phase2_cycles,
        device=executor.device if executor is not None else None,
        extras={
            "num_partitions": num_partitions,
            "boundary_fraction": float(boundary.mean()) if n else 0.0,
            "phase1_cycles": phase1_cycles,
            "phase2_cycles": phase2_cycles,
        },
    )
