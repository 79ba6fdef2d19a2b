"""Vertex reordering — the layout lever of the performance-factor study.

The order vertices are numbered *is* the order lanes are packed into
wavefronts (thread id = vertex id under the thread mapping), so
relabeling the graph changes divergence and locality without touching
the algorithm. This module provides the classic orders:

* :func:`bfs_order` — breadth-first layout (locality for meshes),
* :func:`rcm_order` — reverse Cuthill–McKee (bandwidth minimization, the
  standard sparse-matrix layout),
* :func:`degree_order` — descending-degree layout (packs similar-degree
  vertices into the same wavefront — the static version of the
  executor's ``sort_by_degree``),
* :func:`random_order` — the adversarial control.

Each returns a permutation ``perm`` with ``perm[old] = new``, suitable
for :meth:`repro.graphs.csr.CSRGraph.permute`.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .csr import CSRGraph

__all__ = [
    "bfs_order",
    "rcm_order",
    "degree_order",
    "random_order",
    "apply_order",
    "bandwidth",
]


def _positions_to_perm(positions: np.ndarray) -> np.ndarray:
    """Convert a visit sequence (new→old) into a perm (old→new)."""
    perm = np.empty(positions.size, dtype=np.int64)
    perm[positions] = np.arange(positions.size, dtype=np.int64)
    return perm


def _bfs_component(graph: CSRGraph, seed: int, visited: np.ndarray) -> np.ndarray:
    """FIFO visit order of ``seed``'s component, built level by level.

    A FIFO queue discovers the next level in the order the current
    level's neighbor lists are scanned, so each level is the first
    occurrence of every unvisited vertex in the gathered lists.
    """
    frontier = np.array([seed], dtype=np.int64)
    visited[seed] = True
    levels = [frontier]
    while True:
        nbrs, _ = graph.neighbor_lists(frontier)
        nbrs = nbrs[~visited[nbrs]]
        if not nbrs.size:
            return np.concatenate(levels)
        _, first = np.unique(nbrs, return_index=True)
        frontier = nbrs[np.sort(first)]
        visited[frontier] = True
        levels.append(frontier)


def bfs_order(graph: CSRGraph, *, source: int | None = None) -> np.ndarray:
    """Breadth-first relabeling; components are visited by smallest id.

    ``source`` seeds the first component (default: vertex 0). The order
    is that of a FIFO queue scanning neighbors in CSR order; each
    component is traversed a whole level at a time, and isolated
    vertices, each its own component, are placed without a traversal.
    Raises :class:`IndexError` for a ``source`` outside ``[0, n)``.
    """
    n = graph.num_vertices
    if source is not None and not 0 <= source < n:
        raise IndexError(f"source {source} out of range [0, {n})")
    has_edges = graph.degrees > 0
    visited = ~has_edges  # isolated vertices are placed, never traversed

    def seeds():
        """(seed, sort key) per non-isolated component, found lazily."""
        if source is not None and has_edges[source]:
            yield source, -1
        pos = 0
        while pos < n:
            pos += int(visited[pos:].argmin())
            if visited[pos]:
                return
            yield pos, pos

    # components sort by key: the seed, or -1 for the source's; an
    # isolated vertex is a component keyed by its own id
    iso = np.flatnonzero(~has_edges)
    parts, keys = [iso], [np.where(iso == source, -1, iso) if source is not None else iso]
    for seed, key in seeds():
        part = _bfs_component(graph, seed, visited)
        parts.append(part)
        keys.append(np.full(part.size, key, dtype=np.int64))
    sequence = np.concatenate(parts)
    sequence = sequence[np.argsort(np.concatenate(keys), kind="stable")]
    return _positions_to_perm(sequence)


def rcm_order(graph: CSRGraph) -> np.ndarray:
    """Reverse Cuthill–McKee: BFS from a low-degree vertex, neighbors
    visited in ascending-degree order, sequence reversed."""
    n = graph.num_vertices
    deg = graph.degrees
    visited = np.zeros(n, dtype=bool)
    sequence: list[int] = []
    order_by_degree = np.argsort(deg, kind="stable")
    for seed in order_by_degree:
        seed = int(seed)
        if visited[seed]:
            continue
        visited[seed] = True
        queue: deque[int] = deque([seed])
        while queue:
            v = queue.popleft()
            sequence.append(v)
            nbrs = graph.neighbors(v)
            for w in nbrs[np.argsort(deg[nbrs], kind="stable")]:
                w = int(w)
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    sequence.reverse()
    return _positions_to_perm(np.asarray(sequence, dtype=np.int64))


def degree_order(graph: CSRGraph, *, descending: bool = True) -> np.ndarray:
    """Relabel by degree (descending default — heavy wavefronts first)."""
    key = -graph.degrees if descending else graph.degrees
    sequence = np.argsort(key, kind="stable").astype(np.int64)
    return _positions_to_perm(sequence)


def random_order(graph: CSRGraph, *, seed: int = 0) -> np.ndarray:
    """Uniform random relabeling (destroys any locality)."""
    rng = np.random.default_rng(seed)
    return rng.permutation(graph.num_vertices).astype(np.int64)


def apply_order(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """Relabel ``graph`` by ``perm`` (alias of :meth:`CSRGraph.permute`)."""
    return graph.permute(perm)


def bandwidth(graph: CSRGraph) -> int:
    """Matrix bandwidth ``max |u - v|`` over edges (0 for edgeless)."""
    u, v = graph.edge_array()
    if u.size == 0:
        return 0
    return int(np.abs(u - v).max())
