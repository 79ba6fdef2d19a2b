"""``bfs_order`` against a FIFO-queue oracle.

The production order is built a whole level at a time; the oracle is a
plain ``deque`` breadth-first search that visits components by smallest
id and neighbors in CSR order. The two must give identical permutations.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.reorder import bfs_order


def deque_bfs_order(graph: CSRGraph, *, source: int | None = None) -> np.ndarray:
    """Reference: one vertex at a time through a FIFO queue."""
    n = graph.num_vertices
    visited = np.zeros(n, dtype=bool)
    sequence = np.empty(n, dtype=np.int64)
    pos = 0
    queue: deque[int] = deque()
    seeds = [source] if source is not None else []
    seed_iter = iter(range(n))

    def next_seed() -> int | None:
        for s in seeds:
            if not visited[s]:
                return s
        for s in seed_iter:
            if not visited[s]:
                return s
        return None

    while pos < n:
        s = next_seed()
        if s is None:
            break
        visited[s] = True
        queue.append(s)
        while queue:
            v = queue.popleft()
            sequence[pos] = v
            pos += 1
            for w in graph.neighbors(v):
                w = int(w)
                if not visited[w]:
                    visited[w] = True
                    queue.append(w)
    perm = np.empty(n, dtype=np.int64)
    perm[sequence] = np.arange(n, dtype=np.int64)
    return perm


@st.composite
def graphs_with_source(draw, max_vertices=60):
    """A random graph, optionally padded with isolated vertices, and a source."""
    n = draw(st.integers(1, max_vertices))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    padding = draw(st.sampled_from((0, 0, 5, 2000)))
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    if padding and draw(st.booleans()):
        # isolated vertices in front: shift the edges past them
        u, v = u + padding, v + padding
    g = CSRGraph.from_edges(u, v, num_vertices=n + padding)
    source = draw(st.none() | st.integers(0, g.num_vertices - 1))
    return g, source


class TestMatchesDequeOracle:
    @given(graphs_with_source())
    @settings(max_examples=120, deadline=None)
    def test_random_graphs(self, case):
        g, source = case
        assert np.array_equal(bfs_order(g, source=source), deque_bfs_order(g, source=source))

    @pytest.mark.parametrize(
        "g",
        [
            CSRGraph.empty(0),
            CSRGraph.empty(1),
            CSRGraph.empty(3000),
            gen.star(30),
            gen.grid_2d(12, 17),
            gen.rmat(10, edge_factor=8, seed=3),
            gen.barabasi_albert(500, attach=3, seed=1),
            # thousands of isolated vertices around a few small components
            CSRGraph.from_edges([10, 11, 2500, 4000], [11, 12, 2501, 4001], num_vertices=5000),
        ],
        ids=["n0", "n1", "edgeless", "star", "grid", "rmat", "ba", "sparse"],
    )
    @pytest.mark.parametrize("source", [None, "middle", "last"])
    def test_shapes(self, g, source):
        n = g.num_vertices
        src = None if source is None or n == 0 else {"middle": n // 2, "last": n - 1}[source]
        assert np.array_equal(bfs_order(g, source=src), deque_bfs_order(g, source=src))


class TestSourceValidation:
    @pytest.mark.parametrize("source", [-1, 5])
    def test_out_of_range_source_raises(self, source):
        g = gen.path(5)
        with pytest.raises(IndexError, match=r"\[0, 5\)"):
            bfs_order(g, source=source)

    def test_any_source_rejected_on_empty_graph(self):
        with pytest.raises(IndexError):
            bfs_order(CSRGraph.empty(0), source=0)
