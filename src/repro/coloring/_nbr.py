"""Vectorized neighborhood primitives shared by the GPU algorithms.

These are the numpy equivalents of the kernels' inner loops — segment
reductions over CSR neighbor lists and the first-fit (mex) kernel.

The independent-set sweeps (max-min, Jones–Plassmann, edge-centric) are
data-driven: they reduce over a :class:`LiveSubgraph` that shrinks to
the uncolored vertices after every sweep, so host work follows the
active edges rather than the whole graph. First-fit and the public
whole-graph ``neighbor_*`` helpers still run behind the
:class:`~repro.engine.backend.ArrayBackend` surface (NumPy ``reduceat``
single-pass by default, chunk-parallel for large graphs) through the
free functions below, with an optional ``backend=`` argument.
"""

from __future__ import annotations

import numpy as np

from ..engine.backend import ArrayBackend, get_default_backend
from ..graphs.csr import CSRGraph

__all__ = [
    "LiveSubgraph",
    "neighbor_reduce",
    "neighbor_max",
    "neighbor_min",
    "first_fit_colors",
]


def neighbor_reduce(
    graph: CSRGraph,
    values: np.ndarray,
    op: np.ufunc,
    fill: float,
    *,
    backend: ArrayBackend | None = None,
) -> np.ndarray:
    """Per-vertex ``op``-reduction of ``values`` over the neighbor lists.

    ``values`` is indexed by vertex id; rows with no neighbors get
    ``fill``, which must be ``op``'s identity (−inf for max, +inf for
    min, 0 for add).
    """
    be = backend if backend is not None else get_default_backend()
    return be.neighbor_reduce(graph, values, op, fill)


def neighbor_max(
    graph: CSRGraph, values: np.ndarray, *, backend: ArrayBackend | None = None
) -> np.ndarray:
    """Per-vertex max of neighbor ``values`` (−inf for isolated rows)."""
    be = backend if backend is not None else get_default_backend()
    return be.neighbor_max(graph, values)


def neighbor_min(
    graph: CSRGraph, values: np.ndarray, *, backend: ArrayBackend | None = None
) -> np.ndarray:
    """Per-vertex min of neighbor ``values`` (+inf for isolated rows)."""
    be = backend if backend is not None else get_default_backend()
    return be.neighbor_min(graph, values)


def first_fit_colors(
    graph: CSRGraph,
    colors: np.ndarray,
    vertices: np.ndarray,
    *,
    backend: ArrayBackend | None = None,
) -> np.ndarray:
    """Smallest color not used by any neighbor, for each given vertex.

    Vertex ``v`` with degree ``d`` gets a color in ``[0, d]`` (pigeonhole
    guarantees one is free). ``colors`` may contain
    :data:`~repro.coloring.base.UNCOLORED`; those neighbors block
    nothing. Fully vectorized over all requested vertices.
    """
    be = backend if backend is not None else get_default_backend()
    return be.first_fit_colors(graph, colors, vertices)


class LiveSubgraph:
    """The uncolored vertices' rows, holding only edges between them.

    ``ids`` lists the live (uncolored) vertices in ascending order; row
    ``i`` holds the live neighbors of ``ids[i]`` in CSR order. A sweep
    reduces over these rows instead of masking colored vertices with the
    op's identity across the whole CSR. Max and min are exact, so each
    live row's reduction equals the masked full-row one, and a row with
    no live neighbor gets the same ``fill``. :meth:`drop` compacts the
    rows after a sweep; the neighbor array keeps the graph's index dtype.
    """

    def __init__(self, graph: CSRGraph) -> None:
        n = graph.num_vertices
        self.ids = np.arange(n, dtype=np.int64)
        self._live = np.ones(n, dtype=bool)
        # the first sweep reads the graph's own arrays; drop() copies
        self._set_rows(graph.indptr, graph.indices)

    def _set_rows(self, bounds: np.ndarray, targets: np.ndarray) -> None:
        self._targets = targets
        self._counts = np.diff(bounds)
        self._nonempty = self._counts > 0
        # consecutive non-empty starts delimit exactly one row each
        self._starts = bounds[:-1][self._nonempty]

    def _row_reduce(self, entries: np.ndarray, op: np.ufunc, out: np.ndarray) -> np.ndarray:
        if self._starts.size:
            out[self._nonempty] = op.reduceat(entries, self._starts)
        return out

    def drop(self, done: np.ndarray) -> None:
        """Remove the rows flagged in ``done`` (aligned with ``ids``).

        Edges into the removed vertices leave the remaining rows too.
        """
        self._live[self.ids[done]] = False
        keep_row = ~done
        keep = np.take(self._live, self._targets)
        keep &= np.repeat(keep_row, self._counts)
        row_kept = self._row_reduce(keep, np.add, np.zeros(self.ids.size, dtype=np.int64))
        # np.compress: a boolean subscript is several times slower here
        self.ids = np.compress(keep_row, self.ids)
        bounds = np.zeros(self.ids.size + 1, dtype=np.int64)
        np.cumsum(np.compress(keep_row, row_kept), out=bounds[1:])
        self._set_rows(bounds, np.compress(keep, self._targets))

    def neighbor_values(self, values: np.ndarray) -> np.ndarray:
        """``values[w]`` for every live entry ``w``, row by row."""
        return np.take(values, self._targets)

    def reduce(self, entries: np.ndarray, op: np.ufunc, fill: float) -> np.ndarray:
        """Per live row, ``op`` over its run of ``entries``.

        ``entries`` is one value per live entry, as
        :meth:`neighbor_values` returns; the result is aligned with
        ``ids``. Rows with no live neighbor get ``fill``.
        """
        out = np.full(self.ids.size, fill, dtype=np.float64)
        return self._row_reduce(entries, op, out)
