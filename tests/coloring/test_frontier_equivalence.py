"""Frontier-driven host loops against the topology-driven reference.

The production loops of max-min, Jones–Plassmann, speculative and
edge-centric coloring reduce over the live subgraph of uncolored (or
still-active) vertices. The replay scanners in ``repro.check.races``
sweep the whole CSR every round, masking colored vertices, and are the
independent reference: for the same seed both must give the same
colors, and a run cut short must leave the same uncolored set.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.races import scan_algorithm_races
from repro.coloring._nbr import LiveSubgraph, neighbor_max, neighbor_min
from repro.coloring.base import UNCOLORED
from repro.coloring.edge_centric import edge_centric_maxmin
from repro.coloring.hybrid import hybrid_switch_coloring
from repro.coloring.jones_plassmann import jones_plassmann_coloring
from repro.coloring.maxmin import maxmin_coloring
from repro.coloring.speculative import speculative_coloring
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph


@st.composite
def frontier_graphs(draw, max_vertices=48):
    """Random, star-shaped or block-diagonal graphs with isolated vertices."""
    n = draw(st.integers(0, max_vertices))
    shape = draw(st.sampled_from(("random", "star", "blocks")))
    ids = st.integers(0, max(n - 1, 0))
    pairs: list[tuple[int, int]] = []
    if n >= 2 and shape == "star":
        hub = draw(ids)
        pairs = [(hub, leaf) for leaf in draw(st.sets(ids)) if leaf != hub]
    elif n >= 2 and shape == "blocks":
        # several components: edges only inside equal-width id blocks
        width = draw(st.integers(1, n))
        for u, v in draw(st.lists(st.tuples(ids, ids), max_size=3 * n)):
            if u // width == v // width:
                pairs.append((u, v))
    elif n >= 2:
        pairs = draw(st.lists(st.tuples(ids, ids), max_size=3 * n))
    u = np.array([p[0] for p in pairs], dtype=np.int64)
    v = np.array([p[1] for p in pairs], dtype=np.int64)
    return CSRGraph.from_edges(u, v, num_vertices=n)


SEEDS = st.integers(0, 2**31 - 1)

PRODUCTION = {
    "maxmin": lambda g, seed: maxmin_coloring(g, seed=seed, compact=False).colors,
    "jp": lambda g, seed: jones_plassmann_coloring(g, seed=seed).colors,
    "speculative": lambda g, seed: speculative_coloring(g, seed=seed).colors,
    "edge-centric": lambda g, seed: edge_centric_maxmin(g, seed=seed).colors,
}


def reference_colors(graph, algorithm, seed, max_rounds=10_000):
    return scan_algorithm_races(graph, algorithm, seed=seed, max_rounds=max_rounds).colors


def uncolored_set(colors):
    return np.flatnonzero(np.asarray(colors) == UNCOLORED).tolist()


class TestColorsMatchReference:
    @pytest.mark.parametrize("algorithm", sorted(PRODUCTION))
    @given(g=frontier_graphs(), seed=SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_random_graphs(self, algorithm, g, seed):
        got = PRODUCTION[algorithm](g, seed)
        assert np.array_equal(got, reference_colors(g, algorithm, seed))

    @pytest.mark.parametrize("algorithm", sorted(PRODUCTION))
    @pytest.mark.parametrize(
        "g",
        [
            CSRGraph.empty(0),
            CSRGraph.empty(1),
            gen.star(1),
            gen.star(40),
            CSRGraph.from_edges([0, 3, 3], [1, 4, 5], num_vertices=500),
            gen.rmat(8, edge_factor=8, seed=1),
        ],
        ids=["n0", "n1", "star1", "star40", "sparse500", "rmat8"],
    )
    def test_edge_shapes(self, algorithm, g):
        got = PRODUCTION[algorithm](g, 11)
        assert np.array_equal(got, reference_colors(g, algorithm, 11))


class TestTruncatedRuns:
    @given(g=frontier_graphs(), seed=SEEDS, k=st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_max_iterations_leaves_reference_uncolored_set(self, g, seed, k):
        got = maxmin_coloring(g, seed=seed, max_iterations=k, compact=False).colors
        ref = reference_colors(g, "maxmin", seed, max_rounds=k)
        assert np.array_equal(got, ref)

    @given(g=frontier_graphs(), seed=SEEDS, below=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_stop_when_active_below_matches_reference(self, g, seed, below):
        result = maxmin_coloring(g, seed=seed, stop_when_active_below=below, compact=False)
        left = uncolored_set(result.colors)
        assert not left or len(left) < below
        ref = reference_colors(g, "maxmin", seed, max_rounds=len(result.iterations))
        assert left == uncolored_set(ref)

    @given(g=frontier_graphs(), seed=SEEDS, fraction=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_hybrid_switch_is_proper_and_complete(self, g, seed, fraction):
        colors = hybrid_switch_coloring(g, seed=seed, switch_fraction=fraction).colors
        u, v = g.edge_array()
        assert not (colors == UNCOLORED).any()
        assert not (colors[u] == colors[v]).any()


class TestLiveSubgraph:
    @given(g=frontier_graphs(), seed=SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_reduce_equals_masked_whole_graph_reduce(self, g, seed):
        rng = np.random.default_rng(seed)
        values = rng.permutation(g.num_vertices).astype(np.float64)
        live = LiveSubgraph(g)
        alive = np.ones(g.num_vertices, dtype=bool)
        while live.ids.size:
            assert live.ids.tolist() == np.flatnonzero(alive).tolist()
            nbr = live.neighbor_values(values)
            hi = neighbor_max(g, np.where(alive, values, -np.inf))[live.ids]
            lo = neighbor_min(g, np.where(alive, values, np.inf))[live.ids]
            assert np.array_equal(live.reduce(nbr, np.maximum, -np.inf), hi)
            assert np.array_equal(live.reduce(nbr, np.minimum, np.inf), lo)
            done = rng.random(live.ids.size) < 0.4
            alive[live.ids[done]] = False
            live.drop(done)
