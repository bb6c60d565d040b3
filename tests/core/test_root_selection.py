"""Unit tests for BFS-root selection (Section A.6)."""

from collections import Counter

import pytest

from repro.core import select_root
from repro.core.shm import SharedGraphStore, attach_graph_store
from repro.graph import DynamicGraph, Graph, GraphError
from repro.workloads.paper_graphs import figure7_example
from tests.conftest import random_instance


class TestSelectRoot:
    def test_figure7_picks_u0(self):
        """Section A.6's example: u0 has |C|/d = 2/2 = 1, the minimum."""
        ex = figure7_example()
        assert select_root(ex.query, ex.data) == ex.q("u0")

    def test_prefers_rare_labels(self):
        # query: edge with labels 0 (frequent in data) and 1 (rare)
        query = Graph([0, 1], [(0, 1)])
        data = Graph([0, 0, 0, 0, 1], [(0, 4), (1, 4), (2, 4), (3, 4)])
        assert select_root(query, data) == 1

    def test_eligible_restricts_pool(self):
        query = Graph([0, 1], [(0, 1)])
        data = Graph([0, 0, 0, 0, 1], [(0, 4), (1, 4), (2, 4), (3, 4)])
        assert select_root(query, data, eligible=[0]) == 0

    def test_empty_pool_rejected(self):
        query = Graph([0], [])
        data = Graph([0], [])
        with pytest.raises(GraphError):
            select_root(query, data, eligible=[])

    def test_degree_breaks_candidate_ties(self):
        # both labels equally frequent; vertex 1 has higher query degree
        query = Graph([0, 1, 0, 0], [(0, 1), (1, 2), (1, 3)])
        data = Graph(
            [0, 0, 0, 1],
            [(0, 3), (1, 3), (2, 3)],
        )
        assert select_root(query, data) == 1

    def test_root_is_deterministic(self):
        query = Graph([0, 0], [(0, 1)])
        data = Graph([0, 0], [(0, 1)])
        assert select_root(query, data) == select_root(query, data) == 0


def _brute_force_root(query, data, eligible, top_k):
    """Section A.6 stated directly: rank by the label+degree count over
    d(u), keep the top-k, then take the minimum CandVerify count over
    d(u); ties go to the smaller u.  Every filter is re-derived here
    from plain adjacency, independently of the library's indices."""

    def degree(g, x):
        return len(g.neighbors(x))

    def mnd(g, x):
        return max((degree(g, w) for w in g.neighbors(x)), default=0)

    def nlf(g, x):
        return Counter(g.label(w) for w in g.neighbors(x))

    def structural(u):
        return [
            v
            for v in data.vertices()
            if data.label(v) == query.label(u) and degree(data, v) >= degree(query, u)
        ]

    def verified(u):
        need = nlf(query, u)
        return [
            v
            for v in structural(u)
            if mnd(data, v) >= mnd(query, u)
            and all(nlf(data, v)[lab] >= k for lab, k in need.items())
        ]

    def ratio(count, u):
        return count / max(degree(query, u), 1)

    ranked = sorted(eligible, key=lambda u: (ratio(len(structural(u)), u), u))
    shortlist = ranked[: max(top_k, 1)]
    return min(shortlist, key=lambda u: (ratio(len(verified(u)), u), u))


def _pools(query, rng):
    everything = list(query.vertices())
    subset = rng.sample(everything, rng.randint(1, len(everything)))
    return [None, subset]


def _check_against_brute_force(query, data, rng):
    for eligible in _pools(query, rng):
        pool = list(query.vertices()) if eligible is None else eligible
        for top_k in range(1, 6):
            want = _brute_force_root(query, data, pool, top_k)
            assert select_root(query, data, eligible, top_k) == want, (eligible, top_k)


class TestSelectRootProperty:
    def test_matches_brute_force_on_graph(self, rng):
        for _ in range(150):
            data, query = random_instance(rng, data_vertices=(8, 60))
            _check_against_brute_force(query, data, rng)

    def test_matches_brute_force_on_dynamic_graph(self, rng):
        for _ in range(20):
            static, query = random_instance(rng, data_vertices=(8, 60))
            data = DynamicGraph.from_graph(static)
            for _ in range(30):
                a, b = rng.sample(range(data.num_vertices), 2)
                if data.has_edge(a, b):
                    data.remove_edge(a, b)
                else:
                    data.add_edge(a, b)
            _check_against_brute_force(query, data, rng)

    def test_matches_brute_force_on_shared_graph(self, rng):
        for _ in range(10):
            data, query = random_instance(rng, data_vertices=(8, 60))
            with SharedGraphStore.create(data) as store:
                attached = attach_graph_store(store.worker_handle())
                try:
                    _check_against_brute_force(query, attached.graph, rng)
                finally:
                    attached.close()
