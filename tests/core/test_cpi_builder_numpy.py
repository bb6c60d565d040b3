"""Tests for the vectorized CPI builder (numpy fast path)."""

import pytest

from repro.core import CFLMatch, build_cpi
from repro.core.batch import AuxAdjacencyCache
from repro.core.cpi_builder_numpy import _NumpyBuildState, build_cpi_numpy
from repro.core.filters import ExtendedCandVerify, cand_verify
from repro.core.stats import SearchStats
from repro.graph import DynamicGraph, Graph
from repro.workloads.paper_graphs import figure7_example
from tests.conftest import nx_monomorphisms, random_instance


def _custom_verify(query, data, u, v):
    return (u + v) % 3 != 0  # arbitrary predicate, counted as "other"


#: Verify factories covering every CandVerify attribution path.
VERIFIERS = {
    "cand_verify": lambda q, g: cand_verify,
    "none": lambda q, g: None,
    "custom": lambda q, g: _custom_verify,
    "extended": lambda q, g: ExtendedCandVerify(q, g),  # label-pair + NLI
}


def _assert_same_build(query, data, root, verifiers=tuple(VERIFIERS)):
    """Both builders, with and without the aux cache, agree with the plain
    reference build on the CPI and on every SearchStats counter, for each
    verify callable and both ``refine`` settings."""
    for name in verifiers:
        for refine in (False, True):
            built = {}
            for builder in (build_cpi, build_cpi_numpy):
                for use_aux in (False, True):
                    stats = SearchStats()
                    cpi = builder(
                        query, data, root, refine=refine,
                        verify=VERIFIERS[name](query, data), stats=stats,
                        aux=AuxAdjacencyCache(data) if use_aux else None,
                    )
                    key = (builder.__name__, use_aux)
                    built[key] = (cpi.candidates, cpi.adjacency, stats.to_dict())
            reference = built["build_cpi", False]
            for key, got in built.items():
                assert got == reference, (name, refine, key)


class TestEquivalence:
    def test_identical_to_reference_on_figure7(self):
        ex = figure7_example()
        _assert_same_build(ex.query, ex.data, ex.q("u0"))

    def test_identical_on_random_instances(self, rng):
        for _ in range(30):
            data, query = random_instance(rng)
            _assert_same_build(query, data, rng.randrange(query.num_vertices))

    def test_verify_none(self):
        ex = figure7_example()
        _assert_same_build(ex.query, ex.data, ex.q("u0"), verifiers=["none"])

    def test_custom_verify_callback(self):
        ex = figure7_example()
        _assert_same_build(ex.query, ex.data, ex.q("u0"), verifiers=["custom"])

    def test_identical_on_dynamic_graph_after_toggles(self, rng):
        for _ in range(10):
            static, query = random_instance(rng)
            data = DynamicGraph.from_graph(static)
            for _ in range(25):
                a, b = rng.sample(range(data.num_vertices), 2)
                if data.has_edge(a, b):
                    data.remove_edge(a, b)
                else:
                    data.add_edge(a, b)
            _assert_same_build(query, data, 0)


class TestGatherNeighbors:
    def _state(self, graph):
        query = Graph([0], [])
        return _NumpyBuildState(query, graph, cand_verify)

    def test_gather_matches_adjacency(self):
        g = Graph([0, 0, 0, 0], [(0, 1), (0, 2), (1, 2), (2, 3)])
        state = self._state(g)
        gathered = state.gather_neighbors([0, 2])
        assert sorted(int(x) for x in gathered) == sorted(
            g.neighbors(0) + g.neighbors(2)
        )

    def test_gather_empty_input(self):
        g = Graph([0, 0], [(0, 1)])
        state = self._state(g)
        assert state.gather_neighbors([]).size == 0

    def test_gather_isolated_vertices(self):
        g = Graph([0, 0, 0], [(0, 1)])
        state = self._state(g)
        assert state.gather_neighbors([2]).size == 0
        assert state.gather_neighbors([2, 0]).tolist() == [1]


class TestMatcherIntegration:
    def test_numpy_matcher_matches_oracle(self, rng):
        for _ in range(10):
            data, query = random_instance(rng)
            got = set(CFLMatch(data, cpi_impl="numpy").search(query))
            assert got == nx_monomorphisms(query, data)

    def test_invalid_impl_rejected(self):
        with pytest.raises(ValueError):
            CFLMatch(Graph([0], []), cpi_impl="cython")

    def test_registered_in_harness(self):
        from repro.bench import MATCHERS

        assert "CFL-Match-NumPy" in MATCHERS

    def test_csr_cached(self):
        g = Graph([0, 1], [(0, 1)])
        first = g.csr()
        assert g.csr() is first
        indptr, indices, labels, degrees = first
        assert indptr.tolist() == [0, 1, 2]
        assert indices.tolist() == [1, 0]
        assert labels.tolist() == [0, 1]
        assert degrees.tolist() == [1, 1]
