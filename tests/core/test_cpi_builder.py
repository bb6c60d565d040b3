"""Unit tests for CPI construction (Algorithms 3 & 4, Examples 5.1/5.2)."""

from repro.core import build_cpi, build_naive_cpi
from repro.core.batch import AuxAdjacencyCache
from repro.core.cpi import QueryBFSTree
from repro.core.cpi_builder import _top_down_construct
from repro.core.filters import cand_verify
from repro.core.stats import SearchStats
from repro.graph import DynamicGraph, Graph
from repro.workloads.paper_graphs import figure7_example
from tests.conftest import nx_monomorphisms, random_instance


def _names(ex, cpi, query_name):
    inverse = {i: n for n, i in ex.data_ids.items()}
    return sorted(
        (inverse[v] for v in cpi.candidates[ex.q(query_name)]),
        key=lambda s: int(s[1:]),
    )


class TestExample51TopDown:
    """Every intermediate state of the paper's Example 5.1."""

    def _top_down(self, ex):
        tree = QueryBFSTree.build(ex.query, ex.q("u0"))
        return _top_down_construct(tree, ex.data, cand_verify)

    def test_root_candidates(self):
        ex = figure7_example()
        assert _names(ex, self._top_down(ex), "u0") == ["v1", "v2"]

    def test_u1_after_backward_pruning(self):
        """Forward gives {v3,v5,v7,v9}; the backward pass removes v9."""
        ex = figure7_example()
        assert _names(ex, self._top_down(ex), "u1") == ["v3", "v5", "v7"]

    def test_u2_candverify_prunes_v10(self):
        ex = figure7_example()
        assert _names(ex, self._top_down(ex), "u2") == ["v4", "v6", "v8"]

    def test_u3_counting_prunes_v13_v15(self):
        ex = figure7_example()
        assert _names(ex, self._top_down(ex), "u3") == ["v11", "v12"]


class TestExample52BottomUp:
    """Every pruning step of the paper's Example 5.2."""

    def test_final_candidate_sets(self):
        ex = figure7_example()
        cpi = build_cpi(ex.query, ex.data, ex.q("u0"))
        assert _names(ex, cpi, "u0") == ["v1"]
        assert _names(ex, cpi, "u1") == ["v3", "v5"]
        assert _names(ex, cpi, "u2") == ["v4", "v6"]
        assert _names(ex, cpi, "u3") == ["v11", "v12"]

    def test_v7_removed_from_v1_adjacency(self):
        ex = figure7_example()
        cpi = build_cpi(ex.query, ex.data, ex.q("u0"))
        row = cpi.child_candidates(ex.q("u1"), ex.v("v1"))
        assert sorted(row) == sorted([ex.v("v3"), ex.v("v5")])

    def test_pruned_parents_lose_adjacency_lists(self):
        ex = figure7_example()
        cpi = build_cpi(ex.query, ex.data, ex.q("u0"))
        assert cpi.child_candidates(ex.q("u1"), ex.v("v2")) == ()

    def test_refinement_only_shrinks(self):
        ex = figure7_example()
        tree = QueryBFSTree.build(ex.query, ex.q("u0"))
        td = _top_down_construct(tree, ex.data, cand_verify)
        full = build_cpi(ex.query, ex.data, ex.q("u0"))
        for u in ex.query.vertices():
            assert set(full.candidates[u]) <= set(td.candidates[u])


class TestSoundness:
    def test_cpi_contains_all_true_embeddings(self, rng):
        """Lemmas 5.2/5.3: u.C contains M(u) for every embedding M."""
        for _ in range(25):
            data, query = random_instance(rng)
            truth = nx_monomorphisms(query, data)
            for refine in (False, True):
                cpi = build_cpi(query, data, 0, refine=refine)
                for emb in truth:
                    for u, v in enumerate(emb):
                        assert v in cpi.cand_sets[u], (u, v, refine)

    def test_adjacency_soundness(self, rng):
        """Tree-edge images of true embeddings survive in adjacency lists."""
        for _ in range(15):
            data, query = random_instance(rng)
            truth = nx_monomorphisms(query, data)
            cpi = build_cpi(query, data, 0)
            for emb in truth:
                for u in query.vertices():
                    p = cpi.tree.parent[u]
                    if p is None:
                        continue
                    assert emb[u] in cpi.child_candidates(u, emb[p])

    def test_verify_none_disables_candverify(self):
        ex = figure7_example()
        tree = QueryBFSTree.build(ex.query, ex.q("u0"))
        unfiltered = _top_down_construct(tree, ex.data, None)
        # without CandVerify, v10 survives the forward pass for u2
        assert ex.v("v10") in unfiltered.candidates[ex.q("u2")]


class TestNaiveCPI:
    def test_candidates_are_label_sets(self):
        ex = figure7_example()
        cpi = build_naive_cpi(ex.query, ex.data, ex.q("u0"))
        for u in ex.query.vertices():
            expected = ex.data.vertices_with_label(ex.query.label(u))
            assert cpi.candidates[u] == list(expected)

    def test_naive_is_superset_of_refined(self):
        ex = figure7_example()
        naive = build_naive_cpi(ex.query, ex.data, ex.q("u0"))
        full = build_cpi(ex.query, ex.data, ex.q("u0"))
        for u in ex.query.vertices():
            assert set(full.candidates[u]) <= set(naive.candidates[u])

    def test_naive_adjacency_edges_exist_in_data(self):
        ex = figure7_example()
        cpi = build_naive_cpi(ex.query, ex.data, ex.q("u0"))
        for u in ex.query.vertices():
            for v_p, row in cpi.adjacency[u].items():
                for v in row:
                    assert ex.data.has_edge(v_p, v)


class TestEdgeCases:
    def test_single_vertex_query(self):
        data = Graph([0, 0, 1], [(0, 1), (1, 2)])
        query = Graph([0], [])
        cpi = build_cpi(query, data, 0)
        assert cpi.candidates[0] == [0, 1]

    def test_no_candidates_anywhere(self):
        data = Graph([0, 0], [(0, 1)])
        query = Graph([9, 9], [(0, 1)])
        cpi = build_cpi(query, data, 0)
        assert cpi.is_empty()
        assert cpi.candidates == [[], []]

    def test_empty_propagates_through_refinement(self):
        """If a child has no candidates, refinement empties ancestors."""
        data = Graph([0, 1], [(0, 1)])
        query = Graph([0, 1, 2], [(0, 1), (1, 2)])  # label 2 missing in data
        cpi = build_cpi(query, data, 0)
        assert cpi.candidates[2] == []
        assert cpi.candidates[1] == []
        assert cpi.candidates[0] == []


def _custom_verify(query, data, u, v):
    return (u + v) % 3 != 0  # arbitrary predicate, counted as "other"


#: Verify callables covering every CandVerify attribution path.
VERIFIERS = {
    "cand_verify": cand_verify,
    "none": None,
    "custom": _custom_verify,
}


def _assert_same_build(query, data, root, verifiers=tuple(VERIFIERS)):
    """``build_cpi`` with a batch-shared ``AuxAdjacencyCache`` agrees with
    the plain build on the CPI and on every SearchStats counter, for each
    verify callable and both ``refine`` settings."""
    for name in verifiers:
        for refine in (False, True):
            built = {}
            for use_aux in (False, True):
                stats = SearchStats()
                cpi = build_cpi(
                    query, data, root, refine=refine,
                    verify=VERIFIERS[name], stats=stats,
                    aux=AuxAdjacencyCache(data) if use_aux else None,
                )
                built[use_aux] = (cpi.candidates, cpi.adjacency, stats.to_dict())
            assert built[True] == built[False], (name, refine)


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
