"""Unit tests for candidate filters (CandVerify, Section A.6)."""

from repro.core import cand_verify, full_candidate_check, label_degree_ok, mnd_ok, nlf_ok
from repro.core.filters import verify_candidates
from repro.core.stats import SearchStats
from repro.graph import Graph
from tests.conftest import random_instance


def star(center_label, leaf_labels):
    """Star graph: vertex 0 is the center."""
    labels = [center_label] + list(leaf_labels)
    return Graph(labels, [(0, i + 1) for i in range(len(leaf_labels))])


class TestLabelDegree:
    def test_label_mismatch(self):
        q = star(0, [1])
        d = star(2, [1])
        assert not label_degree_ok(q, d, 0, 0)

    def test_degree_too_small(self):
        q = star(0, [1, 1, 1])
        d = star(0, [1, 1])
        assert not label_degree_ok(q, d, 0, 0)

    def test_degree_larger_is_fine(self):
        q = star(0, [1])
        d = star(0, [1, 1, 1])
        assert label_degree_ok(q, d, 0, 0)


class TestMND:
    def test_mnd_prunes(self):
        # query center's neighbor has degree 3; data neighborhood is all degree-1
        q = Graph([0, 1, 2, 2], [(0, 1), (1, 2), (1, 3)])
        d = Graph([0, 1], [(0, 1)])
        assert q.mnd(0) == 3
        assert d.mnd(0) == 1
        assert not mnd_ok(q, d, 0, 0)
        assert not cand_verify(q, d, 0, 0)

    def test_mnd_passes_when_equal(self):
        q = Graph([0, 1], [(0, 1)])
        d = Graph([0, 1], [(0, 1)])
        assert mnd_ok(q, d, 0, 0)


class TestNLF:
    def test_nlf_counts_matter(self):
        # query center needs two label-1 neighbors
        q = star(0, [1, 1])
        d_ok = star(0, [1, 1, 2])
        d_bad = star(0, [1, 2, 2])
        assert nlf_ok(q, d_ok, 0, 0)
        assert not nlf_ok(q, d_bad, 0, 0)

    def test_extra_labels_do_not_hurt(self):
        q = star(0, [1])
        d = star(0, [1, 5, 6])
        assert nlf_ok(q, d, 0, 0)

    def test_missing_label_fails(self):
        q = star(0, [3])
        d = star(0, [1, 2])
        assert not nlf_ok(q, d, 0, 0)


class TestCandVerify:
    def test_figure7_v10_fails_nlf(self):
        """The paper's Example 5.1: v10 pruned for lacking a D neighbor."""
        from repro.workloads.paper_graphs import figure7_example

        ex = figure7_example()
        assert not cand_verify(ex.query, ex.data, ex.q("u2"), ex.v("v10"))
        assert cand_verify(ex.query, ex.data, ex.q("u2"), ex.v("v4"))

    def test_full_check_combines_all(self):
        q = star(0, [1, 1])
        d = star(0, [1, 1])
        assert full_candidate_check(q, d, 0, 0)
        assert not full_candidate_check(q, d, 0, 1)  # leaf has wrong label

    def test_soundness_on_random_instances(self, rng):
        """No true embedding image may ever be filtered out."""
        from tests.conftest import nx_monomorphisms, random_instance

        for _ in range(15):
            data, query = random_instance(rng)
            for emb in nx_monomorphisms(query, data):
                for u, v in enumerate(emb):
                    assert full_candidate_check(query, data, u, v)


class TestVerifyCandidatesAttribution:
    """``verify_candidates`` is the batched CandVerify: it must keep what a
    per-vertex loop keeps and charge each rejection to the filter that
    fires first in Algorithm 6's order (MND, then NLF)."""

    def test_cand_verify_matches_per_vertex_loop(self, rng):
        charged = {"mnd": 0, "nlf": 0}
        for _ in range(40):
            data, query = random_instance(rng)
            vertices = list(data.vertices())
            for u in query.vertices():
                stats = SearchStats()
                kept = verify_candidates(query, data, u, vertices, cand_verify, stats)
                assert kept == [v for v in vertices if cand_verify(query, data, u, v)]
                mnd_rejects = [v for v in vertices if not mnd_ok(query, data, u, v)]
                nlf_rejects = [
                    v for v in vertices
                    if mnd_ok(query, data, u, v) and not nlf_ok(query, data, u, v)
                ]
                assert stats.filter_mnd_pruned == len(mnd_rejects)
                assert stats.filter_nlf_pruned == len(nlf_rejects)
                assert stats.filter_other_pruned == 0
                charged["mnd"] += len(mnd_rejects)
                charged["nlf"] += len(nlf_rejects)
        # Both branches must actually be exercised for the check to bite.
        assert charged["mnd"] > 0 and charged["nlf"] > 0

    def test_custom_callable_charges_only_other(self, rng):
        def custom(query, data, u, v):
            return (u + v) % 3 != 0

        for _ in range(20):
            data, query = random_instance(rng)
            vertices = list(data.vertices())
            for u in query.vertices():
                stats = SearchStats()
                kept = verify_candidates(query, data, u, vertices, custom, stats)
                assert kept == [v for v in vertices if custom(query, data, u, v)]
                expected = SearchStats()
                expected.filter_other_pruned = len(vertices) - len(kept)
                assert stats.to_dict() == expected.to_dict()

    def test_none_keeps_everything_and_charges_nothing(self, rng):
        data, query = random_instance(rng)
        stats = SearchStats()
        vertices = list(data.vertices())
        assert verify_candidates(query, data, 0, iter(vertices), None, stats) == vertices
        assert stats.to_dict() == SearchStats().to_dict()
