"""Candidate filtering (CandVerify, Algorithm 6 / Section A.6).

A data vertex ``v`` can be the image of a query vertex ``u`` only if it
passes, in increasing cost order:

1. **label filter** [19]  — ``l(v) == l(u)``;
2. **degree filter** [19] — ``d(v) >= d(u)``;
3. **maximum neighbor-degree (MND) filter** (Definition A.1, Lemma A.1, the
   paper's new light-weight constant-time filter) —
   ``mnd(v) >= mnd(u)``;
4. **neighborhood label frequency (NLF) filter** [24] — for every label
   ``l`` among ``u``'s neighbors, ``d(v, l) >= d(u, l)``.

The label and degree filters are applied inline by the CPI builders (they
fall out of the candidate-generation loops); :func:`cand_verify` bundles
the MND and NLF checks exactly as Algorithm 6 does.

Optimizer round 2 adds two cheaper l2Match-style pre-checks ahead of
MND/NLF, packaged as :class:`ExtendedCandVerify` (a drop-in ``verify``
callable bound to one (query, data) pair):

5. **label-pair filter** — for every label ``l`` among ``u``'s
   neighbors, the data graph must contain at least one edge connecting
   ``l(u)`` and ``l`` (:meth:`~repro.graph.graph.Graph.label_pair_index`).
   The verdict is independent of ``v``, precomputed once per query
   vertex, and rejects whole candidate sets at constant cost.
6. **neighboring-label (NLI) filter** — the set of labels around ``u``
   must be a subset of the labels around ``v``; both sides are bitmasks
   (:meth:`~repro.graph.graph.Graph.nli_mask`), so the check is one
   integer operation (a strictly weaker but much cheaper form of NLF).

Both are pruning-only: every vertex they reject is also rejected by the
NLF filter, so enabling them never changes the built CPI — only how
cheaply rejected candidates are discarded (and which counter records
the rejection).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from ..graph.graph import Graph
from .stats import SearchStats


def label_degree_ok(query: Graph, data: Graph, u: int, v: int) -> bool:
    """Label filter + degree filter."""
    return query.label(u) == data.label(v) and data.degree(v) >= query.degree(u)


def mnd_ok(query: Graph, data: Graph, u: int, v: int) -> bool:
    """Maximum neighbor-degree filter (Lemma A.1)."""
    return data.mnd(v) >= query.mnd(u)


def nlf_ok(query: Graph, data: Graph, u: int, v: int) -> bool:
    """Neighborhood label frequency filter: d(v, l) >= d(u, l) for all l."""
    data_nlf = data.nlf(v)
    for lab, needed in query.nlf(u).items():
        if data_nlf.get(lab, 0) < needed:
            return False
    return True


def cand_verify(query: Graph, data: Graph, u: int, v: int) -> bool:
    """Algorithm 6: the constant-time MND filter, then the NLF filter."""
    if data.mnd(v) < query.mnd(u):
        return False
    return nlf_ok(query, data, u, v)


def full_candidate_check(query: Graph, data: Graph, u: int, v: int) -> bool:
    """All four local filters; used for root candidates and baselines."""
    return label_degree_ok(query, data, u, v) and cand_verify(query, data, u, v)


class ExtendedCandVerify:
    """CandVerify preceded by the label-pair and/or NLI filters.

    Bound to one ``(query, data)`` pair at construction: the per-query-
    vertex label-pair verdicts and required NLI masks are precomputed
    once, so the per-candidate cost is one list index plus (for NLI) one
    integer subset test before Algorithm 6 runs.  Instances are created
    fresh per CPI build (and per incremental repair sweep), never cached
    across graph versions.
    """

    __slots__ = ("query", "data", "label_pair", "nli", "pair_ok", "masks")

    def __init__(
        self,
        query: Graph,
        data: Graph,
        label_pair: bool = True,
        nli: bool = True,
    ) -> None:
        self.query = query
        self.data = data
        self.label_pair = label_pair
        self.nli = nli
        self.pair_ok: List[bool] = []
        self.masks: List[Optional[int]] = []
        for u in query.vertices():
            neighbor_labels = query.nlf(u)
            if label_pair:
                lu = query.label(u)
                self.pair_ok.append(
                    all(data.has_label_pair(lu, lab) for lab in neighbor_labels)
                )
            if nli:
                self.masks.append(data.nli_required_mask(neighbor_labels))

    def __call__(self, query: Graph, data: Graph, u: int, v: int) -> bool:
        if self.label_pair and not self.pair_ok[u]:
            return False
        if self.nli:
            required = self.masks[u]
            if required is None or required & ~data.nli_mask(v):
                return False
        return cand_verify(query, data, u, v)


def make_counting_verify(
    verify: Optional[Callable[[Graph, Graph, int, int], bool]],
    stats: Optional[SearchStats],
) -> Optional[Callable[[Graph, Graph, int, int], bool]]:
    """Wrap a CandVerify callable so rejections are counted per filter.

    An :class:`ExtendedCandVerify` attributes its label-pair, NLI, MND
    and NLF rejections to ``filter_label_pair_pruned`` /
    ``filter_nli_pruned`` / ``filter_mnd_pruned`` /
    ``filter_nlf_pruned`` in check order; any other callable is counted
    under ``filter_other_pruned``.  The default :func:`cand_verify` is
    counted by :func:`verify_candidates`, which is the way to verify a
    list of vertices with any callable.  With ``stats=None`` (or
    ``verify=None``) the original callable is returned untouched, so
    the uncounted hot path pays nothing.
    """
    if stats is None or verify is None:
        return verify
    if isinstance(verify, ExtendedCandVerify):
        extended = verify

        def counted_extended(query: Graph, data: Graph, u: int, v: int) -> bool:
            if extended.label_pair and not extended.pair_ok[u]:
                stats.filter_label_pair_pruned += 1
                return False
            if extended.nli:
                required = extended.masks[u]
                if required is None or required & ~data.nli_mask(v):
                    stats.filter_nli_pruned += 1
                    return False
            if data.mnd(v) < query.mnd(u):
                stats.filter_mnd_pruned += 1
                return False
            if not nlf_ok(query, data, u, v):
                stats.filter_nlf_pruned += 1
                return False
            return True

        return counted_extended

    def counted_other(query: Graph, data: Graph, u: int, v: int) -> bool:
        if not verify(query, data, u, v):
            stats.filter_other_pruned += 1
            return False
        return True

    return counted_other


def verify_candidates(
    query: Graph,
    data: Graph,
    u: int,
    vertices: Iterable[int],
    verify: Optional[Callable[[Graph, Graph, int, int], bool]],
    stats: Optional[SearchStats],
) -> List[int]:
    """The ``vertices`` that pass ``verify`` for ``u``, in input order.

    For the default :func:`cand_verify`, ``u``'s MND bound and NLF
    requirements are read once for the whole list, and the MND and NLF
    rejections are charged to ``filter_mnd_pruned`` /
    ``filter_nlf_pruned`` (Algorithm 6's check order); an
    :class:`ExtendedCandVerify` or any other callable goes through the
    per-vertex call of :func:`make_counting_verify`.
    """
    if verify is None:
        return list(vertices)
    if verify is not cand_verify:
        counted = make_counting_verify(verify, stats)
        assert counted is not None
        return [v for v in vertices if counted(query, data, u, v)]
    mnd_u = query.mnd(u)
    needs = tuple(query.nlf(u).items())
    data_mnd, data_nlf = data.mnd, data.nlf
    kept: List[int] = []
    mnd_pruned = nlf_pruned = 0
    for v in vertices:
        if data_mnd(v) < mnd_u:
            mnd_pruned += 1
            continue
        nlf = data_nlf(v)
        for lab, needed in needs:
            if nlf.get(lab, 0) < needed:
                nlf_pruned += 1
                break
        else:
            kept.append(v)
    if stats is not None:
        stats.filter_mnd_pruned += mnd_pruned
        stats.filter_nlf_pruned += nlf_pruned
    return kept
