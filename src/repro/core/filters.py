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
    ``filter_nlf_pruned`` (Algorithm 6's check order); any other
    callable is called per vertex and its rejections are charged to
    ``filter_other_pruned``.
    """
    if verify is None:
        return list(vertices)
    kept: List[int] = []
    if verify is not cand_verify:
        other_pruned = 0
        for v in vertices:
            if verify(query, data, u, v):
                kept.append(v)
            else:
                other_pruned += 1
        if stats is not None:
            stats.filter_other_pruned += other_pruned
        return kept
    mnd_u = query.mnd(u)
    needs = tuple(query.nlf(u).items())
    data_mnd, data_nlf = data.mnd, data.nlf
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
