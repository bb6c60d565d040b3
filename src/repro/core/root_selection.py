"""BFS-root selection for the CPI (Section A.6).

The root is drawn from the core-set (it is the first vertex of the
matching order) and should have few candidates but high degree.  Following
the paper: first rank every eligible vertex by ``|C(u)| / d(u)`` using the
light-weight label+degree candidate count, keep the top 3, then recompute
``C(u)`` for those with the full CandVerify filter and pick the minimum.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional

from ..graph.graph import Graph, GraphError
from .cpi_builder import _root_candidates
from .filters import cand_verify


def select_root(
    query: Graph,
    data: Graph,
    eligible: Optional[Iterable[int]] = None,
    top_k: int = 3,
) -> int:
    """Pick the BFS root as ``arg min |C(u)| / d(u)`` (Section A.6).

    ``eligible`` restricts the pool (the CFL framework passes the
    core-set); by default all query vertices compete.
    """
    pool: List[int] = list(eligible) if eligible is not None else list(query.vertices())
    if not pool:
        raise GraphError("root selection needs at least one eligible vertex")

    # The light |C(u)| (label + degree filters) is a bisect over the
    # sorted degrees of u's label class, sorted once per label per call.
    sorted_degrees: Dict[int, List[int]] = {}

    def light_ratio(u: int) -> float:
        label = query.label(u)
        degrees = sorted_degrees.get(label)
        if degrees is None:
            adj = data.adj
            degrees = sorted([len(adj[v]) for v in data.vertices_with_label(label)])
            sorted_degrees[label] = degrees
        light = len(degrees) - bisect_left(degrees, query.degree(u))
        return light / max(query.degree(u), 1)

    pool.sort(key=lambda u: (light_ratio(u), u))
    shortlist = pool[: max(top_k, 1)]
    if len(shortlist) == 1:
        return shortlist[0]

    def verified_ratio(u: int) -> float:
        verified = _root_candidates(query, data, u, cand_verify)
        return len(verified) / max(query.degree(u), 1)

    return min(shortlist, key=lambda u: (verified_ratio(u), u))
