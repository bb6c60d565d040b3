"""CPI construction (Section 5): top-down build + bottom-up refinement.

Minimizing a sound CPI is NP-hard (Lemma 4.1), so the paper constructs a
*small and sound* CPI heuristically in two ``O(|E(G)| x |E(q)|)`` phases:

* **Top-down construction** (Algorithm 3) visits query vertices
  level-by-level.  For every level it (1) generates candidates forward
  using all *visited* neighbors — the BFS parent, upper-level C-NTE
  neighbors and already-processed same-level S-NTE neighbors; (2) prunes
  backward using the *unvisited* S-NTE neighbors; (3) materializes the
  adjacency lists of the level's tree edges.
* **Bottom-up refinement** (Algorithm 4) walks the levels bottom-up,
  pruning every ``u.C`` against its lower-level neighbors (tree children
  and downward C-NTEs) and then shrinking adjacency lists to the refined
  candidate sets.

Together, both directions of every query edge are exploited for pruning
(Table 2).  The *naive* builder of Section 4.1 (label-only candidates) is
also provided — it backs the ``CFL-Match-Naive`` variant of Figure 15.

Both builders accept an optional :class:`~repro.core.stats.SearchStats`
(per-filter prune counts and the top-down vs bottom-up refinement delta
— see :mod:`repro.core.stats`) and an optional absolute ``deadline``
checked once per query vertex, so a run whose budget expires *during*
CPI construction terminates with :class:`SearchTimeout` instead of
finishing an arbitrarily expensive build.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    TYPE_CHECKING,
    AbstractSet,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graph.graph import Graph
from .core_match import SearchTimeout
from .cpi import CPI, QueryBFSTree
from .filters import cand_verify, verify_candidates
from .stats import SearchStats, monotonic_now

if TYPE_CHECKING:  # pragma: no cover - types only
    from .batch import AuxAdjacencyCache

VerifyFn = Callable[[Graph, Graph, int, int], bool]
RowFn = Callable[[int], Sequence[int]]

#: ``(row_of, cands)``: follow ``row_of(v')`` out of every ``v'`` in ``cands``.
Source = Tuple[RowFn, Sequence[int]]


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and monotonic_now() > deadline:
        raise SearchTimeout


def _root_candidates(
    query: Graph,
    data: Graph,
    root: int,
    verify: Optional[VerifyFn],
    stats: Optional[SearchStats] = None,
) -> List[int]:
    """Lines 1-2 of Algorithm 3: label + degree + CandVerify on the root,
    counting the degree prunes, the structural (pre-CandVerify)
    survivors and the per-filter CandVerify rejections."""
    same_label = data.vertices_with_label(query.label(root))
    degree, adj = query.degree(root), data.adj
    structural = [v for v in same_label if len(adj[v]) >= degree]
    if stats is not None:
        stats.filter_degree_pruned += len(same_label) - len(structural)
        stats.cpi_candidates_structural += len(structural)
    return verify_candidates(query, data, root, structural, verify, stats)


def _sources(
    query: Graph,
    data: Graph,
    u: int,
    neighbors: Iterable[int],
    cands_of: RowFn,
    aux: Optional["AuxAdjacencyCache"] = None,
) -> List[Source]:
    """One reach source toward ``u`` per query neighbor in ``neighbors``.

    With ``aux`` the rows are the cached ``(l(u'), l(u), d(u))`` rows:
    the label-matching, degree-bucket-filtered subsequences of the raw
    rows, which reach the same label-``l(u)`` vertices of degree at
    least ``d(u)``.
    """
    if aux is None:
        row_of = data.adj.__getitem__
        return [(row_of, cands_of(x)) for x in neighbors]
    label, degree = query.label(u), query.degree(u)
    return [
        (aux.lookup(query.label(x), label, degree).row, cands_of(x))
        for x in neighbors
    ]


def _common_reach(
    sources: Iterable[Source], within: Optional[Iterable[int]] = None
) -> Set[int]:
    """Data vertices adjacent to some candidate of *every* source, and in
    ``within`` when given: the set Lemma 5.1's gated counter selects
    (docs/algorithms.md), by C-level set union and intersection."""
    reach = None if within is None else set(within)
    for row_of, cands in sources:
        rows = chain.from_iterable(map(row_of, cands))
        if reach is None:
            reach = set(rows)
        elif reach:
            reach.intersection_update(rows)
    return set() if reach is None else reach


def _forward_candidates(
    query: Graph,
    data: Graph,
    u: int,
    sources: List[Source],
    verify: Optional[VerifyFn],
    stats: Optional[SearchStats],
) -> List[int]:
    """Lines 5-17 of Algorithm 3: the common reach of the visited
    neighbors, label- and degree-filtered, sorted, then CandVerified."""
    label, degree = query.label(u), query.degree(u)
    labels, adj = data.labels, data.adj
    structural = sorted(
        v
        for v in _common_reach(sources)
        if labels[v] == label and len(adj[v]) >= degree
    )
    if stats is not None:
        stats.cpi_candidates_structural += len(structural)
    return verify_candidates(query, data, u, structural, verify, stats)


def _keep_reached(cands: List[int], sources: List[Source]) -> List[int]:
    """``cands`` (already label/degree-filtered) restricted to the common
    reach of ``sources``; ``cands`` itself when nothing is dropped."""
    reach = _common_reach(sources, within=cands)
    if len(reach) == len(cands):
        return cands
    return [v for v in cands if v in reach]


def _adjacency_table(
    row_of: RowFn, parents: Sequence[int], cands: Sequence[int]
) -> Dict[int, List[int]]:
    """Lines 24-28 of Algorithm 3: every parent candidate's row cut to
    ``cands``, empty rows dropped.  ``cands`` holds only label-``l(u)``
    vertices, so no label test is needed."""
    keep = set(cands).__contains__
    return {v_p: row for v_p in parents if (row := list(filter(keep, row_of(v_p))))}


def _refine_table(
    table: Mapping[int, Sequence[int]],
    parent_cands: AbstractSet[int],
    child_cands: AbstractSet[int],
    stats: Optional[SearchStats],
) -> Dict[int, List[int]]:
    """Lines 8-11 of Algorithm 4: a copy of a child table keeping the
    rows of surviving parent candidates, each cut to the child's
    candidates; every dropped entry counts as refine_adjacency_pruned."""
    keep = child_cands.__contains__
    refined: Dict[int, List[int]] = {}
    dropped = 0
    for v, row in table.items():
        pruned = list(filter(keep, row)) if v in parent_cands else []
        dropped += len(row) - len(pruned)
        if pruned:
            refined[v] = pruned
    if stats is not None:
        stats.refine_adjacency_pruned += dropped
    return refined


def _record_build_totals(cpi: CPI, stats: Optional[SearchStats]) -> None:
    if stats is None:
        return
    stats.cpi_candidates_final += sum(len(c) for c in cpi.candidates)
    stats.cpi_edges_final += sum(
        sum(len(row) for row in table.values()) for table in cpi.adjacency
    )


def build_cpi(
    query: Graph,
    data: Graph,
    root: int,
    refine: bool = True,
    verify: Optional[VerifyFn] = cand_verify,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
    aux: Optional["AuxAdjacencyCache"] = None,
) -> CPI:
    """Build a small, sound CPI for ``query`` over ``data``.

    ``refine=False`` stops after the top-down phase (the ``CFL-Match-TD``
    variant); ``verify=None`` disables the CandVerify MND/NLF filtering.
    ``aux`` (a :class:`~repro.core.batch.AuxAdjacencyCache`) serves
    pre-intersected label-pair adjacency rows during construction; the
    resulting CPI is identical with or without it.
    """
    tree = QueryBFSTree.build(query, root)
    cpi = _top_down_construct(tree, data, verify, stats, deadline, aux)
    if stats is not None:
        stats.cpi_candidates_topdown += sum(len(c) for c in cpi.candidates)
    if refine:
        _bottom_up_refine(cpi, stats, deadline, aux)
        if stats is not None:
            stats.refine_passes += 1
    _record_build_totals(cpi, stats)
    return cpi


def build_naive_cpi(
    query: Graph,
    data: Graph,
    root: int,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
) -> CPI:
    """Section 4.1's naive sound CPI: ``u.C`` = all vertices labeled l(u)."""
    tree = QueryBFSTree.build(query, root)
    candidates = [list(data.vertices_with_label(query.label(u))) for u in query.vertices()]
    adjacency: List[Dict[int, List[int]]] = [dict() for _ in query.vertices()]
    for u in query.vertices():
        _check_deadline(deadline)
        parent = tree.parent[u]
        if parent is not None:
            adjacency[u] = _adjacency_table(
                data.adj.__getitem__, candidates[parent], candidates[u]
            )
    cpi = CPI(tree, data, candidates, adjacency)
    if stats is not None:
        total = sum(len(c) for c in candidates)
        stats.cpi_candidates_structural += total
        stats.cpi_candidates_topdown += total
    _record_build_totals(cpi, stats)
    return cpi


# ----------------------------------------------------------------------
# Top-down construction (Algorithm 3)
# ----------------------------------------------------------------------
def _split_neighbors(
    query: Graph, tree: QueryBFSTree, visited: List[bool], u: int
) -> Tuple[List[int], List[int]]:
    """``u``'s visited neighbors (forward sources) and unvisited
    same-level neighbors (backward S-NTE sources), in neighbor order."""
    sources: List[int] = []
    pending: List[int] = []
    for u_prime in query.neighbors(u):
        if visited[u_prime]:
            sources.append(u_prime)
        elif tree.level[u_prime] == tree.level[u]:
            pending.append(u_prime)
    return sources, pending


def _top_down_construct(
    tree: QueryBFSTree,
    data: Graph,
    verify: Optional[VerifyFn],
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
    aux: Optional["AuxAdjacencyCache"] = None,
) -> CPI:
    query = tree.query
    n_q = query.num_vertices
    root = tree.root

    candidates: List[List[int]] = [[] for _ in range(n_q)]
    adjacency: List[Dict[int, List[int]]] = [dict() for _ in range(n_q)]
    cands_of = candidates.__getitem__
    candidates[root] = _root_candidates(query, data, root, verify, stats)

    visited = [False] * n_q
    visited[root] = True
    unvisited_same_level: List[List[int]] = [[] for _ in range(n_q)]

    for level_vertices in tree.levels[1:]:
        # ---- Forward candidate generation (Lines 5-17) ----
        for u in level_vertices:
            _check_deadline(deadline)
            sources, unvisited_same_level[u] = _split_neighbors(
                query, tree, visited, u
            )
            candidates[u] = _forward_candidates(
                query, data, u, _sources(query, data, u, sources, cands_of, aux),
                verify, stats,
            )
            visited[u] = True

        # ---- Backward candidate pruning (Lines 18-23) ----
        for u in reversed(level_vertices):
            pending = unvisited_same_level[u]
            if not pending:
                continue
            _check_deadline(deadline)
            before = len(candidates[u])
            candidates[u] = _keep_reached(
                candidates[u], _sources(query, data, u, pending, cands_of, aux)
            )
            if stats is not None:
                stats.filter_snte_pruned += before - len(candidates[u])

        # ---- Adjacency list construction (Lines 24-28) ----
        for u in level_vertices:
            _check_deadline(deadline)
            u_parent = tree.parent[u]
            assert u_parent is not None
            # Members of u.C passed the degree >= d(u) gate, so the aux
            # row keeps exactly the neighbors the raw row would keep.
            row_of: RowFn = data.adj.__getitem__
            if aux is not None:
                key = (query.label(u_parent), query.label(u), query.degree(u))
                row_of = aux.lookup(*key).row
            adjacency[u] = _adjacency_table(
                row_of, candidates[u_parent], candidates[u]
            )
    return CPI(tree, data, candidates, adjacency)


# ----------------------------------------------------------------------
# Bottom-up refinement (Algorithm 4)
# ----------------------------------------------------------------------
def _bottom_up_refine(
    cpi: CPI,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
    aux: Optional["AuxAdjacencyCache"] = None,
) -> None:
    tree = cpi.tree
    query = tree.query
    data = cpi.data
    cands_of = cpi.candidates.__getitem__

    for level_vertices in reversed(tree.levels):
        for u in level_vertices:
            _check_deadline(deadline)
            lower = [
                u_prime
                for u_prime in query.neighbors(u)
                if tree.level[u_prime] > tree.level[u]
            ]
            # Tree children are lower neighbors: no lower, nothing to do.
            if not lower:
                continue
            # ---- Candidate refinement (Lines 2-7) ----
            before = cpi.candidates[u]
            kept = _keep_reached(
                before, _sources(query, data, u, lower, cands_of, aux)
            )
            if kept is not before:
                cpi.candidates[u] = kept
                cpi.cand_sets[u] = set(kept)
                if stats is not None:
                    stats.refine_candidates_pruned += len(before) - len(kept)
            # ---- Adjacency list pruning (Lines 8-11) ----
            for child in tree.children[u]:
                cpi.adjacency[child] = _refine_table(
                    cpi.adjacency[child], cpi.cand_sets[u],
                    cpi.cand_sets[child], stats,
                )
