"""Vectorized CPI construction — numpy fast path for Algorithms 3 and 4.

Produces bit-identical CPIs to :mod:`repro.core.cpi_builder` but replaces
the per-vertex counting loops with array operations over a CSR view of
the data graph:

* Lemma 5.1's gated counter becomes, per query neighbor ``u'``, a boolean
  "reached" mask (union of the candidate rows of ``u'.C``) added into an
  integer count array; a vertex qualifies when its count equals ``|u.N|``;
* the label/degree/MND filters become vectorized masks (NLF stays
  per-candidate — it is only evaluated on the already-small survivor set);
* adjacency rows are gathered with boolean membership bitmaps.

Select it with ``CFLMatch(data, cpi_impl="numpy")``; the equivalence,
counters included, is property-tested.  It is not faster than the
default builder on the benchmark workloads: measured in one process on
a 2-CPU Xeon (median per-query prepare, 35 proxy-prepare and 25
dense-enum queries, 5 repeats), it takes 106 vs 71 ms and 21 vs 13 ms
(docs/performance.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - types only
    from .batch import AuxAdjacencyCache

from ..graph.graph import Graph
from .cpi import CPI, QueryBFSTree
from .cpi_builder import (
    VerifyFn,
    _check_deadline,
    _record_build_totals,
    _root_candidates,
)
from .filters import cand_verify, nlf_ok, verify_candidates
from .stats import SearchStats


def _data_mnd_array(data: Graph) -> np.ndarray:
    return np.fromiter(
        (data.mnd(v) for v in range(data.num_vertices)),
        dtype=np.int64,
        count=data.num_vertices,
    )


class _NumpyBuildState:
    """Shared arrays for one build."""

    def __init__(
        self,
        query: Graph,
        data: Graph,
        verify: Optional[VerifyFn],
        stats: Optional[SearchStats] = None,
    ):
        self.query = query
        self.data = data
        self.verify = verify
        self.stats = stats
        self.indptr, self.indices, self.labels, self.degrees = data.csr()
        self.count = np.zeros(data.num_vertices, dtype=np.int64)
        self.vectorize_mnd = verify is cand_verify
        self.mnd = _data_mnd_array(data) if self.vectorize_mnd else None
        self._nlf_matrix = None
        self._nlf_matrix_built = False

    def nlf_matrix(self):
        """Lazy (|V| x |Sigma'|) neighbor-label count matrix.

        ``None`` when the label space is too large/sparse to densify; the
        caller then falls back to per-candidate NLF checks.
        """
        if not self._nlf_matrix_built:
            self._nlf_matrix_built = True
            max_label = int(self.labels.max()) if self.labels.size else -1
            min_label = int(self.labels.min()) if self.labels.size else 0
            if 0 <= min_label and 0 <= max_label < 1024:
                matrix = np.zeros(
                    (self.data.num_vertices, max_label + 1), dtype=np.int32
                )
                degrees = self.degrees
                rows = np.repeat(
                    np.arange(self.data.num_vertices, dtype=np.int64), degrees
                )
                cols = self.labels[self.indices]
                np.add.at(matrix, (rows, cols), 1)
                self._nlf_matrix = matrix
        return self._nlf_matrix

    def gather_neighbors(self, vertices: List[int]) -> np.ndarray:
        """Concatenated neighbor lists of ``vertices`` (ragged gather).

        Builds the flat index array arithmetically (exclusive-cumsum
        trick) so no per-vertex Python loop is needed.
        """
        indptr, indices = self.indptr, self.indices
        verts = np.asarray(vertices, dtype=np.int64)
        if verts.size == 0:
            return np.empty(0, dtype=np.int64)
        counts = indptr[verts + 1] - indptr[verts]
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        exclusive = np.zeros(verts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=exclusive[1:])
        flat = np.arange(total, dtype=np.int64) + np.repeat(
            indptr[verts] - exclusive, counts
        )
        return indices[flat]

    def reached_by(self, candidate_rows: List[int]) -> np.ndarray:
        """Boolean mask of data vertices adjacent to any listed vertex."""
        reached = np.zeros(self.data.num_vertices, dtype=bool)
        reached[self.gather_neighbors(candidate_rows)] = True
        return reached

    def accumulate(self, neighbor_candidate_sets: List[List[int]]) -> int:
        """Add one reach-mask per query neighbor into ``self.count``."""
        for rows in neighbor_candidate_sets:
            self.count += self.reached_by(rows)
        return len(neighbor_candidate_sets)

    def qualified(self, u: int, total: int) -> List[int]:
        """Vertices counted ``total`` times passing all of u's filters.

        Per-filter prune attribution mirrors the reference builder
        exactly (mask-size deltas instead of per-candidate branches):
        structural survivors, then MND drops, then NLF drops.
        """
        query, data = self.query, self.data
        stats = self.stats
        mask = self.count == total
        mask &= self.labels == query.label(u)
        mask &= self.degrees >= query.degree(u)
        structural = int(mask.sum()) if stats is not None else 0
        if stats is not None:
            stats.cpi_candidates_structural += structural
        if self.vectorize_mnd:
            assert self.mnd is not None
            mask &= self.mnd >= query.mnd(u)
            after_mnd = int(mask.sum()) if stats is not None else 0
            if stats is not None:
                stats.filter_mnd_pruned += structural - after_mnd
            nlf_matrix = self.nlf_matrix()
            if nlf_matrix is not None:
                for lab, needed in query.nlf(u).items():
                    if lab < 0 or lab >= nlf_matrix.shape[1]:
                        # label absent from the data graph: NLF kills all
                        if stats is not None:
                            stats.filter_nlf_pruned += after_mnd
                        return []
                    mask &= nlf_matrix[:, lab] >= needed
                survivors = np.flatnonzero(mask)
                if stats is not None:
                    stats.filter_nlf_pruned += after_mnd - survivors.size
                return [int(v) for v in survivors]
            survivors = np.flatnonzero(mask)
            kept: List[int] = []
            for raw in survivors:
                v = int(raw)
                if nlf_ok(query, data, u, v):
                    kept.append(v)
                elif stats is not None:
                    stats.filter_nlf_pruned += 1
            return kept
        survivors = np.flatnonzero(mask).tolist()
        return verify_candidates(query, data, u, survivors, self.verify, stats)

    def reset(self) -> None:
        self.count[:] = 0


def build_cpi_numpy(
    query: Graph,
    data: Graph,
    root: int,
    refine: bool = True,
    verify: Optional[VerifyFn] = cand_verify,
    stats: Optional[SearchStats] = None,
    deadline: Optional[float] = None,
    aux: Optional["AuxAdjacencyCache"] = None,
) -> CPI:
    """Vectorized equivalent of :func:`repro.core.cpi_builder.build_cpi`.

    Produces identical CPIs *and* identical :class:`SearchStats` build
    counters to the reference builder (property-tested).  ``aux`` swaps
    the adjacency-construction gather for the batch-shared
    pre-intersected label-pair rows; the output is identical either way.
    """
    tree = QueryBFSTree.build(query, root)
    state = _NumpyBuildState(query, data, verify, stats)
    cpi = _top_down(tree, state, deadline, aux)
    if stats is not None:
        stats.cpi_candidates_topdown += sum(len(c) for c in cpi.candidates)
    if refine:
        _bottom_up(cpi, state, deadline)
        if stats is not None:
            stats.refine_passes += 1
    _record_build_totals(cpi, stats)
    return cpi


def _top_down(
    tree: QueryBFSTree,
    state: _NumpyBuildState,
    deadline: Optional[float] = None,
    aux: Optional["AuxAdjacencyCache"] = None,
) -> CPI:
    query, data = state.query, state.data
    n_q = query.num_vertices
    root = tree.root
    candidates: List[List[int]] = [[] for _ in range(n_q)]
    adjacency: List[Dict[int, List[int]]] = [dict() for _ in range(n_q)]

    candidates[root] = _root_candidates(
        query, data, root, state.verify, state.stats
    )

    visited = [False] * n_q
    visited[root] = True
    pending_same_level: List[List[int]] = [[] for _ in range(n_q)]
    indptr, indices, labels = state.indptr, state.indices, state.labels

    for level_vertices in tree.levels[1:]:
        # Forward candidate generation.
        for u in level_vertices:
            _check_deadline(deadline)
            visited_sets: List[List[int]] = []
            for u_prime in query.neighbors(u):
                if not visited[u_prime] and tree.level[u_prime] == tree.level[u]:
                    pending_same_level[u].append(u_prime)
                elif visited[u_prime]:
                    visited_sets.append(candidates[u_prime])
            total = state.accumulate(visited_sets)
            candidates[u] = state.qualified(u, total)
            visited[u] = True
            state.reset()
        # Backward candidate pruning (unvisited same-level S-NTEs).
        for u in reversed(level_vertices):
            pending = pending_same_level[u]
            if not pending:
                continue
            _check_deadline(deadline)
            total = state.accumulate([candidates[p] for p in pending])
            keep_count = state.count
            before = len(candidates[u])
            candidates[u] = [v for v in candidates[u] if keep_count[v] == total]
            if state.stats is not None:
                state.stats.filter_snte_pruned += before - len(candidates[u])
            state.reset()
        # Adjacency list construction: gather every parent candidate's
        # neighborhood at once, then split the survivors per parent.
        for u in level_vertices:
            _check_deadline(deadline)
            u_parent = tree.parent[u]
            assert u_parent is not None
            parents = candidates[u_parent]
            if not parents or not candidates[u]:
                continue
            member = np.zeros(data.num_vertices, dtype=bool)
            member[candidates[u]] = True
            verts = np.asarray(parents, dtype=np.int64)
            if aux is not None:
                # Gather from the shared pre-intersected rows instead of
                # the raw CSR: the rows are already label-filtered (and
                # degree-bucket-filtered, which membership in u.C
                # implies), so the label mask drops out.
                entry = aux.lookup(
                    query.label(u_parent), query.label(u), query.degree(u)
                )
                a_indptr = np.frombuffer(entry.aux_indptr, dtype=np.int32)
                a_flat = np.frombuffer(entry.aux_flat, dtype=np.int32)
                a_verts = np.frombuffer(entry.aux_verts, dtype=np.int32)
                pos = np.searchsorted(a_verts, verts)
                starts = a_indptr[pos].astype(np.int64)
                counts = (a_indptr[pos + 1] - a_indptr[pos]).astype(np.int64)
                total_entries = int(counts.sum())
                if total_entries:
                    exclusive = np.zeros(verts.size, dtype=np.int64)
                    np.cumsum(counts[:-1], out=exclusive[1:])
                    flat_idx = np.arange(
                        total_entries, dtype=np.int64
                    ) + np.repeat(starts - exclusive, counts)
                    gathered = a_flat[flat_idx].astype(np.int64)
                else:
                    gathered = np.empty(0, dtype=np.int64)
                segment = np.repeat(
                    np.arange(verts.size, dtype=np.int64), counts
                )
                mask = member[gathered]
            else:
                counts = indptr[verts + 1] - indptr[verts]
                gathered = state.gather_neighbors(parents)
                segment = np.repeat(
                    np.arange(verts.size, dtype=np.int64), counts
                )
                mask = member[gathered] & (labels[gathered] == query.label(u))
            selected = gathered[mask]
            selected_segment = segment[mask]
            boundaries = np.searchsorted(
                selected_segment, np.arange(1, verts.size, dtype=np.int64)
            )
            table = adjacency[u]
            for i, row in enumerate(np.split(selected, boundaries)):
                if row.size:
                    table[parents[i]] = [int(x) for x in row]
    return CPI(tree, data, candidates, adjacency)


def _bottom_up(
    cpi: CPI, state: _NumpyBuildState, deadline: Optional[float] = None
) -> None:
    tree = cpi.tree
    query, data = state.query, state.data
    stats = state.stats
    for level_vertices in reversed(tree.levels):
        for u in level_vertices:
            _check_deadline(deadline)
            lower = [
                w for w in query.neighbors(u) if tree.level[w] > tree.level[u]
            ]
            if lower:
                total = state.accumulate([cpi.candidates[w] for w in lower])
                keep_count = state.count
                kept, dropped = [], []
                for v in cpi.candidates[u]:
                    if keep_count[v] == total:
                        kept.append(v)
                    else:
                        dropped.append(v)
                if dropped:
                    cpi.candidates[u] = kept
                    cpi.cand_sets[u] = set(kept)
                    if stats is not None:
                        stats.refine_candidates_pruned += len(dropped)
                    for child in tree.children[u]:
                        child_table = cpi.adjacency[child]
                        for v in dropped:
                            removed = child_table.pop(v, None)
                            if removed is not None and stats is not None:
                                stats.refine_adjacency_pruned += len(removed)
                state.reset()
            for child in tree.children[u]:
                member = np.zeros(data.num_vertices, dtype=bool)
                member[cpi.candidates[child]] = True
                child_table = cpi.adjacency[child]
                for v in cpi.candidates[u]:
                    row = child_table.get(v)
                    if row is None:
                        continue
                    pruned = [x for x in row if member[x]]
                    if stats is not None:
                        stats.refine_adjacency_pruned += len(row) - len(pruned)
                    if pruned:
                        child_table[v] = pruned
                    else:
                        del child_table[v]
