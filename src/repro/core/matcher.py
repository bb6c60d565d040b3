"""CFL-Match and its ablation variants (Algorithm 1 and Section 6 list).

:class:`CFLMatch` is the paper's best algorithm: CFL-decompose the query,
build the CPI (top-down + bottom-up), order core paths by Algorithm 2,
then enumerate Core-Match -> Forest-Match -> Leaf-Match.  The evaluated
variants map to constructor flags:

================  =========================================
Paper name        Construction
================  =========================================
CFL-Match         ``CFLMatch(data)``
CF-Match          ``CFLMatch(data, mode="cf")``
Match             ``CFLMatch(data, mode="match")``
CFL-Match-TD      ``CFLMatch(data, cpi_mode="td")``
CFL-Match-Naive   ``CFLMatch(data, cpi_mode="naive")``
================  =========================================

(The boosted variant lives in :mod:`repro.baselines.compression`.)
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - types only
    from .batch import AuxAdjacencyCache

from ..graph.graph import Graph, GraphError
from .core_match import (
    CPIBacktracker,
    OrderedVertex,
    SearchStats,
    SearchTimeout,
    build_ordered_vertices,
)
from .cpi import CPI
from .cpi_builder import _record_build_totals, build_cpi, build_naive_cpi
from .decomposition import CFLDecomposition, cfl_decompose
from .filters import ExtendedCandVerify, cand_verify
from .kernel import KernelBacktracker, KernelPlan, build_data_csr, compile_kernel_plan
from .leaf_match import LeafPlan, build_leaf_plan, count_leaf_matches, enumerate_leaf_matches
from .ordering import estimate_tree_embeddings, order_structure
from .root_selection import select_root
from .stats import (
    BudgetExhausted,
    WorkBudget,
    aggregate_stage_stats,
    empty_phase_times,
)

#: Upper bound on adaptive trigger checkpoints per search: the root
#: candidates are split into at most this many chunks, and the
#: re-planning trigger is evaluated between chunks.  Each chunk costs a
#: root-restricted sub-plan plus backtracker setup, so the bound keeps
#: the adaptive mode's overhead on well-ordered plans flat in the root
#: count while still giving a mis-ordered search 15 chances to bail.
_ADAPTIVE_CHECKPOINTS = 16

MODES = ("cfl", "cf", "match")
CPI_MODES = ("full", "td", "naive")
CORE_STRATEGIES = ("paths", "hierarchical")
CPI_IMPLS = ("python", "numpy")
#: Enumeration engines: ``"kernel"`` runs the compiled flat-array loop of
#: :mod:`repro.core.kernel`; ``"reference"`` runs the readable
#: :class:`~repro.core.core_match.CPIBacktracker`, kept as the
#: differential oracle.  Embeddings, enumeration order and the
#: ``nodes``/``backtracks`` counters are identical between the two (see
#: the kernel module docstring for the one attribution caveat on the
#: rejection-counter split).
ENGINES = ("kernel", "reference")
#: Frontier vectorization of the kernel's eager backward intersections:
#: ``"auto"`` turns the numpy path on per stage when the stage's
#: estimated breadth crosses ``vector_breadth``; ``"on"`` forces it for
#: every eligible intersection; ``"off"`` keeps the scalar galloping
#: loop.  Results, enumeration order and every counter are bit-identical
#: in all three modes (the numpy path computes the same intersection).
VECTOR_MODES = ("auto", "on", "off")


@dataclass
class PreparedQuery:
    """Everything computed before enumeration starts (the paper's
    "query vertex ordering" phase: decomposition + CPI + matching order)."""

    query: Graph
    decomposition: CFLDecomposition
    root: int
    cpi: CPI
    core_order: List[int]
    forest_order: List[int]
    core_slots: List[OrderedVertex]
    forest_slots: List[OrderedVertex]
    leaf_plan: LeafPlan
    ordering_time: float
    #: per-phase split of ``ordering_time`` (decomposition / cpi_build /
    #: ordering); every preparation path fills the same keys.
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: CandVerify / CPI-construction counters recorded while building.
    build_stats: SearchStats = field(default_factory=SearchStats)
    #: flat-array compilation of the stages (``engine="kernel"`` plans;
    #: compiled lazily when a plan built elsewhere reaches a kernel
    #: matcher, e.g. after ``decode_plan`` in a worker).
    kernel: Optional[KernelPlan] = None
    #: memoized ``vector_mode="auto"`` decision:
    #: ``(vector_breadth, core_vectorized, forest_vectorized)`` —
    #: recomputed when a matcher with a different threshold reuses the
    #: plan (see ``CFLMatch._vector_stages``).
    vector_stages: Optional[Tuple[int, bool, bool]] = None
    #: memoized core+forest tree-embedding estimate (the adaptive
    #: trigger's baseline; see ``CFLMatch._breadth_estimate``) — the DP
    #: walks the whole CPI, so serving workloads that re-run the same
    #: plan must not pay it per search.
    breadth_estimate: Optional[int] = None

    @property
    def matching_order(self) -> List[int]:
        """Core then forest order (leaves are matched per label class)."""
        return self.core_order + self.forest_order


@dataclass
class MatchReport:
    """Measured outcome of one ``run`` (the quantities Figures 8-16 plot)."""

    embeddings: int
    ordering_time: float
    enumeration_time: float
    cpi_size: int
    candidate_counts: List[int]
    stats: SearchStats = field(default_factory=SearchStats)
    timed_out: bool = False
    results: Optional[List[Tuple[int, ...]]] = None
    # per-stage search-node counters (core/forest/leaf), for analysis
    stage_nodes: Optional[dict] = None
    #: the run stopped because its expansion budget ran out
    budget_exhausted: bool = False
    #: per-phase wall-clock split (decomposition/cpi_build/ordering/enumeration)
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: CandVerify / CPI-construction counters (separate from ``stats`` so
    #: cached-plan reuse never double-counts build work)
    build_stats: SearchStats = field(default_factory=SearchStats)

    @property
    def total_time(self) -> float:
        return self.ordering_time + self.enumeration_time

    @property
    def status(self) -> str:
        """``"ok"``, ``"timed_out"`` or ``"budget_exhausted"``."""
        if self.timed_out:
            return "timed_out"
        if self.budget_exhausted:
            return "budget_exhausted"
        return "ok"

    def counters(self) -> Dict[str, int]:
        """Build + enumeration counters merged into one flat dict."""
        return self.stats.merged_with(self.build_stats).to_dict()

    def to_dict(self) -> Dict:
        """JSON-ready form (embeddings, timers, flat counters)."""
        return {
            "embeddings": self.embeddings,
            "status": self.status,
            "ordering_time_s": self.ordering_time,
            "enumeration_time_s": self.enumeration_time,
            "total_time_s": self.total_time,
            "phase_times_s": dict(self.phase_times),
            "cpi_size": self.cpi_size,
            "candidate_counts": list(self.candidate_counts),
            "counters": self.counters(),
            "stage_nodes": dict(self.stage_nodes) if self.stage_nodes else {},
        }


class CFLMatch:
    """Subgraph matching over a fixed data graph.

    Parameters
    ----------
    data:
        the data graph G.
    mode:
        ``"cfl"`` (core/forest/leaf), ``"cf"`` (no leaf split) or
        ``"match"`` (no decomposition at all).
    cpi_mode:
        ``"full"`` (Algorithms 3+4), ``"td"`` (Algorithm 3 only) or
        ``"naive"`` (label-only candidate sets, Section 4.1).
    core_strategy:
        ``"paths"`` (Algorithm 2, the paper's ordering) or
        ``"hierarchical"`` (the Section 7 future-work extension: match
        deeper k-core shells of the core first).
    cpi_impl:
        ``"python"`` (reference implementation) or ``"numpy"``
        (vectorized builder; identical output, faster on medium graphs).
    engine:
        ``"kernel"`` (default) enumerates with the compiled flat-array
        loop of :mod:`repro.core.kernel`; ``"reference"`` keeps the
        readable iterator-stack backtracker.  Same embeddings, same
        order, same ``nodes``/``backtracks`` counters either way.
    plan_cache_size:
        capacity of the per-matcher LRU plan cache.  Repeated calls of
        :meth:`search`/:meth:`count` (or :meth:`prepare`) with a
        structurally identical query reuse the cached
        :class:`PreparedQuery` and skip the whole ordering phase —
        the serving-workload fast path.  ``0`` disables caching.
    vector_mode / vector_breadth / vector_min_row:
        frontier vectorization of the kernel's eager backward
        intersections (see :data:`VECTOR_MODES`).  ``vector_breadth``
        is the per-stage estimated-breadth threshold ``"auto"`` uses;
        ``vector_min_row`` is the smallest candidate row the numpy path
        takes over from the scalar galloping loop.  Bit-identical
        results in every mode.
    aux_cache:
        a batch-shared :class:`~repro.core.batch.AuxAdjacencyCache`
        serving pre-intersected label-pair adjacency rows to CPI
        construction (``None`` — the default — builds from the raw
        graph).  The built CPI is identical either way.
    label_pair_filter / nli_filter:
        optimizer round-2 pre-checks ahead of CandVerify during CPI
        construction (:class:`~repro.core.filters.ExtendedCandVerify`).
        Both are pruning-only subsets of the NLF filter, so the built
        CPI — and therefore every downstream result and counter except
        the per-filter attribution split — is identical with them on or
        off.
    cemr:
        redundant-extension elimination in the enumeration engines:
        extension sets proven dead independent of occupancy are
        memoized per search and skipped on repeat, with the sweep's
        rejection attribution replayed on each hit so every counter
        except ``cemr_memo_hits`` stays bit-identical.
    adaptive / adaptive_ratio / adaptive_min_nodes:
        mid-search re-planning.  With ``adaptive=True`` the root
        candidates are enumerated one at a time (a pure partition of
        the result set — same embeddings, same order, same counters);
        when the accumulated search nodes exceed
        ``max(adaptive_min_nodes, adaptive_ratio * estimated_breadth)``
        the matching-order suffix for the *remaining* roots is
        re-planned against the restricted CPI (Algorithm 2 re-run on
        the surviving root candidates) and enumeration resumes —
        embeddings already emitted are kept.  At most one re-plan per
        search; ``adaptive_replans`` counts it.
    """

    name = "CFL-Match"

    def __init__(
        self,
        data: Graph,
        mode: str = "cfl",
        cpi_mode: str = "full",
        core_strategy: str = "paths",
        cpi_impl: str = "python",
        engine: str = "kernel",
        plan_cache_size: int = 16,
        vector_mode: str = "auto",
        vector_breadth: int = 4096,
        vector_min_row: int = 64,
        aux_cache: Optional["AuxAdjacencyCache"] = None,
        label_pair_filter: bool = False,
        nli_filter: bool = False,
        cemr: bool = False,
        adaptive: bool = False,
        adaptive_ratio: float = 8.0,
        adaptive_min_nodes: int = 1024,
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if cpi_mode not in CPI_MODES:
            raise ValueError(f"cpi_mode must be one of {CPI_MODES}")
        if core_strategy not in CORE_STRATEGIES:
            raise ValueError(f"core_strategy must be one of {CORE_STRATEGIES}")
        if cpi_impl not in CPI_IMPLS:
            raise ValueError(f"cpi_impl must be one of {CPI_IMPLS}")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        if plan_cache_size < 0:
            raise ValueError("plan_cache_size must be >= 0")
        if vector_mode not in VECTOR_MODES:
            raise ValueError(f"vector_mode must be one of {VECTOR_MODES}")
        if vector_breadth < 0:
            raise ValueError("vector_breadth must be >= 0")
        if vector_min_row < 1:
            raise ValueError("vector_min_row must be >= 1")
        if adaptive_ratio <= 0:
            raise ValueError("adaptive_ratio must be > 0")
        if adaptive_min_nodes < 0:
            raise ValueError("adaptive_min_nodes must be >= 0")
        self.data = data
        self.mode = mode
        self.cpi_mode = cpi_mode
        self.core_strategy = core_strategy
        self.cpi_impl = cpi_impl
        self.engine = engine
        self.plan_cache_size = plan_cache_size
        self.vector_mode = vector_mode
        self.vector_breadth = vector_breadth
        self.vector_min_row = vector_min_row
        self.aux_cache = aux_cache
        self.label_pair_filter = label_pair_filter
        self.nli_filter = nli_filter
        self.cemr = cemr
        self.adaptive = adaptive
        self.adaptive_ratio = adaptive_ratio
        self.adaptive_min_nodes = adaptive_min_nodes
        # ``(data.version, csr)``: the data-graph CSR for kernel
        # compilation, built lazily at most once per graph version and
        # shared by every plan compiled at that version.
        self._data_csr: Optional[Tuple[int, tuple]] = None
        self._plan_cache: "OrderedDict[tuple, PreparedQuery]" = OrderedDict()
        #: number of full (uncached) ordering-phase runs; tests and the
        #: parallel engine assert "prepare ran exactly once" against it.
        self.prepare_count = 0
        self.plan_cache_hits = 0

    # ------------------------------------------------------------------
    # Preparation (ordering phase)
    # ------------------------------------------------------------------
    def prepare(
        self,
        query: Graph,
        use_cache: bool = True,
        deadline: Optional[float] = None,
        build_stats: Optional[SearchStats] = None,
    ) -> PreparedQuery:
        """Decompose, build the CPI and compute the matching order.

        With ``use_cache`` (the default) a structurally identical query
        returns the LRU-cached plan without re-running any of it; pass
        ``use_cache=False`` for a fresh, honestly timed plan (what
        :meth:`run` does for benchmarking).

        ``deadline`` aborts CPI construction with :class:`SearchTimeout`
        when crossed.  ``build_stats`` receives the build counters as
        they accrue — pass it to keep partial counts when the deadline
        fires mid-build (a cache hit records nothing, by design: the
        cached plan's own ``build_stats`` already holds its build cost).
        """
        caching = use_cache and self.plan_cache_size > 0
        if caching:
            # Keyed on the data version too: a plan built before a
            # mutation of a dynamic data graph is never served after it.
            key = (query.signature(), self.data.version)
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._plan_cache.move_to_end(key)
                self.plan_cache_hits += 1
                return cached
        # Keyword args are forwarded only when set: test/benchmark
        # instrumentation wraps _prepare_fresh with (self, query).
        kwargs: Dict = {}
        if deadline is not None:
            kwargs["deadline"] = deadline
        if build_stats is not None:
            kwargs["build_stats"] = build_stats
        plan = self._prepare_fresh(query, **kwargs)
        if caching:
            self._plan_cache[key] = plan
            while len(self._plan_cache) > self.plan_cache_size:
                self._plan_cache.popitem(last=False)
        return plan

    def clear_plan_cache(self) -> None:
        """Drop every cached plan (e.g. after swapping workloads)."""
        self._plan_cache.clear()

    def _prepare_fresh(
        self,
        query: Graph,
        deadline: Optional[float] = None,
        build_stats: Optional[SearchStats] = None,
    ) -> PreparedQuery:
        if query.num_vertices == 0:
            raise GraphError("empty query")
        self.prepare_count += 1
        if build_stats is None:
            build_stats = SearchStats()
        phase_times = empty_phase_times()
        started = time.perf_counter()
        decomposition = cfl_decompose(
            query,
            root_chooser=lambda q: select_root(q, self.data),
        )
        if self.mode == "match":
            # No decomposition: the whole query is matched like a core.
            root = select_root(query, self.data)
        else:
            root = select_root(query, self.data, eligible=decomposition.core)
        phase_times["decomposition"] = time.perf_counter() - started
        cpi_started = time.perf_counter()
        cpi = self._build_cpi(query, root, stats=build_stats, deadline=deadline)
        phase_times["cpi_build"] = time.perf_counter() - cpi_started
        return self._assemble_plan(
            query, decomposition, root, cpi, started,
            phase_times=phase_times, build_stats=build_stats,
        )

    def prepare_from_cpi(
        self,
        query: Graph,
        cpi: CPI,
        core_order: Optional[List[int]] = None,
        forest_order: Optional[List[int]] = None,
        kernel_plan: Optional[KernelPlan] = None,
        segment_attach: float = 0.0,
    ) -> PreparedQuery:
        """Rebuild a :class:`PreparedQuery` around a prebuilt CPI.

        This is the cheap re-preparation path for plans shipped across
        process boundaries (a :class:`~repro.core.cpi_storage.CompiledCPI`
        decoded in a spawn worker, or a :mod:`repro.core.shm` plan
        segment): Algorithms 3+4 are *not* re-run, and when the parent
        also ships its ``core_order``/``forest_order`` the Algorithm 2
        DP is skipped too — only query-sized metadata (decomposition,
        slots, leaf plan) is recomputed.  ``kernel_plan`` injects an
        already-compiled kernel (views over a shared plan segment) so
        the flat-array compilation is skipped as well; ``segment_attach``
        records the wall time the caller spent attaching + decoding the
        segment into the plan's phase timers.
        """
        if query.num_vertices == 0:
            raise GraphError("empty query")
        phase_times = empty_phase_times()
        phase_times["segment_attach"] = segment_attach
        started = time.perf_counter()
        decomposition = cfl_decompose(
            query,
            root_chooser=lambda q: select_root(q, self.data),
        )
        phase_times["decomposition"] = time.perf_counter() - started
        # The CPI arrived prebuilt (cpi_build stays 0.0) but its size
        # counters are still recorded so worker-side profiles are never
        # partially zeroed.
        build_stats = SearchStats()
        _record_build_totals(cpi, build_stats)
        return self._assemble_plan(
            query, decomposition, cpi.root, cpi, started,
            core_order=core_order, forest_order=forest_order,
            phase_times=phase_times, build_stats=build_stats,
            kernel_plan=kernel_plan,
        )

    def _assemble_plan(
        self,
        query: Graph,
        decomposition: CFLDecomposition,
        root: int,
        cpi: CPI,
        started: float,
        core_order: Optional[List[int]] = None,
        forest_order: Optional[List[int]] = None,
        phase_times: Optional[Dict[str, float]] = None,
        build_stats: Optional[SearchStats] = None,
        kernel_plan: Optional[KernelPlan] = None,
    ) -> PreparedQuery:
        if phase_times is None:
            phase_times = empty_phase_times()
        if build_stats is None:
            build_stats = SearchStats()
        ordering_started = time.perf_counter()
        core_set: Set[int]
        if self.mode == "match":
            core_set = set(query.vertices())
        else:
            core_set = decomposition.core_set
        if core_order is None:
            if self.core_strategy == "hierarchical" and self.mode != "match":
                from .hierarchy import hierarchical_core_order

                core_order = hierarchical_core_order(cpi, sorted(core_set), root)
            else:
                core_order = order_structure(
                    cpi, root, core_set, use_non_tree_discount=True
                )

        leaf_vertices: List[int] = []
        if self.mode != "match":
            leaf_vertices = decomposition.leaves if self.mode == "cfl" else []
            if forest_order is None:
                forest_order = self._forest_order(
                    cpi, decomposition, set(leaf_vertices)
                )
        if forest_order is None:
            forest_order = []

        core_slots = build_ordered_vertices(cpi, core_order, check_non_tree=True)
        forest_slots = build_ordered_vertices(
            cpi, forest_order, already_mapped=core_order, check_non_tree=False
        )
        leaf_plan = build_leaf_plan(cpi, leaf_vertices)
        kernel: Optional[KernelPlan] = kernel_plan
        if kernel is None and self.engine == "kernel":
            # Compile inside the ordering timer: lowering the plan to
            # flat arrays is part of the preparation cost being measured.
            # (A kernel decoded from a shared plan segment arrives via
            # ``kernel_plan`` and skips this entirely.)
            kernel = compile_kernel_plan(
                cpi, core_slots, forest_slots, data_csr=self._kernel_data_csr()
            )
        now = time.perf_counter()
        phase_times["ordering"] = now - ordering_started
        ordering_time = now - started
        return PreparedQuery(
            query=query,
            decomposition=decomposition,
            root=root,
            cpi=cpi,
            core_order=core_order,
            forest_order=forest_order,
            core_slots=core_slots,
            forest_slots=forest_slots,
            leaf_plan=leaf_plan,
            ordering_time=ordering_time,
            phase_times=phase_times,
            build_stats=build_stats,
            kernel=kernel,
        )

    def _kernel_data_csr(self) -> tuple:
        """The data-graph CSR at the current ``data.version``.

        Built at most once per version and shared by every plan compiled
        at it.  A superseded CSR is dropped, never mutated, so a plan
        compiled against it keeps an exact snapshot of its version.
        """
        version = self.data.version
        cached = self._data_csr
        if cached is None or cached[0] != version:
            cached = (version, build_data_csr(self.data))
            self._data_csr = cached
        return cached[1]

    def _ensure_kernel(self, plan: PreparedQuery) -> KernelPlan:
        """The plan's compiled form, compiling on first use.

        Plans assembled by this matcher under ``engine="kernel"`` arrive
        precompiled; plans built elsewhere (the reference engine, or a
        CPI decoded from the wire in a worker before this matcher was
        switched to the kernel) are compiled here once and the result is
        memoized on the plan.
        """
        kernel = plan.kernel
        if kernel is None:
            kernel = compile_kernel_plan(
                plan.cpi, plan.core_slots, plan.forest_slots,
                data_csr=self._kernel_data_csr(),
            )
            plan.kernel = kernel
        return kernel

    def _backtrackers(
        self,
        plan: PreparedQuery,
        core_stats: SearchStats,
        forest_stats: SearchStats,
        deadline: Optional[float],
        budget: Optional[WorkBudget],
    ) -> tuple:
        """Core and forest backtrackers for the configured engine."""
        if self.engine == "kernel":
            compiled = self._ensure_kernel(plan)
            core_vec, forest_vec = self._vector_stages(plan)
            return (
                KernelBacktracker(
                    compiled, compiled.core, core_stats,
                    deadline=deadline, budget=budget,
                    vectorize=core_vec, vector_min_row=self.vector_min_row,
                    cemr=self.cemr,
                ),
                KernelBacktracker(
                    compiled, compiled.forest, forest_stats,
                    deadline=deadline, budget=budget,
                    vectorize=forest_vec, vector_min_row=self.vector_min_row,
                    cemr=self.cemr,
                ),
            )
        return (
            CPIBacktracker(
                plan.cpi, plan.core_slots, core_stats,
                deadline=deadline, budget=budget, cemr=self.cemr,
            ),
            CPIBacktracker(
                plan.cpi, plan.forest_slots, forest_stats,
                deadline=deadline, budget=budget, cemr=self.cemr,
            ),
        )

    def _vector_stages(self, plan: PreparedQuery) -> Tuple[bool, bool]:
        """Per-stage frontier-vectorization decision for ``plan``.

        ``"auto"`` vectorizes a stage when its estimated breadth (the
        same tree-embedding DP :func:`~repro.core.explain.stage_breadth`
        reports) reaches ``vector_breadth`` — high-breadth stages
        amortize the numpy call overhead, low-breadth ones stay on the
        scalar path.  The decision is memoized on the plan keyed by the
        threshold, so serving workloads pay the DP once per plan.
        """
        if self.vector_mode == "off":
            return False, False
        if self.vector_mode == "on":
            return True, True
        cached = plan.vector_stages
        if cached is not None and cached[0] == self.vector_breadth:
            return cached[1], cached[2]
        cpi = plan.cpi
        core_breadth = forest_breadth = 0
        if plan.core_order:
            core_breadth = estimate_tree_embeddings(
                cpi, cpi.root, set(plan.core_order)
            )
        if plan.forest_order:
            forest_breadth = estimate_tree_embeddings(
                cpi, cpi.root, set(plan.core_order) | set(plan.forest_order)
            )
        decision = (
            self.vector_breadth,
            core_breadth >= self.vector_breadth,
            forest_breadth >= self.vector_breadth,
        )
        plan.vector_stages = decision
        return decision[1], decision[2]

    def cand_verify_for(self, query: Graph):
        """The CandVerify callable this matcher's filter knobs select.

        The plain :func:`~repro.core.filters.cand_verify` when neither
        round-2 filter is on (preserving the builders' identity-based
        fast paths), otherwise an
        :class:`~repro.core.filters.ExtendedCandVerify` bound fresh to
        ``(query, data)`` — also used by the incremental repair path so
        repairs verify with the exact same filter stack as a cold build.
        """
        if self.label_pair_filter or self.nli_filter:
            return ExtendedCandVerify(
                query, self.data,
                label_pair=self.label_pair_filter, nli=self.nli_filter,
            )
        return cand_verify

    def _build_cpi(
        self,
        query: Graph,
        root: int,
        stats: Optional[SearchStats] = None,
        deadline: Optional[float] = None,
    ) -> CPI:
        if self.cpi_mode == "naive":
            return build_naive_cpi(
                query, self.data, root, stats=stats, deadline=deadline
            )
        verify = self.cand_verify_for(query)
        refine = self.cpi_mode == "full"
        if self.cpi_impl == "numpy":
            from .cpi_builder_numpy import build_cpi_numpy

            return build_cpi_numpy(
                query, self.data, root,
                refine=refine, verify=verify, stats=stats, deadline=deadline,
                aux=self.aux_cache,
            )
        return build_cpi(
            query, self.data, root, refine=refine, verify=verify, stats=stats,
            deadline=deadline, aux=self.aux_cache,
        )

    def _forest_order(
        self,
        cpi: CPI,
        decomposition: CFLDecomposition,
        leaf_set: Set[int],
    ) -> List[int]:
        """Order the forest trees by estimated embeddings, then order each
        tree's paths with Algorithm 2 (Section 4.3)."""
        plans = []
        for tree in decomposition.trees:
            allowed = {tree.connection} | {
                v for v in tree.vertices if v not in leaf_set
            }
            if len(allowed) == 1:
                continue  # the tree is all leaves; Leaf-Match covers it
            estimate = estimate_tree_embeddings(cpi, tree.connection, allowed)
            plans.append((estimate, tree.connection, allowed))
        plans.sort(key=lambda item: (item[0], item[1]))
        order: List[int] = []
        for _, connection, allowed in plans:
            tree_order = order_structure(
                cpi, connection, allowed, use_non_tree_discount=False
            )
            order.extend(tree_order[1:])  # drop the connection vertex
        return order

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def search(
        self,
        query: Graph,
        limit: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        stats: Optional[SearchStats] = None,
        deadline: Optional[float] = None,
        stage_stats: Optional[dict] = None,
        root_candidates: Optional[List[int]] = None,
        budget: Optional[WorkBudget] = None,
    ) -> Iterator[Tuple[int, ...]]:
        """Lazily yield embeddings (tuples mapping query vertex -> data
        vertex) until exhaustion or ``limit``.

        ``deadline`` (absolute ``perf_counter`` time) raises
        :class:`SearchTimeout` mid-search when crossed; ``budget`` is the
        work analogue — all three stages draw from it and raise
        :class:`BudgetExhausted` when it runs out.  Passing a dict
        as ``stage_stats`` fills it with per-stage ``SearchStats`` under
        the keys ``"core"``, ``"forest"`` and ``"leaf"``.
        ``root_candidates`` restricts the first matching-order vertex to
        that candidate subset — the partitioning hook used by
        :mod:`repro.core.parallel` (each embedding maps the root to
        exactly one candidate, so restrictions partition the result set).
        """
        if limit is not None and limit <= 0:
            return
        plan = prepared if prepared is not None else self.prepare(query)
        if plan.cpi.is_empty():
            return
        roots: Optional[List[int]] = None
        if root_candidates is not None:
            allowed = plan.cpi.cand_sets[plan.root]
            roots = [v for v in root_candidates if v in allowed]
            if not roots:
                return
        stats = stats if stats is not None else SearchStats()
        if stage_stats is not None:
            core_stats = stage_stats.setdefault("core", SearchStats())
            forest_stats = stage_stats.setdefault("forest", SearchStats())
            leaf_stats = stage_stats.setdefault("leaf", SearchStats())
        else:
            core_stats = forest_stats = leaf_stats = stats
        mapping = [-1] * query.num_vertices
        used = bytearray(self.data.num_vertices)
        emitted = 0
        for sub_plan in self._plan_sequence(
            query, plan, roots, core_stats, forest_stats, leaf_stats,
            stage_stats is not None, stats,
        ):
            core_bt, forest_bt = self._backtrackers(
                sub_plan, core_stats, forest_stats, deadline, budget
            )
            for _ in core_bt.extend(mapping, used):
                for _ in forest_bt.extend(mapping, used):
                    for _ in enumerate_leaf_matches(
                        sub_plan.cpi, sub_plan.leaf_plan, mapping, used,
                        leaf_stats, budget=budget,
                    ):
                        stats.embeddings += 1
                        emitted += 1
                        yield tuple(mapping)
                        if limit is not None and emitted >= limit:
                            return

    def _with_root_candidates(
        self, plan: PreparedQuery, filtered: List[int]
    ) -> PreparedQuery:
        """Shallow plan copy whose root candidate set is ``filtered``.

        Adjacency lists, candidate sets of the other vertices and the
        matching orders are all shared (the root has no incoming tree
        edge and the orders do not depend on the root's candidate list
        contents), so a restriction costs O(|V(q)| + |filtered|) — cheap
        enough that the parallel engine restricts per root candidate.
        """
        restricted = plan.cpi.with_root_candidates(filtered)
        kernel: Optional[KernelPlan] = None
        if self.engine == "kernel":
            # Restrict the compiled form too (compiling first if the plan
            # arrived without one); ranks stay keyed to the original
            # candidate list so shared CSR rows remain valid.
            kernel = self._ensure_kernel(plan).with_root_candidates(filtered)
            # Decide vectorization on the parent plan, where it is
            # memoized: a sub-plan is a fresh object, so deciding there
            # would re-run the breadth DP for every root chunk.
            self._vector_stages(plan)
        return PreparedQuery(
            query=plan.query,
            decomposition=plan.decomposition,
            root=plan.root,
            cpi=restricted,
            core_order=plan.core_order,
            forest_order=plan.forest_order,
            core_slots=plan.core_slots,
            forest_slots=plan.forest_slots,
            leaf_plan=plan.leaf_plan,
            ordering_time=plan.ordering_time,
            phase_times=plan.phase_times,
            build_stats=plan.build_stats,
            kernel=kernel,
            vector_stages=plan.vector_stages,
        )

    def _plan_sequence(
        self,
        query: Graph,
        plan: PreparedQuery,
        roots: Optional[List[int]],
        core_stats: SearchStats,
        forest_stats: SearchStats,
        leaf_stats: SearchStats,
        split_stats: bool,
        stats: SearchStats,
    ):
        """The plans one enumeration runs, in order.

        Normally a single (possibly root-restricted) plan.  With
        ``adaptive`` and more than one root candidate, a lazy per-root
        sequence: each root candidate is a pure partition of the result
        set, so enumerating them one at a time yields the same
        embeddings in the same order with the same counters — and gives
        :meth:`_adaptive_plan_sequence` a safe point between roots to
        compare progress against the cost-model estimate and re-plan
        the remaining suffix.
        """
        if self.adaptive:
            all_roots = (
                roots if roots is not None
                else list(plan.cpi.candidates[plan.root])
            )
            if len(all_roots) > 1:
                if split_stats:
                    def node_count() -> int:
                        return (
                            core_stats.nodes
                            + forest_stats.nodes
                            + leaf_stats.nodes
                        )
                else:
                    # core/forest/leaf share one stats object: its
                    # ``nodes`` already totals every stage.
                    def node_count() -> int:
                        return stats.nodes
                return self._adaptive_plan_sequence(
                    query, plan, all_roots, node_count, stats
                )
        if roots is not None:
            return (self._with_root_candidates(plan, roots),)
        return (plan,)

    def _adaptive_plan_sequence(
        self,
        query: Graph,
        plan: PreparedQuery,
        roots: List[int],
        node_count,
        stats: SearchStats,
    ) -> Iterator[PreparedQuery]:
        """Root-chunk plans with at most one mid-search re-plan.

        The trigger compares search nodes accrued so far against the
        ordering cost model's own breadth estimate (the same DP
        :func:`~repro.core.explain.stage_breadth` reports): once actual
        work exceeds ``adaptive_ratio``× the estimate (and the
        ``adaptive_min_nodes`` floor), the estimate that chose the
        current matching order was clearly wrong — Algorithm 2 is
        re-run against the CPI restricted to the *remaining* root
        candidates, whose candidate distribution the first roots just
        revealed, and the rest of the search runs the new order.
        Embeddings already emitted are untouched: roots partition the
        result set, so no partial work is redone or lost.

        Roots are walked in chunks bounded by ``_ADAPTIVE_CHECKPOINTS``
        rather than one at a time: each chunk pays a sub-plan
        restriction plus backtracker setup, so per-root checkpoints
        would tax well-ordered high-root plans (the ``>= 0.95x`` dense
        regression gate) for trigger granularity no real workload
        needs.
        """
        threshold = max(
            self.adaptive_min_nodes,
            int(self.adaptive_ratio * self._breadth_estimate(plan)),
        )
        chunk = max(1, -(-len(roots) // _ADAPTIVE_CHECKPOINTS))
        start = node_count()
        for begin in range(0, len(roots), chunk):
            if begin and node_count() - start > threshold:
                remaining = roots[begin:]
                replanned = self.prepare_from_cpi(
                    query, plan.cpi.with_root_candidates(remaining)
                )
                stats.adaptive_replans += 1
                yield replanned
                return
            yield self._with_root_candidates(plan, roots[begin:begin + chunk])

    def _breadth_estimate(self, plan: PreparedQuery) -> int:
        """Estimated tree embeddings over the core+forest order — the
        quantity the matching order was optimized against.  Memoized on
        the plan: the estimate only depends on the CPI, which is frozen
        once prepared."""
        if plan.breadth_estimate is None:
            scope = set(plan.core_order) | set(plan.forest_order)
            plan.breadth_estimate = (
                estimate_tree_embeddings(plan.cpi, plan.cpi.root, scope)
                if scope else 0
            )
        return plan.breadth_estimate

    def count(
        self,
        query: Graph,
        limit: Optional[int] = None,
        prepared: Optional[PreparedQuery] = None,
        root_candidates: Optional[List[int]] = None,
        stats: Optional[SearchStats] = None,
        stage_stats: Optional[dict] = None,
        deadline: Optional[float] = None,
        budget: Optional[WorkBudget] = None,
    ) -> int:
        """Count embeddings without expanding leaf NEC permutations.

        With ``limit`` the count stops growing once it reaches the limit
        (mirroring "report the first k embeddings"); the exact total may
        be larger.  ``root_candidates`` restricts the root as in
        :meth:`search`; ``stats``/``stage_stats``/``deadline``/``budget``
        mirror :meth:`search` (leaf expansions here count NEC
        *combinations*, each worth its ``m`` member assignments).
        """
        plan = prepared if prepared is not None else self.prepare(query)
        if plan.cpi.is_empty():
            return 0
        roots: Optional[List[int]] = None
        if root_candidates is not None:
            allowed = plan.cpi.cand_sets[plan.root]
            roots = [v for v in root_candidates if v in allowed]
            if not roots:
                return 0
        stats = stats if stats is not None else SearchStats()
        if stage_stats is not None:
            core_stats = stage_stats.setdefault("core", SearchStats())
            forest_stats = stage_stats.setdefault("forest", SearchStats())
            leaf_stats = stage_stats.setdefault("leaf", SearchStats())
        else:
            core_stats = forest_stats = leaf_stats = stats
        mapping = [-1] * query.num_vertices
        used = bytearray(self.data.num_vertices)
        total = 0
        for sub_plan in self._plan_sequence(
            query, plan, roots, core_stats, forest_stats, leaf_stats,
            stage_stats is not None, stats,
        ):
            core_bt, forest_bt = self._backtrackers(
                sub_plan, core_stats, forest_stats, deadline, budget
            )
            for _ in core_bt.extend(mapping, used):
                for _ in forest_bt.extend(mapping, used):
                    cap = None if limit is None else limit - total
                    total += count_leaf_matches(
                        sub_plan.cpi, sub_plan.leaf_plan, mapping, used,
                        cap=cap, stats=leaf_stats, budget=budget,
                    )
                    if limit is not None and total >= limit:
                        stats.embeddings += limit
                        return limit
        stats.embeddings += total
        return total

    def run(
        self,
        query: Graph,
        limit: Optional[int] = None,
        collect: bool = False,
        deadline: Optional[float] = None,
        max_expansions: Optional[int] = None,
        count_only: bool = False,
        prepared: Optional[PreparedQuery] = None,
    ) -> MatchReport:
        """Prepare + enumerate with timing, the benchmark entry point.

        ``deadline`` is an absolute ``time.perf_counter()`` timestamp; the
        run stops (``timed_out=True``) when enumeration — or CPI
        construction itself — crosses it.  ``max_expansions`` bounds the
        partial-match expansions the same way (``budget_exhausted=True``).
        Truncated runs return normally with partial counters intact.
        ``count_only`` counts through the NEC-combination path instead of
        materializing embeddings (``collect`` is then ignored).
        ``run`` always prepares afresh (bypassing the plan cache) so its
        ``ordering_time`` is an honest measurement; ``prepared`` skips
        that and reuses an existing plan's timers and build counters.
        """
        budget = WorkBudget(max_expansions) if max_expansions is not None else None
        stats = SearchStats()
        stage_stats: dict = {}
        results: Optional[List[Tuple[int, ...]]] = (
            [] if collect and not count_only else None
        )
        if prepared is None:
            build_stats = SearchStats()
            prepare_started = time.perf_counter()
            try:
                prepared = self.prepare(
                    query, use_cache=False, deadline=deadline,
                    build_stats=build_stats,
                )
            except SearchTimeout:
                # Deadline fired during CPI construction: flag the run and
                # keep the partial build counters accrued so far.
                return MatchReport(
                    embeddings=0,
                    ordering_time=time.perf_counter() - prepare_started,
                    enumeration_time=0.0,
                    cpi_size=0,
                    candidate_counts=[],
                    stats=stats,
                    timed_out=True,
                    results=results,
                    stage_nodes={},
                    phase_times=empty_phase_times(),
                    build_stats=build_stats,
                )
        timed_out = False
        budget_exhausted = False
        started = time.perf_counter()
        found = 0
        try:
            if count_only:
                found = self.count(
                    query, limit=limit, prepared=prepared, stats=stats,
                    stage_stats=stage_stats, deadline=deadline, budget=budget,
                )
            else:
                for embedding in self.search(
                    query, limit=limit, prepared=prepared, stats=stats,
                    deadline=deadline, stage_stats=stage_stats, budget=budget,
                ):
                    found += 1
                    if collect and results is not None:
                        results.append(embedding)
                    if deadline is not None and found % 256 == 0:
                        if time.perf_counter() > deadline:
                            timed_out = True
                            break
        except SearchTimeout:
            timed_out = True
        except BudgetExhausted:
            budget_exhausted = True
        enumeration_time = time.perf_counter() - started
        aggregate_stage_stats(stage_stats, into=stats)
        phase_times = dict(prepared.phase_times)
        phase_times["enumeration"] = enumeration_time
        return MatchReport(
            embeddings=found,
            ordering_time=prepared.ordering_time,
            enumeration_time=enumeration_time,
            cpi_size=prepared.cpi.size(),
            candidate_counts=prepared.cpi.candidate_counts(),
            stats=stats,
            timed_out=timed_out,
            budget_exhausted=budget_exhausted,
            results=results,
            stage_nodes={name: s.nodes for name, s in stage_stats.items()},
            phase_times=phase_times,
            build_stats=prepared.build_stats,
        )


def find_embeddings(
    query: Graph, data: Graph, limit: Optional[int] = None
) -> List[Tuple[int, ...]]:
    """One-shot convenience: all (or first ``limit``) embeddings of q in G."""
    return list(CFLMatch(data).search(query, limit=limit))


def count_embeddings(query: Graph, data: Graph, limit: Optional[int] = None) -> int:
    """One-shot convenience: number of embeddings of q in G."""
    return CFLMatch(data).count(query, limit=limit)
