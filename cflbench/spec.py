"""Workload parameters and metric names shared by the entry point,
the client and the tests (standard library only).

Each workload fixes its data graph (a dataset proxy generated with the
proxy's own seed), its query pool, its edge stream and its caps.  The
run's ``--seed`` relabels the data graph's vertex ids (keeping each label
class in its order, see :func:`cflbench.inputs.label_order_preserving_ids`)
and shuffles the arrival order.  It neither redraws the query pool or the
edge stream nor relabels query vertices, and a plain random relabelling
of the data graph is avoided too: per-query costs are
heavy-tailed (18 ms to 771 ms per prepare on the synthetic proxy), the
matching order breaks ties by query vertex id (relabelling one dense-enum
query moved its search from 15,803 to 357,266 nodes), and a capped read
stops after whichever embeddings the id order reaches first (a plain
relabelling moved one query from 44,481 to 198,507 nodes), and a
per-seed edge stream moved stream-update's p50 between 21 and 32 ms.  Any
of these would make the run-to-run spread that of the draw, not of the
program.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Minimum timed reads per run: p90 needs at least ten samples above it.
MIN_READS = 100

#: Wall-clock limit of one operation; past it the operation is failed.
OP_DEADLINE_S = 20.0

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: ``stream-update`` re-checks every standing query against a cold build
#: on a frozen snapshot every this many operations (and after the last).
SNAPSHOT_EVERY = 25

WORKLOADS: Dict[str, Dict] = {
    "proxy-prepare": {
        "why": "synthetic 25k-vertex proxy, q25/q50 S/N, first 1e3 embeddings: preparation dominates",
        "dataset": ("synthetic", "medium"),
        # (query vertices, sparse, how many)
        # 35 distinct queries (5 mod 10), each read once per pass: p50 and
        # p90 fall in the middle of one query's repeats, not between two
        # queries of very different cost.
        "pool": [(25, True, 9), (25, False, 9), (50, True, 9), (50, False, 8)],
        "cap": 1_000,
    },
    "dense-enum": {
        "why": "dense Human proxy, q8/q10 S/N, counted and materialized to 1e4: enumeration dominates",
        "dataset": ("human", "small"),
        "pool": [(8, True, 7), (8, False, 6), (10, True, 6), (10, False, 6)],
        "cap": 10_000,
    },
    "pool-serve": {
        "why": "repeated shuffled stream counted through a 2-worker MatcherPool: plan cache, shm, dispatch",
        "dataset": ("human", "small"),
        # mixed_batch_workload(sizes, distinct, total): one pass
        "stream": ([4, 5], 15, 45),
        "workers": 2,
        # Uncapped counts: under a cap the pool's chunk budgets depend on
        # completion order, so its counters would not repeat run to run.
        "cap": None,
    },
    "stream-update": {
        "why": "edge insert/remove stream on the yeast proxy, 6 standing queries synced and read 1:1",
        "dataset": ("yeast", "full"),
        "standing": [(8, True, 3), (8, False, 3)],
        "cap": 10_000,
        # operations per pass: 25 deltas and their inverses, so each pass
        # leaves the graph as it found it (a run-long stream made p50 depend
        # on how far a run got: 23 to 35 ms)
        "pass_ops": 50,
    },
}

#: Seed of each workload's fixed query pool (independent of ``--seed``).
POOL_SEED = 2016

END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("queries_per_s", "1/s"),
    ("embeddings_per_s", "1/s"),
    ("count_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("import.s", "s"),
    ("import.modules", "count"),
    ("import.numpy", "flag"),
    ("load.text_s", "s"),
    ("load.csr_s", "s"),
    ("load.bytes", "B"),
    ("data_index.s", "s"),
    ("data_csr.setup_s", "s"),
    ("data_csr.s", "s"),
    ("decompose.s", "s"),
    ("cpi_build.s", "s"),
    ("cpi_build.candidates", "count"),
    ("cpi_build.adjacency_edges", "count"),
    ("cpi_build.survival", "ratio"),
    ("ordering.s", "s"),
    ("ordering.estimate_ratio", "ratio"),
    ("kernel_compile.s", "s"),
    ("enum.core.s", "s"),
    ("enum.core.nodes", "count"),
    ("enum.forest.s", "s"),
    ("enum.forest.nodes", "count"),
    ("enum.dead_end_ratio", "ratio"),
    ("enum.leaf.s", "s"),
    ("enum.leaf.nodes", "count"),
    ("materialize.s", "s"),
    ("plan_cache.hit_ratio", "ratio"),
    ("pool.start_s", "s"),
    ("pool.query_s", "s"),
    ("pool.overhead_ratio", "ratio"),
    ("pool.work_ratio", "ratio"),
    ("shm.segments", "count"),
    ("dyn.apply_s", "s"),
    ("dyn.sync_s", "s"),
    ("dyn.noop_ratio", "ratio"),
    ("dyn.repairs", "count"),
    ("dyn.rebuilds", "count"),
    ("dyn.dirty_region", "count"),
    ("share.prepare", "ratio"),
    ("share.enumerate", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("host.probe_ms", "ms"),
]

#: Program layers the traced run wraps, keyed by layer name.  Each entry
#: is ``(module, attribute)``; a dotted attribute names a method.  The
#: functions are patched where ``repro.core.matcher`` / ``dynamic`` bind
#: them, so the program source is untouched.
LAYER_ENTRY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    "decompose": [
        ("repro.core.matcher", "cfl_decompose"),
        ("repro.core.matcher", "select_root"),
        ("repro.core.dynamic", "cfl_decompose"),
        ("repro.core.dynamic", "select_root"),
    ],
    "cpi_build": [
        ("repro.core.matcher", "build_cpi"),
        ("repro.core.dynamic", "_repair_sweep"),
    ],
    "ordering": [("repro.core.matcher", "order_structure")],
    "kernel_compile": [("repro.core.matcher", "compile_kernel_plan")],
    "data_csr": [("repro.core.matcher", "build_data_csr")],
    "pool.query": [("repro.core.parallel", "MatcherPool.count")],
    "dyn.apply": [("repro.graph.dynamic", "DynamicGraph.apply")],
    "dyn.sync": [("repro.core.dynamic", "IncrementalMatcher.prepare")],
}

#: Generator or per-match entry points: their time is summed into one
#: aggregate per operation and layer instead of one span per call.
AGGREGATE_ENTRY_POINTS: Dict[str, List[Tuple[str, str]]] = {
    # core vs forest is decided per call from the backtracker's stats
    # object (see cflbench.tracer.Tracer.stage_layers)
    "enum.stage": [("repro.core.kernel", "KernelBacktracker.extend")],
    "enum.leaf": [
        ("repro.core.matcher", "enumerate_leaf_matches"),
        ("repro.core.matcher", "count_leaf_matches"),
    ],
}

#: Layers whose self time is preparation (``share.prepare``).
PREPARE_LAYERS = ("decompose", "cpi_build", "ordering", "kernel_compile")
