"""The benchmark client: one fresh interpreter per invocation.

    python -m cflbench.client gen   --workload W --seed N --dir D
    python -m cflbench.client setup --workload W --dir D --out F
    python -m cflbench.client run   --workload W --dir D --out F --seconds S
                                    [--passes P] [--trace-out T]

``gen`` writes the seeded inputs.  ``setup`` times what a one-shot user
pays — ``import repro``, loading the data graph from the text file,
building the matcher and one checked warm-up operation — and exits.
``run`` does the same set-up, then runs whole passes of the workload's
operations as a closed loop (the next operation starts when the previous
one returns) until the operations have taken ``--seconds`` and there
are at least ``MIN_READS`` of them, or exactly ``--passes`` passes.
Every operation is checked, outside its timer; ``run`` without tracing
also compares each distinct result against the reference engine.  With
``--trace-out`` the layer entry points are wrapped in spans
(:mod:`cflbench.tracer`) and a per-layer summary is added.  Results go
to the ``--out`` JSON file; standard output stays free for the caller.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import signal
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from .calibrate import Probe
from .metrics import FailureLedger, layer_self_times, ratio
from .spec import (
    MIN_READS,
    OP_DEADLINE_S,
    PREPARE_LAYERS,
    SNAPSHOT_EVERY,
    WORKLOADS,
)

#: Embeddings per distinct query compared with the reference engine.
PREFIX = 1_000

now = time.perf_counter
SHM_DIR = Path("/dev/shm")
SEGMENT_PREFIX = "cflm-"
#: tracer operation id for set-up (warm-up included) and for the
#: untimed bookkeeping between operations
SETUP_OP = -1
BOOKKEEPING_OP = -2
#: spans whose inclusive time is enumeration (``share.enumerate``)
ENUMERATE_SPANS = ("phase.search", "phase.count", "pool.query")


class OpTimeout(Exception):
    """An operation ran past :data:`cflbench.spec.OP_DEADLINE_S`."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise OpTimeout(f"operation exceeded {OP_DEADLINE_S:g} s")


def _on_terminate(signum: int, frame: Any) -> None:
    # unwinds through every ``finally`` so an open pool is closed
    raise SystemExit(128 + signum)


def _default_terminate() -> None:
    """Pool workers forked from this process must die the default way
    when the pool terminates them: a Python-level handler cannot run in
    a worker blocked inside a lock, and the pool's close then waits on
    that worker for ever."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


@contextmanager
def op_deadline() -> Iterator[None]:
    signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def digest(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:32]


def list_segments() -> Set[str]:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SEGMENT_PREFIX)}
    except FileNotFoundError:
        return set()


def peak_rss_kb() -> int:
    """Peak RSS of this process plus every child forked from it (pool
    workers share its command line; helper processes do not)."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    me = str(os.getpid())
    own_cmdline = Path(f"/proc/{me}/cmdline").read_bytes()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
            if stat.rsplit(")", 1)[1].split()[1] != me:
                continue
            if Path(f"/proc/{entry}/cmdline").read_bytes() != own_cmdline:
                continue
            for line in Path(f"/proc/{entry}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue  # the child exited while being read
    return total


class Session:
    """Set-up, operations and checks of one workload in this process."""

    def __init__(self, args: argparse.Namespace, probe: Probe) -> None:
        self.probe = probe
        self.workload = args.workload
        self.spec = WORKLOADS[args.workload]
        self.cap: Optional[int] = self.spec["cap"]
        self.dir = Path(args.dir)
        self.trace = bool(args.trace_out)
        # the traced run is checked against the untraced one instead
        self.oracle = not self.trace
        self.ledger = FailureLedger()
        self.records: List[Dict[str, Any]] = []
        self.first: Dict[int, Dict[str, Any]] = {}
        self.reference: Any = None
        self.segments_seen: Set[str] = set()
        self.layers: Dict[str, float] = {}
        self.tracer: Any = None
        self.pool: Any = None

    # -- set-up --------------------------------------------------------
    def setup(self, started: float) -> None:
        modules_before = len(sys.modules)
        import repro  # noqa: F401  (timed: the import is part of set-up)
        from repro.core.stats import SearchStats
        from repro.graph.io import load_graph

        self.SearchStats = SearchStats
        self.layers["import.s"] = now() - started
        self.layers["import.modules"] = len(sys.modules) - modules_before
        self.layers["import.numpy"] = int("numpy" in sys.modules)
        if self.trace:
            from .tracer import Tracer

            self.tracer = Tracer()
            self.tracer.install()
        from .inputs import read_deltas, read_queries

        t = now()
        data = load_graph(self.dir / "data.graph")
        self.layers["load.text_s"] = now() - t
        self.layers["load.bytes"] = (self.dir / "data.graph").stat().st_size
        if self.trace:
            t = now()
            load_graph(self.dir / "data.csr")
            self.layers["load.csr_s"] = now() - t
            t = now()
            data.label_index()
            data.nlf(0)
            data.mnd(0)
            self.layers["data_index.s"] = now() - t
        self.data = data
        self.queries, self.order, standing = read_queries(self.dir)
        self.deltas = read_deltas(self.dir) or []
        self.standing = [self.queries[i] for i in standing]
        if self.workload == "pool-serve":
            from repro import CFLMatch, MatcherPool

            self.seq = CFLMatch(data)
            t = now()
            self.pool = MatcherPool(data, workers=self.spec["workers"])
            self.layers["pool.start_s"] = now() - t
            self.serving = self.pool.matcher
            self.segments_seen |= list_segments()
            self.operation: Callable[[int, Optional[int]], Dict[str, Any]] = self._pool_read
        elif self.workload == "stream-update":
            from repro.core.dynamic import IncrementalMatcher
            from repro.graph.dynamic import DynamicGraph

            self.dynamic = DynamicGraph.from_graph(data)
            self.inc = IncrementalMatcher(self.dynamic)
            for query in self.standing:
                self.inc.prepare(query)
            self.serving = self.inc.matcher
            self.operation = self._stream_op
        else:
            from repro import CFLMatch

            self.serving = CFLMatch(data)
            self.operation = self._static_read
        # Pool query 0 whatever the seed, so set-up does the same work.
        # Set-up ends with the warm-up read: its checks and the count
        # timed beside it are not part of what a one-shot user pays.
        ready = now()
        warm = self._run_op(SETUP_OP, 0 if self.order else None)
        self.setup_s = ready - started + warm["t"]
        if self.tracer:
            self.tracer.op = BOOKKEEPING_OP

    # -- helpers -------------------------------------------------------
    def _span(self, name: str) -> Any:
        return self.tracer.span(name) if self.tracer else nullcontext()

    @contextmanager
    def _timed(self, op: int) -> Iterator[None]:
        """The operation's span; spans outside it are bookkeeping."""
        if not self.tracer:
            yield
            return
        self.tracer.op = op
        try:
            with self.tracer.span("op"):
                yield
        finally:
            self.tracer.op = BOOKKEEPING_OP

    def _stages(self) -> Dict[str, Any]:
        stages = {name: self.SearchStats() for name in ("core", "forest", "leaf")}
        if self.tracer:
            self.tracer.stage_layers = {
                id(stages["core"]): "enum.core",
                id(stages["forest"]): "enum.forest",
            }
        return stages

    def _stage_counts(self, *stage_sets: Dict[str, Any]) -> Dict[str, int]:
        counts = {"core": 0, "forest": 0, "leaf": 0, "backtracks": 0}
        for stages in stage_sets:
            for name in ("core", "forest", "leaf"):
                counts[name] += stages[name].nodes
                counts["backtracks"] += stages[name].backtracks
        return counts

    def _stats_digest(self, *parts: Any) -> str:
        return digest([
            {k: v.to_dict() for k, v in p.items()} if isinstance(p, dict)
            else p.to_dict()
            for p in parts
        ])

    def _plan_facts(self, plan: Any) -> Dict[str, int]:
        candidates = sum(plan.cpi.candidate_counts())
        build = plan.build_stats
        return {
            "candidates": candidates,
            "edges": plan.cpi.size() - candidates,
            "structural": build.cpi_candidates_structural,
            "final": build.cpi_candidates_final,
        }

    def _estimate(self, plan: Any, record: Dict[str, Any]) -> None:
        """Algorithm 2's estimated breadth for reads that ran to
        completion (a capped read stops short of the estimate)."""
        from repro.core.explain import stage_breadth

        if self.cap is None or record["emb"] < self.cap:
            record["estimate"] = sum(
                row["estimated_breadth"] for row in stage_breadth(plan)
            )

    # -- operations ----------------------------------------------------
    def _static_read(self, op: int, qi: Optional[int]) -> Dict[str, Any]:
        """Prepare afresh and materialize up to the cap, then count the
        same plan, timed on its own."""
        query, matcher, cap = self.queries[qi], self.serving, self.cap
        with self._timed(op):
            started = now()
            with self._span("phase.prepare"):
                plan = matcher.prepare(query, use_cache=False)
            prepared = now()
            read_stages = self._stages()
            with self._span("phase.search"):
                embeddings = list(
                    matcher.search(query, limit=cap, prepared=plan, stage_stats=read_stages)
                )
            searched = now()
            count_stages = self._stages()
            with self._span("phase.count"):
                count = matcher.count(
                    query, limit=cap, prepared=plan, stage_stats=count_stages
                )
            counted = now()
        record = {
            "t": searched - started,
            "t_prepare": prepared - started,
            "t_search": searched - prepared,
            "t_count": counted - searched,
            "t_op": counted - started,
            "t_emb": searched - started,
            "emb": len(embeddings),
            "count": count,
            "digest": digest(embeddings),
            "stats": self._stats_digest(plan.build_stats, read_stages),
            "count_stats": self._stats_digest(count_stages),
            "nodes": self._stage_counts(read_stages),
            "plan": self._plan_facts(plan),
        }
        if count != len(embeddings):
            self._fail(op, f"count {count} != {len(embeddings)} materialized")
        if qi not in self.first:
            self._check_embeddings(op, query, embeddings)
            if self.oracle:
                self._check_reference(op, query, plan, len(embeddings), embeddings[:PREFIX])
        if self.trace:
            self._estimate(plan, record)
        return record

    def _check_embeddings(self, op: int, query: Any, embeddings: List) -> None:
        from repro.core import validate_embedding

        if len(set(embeddings)) != len(embeddings):
            self._fail(op, "duplicate embeddings")
        for embedding in embeddings:
            if not validate_embedding(query, self.data, embedding):
                self._fail(op, f"invalid embedding {embedding}")
                break

    def _pool_read(self, op: int, qi: Optional[int]) -> Dict[str, Any]:
        """Count through the pool, then count the same query on one
        sequential matcher — the pool's correctness check and the
        baseline of its overhead."""
        query = self.queries[qi]
        pooled = self.SearchStats()
        with self._timed(op):
            started = now()
            count = self.pool.count(query, limit=self.cap, stats=pooled)
            pooled_at = now()
            stages = self._stages()
            with self._span("phase.count"):
                sequential = self.seq.count(query, limit=self.cap, stage_stats=stages)
            counted = now()
        self.segments_seen |= list_segments()
        plan = self.seq.prepare(query)
        record = {
            "t": pooled_at - started,
            "t_count": counted - pooled_at,
            "t_op": counted - started,
            "t_emb": pooled_at - started,
            "emb": count,
            "count": sequential,
            "digest": digest(count),
            "stats": self._stats_digest(pooled),
            "count_stats": self._stats_digest(stages),
            "nodes": self._stage_counts(stages),
            "pool_nodes": pooled.nodes,
            "plan": self._plan_facts(plan),
        }
        if count != sequential:
            self._fail(op, f"pooled count {count} != sequential {sequential}")
        if self.trace:
            self._estimate(plan, record)
        if qi not in self.first and self.oracle:
            self._check_reference(op, query, plan, count, None)
        return record

    def _stream_op(self, op: int, qi: Optional[int]) -> Dict[str, Any]:
        """One write (apply a delta, sync every standing plan), then one
        read (count a standing query on its synced plan)."""
        if op == SETUP_OP:
            return self._stream_read_only()
        inc, standing = self.inc, self.standing
        delta = self.deltas[op % len(self.deltas)]
        before = [inc.prepare(q) for q in standing]
        lifetime = [
            (p.build_stats.cpi_repairs, p.build_stats.cpi_rebuilds,
             p.build_stats.dirty_region_size)
            for p in before
        ]
        query = standing[op % len(standing)]
        with self._timed(op):
            started = now()
            with self._span("phase.write"):
                self.dynamic.apply(delta)
                applied = now()
                for q in standing:
                    inc.prepare(q)
            written = now()
            stages = self._stages()
            with self._span("phase.count"):
                plan = inc.prepare(query)
                count = inc.matcher.count(
                    query, limit=self.cap, prepared=plan, stage_stats=stages
                )
            counted = now()
        after = [inc.prepare(q) for q in standing]
        noops = sum(a is b for a, b in zip(before, after))
        repairs = sum(p.build_stats.cpi_repairs for p in after) - sum(x[0] for x in lifetime)
        record = {
            "t": counted - started,
            "t_op": counted - started,
            "t_apply": applied - started,
            "t_write": written - started,
            "t_count": counted - written,
            "t_emb": counted - written,
            "emb": count,
            "count": count,
            "digest": digest((delta.format(), count)),
            "stats": self._stats_digest(stages, *(p.build_stats for p in after)),
            "nodes": self._stage_counts(stages),
            "noops": noops,
            "repairs": repairs - noops,
            "rebuilds": sum(p.build_stats.cpi_rebuilds for p in after) - sum(x[1] for x in lifetime),
            "dirty": sum(p.build_stats.dirty_region_size for p in after) - sum(x[2] for x in lifetime),
            "syncs": len(standing),
            "plan": self._plan_facts(plan),
        }
        if self.oracle:
            self._check_stream(op, query, count)
        if self.trace:
            self._estimate(plan, record)
        return record

    def _stream_read_only(self) -> Dict[str, Any]:
        query = self.standing[0]
        stages = self._stages()
        with self._timed(SETUP_OP):
            started = now()
            count = self.inc.matcher.count(
                query, limit=self.cap, prepared=self.inc.prepare(query),
                stage_stats=stages,
            )
            elapsed = now() - started
        if self.oracle:
            self._check_stream(SETUP_OP, query, count)
        return {"t": elapsed, "t_op": elapsed, "t_count": elapsed, "t_emb": elapsed, "emb": count,
                "count": count, "digest": digest(count), "stats": self._stats_digest(stages)}

    def _check_stream(self, op: int, query: Any, count: int) -> None:
        """Incremental count against a cold re-prepare on the live graph
        after every delta, and every standing query against a cold build
        on a frozen snapshot every ``SNAPSHOT_EVERY`` operations."""
        from repro import CFLMatch

        cold = CFLMatch(self.dynamic, engine="reference", plan_cache_size=0)
        expected = cold.count(query, limit=self.cap)
        if expected != count:
            self._fail(op, f"incremental count {count} != cold re-prepare {expected}")
        if op == SETUP_OP or (op + 1) % SNAPSHOT_EVERY == 0:
            self.check_snapshot(op)

    def check_snapshot(self, op: int) -> None:
        from repro import CFLMatch

        frozen = CFLMatch(self.dynamic.to_static(), engine="reference", plan_cache_size=0)
        for q in self.standing:
            live = self.inc.matcher.count(q, limit=self.cap, prepared=self.inc.prepare(q))
            cold = frozen.count(q, limit=self.cap)
            if live != cold:
                self._fail(op, f"standing count {live} != snapshot rebuild {cold}")

    def _fail(self, op: int, reason: str) -> None:
        if op == SETUP_OP:
            raise SystemExit(f"warm-up operation failed: {reason}")
        self.ledger.fail(op, reason)

    def _run_op(self, op: int, qi: Optional[int]) -> Dict[str, Any]:
        """One checked operation; repeats of a query must reproduce its
        first result and counters exactly.

        A full collection runs first, untimed: each operation then pays
        for the garbage it makes, not for its predecessors' or the
        checks' (which otherwise moved one query's time by up to 1.8x
        between passes).  The warm-up is part of set-up and runs as a
        user's first operation would.  The host-speed probe
        (:mod:`cflbench.calibrate`) runs right before and right after the
        operation, outside its timer; ``probe`` is the mean of the two."""
        if op != SETUP_OP:
            gc.collect()
        before = self.probe()
        with op_deadline():
            record = self.operation(op, qi)
        record["probe"] = (before + self.probe()) / 2
        record["op"], record["q"] = op, qi
        if qi is not None:
            first = self.first.setdefault(qi, record)
            if first is not record and (
                first["digest"], first["stats"]) != (record["digest"], record["stats"]):
                self._fail(op, f"query {qi} repeated with a different result")
        return record

    # -- the timed loop --------------------------------------------------
    def run(self, seconds: float, passes: Optional[int]) -> int:
        """Whole passes until ``seconds`` of operations and ``MIN_READS``
        reads, or exactly ``passes``; returns the passes run."""
        one_pass = self.order or [None] * self.spec["pass_ops"]
        done = 0
        elapsed = 0.0
        while True:
            for qi in one_pass:
                op = self.ledger.attempt()
                try:
                    record = self._run_op(op, qi)
                except OpTimeout as exc:
                    self.ledger.fail(op, str(exc))
                    return done
                self.records.append(record)
                elapsed += record["t_op"]
            done += 1
            if passes is not None:
                if done >= passes:
                    break
            elif elapsed >= seconds and len(self.records) >= MIN_READS:
                break
        return done

    def _check_reference(
        self, op: int, query: Any, plan: Any, found: int, prefix: Optional[List[Any]]
    ) -> None:
        """A distinct query's result against the reference engine run on
        the same plan (the engines share preparation; repeats of the
        query re-prepare and must reproduce it exactly).

        Both engines enumerate in the same order, so the first ``PREFIX``
        embeddings must be identical.  A read that reached the cap
        materialized that many valid, distinct embeddings, which proves
        its capped count; a read below the cap claims the total, which
        the reference engine's count must match."""
        if self.reference is None:
            from repro import CFLMatch

            self.reference = CFLMatch(self.data, engine="reference", plan_cache_size=0)
        reference = self.reference
        if prefix is not None:
            expected = list(reference.search(query, limit=len(prefix), prepared=plan))
            if expected != prefix:
                self._fail(op, "embeddings differ from the reference engine")
        if self.cap is None or found < self.cap:
            expected_count = reference.count(query, prepared=plan)
            if expected_count != found:
                self._fail(op, f"{found} embeddings, reference engine counts {expected_count}")

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    # -- per-layer summary (traced run) -------------------------------
    def layer_summary(self) -> Dict[str, float]:
        records = self.tracer.records()
        ops = [r["op"] for r in self.records]
        n = len(ops) or 1
        op_set = set(ops)
        per_op = layer_self_times(records, op_set)
        op_time = sum(r.duration for r in records if r.name == "op" and r.op in op_set)
        inclusive: Dict[str, float] = {}
        for r in records:
            if r.op in op_set:
                inclusive[r.name] = inclusive.get(r.name, 0.0) + r.duration
        setup = layer_self_times(records, [SETUP_OP])
        out = dict(self.layers)
        out["data_csr.setup_s"] = setup.get("data_csr", 0.0)
        for layer in ("data_csr", "decompose", "cpi_build", "ordering", "kernel_compile",
                      "enum.core", "enum.forest", "enum.leaf"):
            out[f"{layer}.s"] = per_op.get(layer, 0.0) / n
        unattributed = sum(v for k, v in per_op.items() if k == "op" or k.startswith("phase."))
        out["trace.unattributed_share"] = ratio(unattributed, op_time)
        out["share.prepare"] = ratio(sum(per_op.get(k, 0.0) for k in PREPARE_LAYERS), op_time)
        out["share.enumerate"] = ratio(
            sum(inclusive.get(k, 0.0) for k in ENUMERATE_SPANS), op_time)
        out["dyn.apply_s"] = inclusive.get("dyn.apply", 0.0) / n
        out["dyn.sync_s"] = inclusive.get("dyn.sync", 0.0) / n
        out["shm.segments"] = len(self.segments_seen)
        out["layer_self_s"] = {k: v / n for k, v in sorted(per_op.items())}
        return out

    def write_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for r in self.tracer.records():
                handle.write(json.dumps({
                    "id": r.id, "name": r.name, "start": r.start,
                    "end": r.start + r.duration if r.calls == 1 else None,
                    "duration": r.duration, "parent": r.parent, "op": r.op,
                    "calls": r.calls,
                }) + "\n")


def _counts_summary(session: Session) -> Dict[str, Any]:
    """Counters every run reports (traced or not)."""
    serving = session.serving
    return {
        "plan_cache_hits": serving.plan_cache_hits,
        "plan_cache_lookups": serving.plan_cache_hits + serving.prepare_count,
    }


def _gen(args: argparse.Namespace) -> int:
    from .inputs import make_inputs, write_inputs

    write_inputs(make_inputs(args.workload, args.seed), Path(args.dir))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m cflbench.client")
    parser.add_argument("mode", choices=("gen", "setup", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--passes", type=int)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    if args.mode == "gen":
        return _gen(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_terminate)
    os.register_at_fork(after_in_child=_default_terminate)
    probe = Probe()
    before = probe()
    started = now()
    session = Session(args, probe)
    result: Dict[str, Any] = {}
    try:
        session.setup(started)
        result["setup_s"] = session.setup_s
        result["setup_probe"] = (before + probe()) / 2
        result["layers"] = session.layers
        if args.mode == "run":
            result["passes"] = session.run(args.seconds, args.passes)
            result["peak_rss_kb"] = peak_rss_kb()
            if session.workload == "stream-update" and session.oracle and session.records:
                session.check_snapshot(session.records[-1]["op"])
            result["counts"] = _counts_summary(session)
            if session.trace:
                result["layers"] = session.layer_summary()
                session.write_trace(Path(args.trace_out))
    finally:
        session.close()
    result["ops"] = session.records
    result["attempted"] = session.ledger.attempted
    result["failed_ops"] = sorted(session.ledger.failed_ops.items())
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
