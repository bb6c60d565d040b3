"""Incremental-vs-recompute differential harness for dynamic matching.

The only trustworthy oracle for incremental CPI repair is full
recomputation: after every delta, an
:class:`~repro.core.dynamic.IncrementalMatcher` must produce exactly
what a cold :class:`~repro.core.matcher.CFLMatch` over a from-scratch
copy of the mutated graph produces — the same embeddings, in the same
enumeration order, with the same enumeration counters, and (stronger
still) the same CPI contents.  So must one plain ``CFLMatch`` reused
over the live graph across every delta.  This module packages that
oracle as

* :func:`incremental_differential_check` — one ``(data, query, stream)``
  instance, replayed step-by-step under every requested engine;
* :func:`generate_delta_case` — the seeded workload: a base fuzz case
  from :mod:`repro.testing.workloads` plus a seeded delta stream;
* :func:`run_incremental_fuzz` — the budgeted loop CI runs, with
  delta-stream shrinking and corpus capture on failure.

Build counters are deliberately *not* compared: repair counts only the
recomputed units (that asymmetry **is** the speedup being claimed), so
the oracle pins enumeration-visible state instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.dynamic import IncrementalMatcher
from ..core.matcher import CFLMatch
from ..core.stats import SearchStats, monotonic_now
from ..graph.dynamic import Delta, DynamicGraph
from ..graph.graph import Graph, GraphError
from .differential import Mismatch
from .engine import MismatchRecord
from .shrinker import shrink_delta_case
from .workloads import (
    DYNAMIC_BASE_SCENARIOS,
    WorkloadSpec,
    generate_case,
    generate_delta_stream,
)

#: Engines whose incremental path the differential harness exercises.
DYNAMIC_ENGINES: Tuple[str, ...] = ("reference", "kernel")


@dataclass(frozen=True)
class DeltaCase:
    """One seeded dynamic instance: base case plus its delta stream."""

    index: int
    scenario: str
    seed: str
    data: Graph = field(compare=False)
    query: Graph = field(compare=False)
    deltas: Tuple[Delta, ...] = field(compare=False, default=())

    def describe(self) -> str:
        return (
            f"delta-case {self.index} [{self.scenario}] seed={self.seed!r}: "
            f"query(|V|={self.query.num_vertices}) in "
            f"data(|V|={self.data.num_vertices}, |E|={self.data.num_edges}) "
            f"+ {len(self.deltas)} delta(s)"
        )


def generate_delta_case(
    seed: int,
    index: int,
    spec: Optional[WorkloadSpec] = None,
    stream_length: Tuple[int, int] = (4, 12),
) -> DeltaCase:
    """The ``index``-th dynamic case of the stream identified by ``seed``.

    Rotates over the ten *base* scenarios (a dynamic case mutates a
    static starting point, so the ``dynamic-delta`` fuzz scenario itself
    is excluded) and derives the delta stream from an independent
    sub-seed, so the base instance matches the static fuzz stream's.
    """
    if spec is None:
        spec = WorkloadSpec(scenarios=DYNAMIC_BASE_SCENARIOS)
    case = generate_case(seed, index, spec)
    rng = random.Random(f"{case.seed}:deltas")
    length = rng.randint(stream_length[0], stream_length[1])
    deltas = tuple(generate_delta_stream(case.data, rng, length))
    return DeltaCase(
        index=case.index,
        scenario=case.scenario,
        seed=case.seed,
        data=case.data,
        query=case.query,
        deltas=deltas,
    )


def _cpi_payload(prepared) -> Tuple[List[List[int]], List[Dict[int, List[int]]]]:
    cpi = prepared.cpi
    return (
        [list(c) for c in cpi.candidates],
        [{k: list(v) for k, v in table.items()} for table in cpi.adjacency],
    )


def _kernel_rows_current(prepared, data: Graph) -> bool:
    """Whether the compiled plan's CSR rows for every candidate equal
    ``data``'s adjacency — the only rows the kernel reads.  Checked
    directly because the kernel reads them only for candidate rows of at
    least ``_INTERSECT_MIN``, which small fuzz cases rarely reach."""
    kernel = prepared.kernel
    if kernel is None:
        return True
    indptr, flat = kernel.adj_indptr, kernel.adj_flat
    return all(
        list(flat[indptr[v]:indptr[v + 1]]) == list(data.adj[v])
        for row in prepared.cpi.candidates
        for v in row
    )


#: One side's search outcome: (rejection, embeddings, enumeration stats).
_Outcome = Tuple[Optional[Exception], List[Tuple[int, ...]], SearchStats]
_Side = Union[IncrementalMatcher, CFLMatch]


def _search_outcome(matcher: _Side, query: Graph) -> _Outcome:
    stats = SearchStats()
    try:
        return None, list(matcher.search(query, stats=stats)), stats
    except (GraphError, ValueError) as exc:
        return exc, [], stats


def _divergence(got: _Outcome, want: _Outcome) -> Optional[str]:
    """How ``got`` differs from the cold outcome ``want``, if it does."""
    got_error, got_embeddings, got_stats = got
    want_error, want_embeddings, want_stats = want
    if (got_error is None) != (want_error is None):
        return f"rejection disagreement (side={got_error!r}, cold={want_error!r})"
    if got_embeddings != want_embeddings:
        return (
            f"embeddings diverge "
            f"(side={len(got_embeddings)}, cold={len(want_embeddings)})"
        )
    got_dict, want_dict = got_stats.to_dict(), want_stats.to_dict()
    if got_dict != want_dict:
        diffs = {
            name: (got_dict[name], want_dict[name])
            for name in got_dict
            if got_dict[name] != want_dict[name]
        }
        return f"enumeration counters diverge: {diffs}"
    return None


def incremental_differential_check(
    data: Graph,
    query: Graph,
    deltas: Sequence[Delta],
    engines: Sequence[str] = DYNAMIC_ENGINES,
    rebuild_threshold: float = 0.75,
    check_cpi: bool = True,
) -> List[Mismatch]:
    """Replay ``deltas`` against live-graph matchers and cold recompute.

    For every engine, and at every step (initial state plus one per
    delta), two matchers over the mutating graph are compared with a
    freshly constructed :class:`CFLMatch` over a from-scratch copy:

    * ``incremental/{engine}`` — an :class:`IncrementalMatcher`
      repairing its plan;
    * ``reused/{engine}`` — one long-lived :class:`CFLMatch` with its
      default plan cache, which must never serve a plan or kernel CSR
      of an older graph version.

    Embeddings, enumeration order, full enumeration ``SearchStats`` and
    (with ``check_cpi``) CPI candidates + adjacency must be identical,
    and a compiled kernel's CSR rows for every candidate must equal the
    live graph's adjacency.
    Queries both sides reject (e.g. disconnected) count as agreement.
    Returns one :class:`Mismatch` per divergence; a side stops being
    compared after its first.
    """
    mismatches: List[Mismatch] = []
    for engine in engines:
        dynamic = DynamicGraph.from_graph(data)
        sides: Dict[str, _Side] = {
            f"incremental/{engine}": IncrementalMatcher(
                dynamic, engine=engine, rebuild_threshold=rebuild_threshold
            ),
            f"reused/{engine}": CFLMatch(dynamic, engine=engine),
        }
        for step in range(len(deltas) + 1):
            if not sides:
                break
            if step > 0:
                dynamic.apply(deltas[step - 1])
            at = "initial" if step == 0 else f"after delta {step - 1} ({deltas[step - 1].format()})"
            cold = CFLMatch(dynamic.to_static(), engine=engine)
            want = _search_outcome(cold, query)
            cold_cpi = None
            if check_cpi and want[0] is None:
                cold_cpi = _cpi_payload(cold.prepare(query, use_cache=False))
            for tag, matcher in list(sides.items()):
                try:
                    got = _search_outcome(matcher, query)
                except Exception as exc:  # noqa: BLE001 — a crash is a divergence
                    mismatches.append(Mismatch(
                        tag, "dynamic-differential", f"{at}: crashed: {exc!r}"
                    ))
                    del sides[tag]
                    continue
                detail = _divergence(got, want)
                if detail is None and cold_cpi is not None:
                    prepared = matcher.prepare(query)
                    if _cpi_payload(prepared) != cold_cpi:
                        detail = "repaired CPI differs from rebuilt CPI"
                    elif not _kernel_rows_current(prepared, dynamic):
                        detail = "kernel CSR rows differ from the live graph"
                if detail is not None:
                    mismatches.append(
                        Mismatch(tag, "dynamic-differential", f"{at}: {detail}")
                    )
                    del sides[tag]
                elif got[0] is not None:
                    # Both reject (same class of unsupported input):
                    # nothing further to compare, now or after later deltas.
                    del sides[tag]
    return mismatches


# ----------------------------------------------------------------------
# Budgeted fuzz loop (the CI smoke)
# ----------------------------------------------------------------------
@dataclass
class DynamicFuzzReport:
    """Outcome of one incremental fuzz run; serializes to JSON for CI."""

    seed: int
    budget_seconds: float
    engines: List[str]
    cases_run: int = 0
    cases_skipped: int = 0
    elapsed_seconds: float = 0.0
    scenario_counts: Dict[str, int] = field(default_factory=dict)
    mismatches: List[MismatchRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict:
        payload = asdict(self)
        payload["ok"] = self.ok
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"dynamic fuzz: seed={self.seed} budget={self.budget_seconds:.0f}s "
            f"engines={','.join(self.engines)} cases={self.cases_run} "
            f"(skipped {self.cases_skipped}) in {self.elapsed_seconds:.1f}s"
        ]
        for name in sorted(self.scenario_counts):
            lines.append(f"  {name}: {self.scenario_counts[name]} case(s)")
        if self.ok:
            lines.append("result: OK — no mismatches")
        else:
            lines.append(f"result: {len(self.mismatches)} MISMATCH(ES)")
            for record in self.mismatches:
                lines.append(
                    f"  case {record.case_index} [{record.scenario}] "
                    f"{record.matcher}: {record.detail}"
                )
                if record.reproducer:
                    lines.append(f"    reproducer: {record.reproducer}")
        return "\n".join(lines)


def _case_is_affordable(case: DeltaCase, max_embeddings: int) -> bool:
    """Gate on the *mutated* graph too: edge churn can inflate results."""
    scratch = DynamicGraph.from_graph(case.data)
    for delta in case.deltas:
        scratch.apply(delta)
    for graph in (case.data, scratch.to_static()):
        try:
            count = CFLMatch(graph).count(case.query, limit=max_embeddings + 1)
        except (ValueError, GraphError):
            return True  # rejected queries cost nothing to check
        if count > max_embeddings:
            return False
    return True


def run_incremental_fuzz(
    seed: int = 0,
    budget_seconds: float = 10.0,
    engines: Sequence[str] = DYNAMIC_ENGINES,
    spec: Optional[WorkloadSpec] = None,
    max_cases: Optional[int] = None,
    corpus_dir: Optional[Path] = None,
    shrink: bool = True,
    max_embeddings: int = 5000,
    max_failures: int = 5,
) -> DynamicFuzzReport:
    """Fuzz the incremental path until the budget or case cap runs out.

    Every case replays its seeded delta stream through
    :func:`incremental_differential_check`; failures are shrunk with
    :func:`~repro.testing.shrinker.shrink_delta_case` (minimizing the
    *stream* as well as both graphs) and written to ``corpus_dir``.
    """
    from .corpus import save_reproducer

    report = DynamicFuzzReport(
        seed=seed, budget_seconds=budget_seconds, engines=list(engines)
    )
    started = monotonic_now()
    deadline = started + budget_seconds
    index = 0
    while monotonic_now() < deadline:
        if max_cases is not None and index >= max_cases:
            break
        if len(report.mismatches) >= max_failures:
            break
        case = generate_delta_case(seed, index, spec)
        index += 1
        if not _case_is_affordable(case, max_embeddings):
            report.cases_skipped += 1
            continue
        report.cases_run += 1
        report.scenario_counts[case.scenario] = (
            report.scenario_counts.get(case.scenario, 0) + 1
        )
        mismatches = incremental_differential_check(
            case.data, case.query, case.deltas, engines=engines
        )
        for mismatch in mismatches:
            record = MismatchRecord(
                case_index=case.index,
                scenario=case.scenario,
                case_seed=case.seed,
                matcher=mismatch.matcher,
                kind=mismatch.kind,
                detail=mismatch.detail,
            )
            data, query, deltas = case.data, case.query, case.deltas
            if shrink:
                engine = mismatch.matcher.split("/", 1)[-1]

                def failing(d: Graph, q: Graph, s: Sequence[Delta]) -> bool:
                    found = incremental_differential_check(
                        d, q, s, engines=(engine,)
                    )
                    return any(m.kind == mismatch.kind for m in found)

                try:
                    shrunk = shrink_delta_case(data, query, deltas, failing)
                    data, query, deltas = shrunk.data, shrunk.query, shrunk.deltas
                except ValueError:
                    pass  # flaky failure: keep the original instance
            record.minimized_data = {
                "vertices": data.num_vertices, "edges": data.num_edges,
            }
            record.minimized_query = {
                "vertices": query.num_vertices, "edges": query.num_edges,
            }
            if corpus_dir is not None:
                path = save_reproducer(
                    Path(corpus_dir), data, query,
                    kind=mismatch.kind, matcher=mismatch.matcher,
                    detail=mismatch.detail, scenario=case.scenario,
                    seed=case.seed, deltas=deltas,
                )
                record.reproducer = str(path)
            report.mismatches.append(record)
    report.elapsed_seconds = monotonic_now() - started
    return report
