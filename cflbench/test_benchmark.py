"""Tests of the benchmark's own arithmetic and inputs.

    PYTHONPATH=src python -m pytest cflbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from cflbench.calibrate import REFERENCE_S, Probe, scale
from cflbench.metrics import (
    FailureLedger,
    SpanRecord,
    TooFewSamples,
    _beta_cdf,
    layer_self_times,
    percentile,
    samples_needed,
    self_times,
)
from cflbench.spec import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


# -- Harrell-Davis percentile with a sample-count rule ------------------
def test_samples_needed_leaves_ten_above():
    assert samples_needed(0.5) == 20
    assert samples_needed(0.9) == 100
    assert samples_needed(0.99) == 1000


def test_p90_of_100_samples_has_ten_above():
    values = list(range(1, 101))
    p90 = percentile(values, 0.9)
    assert p90 == pytest.approx(90.5, abs=1e-6)
    assert sum(v > p90 for v in values) == 10


def test_percentile_refuses_too_few_samples():
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 0.9)
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 0.5)
    assert percentile([5.0] * 20, 0.5) == pytest.approx(5.0)


def test_percentile_ignores_input_order():
    values = [3.0, 1.0, 2.0] * 40
    assert percentile(values, 0.5) == pytest.approx(percentile(sorted(values), 0.5))
    assert percentile(values, 0.5) == pytest.approx(2.0)


def test_beta_cdf_known_values():
    for x in (0.1, 0.37, 0.9):
        assert _beta_cdf(1.0, 1.0, x) == pytest.approx(x)
        assert _beta_cdf(3.0, 1.0, x) == pytest.approx(x ** 3)
    assert _beta_cdf(45.5, 45.5, 0.5) == pytest.approx(0.5)
    assert _beta_cdf(90.9, 10.1, 0.0) == 0.0 and _beta_cdf(90.9, 10.1, 1.0) == 1.0


def test_harrell_davis_weighs_ranks_near_q():
    """The estimate is a weighted mean of the order statistics that moves
    with the samples near the rank and hardly with the extremes."""
    values = [float(v) for v in range(1, 201)]
    assert percentile(values, 0.5) == pytest.approx(100.5)
    moved = values[:-1] + [1e6]
    assert percentile(moved, 0.5) == pytest.approx(100.5, abs=1e-6)
    assert percentile(moved, 0.9) == pytest.approx(percentile(values, 0.9), rel=1e-3)


# -- host speed probe ----------------------------------------------------
def test_probe_chase_is_one_cycle_and_scale_is_linear():
    probe = Probe()
    table = probe.table
    at, seen = 0, set()
    while at not in seen:
        seen.add(at)
        at = table[at]
    assert len(seen) == len(table)
    assert probe() > 0
    assert scale(2.0, REFERENCE_S) == 2.0
    assert scale(3.0, 2 * REFERENCE_S) == pytest.approx(1.5)


# -- self time of nested spans -------------------------------------------
def _span(id, name, start, duration, parent, op=0, calls=1):
    return SpanRecord(id, name, start, duration, parent, op, calls)


def test_self_time_subtracts_direct_children_only():
    records = [
        _span(0, "op", 0.0, 10.0, None),
        _span(1, "cpi_build", 1.0, 4.0, 0),
        _span(2, "decompose", 2.0, 1.0, 1),
        _span(3, "ordering", 6.0, 3.0, 0),
    ]
    own = self_times(records)
    assert own == {0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0}
    # every instant of the root is charged to exactly one span
    assert sum(own.values()) == records[0].duration


def test_aggregate_child_is_subtracted_like_a_span():
    records = [
        _span(0, "op", 0.0, 5.0, None),
        _span(1, "enum.core", 0.5, 2.5, 0, calls=400),
        _span(2, "enum.leaf", 0.6, 1.0, 1, calls=1200),
    ]
    own = self_times(records)
    assert own[1] == pytest.approx(1.5)
    assert own[0] == pytest.approx(2.5)


def test_layer_self_times_filters_operations():
    records = [
        _span(0, "op", 0.0, 2.0, None, op=-1),
        _span(1, "data_csr", 0.0, 1.5, 0, op=-1),
        _span(2, "op", 3.0, 2.0, None, op=0),
        _span(3, "cpi_build", 3.0, 1.0, 2, op=0),
    ]
    assert layer_self_times(records, [0]) == {"op": 1.0, "cpi_build": 1.0}
    assert layer_self_times(records, [-1]) == {"op": 0.5, "data_csr": 1.5}


def test_tracer_self_times_account_for_each_operation():
    from repro import CFLMatch, Graph

    from cflbench.tracer import Tracer

    data = Graph([0, 1, 1, 2, 1], [(0, 1), (0, 2), (1, 3), (2, 3), (0, 4), (3, 4)])
    query = Graph([0, 1, 2], [(0, 1), (1, 2)])
    matcher = CFLMatch(data)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op = 0
        with tracer.span("op"):
            plan = matcher.prepare(query, use_cache=False)
            found = list(matcher.search(query, prepared=plan))
    finally:
        tracer.uninstall()
    assert found == list(CFLMatch(data).search(query))
    records = tracer.records()
    names = {r.name for r in records}
    assert {"op", "decompose", "cpi_build", "ordering", "kernel_compile", "enum.core"} <= names
    own = self_times(records)
    assert all(value >= 0.0 for value in own.values())
    root = next(r for r in records if r.name == "op")
    assert sum(own.values()) == pytest.approx(root.duration)
    # uninstall restored the program's own functions
    import repro.core.matcher as matcher_module
    assert matcher_module.build_cpi.__module__ == "repro.core.cpi_builder"


# -- failure accounting ----------------------------------------------------
def test_failed_ratio_counts_each_operation_once():
    ledger = FailureLedger()
    for _ in range(4):
        ledger.attempt()
    ledger.fail(1, "count mismatch")
    ledger.fail(1, "invalid embedding")
    assert ledger.failed == 1
    assert ledger.failed_ratio == 0.25
    assert ledger.reasons() == ["op 1: count mismatch"]


def test_leaked_segments_are_failures():
    ledger = FailureLedger(attempted=2)
    ledger.leak(["cflm-b", "cflm-a"])
    assert ledger.failed == 2
    assert ledger.failed_ratio == 1.0
    assert ledger.reasons()[-1] == "leaked segment cflm-b"


def test_failing_an_unattempted_operation_is_an_error():
    ledger = FailureLedger(attempted=1)
    with pytest.raises(ValueError):
        ledger.fail(1, "no such operation")


def test_nothing_attempted_is_all_failed():
    assert FailureLedger().failed_ratio == 1.0


# -- seed to inputs ----------------------------------------------------------
def _fingerprint(inputs):
    return (
        inputs.data.signature(),
        [q.signature() for q in inputs.queries],
        inputs.order,
        inputs.standing,
        [d.format() for d in inputs.deltas],
    )


@pytest.mark.parametrize("workload", ["pool-serve", "stream-update"])
def test_same_seed_same_inputs(workload):
    from cflbench.inputs import make_inputs

    assert _fingerprint(make_inputs(workload, 7)) == _fingerprint(make_inputs(workload, 7))


def test_seed_relabels_the_data_graph_and_keeps_the_query_pool():
    from cflbench.inputs import make_inputs

    a, b = make_inputs("pool-serve", 1), make_inputs("pool-serve", 2)
    assert a.data.signature() != b.data.signature()
    assert sorted(a.data.labels) == sorted(b.data.labels)
    assert a.data.num_edges == b.data.num_edges
    assert [q.signature() for q in a.queries] == [q.signature() for q in b.queries]
    assert a.order != b.order
    assert sorted(a.order) == sorted(b.order)


def test_edge_stream_pass_applies_alternates_and_restores():
    from repro.graph.dynamic import DynamicGraph

    from cflbench.inputs import make_inputs

    inputs = make_inputs("stream-update", 3)
    graph = DynamicGraph.from_graph(inputs.data)
    for _ in range(2):  # a pass leaves the graph as it found it
        for delta in inputs.deltas:
            assert graph.can_apply(delta)
            graph.apply(delta)
        assert graph.to_static().signature() == inputs.data.signature()
    kinds = [d.op for d in inputs.deltas]
    assert kinds == ["add_edge", "remove_edge"] * (len(kinds) // 2)


def test_written_inputs_round_trip(tmp_path):
    from repro.graph.io import load_graph

    from cflbench.inputs import make_inputs, read_deltas, read_queries, write_inputs

    inputs = make_inputs("stream-update", 5)
    write_inputs(inputs, tmp_path)
    assert load_graph(tmp_path / "data.graph").signature() == inputs.data.signature()
    assert load_graph(tmp_path / "data.csr").signature() == inputs.data.signature()
    queries, order, standing = read_queries(tmp_path)
    assert [q.signature() for q in queries] == [q.signature() for q in inputs.queries]
    assert (order, standing) == (inputs.order, inputs.standing)
    assert [d.format() for d in read_deltas(tmp_path)] == [d.format() for d in inputs.deltas]


# -- the contract file -----------------------------------------------------
def test_benchmark_json_matches_spec():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in config["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in config["per_layer"]] == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in config["end_to_end"])


def test_relabelling_keeps_capped_work():
    """Seeds change every id but not the search a capped read makes."""
    from repro import CFLMatch
    from repro.core.stats import SearchStats

    from cflbench.inputs import make_inputs

    def nodes(inputs, index):
        stats = SearchStats()
        found = list(CFLMatch(inputs.data).search(inputs.queries[index], limit=2_000, stats=stats))
        return len(found), stats.nodes, found[0]

    a, b = make_inputs("dense-enum", 1), make_inputs("dense-enum", 2)
    for index in (0, 10, 20):
        (count_a, nodes_a, first_a), (count_b, nodes_b, first_b) = nodes(a, index), nodes(b, index)
        assert (count_a, nodes_a) == (count_b, nodes_b)
        assert first_a != first_b
