"""Seeded workload inputs, written to files the client loads.

Imports ``repro``, so only the client process uses this module; the
dataset proxies and query generators are imported only when inputs are
made, so reading them back costs set-up nothing extra.  :func:`make_inputs` is a pure
function of ``(workload, seed)``; :func:`write_inputs` lays the result
out as ``data.graph`` (text), ``data.csr`` (ingested binary form),
``queries.json`` and, for ``stream-update``, ``deltas.txt``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.dynamic import Delta, parse_delta_stream
from repro.graph.graph import Graph

from .spec import POOL_SEED, WORKLOADS


@dataclass
class Inputs:
    """Everything one run feeds the program.

    ``order`` is one pass over ``queries`` (indices, repeats allowed);
    ``standing`` indexes the standing queries of ``stream-update``.
    """

    workload: str
    data: Graph
    queries: List[Graph]
    order: List[int]
    standing: List[int] = field(default_factory=list)
    deltas: List[Delta] = field(default_factory=list)


def relabel(graph: Graph, perm: Sequence[int]) -> Graph:
    """Isomorphic copy of ``graph`` in which vertex ``v`` becomes ``perm[v]``."""
    labels = [0] * graph.num_vertices
    for old, new in enumerate(perm):
        labels[new] = graph.labels[old]
    return Graph(labels, [(perm[u], perm[v]) for u, v in graph.edges()])


def _shuffled_ids(n: int, rng: random.Random) -> List[int]:
    ids = list(range(n))
    rng.shuffle(ids)
    return ids


def label_order_preserving_ids(labels: Sequence[int], rng: random.Random) -> List[int]:
    """A random relabelling that interleaves the label classes anew but
    keeps each class in its old order.

    Candidate sets hold one label each and are scanned in id order, so
    the search visits the same candidates in the same order: a capped
    read does the same work under every seed, while the ids, the data
    file and every embedding differ."""
    slots = list(labels)
    rng.shuffle(slots)
    free: Dict[int, List[int]] = {}
    for new in reversed(range(len(slots))):
        free.setdefault(slots[new], []).append(new)
    return [free[label].pop() for label in labels]


def _query_pool(base: Graph, specs: Sequence[Tuple[int, bool, int]]) -> List[Graph]:
    from repro.workloads import QuerySetSpec, generate_query_set

    pool: List[Graph] = []
    for index, (size, sparse, count) in enumerate(specs):
        pool += generate_query_set(
            base, QuerySetSpec(size, sparse, count), seed=POOL_SEED + index
        )
    return pool


def _edge_stream(data: Graph, length: int, perm: Sequence[int]) -> List[Delta]:
    """One pass of the edge stream, relabelled by ``perm``: ``length / 2``
    alternating deltas on ``data`` — insert a random absent edge, then
    remove a random present one — followed by their inverses in reverse
    order, so every pass starts from the same graph and does the same
    work."""
    rng = random.Random(POOL_SEED)
    half = length // 2
    present = set(data.edges())
    edges = sorted(present)
    n = data.num_vertices
    deltas: List[Delta] = []
    while len(deltas) < half:
        if len(deltas) % 2 == 0:
            u, v = rng.sample(range(n), 2)
            edge = (min(u, v), max(u, v))
            if edge in present:
                continue
            present.add(edge)
            edges.append(edge)
            deltas.append(Delta.add_edge(perm[edge[0]], perm[edge[1]]))
        else:
            slot = rng.randrange(len(edges))
            edge = edges[slot]
            edges[slot] = edges[-1]
            edges.pop()
            present.discard(edge)
            deltas.append(Delta.remove_edge(perm[edge[0]], perm[edge[1]]))
    inverse = {"add_edge": Delta.remove_edge, "remove_edge": Delta.add_edge}
    return deltas + [inverse[d.op](d.u, d.v) for d in reversed(deltas)]


def make_inputs(workload: str, seed: int) -> Inputs:
    """The run's inputs: the fixed data graph, query pool and (for
    ``stream-update``) edge stream, with the vertex ids relabelled and
    the arrival order shuffled by ``seed`` (see :mod:`cflbench.spec`)."""
    from repro.workloads import load_dataset, mixed_batch_workload

    spec = WORKLOADS[workload]
    rng = random.Random(f"cflbench:{workload}:{seed}")
    base = load_dataset(*spec["dataset"])
    perm = label_order_preserving_ids(base.labels, rng)
    data = relabel(base, perm)
    standing: List[int] = []
    deltas: List[Delta] = []
    if "pool" in spec:
        pool = _query_pool(base, spec["pool"])
        order = _shuffled_ids(len(pool), rng)
    elif "stream" in spec:
        sizes, distinct, total = spec["stream"]
        stream = mixed_batch_workload(base, sizes, distinct, total, seed=POOL_SEED)
        pool = []
        index_of: Dict[int, int] = {}
        for query in stream:
            if id(query) not in index_of:
                index_of[id(query)] = len(pool)
                pool.append(query)
        order = [index_of[id(query)] for query in stream]
        rng.shuffle(order)
    else:
        pool = _query_pool(base, spec["standing"])
        standing = list(range(len(pool)))
        order = []
        deltas = _edge_stream(base, spec["pass_ops"], perm)
    return Inputs(workload, data, pool, order, standing, deltas)


def _graph_json(graph: Graph) -> Dict:
    return {"labels": list(graph.labels), "edges": [list(e) for e in graph.edges()]}


def write_inputs(inputs: Inputs, directory: Path) -> None:
    from repro.graph.ingest import write_graph_csr
    from repro.graph.io import save_graph

    directory.mkdir(parents=True, exist_ok=True)
    save_graph(inputs.data, directory / "data.graph")
    write_graph_csr(inputs.data, directory / "data.csr")
    payload = {
        "workload": inputs.workload,
        "queries": [_graph_json(q) for q in inputs.queries],
        "order": inputs.order,
        "standing": inputs.standing,
    }
    (directory / "queries.json").write_text(json.dumps(payload))
    if inputs.deltas:
        (directory / "deltas.txt").write_text(
            "".join(delta.format() + "\n" for delta in inputs.deltas)
        )


def read_queries(directory: Path) -> Tuple[List[Graph], List[int], List[int]]:
    payload = json.loads((directory / "queries.json").read_text())
    queries = [
        Graph(q["labels"], [tuple(e) for e in q["edges"]]) for q in payload["queries"]
    ]
    return queries, payload["order"], payload["standing"]


def read_deltas(directory: Path) -> Optional[List[Delta]]:
    path = directory / "deltas.txt"
    if not path.exists():
        return None
    return parse_delta_stream(path.read_text())
