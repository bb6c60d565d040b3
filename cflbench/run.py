"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 cflbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Each step runs in a fresh interpreter
(``python -m cflbench.client``) with ``src`` on the path:

* ``gen`` writes the seeded inputs under ``.bench_build/cflbench/``;
* ``--trace 0``: ``SETUP_SAMPLES - 1`` set-up-only clients, then one
  measuring client; prints every end-to-end metric, each time scaled by
  the host-speed probe taken around it (:mod:`cflbench.calibrate`);
* ``--trace 1``: one untraced and one traced client running the same
  passes; checks that their results and counters are bit-identical and
  prints every per-layer metric, with the tracing overhead.

The last line of standard output is the result object; everything else
goes to standard error.  The exit code is 0 only when every operation
passed every check and no shared-memory segment was left behind.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from cflbench.calibrate import scale  # noqa: E402
from cflbench.metrics import FailureLedger, TooFewSamples, percentile, ratio  # noqa: E402
from cflbench.spec import END_TO_END, PER_LAYER, SETUP_SAMPLES, WORKLOADS  # noqa: E402

#: Whole-run wall-clock budget; the contract allows 180 s.
RUN_BUDGET_S = 170.0
SHM_DIR = Path("/dev/shm")
SEGMENT_PREFIX = "cflm-"


class ClientFailed(RuntimeError):
    pass


def list_segments() -> set:
    try:
        return {n for n in os.listdir(SHM_DIR) if n.startswith(SEGMENT_PREFIX)}
    except FileNotFoundError:
        return set()


def _stop_group(proc: subprocess.Popen) -> None:
    """Terminate the client's process group (pool workers included),
    then kill what is left and wait until the group is gone."""
    for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            proc.poll()
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


class Runner:
    def __init__(self, root: Path, args: argparse.Namespace) -> None:
        self.root = root
        self.args = args
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = root / ".bench_build" / "cflbench" / (
            f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def client(self, mode: str, *extra: str, out: Optional[str] = None) -> Dict[str, Any]:
        argv = [
            sys.executable, "-m", "cflbench.client", mode,
            "--workload", self.args.workload, "--dir", str(self.work / "inputs"),
        ]
        if out is not None:
            argv += ["--out", str(self.work / out)]
        argv += list(extra)
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            _stop_group(proc)
            raise ClientFailed(f"client {mode} ran past the {RUN_BUDGET_S:g} s budget")
        finally:
            if proc.poll() is None:
                _stop_group(proc)
        if code != 0:
            raise ClientFailed(f"client {mode} exited with code {code}")
        if out is None:
            return {}
        return json.loads((self.work / out).read_text())

    def generate(self) -> None:
        self.client("gen", "--seed", str(self.args.seed))

    def measure(self) -> Dict[str, Any]:
        seconds = str(self.args.seconds)
        setups = [
            self.client("setup", out=f"setup{i}.json")
            for i in range(SETUP_SAMPLES - 1)
        ]
        run = self.client("run", "--seconds", seconds, out="run.json")
        setups.append(run)
        return {"run": run, "setups": [(s["setup_s"], s["setup_probe"]) for s in setups]}

    def measure_traced(self) -> Dict[str, Any]:
        plain = self.client("run", "--seconds", str(self.args.seconds), out="run.json")
        trace_file = self.root / ".bench_build" / "cflbench" / "traces" / (
            f"{self.args.workload}-{self.args.seed}.jsonl"
        )
        traced = self.client(
            "run", "--passes", str(plain["passes"]), "--trace-out", str(trace_file),
            out="traced.json",
        )
        print(f"spans written to {trace_file}", file=sys.stderr)
        return {"run": plain, "traced": traced}


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(run: Dict[str, Any], setups: List[Tuple[float, float]]) -> Dict[str, float]:
    """End-to-end metrics; every time is scaled by the host-speed probe
    taken around it (:mod:`cflbench.calibrate`)."""
    ops = run["ops"]
    t_read = [scale(op["t"], op["probe"]) for op in ops]
    t_emb = [scale(op["t_emb"], op["probe"]) for op in ops]
    t_count = [scale(op["t_count"], op["probe"]) for op in ops]
    return {
        "setup_s": statistics.median(scale(s, probe) for s, probe in setups),
        "query_p50_ms": percentile(t_read, 0.5) * 1e3,
        "query_p90_ms": percentile(t_read, 0.9) * 1e3,
        "queries_per_s": len(ops) / sum(t_read),
        "embeddings_per_s": sum(op["emb"] for op in ops) / sum(t_emb),
        "count_p50_ms": percentile(t_count, 0.5) * 1e3,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }


def compare_runs(plain: Dict[str, Any], traced: Dict[str, Any], ledger: FailureLedger) -> None:
    """The traced run must reproduce every result and counter."""
    keys = ("digest", "stats", "count_stats")
    by_op = {op["op"]: op for op in plain["ops"]}
    if len(traced["ops"]) != len(plain["ops"]):
        ledger.fail(0, f"traced run made {len(traced['ops'])} operations, "
                       f"untraced {len(plain['ops'])}")
    for op in traced["ops"]:
        twin = by_op.get(op["op"])
        if twin is None or [twin.get(k) for k in keys] != [op.get(k) for k in keys]:
            ledger.fail(op["op"], "traced result or counters differ from the untraced run")


def _nodes(op: Dict[str, Any]) -> int:
    return sum(op["nodes"][k] for k in ("core", "forest", "leaf"))


def per_layer(plain: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics: times and spans from the traced client,
    counters from either (they are identical), times that the issue
    defines as differences from the untraced client."""
    layers = {name: 0.0 for name, _ in PER_LAYER}
    layers.update(traced["layers"])
    ops, tops = plain["ops"], traced["ops"]
    n = len(ops)
    nodes = {
        k: sum(op["nodes"][k] for op in tops)
        for k in ("core", "forest", "leaf", "backtracks")
    }
    plan = {
        k: sum(op["plan"][k] for op in tops)
        for k in ("candidates", "edges", "structural", "final")
    }
    estimated = [op for op in tops if "estimate" in op]
    pooled = [op for op in ops if "pool_nodes" in op]
    counts = traced["counts"]
    layers.update({
        "cpi_build.candidates": plan["candidates"] / n,
        "cpi_build.adjacency_edges": plan["edges"] / n,
        "cpi_build.survival": ratio(plan["final"], plan["structural"]),
        "ordering.estimate_ratio": ratio(
            sum(op["estimate"] for op in estimated), sum(_nodes(op) for op in estimated)
        ),
        "enum.core.nodes": nodes["core"] / n,
        "enum.forest.nodes": nodes["forest"] / n,
        "enum.leaf.nodes": nodes["leaf"] / n,
        "enum.dead_end_ratio": ratio(
            nodes["backtracks"], nodes["core"] + nodes["forest"] + nodes["leaf"]
        ),
        "materialize.s": _mean(
            [op["t_search"] - op["t_count"] for op in ops if "t_search" in op]
        ),
        "plan_cache.hit_ratio": ratio(counts["plan_cache_hits"], counts["plan_cache_lookups"]),
        "pool.query_s": _mean([op["t"] for op in pooled]),
        "pool.overhead_ratio": ratio(
            sum(op["t"] for op in pooled), sum(op["t_count"] for op in pooled)
        ),
        "pool.work_ratio": ratio(
            sum(op["pool_nodes"] for op in pooled), sum(_nodes(op) for op in pooled)
        ),
        "dyn.noop_ratio": ratio(
            sum(op.get("noops", 0) for op in ops), sum(op.get("syncs", 0) for op in ops)
        ),
        "dyn.repairs": sum(op.get("repairs", 0) for op in ops) / n,
        "dyn.rebuilds": sum(op.get("rebuilds", 0) for op in ops) / n,
        "dyn.dirty_region": sum(op.get("dirty", 0) for op in ops) / n,
        "trace.overhead_ratio": sum(op["t_op"] for op in tops) / sum(op["t_op"] for op in ops) - 1.0,
        "host.probe_ms": statistics.median(op["probe"] for op in ops) * 1e3,
    })
    return layers


def _on_terminate(signum: int, frame: Any) -> None:
    # unwinds through Runner.client, which stops the client's group
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _on_terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    runner = Runner(root, args)
    before = list_segments()
    try:
        runner.generate()
        runs = runner.measure_traced() if args.trace else runner.measure()
    except ClientFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        leaked = list_segments() - before
        for name in leaked:
            (SHM_DIR / name).unlink(missing_ok=True)
        shutil.rmtree(runner.work, ignore_errors=True)
    main_run = runs["run"]
    ledger = FailureLedger(attempted=main_run["attempted"])
    for client_run in (main_run, runs.get("traced")):
        for op, reason in (client_run or {}).get("failed_ops", []):
            ledger.fail(op, reason)
    if args.trace:
        compare_runs(main_run, runs["traced"], ledger)
    ledger.leak(leaked)
    failed = ledger.failed
    try:
        if args.trace:
            values = per_layer(runs["run"], runs["traced"])
            names = PER_LAYER
        else:
            values = end_to_end(main_run, runs["setups"])
            names = END_TO_END
    except TooFewSamples as exc:
        print(f"error: {exc}", file=sys.stderr)
        values, failed = {}, max(failed, 1)
    for reason in ledger.reasons():
        print(f"failed: {reason}", file=sys.stderr)
    if args.trace:
        print("layer self time per operation (traced run):", file=sys.stderr)
        for layer, seconds in sorted(
            runs["traced"]["layers"]["layer_self_s"].items(), key=lambda kv: -kv[1]
        ):
            print(f"  {layer:<16} {seconds * 1e3:10.3f} ms", file=sys.stderr)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in names if name in values
    }
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
