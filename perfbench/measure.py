"""One cold benchmark process: set up, check the reference digest, measure.

Started by ``run.py`` with the environment it prepares (``PYTHONPATH=src``,
BLAS/OpenMP pinned to one thread); not meant to be run by hand.  Prints
one JSON object on its last stdout line.

Modes:

* ``setup`` -- imports, workload construction and the first warm-up call,
  then exit; ``ready_ns`` lets the parent time the cold start.
* ``measure`` -- ``setup``, the reference calls, then entry-point
  calls seeded from ``--seed`` for ``--seconds`` with tracing off.
* ``trace`` -- ``setup`` and the reference calls, an untraced pass for half
  of ``--seconds``, then the same calls again with every layer wrapped
  (see ``layers.py``); reports per-layer metrics and the tracing overhead.
  A pooled sweep can only be traced in the parent process, so
  ``sweep_grid`` adds one in-process traced pass of the reference grid
  for the datapath split.

Correctness: the reference calls (fixed seeds, independent of ``--seed``)
must reproduce the digest recorded in ``digests.json`` for the program's
``ENGINE_VERSION``; under a version with no recorded digest every checked
rate must fall inside the 95% Wilson interval of the last recorded
version, and the new digest is printed.  Every timed call is also checked
on its own (see ``workloads.py``); a call that raises or fails its check
counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from repro.sim.spec import ENGINE_VERSION
from repro.sim.stats import ber_interval

import layers
from tracer import Tracer
from workloads import REFERENCE_SEED, WORKLOADS, op_seed

DIGESTS = Path(__file__).resolve().parent / "digests.json"

#: Largest tolerated gap between the summed self times and the traced wall.
SELF_SUM_TOLERANCE = 0.03


def monotonic_ns() -> int:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was measured."""
    return numerator / denominator if denominator else 0.0


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class Pass:
    """Totals of a run of timed entry-point calls."""

    def __init__(self) -> None:
        self.calls = 0
        self.failed = 0
        self.ops = 0
        self.wall_s = 0.0
        self.latencies_ms = []
        self.extra = {}

    def add(self, outcome) -> None:
        self.ops += outcome.ops
        self.wall_s += outcome.wall_s
        self.latencies_ms.extend(outcome.latencies_ms)
        for key, value in outcome.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value


def timed_pass(workload, seed: int, seconds: float = 0.0, n_calls: int = 0) -> Pass:
    """Call the entry point for ``seconds`` (or exactly ``n_calls`` times)."""
    totals = Pass()
    deadline = time.perf_counter() + seconds
    index = 0
    while (index < n_calls) if n_calls else (index == 0 or time.perf_counter() < deadline):
        totals.calls += 1
        try:
            outcome = workload.call(op_seed(seed, workload, index))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            totals.failed += 1
        else:
            if outcome.problems:
                totals.failed += 1
                print(f"{workload.name} call {index}: {outcome.problems}", file=sys.stderr)
            totals.add(outcome)
        index += 1
    return totals


def reference_records(workload) -> tuple:
    """Records of the reference calls (fixed seeds) and any check problems."""
    records, problems = [], []
    for index in range(workload.reference_calls):
        try:
            outcome = workload.call(op_seed(REFERENCE_SEED, workload, index))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems.append(f"reference call {index} raised")
            continue
        records.append(outcome.record)
        problems.extend(f"reference call {index}: {p}" for p in outcome.problems)
    return records, problems


def check_digest(workload, records: list, problems: list) -> dict:
    """Verdict of the reference calls against the recorded digests."""
    if problems:
        return {"engine_version": ENGINE_VERSION, "ok": False, "problems": problems}
    digest = workload.digest(records)
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    sha = hashlib.sha256(canonical(digest).encode()).hexdigest()
    verdict = {"engine_version": ENGINE_VERSION, "sha256": sha}
    recorded = table.get(str(ENGINE_VERSION), {}).get(workload.name)
    if recorded is not None:
        verdict["mode"] = "exact"
        verdict["ok"] = canonical(recorded) == canonical(digest)
        return verdict
    earlier = [int(v) for v in table if workload.name in table[v] and int(v) < ENGINE_VERSION]
    verdict["new_digest"] = digest
    if not earlier:
        verdict.update(mode="none recorded", ok=False)
        return verdict
    last = table[str(max(earlier))][workload.name]
    old_rates = workload.rates(last)
    outside = []
    for name, (errors, trials) in workload.rates(digest).items():
        if name not in old_rates:
            outside.append(name)
            continue
        low, high = ber_interval(*old_rates[name], confidence=0.95)
        if not low <= errors / trials <= high:
            outside.append(name)
    verdict.update(mode=f"95% interval of version {max(earlier)}", ok=not outside, outside=outside)
    return verdict


def tail(latencies_ms: list) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms) or [0.0]
    n = len(ordered)
    info = {"n": n, "p50": statistics.median(ordered)}
    if n >= 11:
        info["tail"] = ordered[n - 11]
        info["tail_percentile"] = 100.0 * (n - 10) / n
    else:
        info["tail"] = ordered[-1]
        info["tail_percentile"] = 100.0
        info["warning"] = "fewer than 11 samples: tail is the maximum"
    return info


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(tracer: Tracer, ops: int, wall_s: float, labels) -> dict:
    metrics = {}
    for label in labels:
        self_s = tracer.self_ns.get(label, 0) / 1e9
        metrics[f"{label}.calls_per_op"] = ratio(tracer.calls.get(label, 0), ops)
        metrics[f"{label}.self_ms_per_op"] = ratio(self_s * 1e3, ops)
        metrics[f"{label}.share"] = ratio(self_s, wall_s)
    return metrics


def unattributed(tracer: Tracer, wall_s: float) -> float:
    """Share of the traced wall time not covered by any span's self time."""
    return 1.0 - ratio(sum(tracer.self_ns.values()) / 1e9, wall_s)


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Untraced and traced passes over the same calls; per-layer metrics."""
    reference = reference_records(workload)
    untraced = timed_pass(workload, seed, seconds=seconds / 2)

    batches = {"n": 0, "bursts": 0, "busy_s": 0.0}

    def count_batch(result) -> None:
        _, stats = result
        batches["n"] += 1
        batches["bursts"] += len(stats["bursts"])
        batches["busy_s"] += stats["elapsed_s"]

    pooled = workload.name == "sweep_grid"
    tracer = Tracer()
    self_tests = {}
    try:
        if pooled:
            layers.install(tracer, layers.PARENT_SIM, {"sim.queue.wait": count_batch})
        else:
            layers.install(tracer)
        traced_reference = reference_records(workload)
        tracer.reset()
        batches.update(n=0, bursts=0, busy_s=0.0)
        traced = timed_pass(workload, seed, n_calls=untraced.calls)
    finally:
        unrestored = tracer.restore()
    self_tests["traced_digest_equal"] = canonical(traced_reference) == canonical(reference)
    gaps = [unattributed(tracer, traced.wall_s)]
    metrics = layer_metrics(tracer, traced.ops, traced.wall_s, layers.LAYERS)

    if pooled:
        inproc = Tracer()
        try:
            layers.install(inproc)
            outcome = workload.call(op_seed(REFERENCE_SEED, workload, 0), n_workers=1)
        finally:
            unrestored += inproc.restore()
        self_tests["inprocess_digest_equal"] = canonical([outcome.record]) == canonical(
            reference[0]
        )
        gaps.append(unattributed(inproc, outcome.wall_s))
        datapath = [label for label in layers.LAYERS if label not in layers.PARENT_SIM]
        metrics.update(layer_metrics(inproc, outcome.ops, outcome.wall_s, datapath))

    self_tests["attributes_restored"] = not unrestored
    self_tests["self_sum_within_tolerance"] = max(abs(g) for g in gaps) <= SELF_SUM_TOLERANCE
    ops = traced.ops
    metrics.update(
        {
            "sim.batch.busy_ms_per_op": ratio(batches["busy_s"] * 1e3, ops),
            "sim.batch.bursts_per_batch": ratio(batches["bursts"], batches["n"]),
            "sim.bursts_useful_frac": ratio(ops, traced.extra.get("bursts_simulated", 0.0)),
            "stream.frames_lost_frac": ratio(traced.extra.get("frames_lost", 0.0), ops),
            "stream.spurious_per_op": ratio(traced.extra.get("spurious", 0.0), ops),
            "trace.overhead_frac": ratio(
                ratio(traced.wall_s, ops), ratio(untraced.wall_s, untraced.ops)
            )
            - 1.0,
            "trace.unattributed_frac": max(gaps, key=abs),
        }
    )
    return {
        "reference": reference,
        "passes": [untraced, traced],
        "metrics": metrics,
        "self_tests": self_tests,
        "info": {
            "unrestored": unrestored,
            "untraced_ops_per_s": ratio(untraced.ops, untraced.wall_s),
            "traced_ops_per_s": ratio(traced.ops, traced.wall_s),
            "datapath_split": (
                "in-process traced pass (1 worker) of the reference grid; "
                "sim.runner/queue/store and sim.batch from the pooled traced pass"
                if pooled
                else "traced timed pass"
            ),
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.scratch)
    workload.warm_up()
    ready_ns = monotonic_ns()
    result = {"ready_ns": ready_ns}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    result["meta"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "engine_version": ENGINE_VERSION,
        "info_bits_per_op": workload.info_bits_per_op,
    }
    if args.mode == "measure":
        reference = reference_records(workload)
        passes = [timed_pass(workload, args.seed, seconds=args.seconds)]
        timed = passes[0]
        latency = tail(timed.latencies_ms)
        result["metrics"] = {
            "ops_per_s": ratio(timed.ops, timed.wall_s),
            "burst_p50_ms": latency["p50"],
            "burst_tail_ms": latency["tail"],
            "peak_rss_mb": peak_rss_mb(),
        }
        result["latency"] = latency
        result["self_tests"] = {}
    else:
        traced = traced_run(workload, args.seed, args.seconds)
        reference = traced["reference"]
        passes = traced["passes"]
        result["metrics"] = traced["metrics"]
        result["self_tests"] = traced["self_tests"]
        result["trace"] = traced["info"]

    result["digest"] = check_digest(workload, *reference)
    result["attempted"] = sum(p.calls for p in passes)
    result["failed"] = sum(p.failed for p in passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
