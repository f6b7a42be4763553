"""Benchmark of the MIMO-OFDM link simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload burst_long --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``burst_long``, ``sweep_grid``,
``stream_downlink``.  With ``--trace 0`` the run prints the end-to-end
metrics, measured with tracing off:

* ``setup_s`` -- cold start: a fresh interpreter importing the program,
  building the workload's objects and finishing its first call; the median
  of ``SETUP_SAMPLES`` cold processes;
* ``ops_per_s`` -- ops completed per second of timed entry-point calls;
* ``burst_p50_ms`` / ``burst_tail_ms`` -- host time per op, median and the
  highest percentile with at least ten samples beyond it (percentile and
  sample count are printed on the ``# latency`` line);
* ``peak_rss_mb`` -- peak RSS of the measuring process plus its largest
  pool worker.

With ``--trace 1`` it prints the per-layer metrics of a traced run (see
``measure.py``) and the tracing overhead against an untraced pass.

Each run works in a fresh result-store directory under ``.perfbench_tmp/``
in the checkout, pins BLAS and OpenMP to one thread, and refuses to run
when ``REPRO_SHAPE_CHECKS`` or ``REPRO_DSP_BACKEND`` override the
program's defaults.  Lines starting with ``#`` carry the correctness
verdict and informational metadata; the last line is the JSON result.
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
import tempfile
import time
from pathlib import Path

from layers import LAYERS  # names only: importing it loads no program code

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("burst_long", "sweep_grid", "stream_downlink")
SETUP_SAMPLES = 3
#: Environment variables that would change what the program computes or checks.
FORBIDDEN_ENV = ("REPRO_SHAPE_CHECKS", "REPRO_DSP_BACKEND")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
PAPER_BPS = 1e9

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "burst_p50_ms": "ms",
    "burst_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in the order ``BENCHMARK.json`` lists them."""
    units = {}
    for label in LAYERS:
        units[f"{label}.calls_per_op"] = "count"
        units[f"{label}.self_ms_per_op"] = "ms/op"
        units[f"{label}.share"] = "frac"
    units.update(
        {
            "sim.batch.busy_ms_per_op": "ms/op",
            "sim.batch.bursts_per_batch": "count",
            "sim.bursts_useful_frac": "frac",
            "stream.frames_lost_frac": "frac",
            "stream.spurious_per_op": "count",
            "trace.overhead_frac": "frac",
            "trace.unattributed_frac": "frac",
        }
    )
    return units


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def child_env(scratch: str) -> dict:
    env = dict(os.environ)
    env.pop("REPRO_SIM_CACHE_DIR", None)
    for name in THREAD_ENV:
        env[name] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = scratch
    return env


def run_child(args: list, env: dict, timeout: float) -> dict:
    """Run ``measure.py`` in its own session; its JSON plus ``setup_s``."""
    command = [sys.executable, str(HERE / "measure.py"), *args]
    spawned = monotonic_ns()
    process = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # Stop whatever is left in the child's session: a child that timed
        # out, or pool workers it failed to reap.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if stdout is None:
        raise RuntimeError(f"measure.py {' '.join(args)} timed out after {timeout:.0f} s")
    if process.returncode != 0:
        raise RuntimeError(f"measure.py {' '.join(args)} exited with {process.returncode}")
    lines = stdout.decode().strip().splitlines()
    result = json.loads(lines[-1])
    result["setup_s"] = (result["ready_ns"] - spawned) / 1e9
    return result


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def src_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )


def info(label: str, payload) -> None:
    print(f"# {label} {json.dumps(payload, sort_keys=True)}")


def main() -> int:
    parser = argparse.ArgumentParser(description="MIMO-OFDM link simulator benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    overridden = [name for name in FORBIDDEN_ENV if name in os.environ]
    if overridden:
        print(f"refusing to run: {', '.join(overridden)} set; the benchmark measures the "
              "program's defaults", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp")
    try:
        env = child_env(scratch)
        common = ["--workload", args.workload, "--scratch", scratch]
        mode = "trace" if args.trace else "measure"

        def cold_start() -> float:
            return run_child([*common, "--mode", "setup"], env, 20)["setup_s"]

        # Cold-start probes before and after the measuring process, so the
        # setup median samples more than one stretch of the host's load.
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [cold_start() for _ in range(probes // 2)]
        main_run = run_child(
            [*common, "--mode", mode, "--seed", str(args.seed), "--seconds", str(args.seconds)],
            env,
            timeout=2 * args.seconds + 60,
        )
        setups.append(main_run["setup_s"])
        setups += [cold_start() for _ in range(probes - probes // 2)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".perfbench_tmp").rmdir()
        except OSError:
            pass  # another run still owns a directory in it

    digest = main_run["digest"]
    self_tests = main_run["self_tests"]
    attempted = main_run["attempted"]
    failed = attempted if not digest["ok"] else main_run["failed"]
    correct = digest["ok"] and failed == 0 and all(self_tests.values())

    meta = dict(main_run["meta"])
    meta.update(nproc=os.cpu_count(), git_commit=git_commit(), src_lines=src_lines())
    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": main_run["metrics"][name], "unit": unit}
                   for name, unit in units.items()}
        info("trace", main_run["trace"])
    else:
        values = dict(main_run["metrics"], setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        link_bps = values["ops_per_s"] * meta["info_bits_per_op"]
        meta.update(link_bps=link_bps, share_of_paper_1gbps=link_bps / PAPER_BPS,
                    setup_samples_s=setups)
        info("latency", main_run["latency"])
    info("digest", digest)
    info("self_tests", self_tests)
    info("failed_ops_frac", failed / attempted)
    info("meta", meta)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
