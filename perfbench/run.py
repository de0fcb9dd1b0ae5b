"""bdris benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload trial-0db --seed 1 --seconds 40 --trace 0

The workload runs in a fresh child process (``child.py``) whose environment
pins every BLAS/OpenMP thread variable to 1 before numpy loads.  Untraced
runs (``--trace 0``) also start ``SETUP_PROBES`` set-up-only children and
report the median set-up time.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
record of the environment, the run's sizes and every correctness check.
This script imports no numpy itself.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import BLAS_PIN, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 5
CHILD_TIMEOUT_S = 140  # with the probes, a run ends within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, extra, timeout) -> dict:
    """Start ``child.py``, wait for it, and return its last stdout line as JSON."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(time.monotonic()), *extra]
    # own process group, so a timeout also ends the child's pool workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child exceeded {timeout} s") from None
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bdris benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bdris" / "__init__.py").is_file():
        print(f"perfbench: no src/bdris under {ROOT}; run from a bdris checkout",
              file=sys.stderr)
        return 2
    try:
        probes = [] if args.trace else [
            run_child(args, ["--probe"], PROBE_TIMEOUT_S)["setup_s"]
            for _ in range(SETUP_PROBES)]
        result = run_child(args, [], CHILD_TIMEOUT_S)
    except (RuntimeError, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3

    record = result["record"]
    values = result["values"]
    if args.trace:
        emitted = metrics.emit(values, metrics.PER_LAYER)
    else:
        samples = probes + [record["setup_s_main"]]
        record["setup_s_samples"] = samples
        values["setup_s"] = statistics.median(samples)
        emitted = metrics.emit(values, metrics.END_TO_END)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": emitted}), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
