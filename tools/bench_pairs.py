"""Paired benchmark runs of two git revisions, written to one BENCH file.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json \\
        --pairs trial-0db=10 --pairs sweep-accept=5 --first-seed 821 \\
        [--in-process blocks=16 --in-process snr_db=30]

Each revision is exported with ``git archive`` into a temporary directory and
the ``perfbench/run.py`` of that tree runs from its root, for the
``run_seconds`` of ``BENCHMARK.json``, so each side is measured by its own
committed benchmark.  A pair gives both sides the same seed, seeds count up
from ``--first-seed`` over all pairs, and the side that runs first alternates
from pair to pair.  Then each side makes one traced run per workload, at the
workload's first seed.  Each ``--in-process`` item times ``run_trial`` with
that config override on both sides, at the config's first SNR and in
``svd512x32`` units as well as raw ms (``tools/trial_timing.py``,
``IN_PROCESS_PAIRS`` pairs of its ``TRIALS`` trials; not gated by the
benchmark).  ``trial_timing.py`` times each receiver on its own trial
indices, so no two consecutive calls share a scenario, and then every
receiver on each trial index in turn (its ``shared`` block, the order of
the ``trial-0db`` workload), where later receivers reuse the scenario and
its preparation; both are summarized, with each receiver's first call and
each run's peak RSS.
Last, each side runs its tier-1 suite (``SUITE``) once and its wall time is
recorded, beside each side's line count of ``src/bdris/*.py``.

The output holds every record and result line the runs printed and, per
workload and end-to-end metric of ``BENCHMARK.json``, the medians, the
inclusive quartiles and the number of pairs the change won, in the metric's
direction; per workload, too, each side's trials attempted per run and their
median, by which to read ``peak_rss_mb``.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMING = Path(__file__).resolve().parent / "trial_timing.py"
SIDES = ("parent", "change")
IN_PROCESS_PAIRS = 4
# per-receiver times of an in-process run, each summarized with its median
TIMED = ("ms_per_trial", "cost", "first_call_ms", "first_call_cost")
# seeded per-receiver figures of an in-process run, equal in every run of a side
SEEDED = ("sweeps_mean", "sweeps_max", "nmse_h_median", "nmse_g_median", "ser_mean",
          "outputs_sha256")
SUITE = ("-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def quartiles(values) -> list:
    """Inclusive-method quartiles ``[q1, median, q3]``."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs, end_to_end) -> dict:
    """Per workload and metric, the parent and change medians, quartiles and
    the pairs the change won.

    ``runs`` are untraced run entries with ``pair``, ``side``, ``workload``
    and the run's ``result`` line; ``end_to_end`` is ``BENCHMARK.json``'s
    list of ``{"name", "better", "bound"}``.  Only pairs in which both sides
    completed count.  The change wins a pair when its value is strictly
    better in the metric's direction.  Each workload also keeps every side's
    ``attempted`` trials and their median: ``peak_rss_mb`` grows with the
    trials a run of fixed length completes, so a faster side reads higher
    without using more memory per trial.
    """
    by_pair = {}
    for run in runs:
        if run.get("result") is not None:
            by_pair.setdefault((run["workload"], run["pair"]), {})[run["side"]] = run
    summary = {}
    for (workload, _), sides in sorted(by_pair.items()):
        if set(sides) != set(SIDES):
            continue
        cell = summary.setdefault(workload, {"pairs": 0, "metrics": {},
                                             "attempted": {s: [] for s in SIDES}})
        cell["pairs"] += 1
        for side in SIDES:
            cell["attempted"][side].append(sides[side]["result"]["attempted"])
        for metric in end_to_end:
            values = cell["metrics"].setdefault(metric["name"], {s: [] for s in SIDES})
            for side in SIDES:
                values[side].append(sides[side]["result"]["metrics"][metric["name"]]["value"])
    for cell in summary.values():
        attempted = cell["attempted"]
        for side in SIDES:
            attempted[side + "_median"] = statistics.median(attempted[side])
        for metric in end_to_end:
            values = cell["metrics"][metric["name"]]
            parent, change = values["parent"], values["change"]
            sign = -1 if metric["better"] == "lower" else 1
            pq, cq = quartiles(parent), quartiles(change)
            cell["metrics"][metric["name"]] = {
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": parent,
                "change": change,
                "parent_median": pq[1],
                "parent_quartiles": pq,
                "change_median": cq[1],
                "change_quartiles": cq,
                "ratio": cq[1] / pq[1] if pq[1] else None,
                "change_better_pairs": sum(sign * (c - p) > 0
                                           for p, c in zip(parent, change)),
                "median_gap_over_parent_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
            }
    return summary


def in_process_summary(runs) -> dict:
    """Per receiver and side, the raw ms and the ``svd512x32`` cost per trial
    of every run with their medians, the same for the receiver's first call
    (``first_call_ms``, ``first_call_cost``), and the figures that are seeded,
    so equal in every run of a side (``SEEDED``: the mean and largest sweeps
    per trial, the NMSE medians, the mean SER and ``outputs_sha256``, equal
    on both sides when the change keeps the trials' outputs bit-identical).
    The runs' ``shared`` blocks, timed with every receiver on each trial
    index in turn, are summarized the same way under ``"shared"``, and each
    side's peak RSS of every run and its median under ``"peak_rss_mb"``."""
    summary = _timing_summary(runs)
    shared = _timing_summary([{"side": run["side"], **run["shared"]}
                              for run in runs if "shared" in run])
    if shared:
        summary["shared"] = shared
    rss = {}
    for run in runs:
        if "peak_rss_mb" in run:
            rss.setdefault(run["side"], []).append(run["peak_rss_mb"])
    if rss:
        summary["peak_rss_mb"] = {side: {"values": values,
                                         "median": statistics.median(values)}
                                  for side, values in rss.items()}
    return summary


def _timing_summary(runs) -> dict:
    summary = {}
    for run in runs:
        for receiver, timing in run.items():
            if isinstance(timing, dict) and "cost" in timing:
                side = summary.setdefault(receiver, {}).setdefault(
                    run["side"], {key: timing[key] for key in SEEDED if key in timing})
                for key in TIMED:
                    if key in timing:
                        side.setdefault(key, []).append(timing[key])
    for sides in summary.values():
        for side in sides.values():
            for key in TIMED:
                if key in side:
                    side[key + "_median"] = statistics.median(side[key])
    return summary


def export(rev: str, dest: Path) -> str:
    """Extract the tree of ``rev`` into ``dest``; return its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return commit


def pinned_env(pythonpath=None) -> dict:
    """The caller's environment with one BLAS thread and only ``pythonpath``
    on the path, so that no other ``bdris`` is imported."""
    env = dict(os.environ, **{name: "1" for name in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    if pythonpath:
        env["PYTHONPATH"] = str(pythonpath)
    return env


def bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run from the root of ``tree``."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env=pinned_env())
    lines = proc.stdout.splitlines()
    ok = proc.returncode in (0, 1) and len(lines) >= 2
    return {"workload": workload, "seed": seed, "command": " ".join(cmd),
            "returncode": proc.returncode,
            "record": json.loads(lines[-2]) if ok else None,
            "result": json.loads(lines[-1]) if ok else None,
            "stderr": proc.stderr[-2000:]}


def timing_run(tree: Path, overrides: str) -> dict:
    """``tools/trial_timing.py`` on ``tree``'s package, in a fresh process."""
    cmd = [sys.executable, str(TIMING)]
    for item in overrides.split(","):
        cmd += ["--set", item]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env=pinned_env(tree / "src"))
    return json.loads(proc.stdout.splitlines()[-1])


def suite_run(tree: Path) -> dict:
    """The tier-1 suite of ``tree`` on its own package, once: wall seconds,
    return code and pytest's last output line."""
    cmd = [sys.executable, *SUITE]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          env=pinned_env(tree / "src"))
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"command": " ".join(cmd), "returncode": proc.returncode,
            "wall_s": wall, "summary": lines[-1] if lines else ""}


def src_lines(tree: Path) -> int:
    """The lines of ``tree``'s ``src/bdris/*.py``, as ``wc -l`` totals them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (tree / "src" / "bdris").glob("*.py"))


def pair_order(pair: int):
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the change side")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD=N", help="N pairs of WORKLOAD (repeatable)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--in-process", action="append", default=[],
                        metavar="KEY=VALUE[,KEY=VALUE]",
                        help="config override timed in process (repeatable)")
    args = parser.parse_args(argv)

    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        plan.append((workload, int(count)))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    out = {"parent": None, "change": None,
           "how": "tools/bench_pairs.py " + " ".join(argv or sys.argv[1:]),
           "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "blas_threads": 1},
           "summary": {}, "runs": [], "trace_runs": [], "in_process": {},
           "tier1": {}, "src_lines": {}}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            trees[side].mkdir()
            out[side] = export(getattr(args, side), trees[side])
            out["src_lines"][side] = src_lines(trees[side])
        seed = args.first_seed
        first_seeds = {}
        for workload, count in plan:
            first_seeds[workload] = seed
            for pair in range(count):
                for side in pair_order(pair):
                    run = bench_run(trees[side], workload, seed, seconds, 0)
                    out["runs"].append({"pair": pair, "side": side, **run})
                    status = run["result"]["correct"] if run["result"] else run["returncode"]
                    print(f"{workload} pair {pair} {side} seed {seed}: {status}",
                          file=sys.stderr, flush=True)
                seed += 1
        for workload, first in first_seeds.items():
            for side in SIDES:
                run = bench_run(trees[side], workload, first, seconds, 1)
                out["trace_runs"].append({"side": side, **run})
        for overrides in args.in_process:
            runs = []
            for pair in range(IN_PROCESS_PAIRS):
                for side in pair_order(pair):
                    runs.append({"pair": pair, "side": side,
                                 **timing_run(trees[side], overrides)})
            out["in_process"][overrides] = {"summary": in_process_summary(runs),
                                            "runs": runs}
        for side in SIDES:
            out["tier1"][side] = suite_run(trees[side])
    out["summary"] = summarize(out["runs"], benchmark["end_to_end"])
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
