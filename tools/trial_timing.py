"""Time ``run_trial`` of every receiver in process, for one config.

Usage (the ``bdris`` on ``PYTHONPATH`` is the one timed)::

    OPENBLAS_NUM_THREADS=1 python3 tools/trial_timing.py --set blocks=16

Each receiver first runs trial ``TRIALS`` once, timed on its own as its
first call (``first_call_ms``; it pays whatever that receiver builds on first
use at these dimensions), then trials ``0 .. TRIALS-1``, all at the config's
first ``snr_db`` entry (0 dB by default; ``--set snr_db=30`` times 30 dB).
It prints one JSON line: per receiver the mean milliseconds per trial, the
same time and the first call's in ``svd512x32`` units (``cost``,
``first_call_cost``) and the mean and largest sweep counts, and the
process's peak resident set size (``peak_rss_mb``, from ``ru_maxrss``).
The unit is the benchmark's reference (``perfbench/child.py``): one
SVD of a fixed 512 x 32 complex matrix, timed in blocks of ``REF_SVDS``
before the first receiver and after each block of trials; its median time
over the blocks divides every receiver's time, so host drift between runs
cancels.

The trials are timed twice.  First each receiver runs on its own, over all
trial indices, so no call reuses the scenario of the one before: those
times include drawing and noising every scenario and preparing it for the
receiver.  Then (under ``"shared"``) every receiver runs on each trial
index in turn, in ``RECEIVER_NAMES`` order as on the benchmark's
``trial-0db`` workload, so each one after the first reuses the trial's
scenario and the preparation (``psi``'s Gram and the contracted data) that
an earlier receiver made.
"""

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np

from bdris.config import load_config
from bdris.experiments import run_trial
from bdris.receivers import RECEIVER_NAMES

TRIALS = 40
REF_SHAPE = (512, 32)
REF_SVDS = 16


def reference_ms(matrix) -> float:
    """Milliseconds per SVD over one block of ``REF_SVDS`` SVDs of ``matrix``."""
    start = time.perf_counter()
    for _ in range(REF_SVDS):
        np.linalg.svd(matrix, full_matrices=False)
    return (time.perf_counter() - start) * 1e3 / REF_SVDS


def timing(ms, sweeps) -> dict:
    """Mean milliseconds and sweeps per trial, and the largest sweep count,
    of ``len(sweeps)`` trials that took ``ms`` in all."""
    return {"ms_per_trial": ms / len(sweeps), "sweeps_mean": sum(sweeps) / len(sweeps),
            "sweeps_max": max(sweeps)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="in-process trial timing")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="config override (repeatable)")
    args = parser.parse_args(argv)
    cfg = load_config(None, args.overrides)
    snr_db = cfg.snr_db[0]
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal(REF_SHAPE) + 1j * rng.standard_normal(REF_SHAPE)
    out = {"overrides": args.overrides, "snr_db": snr_db, "trials": TRIALS}
    blocks = [reference_ms(matrix)]
    for receiver in RECEIVER_NAMES:
        start = time.perf_counter()
        run_trial(cfg, receiver, snr_db, 0, TRIALS)
        first_call_ms = (time.perf_counter() - start) * 1e3
        sweeps = []
        start = time.perf_counter()
        for t in range(TRIALS):
            sweeps.append(run_trial(cfg, receiver, snr_db, 0, t).iterations)
        out[receiver] = timing((time.perf_counter() - start) * 1e3, sweeps)
        out[receiver]["first_call_ms"] = first_call_ms
        blocks.append(reference_ms(matrix))
    ms = dict.fromkeys(RECEIVER_NAMES, 0.0)
    sweeps = {receiver: [] for receiver in RECEIVER_NAMES}
    for t in range(TRIALS):
        for receiver in RECEIVER_NAMES:
            start = time.perf_counter()
            sweeps[receiver].append(run_trial(cfg, receiver, snr_db, 0, t).iterations)
            ms[receiver] += (time.perf_counter() - start) * 1e3
    out["shared"] = {receiver: timing(ms[receiver], sweeps[receiver])
                     for receiver in RECEIVER_NAMES}
    blocks.append(reference_ms(matrix))
    svd_ms = statistics.median(blocks)
    out["reference"] = {"shape": REF_SHAPE, "svds_per_block": REF_SVDS,
                        "svd_ms": svd_ms, "svd_ms_blocks": blocks}
    for receiver in RECEIVER_NAMES:
        for block in (out, out["shared"]):
            block[receiver]["cost"] = block[receiver]["ms_per_trial"] / svd_ms
        out[receiver]["first_call_cost"] = out[receiver]["first_call_ms"] / svd_ms
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
