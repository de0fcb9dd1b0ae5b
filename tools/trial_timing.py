"""Time ``run_trial`` of every receiver in process, for one config.

Usage (the ``bdris`` on ``PYTHONPATH`` is the one timed)::

    OPENBLAS_NUM_THREADS=1 python3 tools/trial_timing.py --set blocks=16

After one warm-up trial per receiver, runs trials ``0 .. TRIALS-1`` at the
config's first ``snr_db`` entry (0 dB by default; ``--set snr_db=30`` times
30 dB) and prints one JSON line: per receiver the mean milliseconds per
trial, the same time in ``svd512x32`` units and the mean and largest sweep
counts.  The unit is the benchmark's reference (``perfbench/child.py``): one
SVD of a fixed 512 x 32 complex matrix, timed in blocks of ``REF_SVDS``
before the first receiver and after each one; its median time over the
blocks divides every receiver's time, so host drift between runs cancels.

Each receiver runs on its own trial indices, one after another, so no call
reuses the scenario of the one before (``run_trial``'s one-entry cache):
these times include drawing and noising every scenario.
"""

import argparse
import json
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
        run_trial(cfg, receiver, snr_db, 0, TRIALS)  # warm-up, unscored
        sweeps = []
        start = time.perf_counter()
        for t in range(TRIALS):
            sweeps.append(run_trial(cfg, receiver, snr_db, 0, t).iterations)
        out[receiver] = {
            "ms_per_trial": (time.perf_counter() - start) * 1e3 / TRIALS,
            "sweeps_mean": sum(sweeps) / len(sweeps), "sweeps_max": max(sweeps)}
        blocks.append(reference_ms(matrix))
    svd_ms = statistics.median(blocks)
    out["reference"] = {"shape": REF_SHAPE, "svds_per_block": REF_SVDS,
                        "svd_ms": svd_ms, "svd_ms_blocks": blocks}
    for receiver in RECEIVER_NAMES:
        out[receiver]["cost"] = out[receiver]["ms_per_trial"] / svd_ms
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
