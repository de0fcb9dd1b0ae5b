"""Time ``run_trial`` of every receiver in process, for one config.

Usage (the ``bdris`` on ``PYTHONPATH`` is the one timed)::

    OPENBLAS_NUM_THREADS=1 python3 tools/trial_timing.py --set blocks=16

Each receiver first runs trial ``TRIALS`` once, timed on its own as its
first call (``first_call_ms``; it pays whatever that receiver builds on first
use at these dimensions), then trials ``0 .. TRIALS-1``, all at the config's
first ``snr_db`` entry (0 dB by default; ``--set snr_db=30`` times 30 dB).
It prints one JSON line: per receiver the mean milliseconds per trial, the
same time and the first call's in ``svd512x32`` units (``cost``,
``first_call_cost``), the mean and largest sweep counts and the accuracy of
the trials timed (median NMSE(H·S) and NMSE(Ḡ), mean SER), and the
process's peak resident set size (``peak_rss_mb``, from ``ru_maxrss``).
The unit is the benchmark's reference (``perfbench/child.py``): one
SVD of a fixed 512 x 32 complex matrix, timed right before and right after
each block of trials (a reference between two blocks serves both).  Each
reference is the median over ``REF_SUBBLOCKS`` sub-blocks of ``REF_SVDS``
SVDs, so one descheduled sub-block cannot move it.  Each block's times are
divided by the mean of its two references (``svd_ms`` of that block), so
host drift between runs cancels, and so does most drift within one run,
which a single unit for the whole run left in: the same work read up to 12 %
apart in two blocks of one run.

The trials are timed twice.  First each receiver runs on its own, over all
trial indices, so no call reuses the scenario of the one before: those
times include drawing and noising every scenario and preparing it for the
receiver.  Then (under ``"shared"``) every receiver runs on each trial
index in turn, in ``RECEIVER_NAMES`` order as on the benchmark's
``trial-0db`` workload, so each one after the first reuses the trial's
scenario, and with its design the decomposition of ``psi`` that the draw
made; each receiver still contracts the data itself.
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
REF_SUBBLOCKS = 8
REF_SVDS = 2  # per sub-block


def reference_ms(matrix, clock=time.perf_counter) -> float:
    """Milliseconds per SVD of ``matrix``: the median over ``REF_SUBBLOCKS``
    sub-blocks of ``REF_SVDS`` SVDs each, timed by ``clock`` (seconds)."""
    per_svd = []
    for _ in range(REF_SUBBLOCKS):
        start = clock()
        for _ in range(REF_SVDS):
            np.linalg.svd(matrix, full_matrices=False)
        per_svd.append((clock() - start) * 1e3 / REF_SVDS)
    return statistics.median(per_svd)


def timing(ms, trials) -> dict:
    """Mean milliseconds and sweeps per trial, the largest sweep count, the
    median NMSE(H·S) and NMSE(Ḡ) and the mean SER of the ``TrialResult``s
    ``trials``, which took ``ms`` in all."""
    sweeps = [trial.iterations for trial in trials]
    return {"ms_per_trial": ms / len(trials), "sweeps_mean": sum(sweeps) / len(trials),
            "sweeps_max": max(sweeps),
            "nmse_h_median": statistics.median(trial.nmse_h for trial in trials),
            "nmse_g_median": statistics.median(trial.nmse_g for trial in trials),
            "ser_mean": statistics.fmean(trial.ser for trial in trials)}


def in_units(timing, refs) -> None:
    """Add to one block's ``timing`` its unit ``svd_ms``, the mean of the
    reference blocks ``refs`` timed right before and right after it, and its
    times in that unit."""
    svd_ms = sum(refs) / len(refs)
    timing["svd_ms"] = svd_ms
    timing["cost"] = timing["ms_per_trial"] / svd_ms
    if "first_call_ms" in timing:
        timing["first_call_cost"] = timing["first_call_ms"] / svd_ms


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
    refs = [reference_ms(matrix)]
    for receiver in RECEIVER_NAMES:
        start = time.perf_counter()
        run_trial(cfg, receiver, snr_db, 0, TRIALS)
        first_call_ms = (time.perf_counter() - start) * 1e3
        trials = []
        start = time.perf_counter()
        for t in range(TRIALS):
            trials.append(run_trial(cfg, receiver, snr_db, 0, t))
        out[receiver] = timing((time.perf_counter() - start) * 1e3, trials)
        out[receiver]["first_call_ms"] = first_call_ms
        refs.append(reference_ms(matrix))
        in_units(out[receiver], refs[-2:])
    ms = dict.fromkeys(RECEIVER_NAMES, 0.0)
    trials = {receiver: [] for receiver in RECEIVER_NAMES}
    for t in range(TRIALS):
        for receiver in RECEIVER_NAMES:
            start = time.perf_counter()
            trials[receiver].append(run_trial(cfg, receiver, snr_db, 0, t))
            ms[receiver] += (time.perf_counter() - start) * 1e3
    out["shared"] = {receiver: timing(ms[receiver], trials[receiver])
                     for receiver in RECEIVER_NAMES}
    refs.append(reference_ms(matrix))
    for receiver in RECEIVER_NAMES:
        in_units(out["shared"][receiver], refs[-2:])
    out["reference"] = {"shape": REF_SHAPE, "subblocks": REF_SUBBLOCKS,
                        "svds_per_subblock": REF_SVDS, "svd_ms_blocks": refs}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
