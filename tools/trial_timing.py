"""Time ``run_trial`` of every receiver in process, for one config.

Usage (the ``bdris`` on ``PYTHONPATH`` is the one timed)::

    OPENBLAS_NUM_THREADS=1 python3 tools/trial_timing.py --set blocks=16

After one warm-up trial per receiver, runs trials ``0 .. TRIALS-1`` at
``SNR_DB`` and prints one JSON line: per receiver the mean milliseconds per
trial and the mean and largest sweep counts.
"""

import argparse
import json
import sys
import time

from bdris.config import load_config
from bdris.experiments import run_trial
from bdris.receivers import RECEIVER_NAMES

SNR_DB = 0.0
TRIALS = 40


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="in-process trial timing")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="config override (repeatable)")
    args = parser.parse_args(argv)
    cfg = load_config(None, args.overrides)
    out = {"overrides": args.overrides, "snr_db": SNR_DB, "trials": TRIALS}
    for receiver in RECEIVER_NAMES:
        run_trial(cfg, receiver, SNR_DB, 0, TRIALS)  # warm-up, unscored
        sweeps = []
        start = time.perf_counter()
        for t in range(TRIALS):
            sweeps.append(run_trial(cfg, receiver, SNR_DB, 0, t).iterations)
        out[receiver] = {
            "ms_per_trial": (time.perf_counter() - start) * 1e3 / TRIALS,
            "sweeps_mean": sum(sweeps) / len(sweeps), "sweeps_max": max(sweeps)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
