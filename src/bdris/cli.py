"""Command-line entry point.

Subcommands:

* ``check``    - evaluate identifiability bounds, print JSON
* ``simulate`` - one seeded trial, print the trial result as JSON
* ``sweep``    - full Monte-Carlo grid; writes trials.csv and report.json
* ``fixture``  - emit a deterministic noiseless instance as JSON

Exit codes: 0 success, 2 config/usage error, 3 identifiability violation,
4 I/O failure, 5 numerical failure of a receiver, 1 anything else.  Errors
print one JSON line on stderr with a machine-readable category.
"""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import experiments, fixtures
from .config import ConfigError, load_config
from .errors import IdentifiabilityError, NumericalError, ScalingResolutionError
from .identifiability import full_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IDENT = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdris",
        description="Semi-blind joint channel and symbol estimation for "
                    "beyond-diagonal RIS MIMO links.",
    )
    parser.add_argument("--config", help="flat key=value config file "
                        "(defaults apply when omitted)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key "
                        "(repeatable, applied after the file)")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (overrides the config's seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="print identifiability report as JSON")
    p_check.add_argument("--rank-h", type=int, default=None,
                         help="assume a deficient static-channel rank, "
                              "1 to min(rx_antennas, ris_elements)")

    p_sim = sub.add_parser("simulate", help="run one seeded trial at the "
                           "first snr_db entry")
    p_sim.add_argument("--receiver", default="tucker",
                       help="pakron | tucker | zf-oracle")
    p_sim.add_argument("--noiseless", action="store_true")
    p_sim.add_argument("--from-fixture", metavar="PATH",
                       help="replay a recorded fixture instead of drawing a scenario")

    p_sweep = sub.add_parser("sweep", help="run the Monte-Carlo grid")
    p_sweep.add_argument("--receiver", action="append", default=None,
                         help="receiver to evaluate (repeatable; default: "
                              "pakron and tucker)")
    p_sweep.add_argument("--runs", type=int, default=100)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--noiseless", action="store_true")
    p_sweep.add_argument("--force", action="store_true",
                         help="skip the identifiability gate")
    p_sweep.add_argument("--out", required=True,
                         help="output directory for trials.csv and report.json")

    p_fix = sub.add_parser("fixture", help="emit a deterministic noiseless instance")
    p_fix.add_argument("--out", default=None, help="file path (default: stdout)")
    return parser


def _load(args):
    cfg = load_config(args.config, args.overrides)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def cmd_check(cfg, args) -> int:
    report = full_report(cfg, rank_h=args.rank_h).to_dict()
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_simulate(cfg, args) -> int:
    if args.from_fixture:
        cfg, design, channels, symbols, received, recorded = fixtures.load_fixture(
            args.from_fixture)
        result = experiments.evaluate(args.receiver, received, design, channels,
                                      symbols, cfg.solver, cfg.solver.init_seed)
        result["receiver"] = args.receiver
        result["fixture_reconstruction_error"] = float(
            np.linalg.norm(received.y - recorded) / np.linalg.norm(recorded))
        print(json.dumps(experiments.json_safe(result), indent=2, sort_keys=True))
        return EXIT_OK

    snr = math.inf if args.noiseless else cfg.snr_db[0]
    trial = experiments.run_trial(cfg, args.receiver, snr,
                                  noiseless=args.noiseless)
    print(json.dumps(experiments.trial_to_dict(trial), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_sweep(cfg, args) -> int:
    receivers = args.receiver or ["pakron", "tucker"]
    trials, report = experiments.run_sweep(
        cfg, receivers, runs=args.runs, jobs=args.jobs,
        noiseless=args.noiseless, force=args.force)
    os.makedirs(args.out, exist_ok=True)
    experiments.write_trials_csv(os.path.join(args.out, "trials.csv"), trials)
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    completed = sum(c["runs_completed"] for c in report.cells)
    failed = sum(c["failures"] for c in report.cells)
    print(f"wrote {args.out}/trials.csv and {args.out}/report.json "
          f"({completed} trials, {failed} failures)")
    return EXIT_OK


def cmd_fixture(cfg, args) -> int:
    fix = fixtures.make_fixture(cfg)
    if args.out:
        fixtures.write_fixture(args.out, fix)
        print(f"wrote {args.out}")
    else:
        json.dump(fix, sys.stdout, indent=1, sort_keys=True)
        print()
    return EXIT_OK


def _fail(category: str, err: Exception, code: int) -> int:
    sys.stderr.write(json.dumps({"error": category, "message": str(err)}) + "\n")
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        handler = {
            "check": cmd_check,
            "simulate": cmd_simulate,
            "sweep": cmd_sweep,
            "fixture": cmd_fixture,
        }[args.command]
        return handler(cfg, args)
    except ConfigError as err:
        return _fail("config", err, EXIT_CONFIG)
    except IdentifiabilityError as err:
        return _fail("identifiability", err, EXIT_IDENT)
    except OSError as err:
        return _fail("io", err, EXIT_IO)
    except (NumericalError, ScalingResolutionError) as err:
        return _fail("numerical", err, EXIT_NUMERICAL)
    except ValueError as err:
        return _fail("invalid", err, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
