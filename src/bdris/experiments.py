"""Seeded Monte-Carlo harness: ambiguity-aware NMSE and SER across SNR grids.

Per trial: derive seeds -> draw design/channels/symbols -> synthesize ->
add noise -> run receiver -> resolve ambiguities -> score.  Channel accuracy
is scored after per-column alignment, which is where the model's inherent
column-scale indeterminacies live; for the static channel the alignment is
done on the effective channel ``H @ S`` (the unitary ``S`` preserves the
Frobenius geometry, and the indeterminacy is a column scale exactly there).

Scenario randomness (channels, symbols, design, noise) is derived from
(master seed, snr index, trial index) only, so competing receivers see the
same data; receiver-specific randomness (iterate initialization) also mixes
in the receiver name.  Since a noised scenario is a pure function of that
key, it is drawn once and shared: :func:`run_trial` keeps the last one in a
one-entry cache, so consecutive calls for different receivers on the same
(config, SNR, trial) reuse it, and :func:`run_sweep` runs the receivers of a
trial one after another to make that the common case.  Its arrays are
read-only, so no receiver can change what the next one sees.
"""

import csv
import functools
import math
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import SystemConfig, derive_seed
from .errors import IdentifiabilityError, NumericalError, ScalingResolutionError
from .identifiability import check_feasible
from .receivers import (
    RECEIVER_NAMES,
    ReceiverOutput,
    hard_decisions,
    pakron,
    tucker,
    zf_perfect_csi,
)
from .signal import SymbolBlock, add_noise, draw_scenario

# the columns of TrialResult.astuple(), then the error text of a TrialFailure
TRIAL_CSV_HEADER = ("seed", "snr_db", "receiver", "nmse_h", "nmse_g", "ser",
                    "iters", "wall_ms", "error")


def nmse_aligned(truth, estimate, mode="per-column") -> float:
    """Normalized squared error after least-squares scale alignment.

    ``per-column`` fits one complex scale per column, ``global`` a single
    scale for the whole matrix, then returns
    ``||truth - scale*estimate||_F^2 / ||truth||_F^2``.
    """
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    if truth.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {estimate.shape}")
    tnorm2 = float(np.linalg.norm(truth) ** 2)
    if tnorm2 == 0.0:
        raise ValueError("truth matrix has zero norm")
    if mode == "per-column":
        denom = np.sum(np.abs(estimate) ** 2, axis=0)
        numer = np.sum(estimate.conj() * truth, axis=0)
        alpha = np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0)
        aligned = estimate * alpha[None, :]
    elif mode == "global":
        denom = float(np.sum(np.abs(estimate) ** 2))
        alpha = np.sum(estimate.conj() * truth) / denom if denom > 0 else 0.0
        aligned = estimate * alpha
    else:
        raise ValueError(f"unknown alignment mode: {mode}")
    return float(np.linalg.norm(truth - aligned) ** 2) / tnorm2


def ser(symbols: SymbolBlock, detected) -> float:
    """Fraction of wrongly decided data symbols (reference row excluded);
    NaN when the block holds no data symbol (``slots == 1``)."""
    detected = np.asarray(detected)
    if detected.shape != symbols.x.shape:
        raise ValueError("detected matrix shape differs from transmitted block")
    wrong = (hard_decisions(symbols.x, symbols.alphabet)
             != hard_decisions(detected, symbols.alphabet))
    data = wrong[np.arange(len(wrong)) != symbols.reference_row]
    return float(np.mean(data)) if data.size else math.nan


TRIAL_FIELDS = ("seed", "snr_db", "receiver", "nmse_h", "nmse_g", "ser",
                "iterations", "wall_ms")
_NUMBER_FIELDS = tuple(f for f in TRIAL_FIELDS if f != "receiver")
_NUMBERS = struct.Struct("<Qddddqd")  # _NUMBER_FIELDS, exactly


class TrialResult:
    """Scores of one completed trial, read as attributes (``TRIAL_FIELDS``).

    A sweep keeps one per trial, so the numbers are packed into one ``bytes``
    object: an unpickled record takes about 180 bytes, against 290 with one
    boxed ``int``/``float`` per field.
    """
    __slots__ = ("receiver", "_numbers")

    def __init__(self, seed, snr_db, receiver, nmse_h, nmse_g, ser, iterations,
                 wall_ms):
        self.receiver = receiver
        self._numbers = _NUMBERS.pack(seed, snr_db, nmse_h, nmse_g, ser,
                                      iterations, wall_ms)

    def __getattr__(self, name):  # reached only for the packed fields
        if name not in _NUMBER_FIELDS:
            raise AttributeError(name)
        return _NUMBERS.unpack(self._numbers)[_NUMBER_FIELDS.index(name)]

    def astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in TRIAL_FIELDS)

    def __eq__(self, other):
        if not isinstance(other, TrialResult):
            return NotImplemented
        return self.astuple() == other.astuple()

    def __hash__(self):
        return hash(self.astuple())

    def __repr__(self):
        return "TrialResult(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(TRIAL_FIELDS, self.astuple())) + ")"

    def __reduce__(self):
        return TrialResult, self.astuple()


@dataclass(frozen=True, slots=True)
class TrialFailure:
    seed: int
    snr_db: float
    receiver: str
    error: str


@dataclass
class SweepReport:
    config: dict
    receivers: list
    runs: int
    master_seed: int
    noiseless: bool
    cells: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "config": json_safe(self.config),
            "receivers": list(self.receivers),
            "runs": self.runs,
            "master_seed": self.master_seed,
            "noiseless": self.noiseless,
            "cells": json_safe(self.cells),
        }


def json_safe(obj):
    """``obj`` with numpy scalars as Python numbers and non-finite floats as
    the strings ``"inf"``, ``"-inf"`` and ``"nan"``, which strict JSON can
    hold."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def _require_receiver(receiver: str) -> None:
    if receiver not in RECEIVER_NAMES:
        raise ValueError(f"unknown receiver {receiver!r}; choose from {RECEIVER_NAMES}")


def evaluate(receiver: str, received, design, channels, symbols,
             solver, init_seed: int) -> dict:
    """Run ``receiver`` on one received tensor and score it against the truth.

    Returns ``nmse_h``, ``nmse_g``, ``ser``, ``iterations`` and ``wall_ms``,
    the time of the receiver call alone, without scoring.  The oracle is
    given the true channels, so its NMSEs are 0 and its time is that of the
    zero-forcing solve.
    """
    _require_receiver(receiver)
    t0 = time.perf_counter()
    if receiver == "zf-oracle":
        x_hat = zf_perfect_csi(received, channels, design, solver.pinv_tol)
        wall_ms = (time.perf_counter() - t0) * 1e3
        detected = symbols.alphabet[hard_decisions(x_hat, symbols.alphabet)]
        return dict(nmse_h=0.0, nmse_g=0.0, ser=ser(symbols, detected),
                    iterations=0, wall_ms=wall_ms)
    run = pakron if receiver == "pakron" else tucker
    out: ReceiverOutput = run(received, design, symbols.alphabet, solver, init_seed)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return dict(
        nmse_h=nmse_aligned(channels.h @ design.s, out.hs_hat, "per-column"),
        nmse_g=nmse_aligned(channels.gbar, out.gbar_hat, "per-column"),
        ser=ser(symbols, out.x_detected),
        iterations=out.iterations,
        wall_ms=wall_ms,
    )


@functools.lru_cache(maxsize=1)
def _noised_scenario(cfg: SystemConfig, snr_db: float, snr_index: int,
                     trial_index: int, master: int, noiseless: bool):
    """``(scenario_seed, design, channels, symbols, received)`` of one trial,
    a pure function of its arguments; the last one is kept for the next
    receiver on the same trial."""
    scenario_seed = derive_seed(master, "scenario", snr_index, trial_index)
    design, channels, symbols, received = draw_scenario(cfg, scenario_seed)
    if not noiseless:
        received = add_noise(received, snr_db, derive_seed(scenario_seed, "noise"))
    return scenario_seed, design, channels, symbols, received


def run_trial(cfg: SystemConfig, receiver: str, snr_db: float,
              snr_index: int = 0, trial_index: int = 0,
              master_seed: int | None = None, noiseless: bool = False):
    """One seeded end-to-end trial; returns a TrialResult."""
    master = cfg.seed if master_seed is None else master_seed
    scenario_seed, design, channels, symbols, received = _noised_scenario(
        cfg, snr_db, snr_index, trial_index, master, noiseless)
    init_seed = derive_seed(master, "init", receiver, snr_index, trial_index,
                            cfg.solver.init_seed)
    return TrialResult(scenario_seed, snr_db, receiver, **evaluate(
        receiver, received, design, channels, symbols, cfg.solver, init_seed))


def _scenario_task(args):
    """Every requested receiver on one (SNR, trial) scenario, in order; a
    receiver's tolerated error becomes its own TrialFailure."""
    cfg, receivers, snr_db, snr_index, trial_index, master_seed, noiseless = args
    out = []
    for receiver in receivers:
        try:
            out.append(run_trial(cfg, receiver, snr_db, snr_index, trial_index,
                                 master_seed, noiseless))
        except (ScalingResolutionError, NumericalError, IdentifiabilityError,
                np.linalg.LinAlgError) as err:
            seed = derive_seed(cfg.seed if master_seed is None else master_seed,
                               "scenario", snr_index, trial_index)
            out.append(TrialFailure(seed=seed, snr_db=snr_db, receiver=receiver,
                                    error=f"{type(err).__name__}: {err}"))
    return out


def run_sweep(cfg: SystemConfig, receivers, runs: int, jobs: int = 1,
              noiseless: bool = False, force: bool = False,
              master_seed: int | None = None):
    """Run the full (snr x receiver x trial) grid.

    Returns ``(trials, report)`` where ``trials`` is in (snr index, receiver,
    trial index) order and includes failures.  Receiver names are checked
    before any trial runs; identifiability is checked up front for every
    requested receiver unless ``force``.

    The grid runs with receivers innermost: one task per (snr, trial), serial
    or in ``jobs`` processes (``chunksize`` 8), runs every receiver on that
    trial's scenario, so the scenario is drawn and noised once per task (see
    :func:`run_trial`); the results are then put back in output order.  The
    result does not depend on ``jobs``.
    """
    if runs < 1 or jobs < 1:
        raise ValueError(f"runs and jobs must be at least 1, got {runs} and {jobs}")
    receivers = list(receivers)
    if not receivers:
        raise ValueError("at least one receiver is required")
    if len(set(receivers)) != len(receivers):
        raise ValueError("duplicate receiver names")
    for rx in receivers:
        _require_receiver(rx)
    if not force:
        for rx in receivers:
            check_feasible(cfg, rx)
    snrs = [math.inf] if noiseless else list(cfg.snr_db)
    tasks = [
        (cfg, receivers, snr, si, r, master_seed, noiseless)
        for si, snr in enumerate(snrs)
        for r in range(runs)
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_scenario_task, tasks, chunksize=8))
    else:
        done = [_scenario_task(t) for t in tasks]
    trials = [done[si * runs + r][ri]
              for si in range(len(snrs))
              for ri in range(len(receivers))
              for r in range(runs)]

    report = SweepReport(
        config=cfg.to_mapping(),
        receivers=receivers,
        runs=runs,
        master_seed=cfg.seed if master_seed is None else master_seed,
        noiseless=noiseless,
    )
    for si, snr in enumerate(snrs):
        for ri, rx in enumerate(receivers):
            start = (si * len(receivers) + ri) * runs
            report.cells.append(_aggregate_cell(snr, rx, trials[start:start + runs]))
    return trials, report


def _aggregate_cell(snr_db, receiver, cell_trials) -> dict:
    ok = [t for t in cell_trials if isinstance(t, TrialResult)]
    cell = {
        "snr_db": snr_db,
        "receiver": receiver,
        "runs_completed": len(ok),
        "failures": len(cell_trials) - len(ok),
    }
    if ok:
        for name in ("nmse_h", "nmse_g", "ser"):
            vals = np.array([getattr(t, name) for t in ok])
            cell[f"{name}_mean"] = float(vals.mean())
            cell[f"{name}_median"] = float(np.median(vals))
        cell["iterations_mean"] = float(np.mean([t.iterations for t in ok]))
        cell["wall_ms_mean"] = float(np.mean([t.wall_ms for t in ok]))
    return cell


def write_trials_csv(path, trials) -> None:
    """Persist one row per trial.  A completed trial has an empty ``error``;
    a failed one has its seed, SNR, receiver and error text, and empty
    scores."""
    no_scores = ("",) * (len(TRIAL_CSV_HEADER) - 4)  # all but seed, snr, receiver, error
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_CSV_HEADER)
        for t in trials:
            if isinstance(t, TrialResult):
                writer.writerow(t.astuple() + ("",))
            else:
                writer.writerow((t.seed, t.snr_db, t.receiver, *no_scores, t.error))


def trial_to_dict(trial: TrialResult) -> dict:
    return json_safe(dict(zip(TRIAL_FIELDS, trial.astuple())))
