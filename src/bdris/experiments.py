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
(config, SNR, trial) reuse it, and :func:`run_sweep` draws a block of trials'
scenarios once and runs every receiver on the whole block.  Its arrays are
read-only, so no receiver can change what the next one sees.

A receiver runs a block of trials in lockstep (``Receiver.run``), and each
trial's outcome has the bits it has alone: :func:`run_trial` is a block of
one.  A trial's ``wall_ms`` is its share of its block's receiver time.
"""

import csv
import functools
import math
import struct
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import SystemConfig, derive_seed
from .identifiability import check_feasible
from .receivers import TOLERATED, find_receiver, hard_decisions
from .signal import SymbolBlock, add_noise, draw_scenario

# the columns of TrialResult.astuple(), then the error text of a TrialFailure
TRIAL_CSV_HEADER = ("seed", "snr_db", "receiver", "nmse_h", "nmse_g", "ser",
                    "iters", "wall_ms", "error")
# the most bytes of contracted data (frames x rx*slots x d complex per trial)
# that a sweep task stacks to run its trials in lockstep: past it the stacks
# leave the caches, and a trial cost more at 64 default-dims trials than at 16
BLOCK_BYTES = 2 ** 18


def nmse_aligned(truth, estimate, mode="per-column") -> float:
    """Normalized squared error after least-squares scale alignment: one
    complex scale per column, then
    ``||truth - scale*estimate||_F^2 / ||truth||_F^2``.  ``mode`` must be
    ``"per-column"``, the only alignment.
    """
    if mode != "per-column":
        raise ValueError(f"unknown alignment mode: {mode}")
    truth = np.asarray(truth)
    estimate = np.asarray(estimate)
    if truth.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {estimate.shape}")
    tnorm2 = float(np.linalg.norm(truth) ** 2)
    if tnorm2 == 0.0:
        raise ValueError("truth matrix has zero norm")
    denom = np.sum(np.abs(estimate) ** 2, axis=0)
    numer = np.sum(estimate.conj() * truth, axis=0)
    alpha = np.divide(numer, denom, out=np.zeros_like(numer), where=denom > 0)
    return float(np.linalg.norm(truth - estimate * alpha[None, :]) ** 2) / tnorm2


def ser(symbols: SymbolBlock, detected) -> float:
    """Fraction of wrongly decided data symbols (the reference row 0
    excluded); NaN when the block holds no data symbol (``slots == 1``)."""
    detected = np.asarray(detected)
    if detected.shape != symbols.x.shape:
        raise ValueError("detected matrix shape differs from transmitted block")
    wrong = (hard_decisions(symbols.x, symbols.alphabet)
             != hard_decisions(detected, symbols.alphabet))
    data = wrong[1:]
    return float(np.mean(data)) if data.size else math.nan


TRIAL_FIELDS = ("seed", "snr_db", "receiver", "nmse_h", "nmse_g", "ser",
                "iterations", "wall_ms")
_NUMBER_FIELDS = tuple(f for f in TRIAL_FIELDS if f != "receiver")
_NUMBERS = struct.Struct("<Qddddqd")  # _NUMBER_FIELDS, exactly


class TrialResult(bytes):
    """Scores of one completed trial, read as attributes (``TRIAL_FIELDS``).

    A sweep keeps one per trial, so a record is one ``bytes`` object, its
    numbers packed and then its receiver's name: an unpickled record takes
    about 110 bytes, against 290 with one boxed ``int``/``float`` per field.
    """
    __slots__ = ()

    def __new__(cls, seed, snr_db, receiver, nmse_h, nmse_g, ser, iterations,
                wall_ms):
        return super().__new__(cls, _NUMBERS.pack(
            seed, snr_db, nmse_h, nmse_g, ser, iterations, wall_ms) + receiver.encode())

    @property
    def receiver(self) -> str:
        return self[_NUMBERS.size:].decode()

    def __getattr__(self, name):  # reached only for the packed fields
        if name not in _NUMBER_FIELDS:
            raise AttributeError(name)
        return _NUMBERS.unpack_from(self)[_NUMBER_FIELDS.index(name)]

    def astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in TRIAL_FIELDS)

    def __eq__(self, other):  # by the packed bytes, so a NaN SER equals itself
        if not isinstance(other, TrialResult):
            return NotImplemented
        return bytes.__eq__(self, other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = bytes.__hash__

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
    cells: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return json_safe(asdict(self))


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


def _run_cases(run, cases, solver):
    """``run(cases, solver)``.  A tolerated error it raises for the whole
    batch becomes the outcome of each trial that raises it when run alone,
    so that no trial's outcome depends on its batch."""
    try:
        return run(cases, solver)
    except TOLERATED as err:
        if len(cases) == 1:
            return [err], [0.0]
        alone = [_run_cases(run, [case], solver) for case in cases]
        return [out for (out,), _ in alone], [ms for _, (ms,) in alone]


def evaluate(receiver: str, scenarios, solver, init_seeds) -> list:
    """Run ``receiver`` on a block of scenarios ``(design, channels, symbols,
    received)`` of one configuration, in lockstep (``Receiver.run``), and
    score each trial against its truth.

    Returns per trial a dict of ``nmse_h``, ``nmse_g``, ``ser``,
    ``iterations`` and ``wall_ms``, the trial's share of the receiver's time
    (hard decisions included, scoring not), or the tolerated error the trial
    raised.  Only the oracle reads the true channels: its channel estimates
    are ``None``, the truth itself, scored 0.0.
    """
    cases = [(received, design, symbols.alphabet, seed, channels)
             for (design, channels, symbols, received), seed in zip(scenarios, init_seeds)]
    outputs, wall_ms = _run_cases(find_receiver(receiver).run, cases, solver)
    scored = []
    for (design, channels, symbols, _), out, ms in zip(scenarios, outputs, wall_ms):
        scored.append(out if isinstance(out, Exception) else dict(
            nmse_h=(0.0 if out.hs_hat is None else
                    nmse_aligned(channels.h @ design.s, out.hs_hat, "per-column")),
            nmse_g=(0.0 if out.gbar_hat is None else
                    nmse_aligned(channels.gbar, out.gbar_hat, "per-column")),
            ser=ser(symbols, out.x_detected),
            iterations=out.iterations,
            wall_ms=ms,
        ))
    return scored


@functools.lru_cache(maxsize=1)
def _noised_scenario(cfg: SystemConfig, snr_db: float, snr_index: int,
                     trial_index: int, master: int):
    """``(scenario_seed, design, channels, symbols, received)`` of one trial,
    a pure function of its arguments; the last one is kept for the next
    receiver on the same trial.  ``snr_db = inf`` leaves it noiseless."""
    scenario_seed = derive_seed(master, "scenario", snr_index, trial_index)
    design, channels, symbols, received = draw_scenario(cfg, scenario_seed)
    received = add_noise(received, snr_db, derive_seed(scenario_seed, "noise"))
    return scenario_seed, design, channels, symbols, received


def _run_block(cfg: SystemConfig, receiver: str, snr_db: float, snr_index: int,
               master: int, trials) -> list:
    """``receiver`` on ``trials``, ``(trial_index, scenario)`` pairs of one SNR
    with each scenario as :func:`_noised_scenario` returns it, in lockstep: a
    TrialResult per trial, or the tolerated error it raised."""
    init_seeds = [derive_seed(master, "init", receiver, snr_index, r,
                              cfg.solver.init_seed) for r, _ in trials]
    scores = evaluate(receiver, [s[1:] for _, s in trials], cfg.solver, init_seeds)
    return [s if isinstance(s, Exception) else TrialResult(scenario[0], snr_db, receiver, **s)
            for (_, scenario), s in zip(trials, scores)]


def run_trial(cfg: SystemConfig, receiver: str, snr_db: float,
              snr_index: int = 0, trial_index: int = 0,
              master_seed: int | None = None, noiseless: bool = False):
    """One seeded end-to-end trial, a block of one; returns a TrialResult, or
    raises the trial's error.  ``noiseless`` sets ``snr_db = inf``."""
    master = cfg.seed if master_seed is None else master_seed
    if noiseless:
        snr_db = math.inf
    scenario = _noised_scenario(cfg, snr_db, snr_index, trial_index, master)
    (result,) = _run_block(cfg, receiver, snr_db, snr_index, master,
                           [(trial_index, scenario)])
    if isinstance(result, Exception):
        raise result
    return result


def _block_task(args):
    """Every requested receiver on one block of trials of one SNR, each
    receiver on the whole block in lockstep; a trial's tolerated error
    becomes its TrialFailure.  Returns the trials of each receiver."""
    cfg, receivers, snr_db, snr_index, trial_indices = args
    trials = [(r, _noised_scenario(cfg, snr_db, snr_index, r, cfg.seed))
              for r in trial_indices]
    out = []
    for receiver in receivers:
        results = _run_block(cfg, receiver, snr_db, snr_index, cfg.seed, trials)
        out.append([
            TrialFailure(seed=scenario[0], snr_db=snr_db, receiver=receiver,
                         error=f"{type(res).__name__}: {res}")
            if isinstance(res, Exception) else res
            for (_, scenario), res in zip(trials, results)])
    return out


def run_sweep(cfg: SystemConfig, receivers, runs: int, jobs: int = 1):
    """Run the full (``cfg.snr_db`` x receiver x trial) grid.

    Returns ``(trials, report)`` where ``trials`` is in (snr index, receiver,
    trial index) order and includes failures.  Receiver names, then every
    requested receiver's identifiability, are checked before any trial runs.

    The trials of each SNR are cut into blocks of ``ceil(runs / jobs)``
    trials, at most as many as stack ``BLOCK_BYTES`` of contracted data.  One
    task per block, serial or in ``jobs``
    processes, draws and noises the block's scenarios once and runs every
    receiver on the whole block, its trials in lockstep (``Receiver.run``);
    the results are then put back in output order.  Each trial's outcome has
    the bits :func:`run_trial` gives it, so the result depends neither on
    ``jobs`` nor on the blocks; only ``wall_ms``, a trial's share of its
    block's receiver time, does.
    """
    if runs < 1 or jobs < 1:
        raise ValueError(f"runs and jobs must be at least 1, got {runs} and {jobs}")
    receivers = list(receivers)
    if not receivers:
        raise ValueError("at least one receiver is required")
    if len(set(receivers)) != len(receivers):
        raise ValueError("duplicate receiver names")
    for rx in receivers:
        find_receiver(rx)  # ValueError for an unknown name
    for rx in receivers:
        check_feasible(cfg, rx)
    trial_bytes = 16 * cfg.frames * cfg.rx_antennas * cfg.slots * cfg.tx_antennas \
        * cfg.ris_elements
    size = min(-(-runs // jobs), max(1, BLOCK_BYTES // trial_bytes))
    tasks = [
        (cfg, receivers, snr, si, range(start, min(start + size, runs)))
        for si, snr in enumerate(cfg.snr_db)
        for start in range(0, runs, size)
    ]
    if jobs > 1:
        # imported here: it pulls multiprocessing into every import of bdris
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_block_task, tasks))
    else:
        done = [_block_task(t) for t in tasks]
    per_snr = len(tasks) // len(cfg.snr_db)
    trials = [trial
              for si in range(len(cfg.snr_db))
              for ri in range(len(receivers))
              for block in done[si * per_snr:(si + 1) * per_snr]
              for trial in block[ri]]

    report = SweepReport(config=cfg.to_mapping(), receivers=receivers, runs=runs)
    for si, snr in enumerate(cfg.snr_db):
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
