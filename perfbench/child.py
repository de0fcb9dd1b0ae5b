"""One benchmark run inside a fresh process.

``run.py`` starts this script with the BLAS thread pin in its environment
and ``src`` on ``PYTHONPATH``, so numpy loads already pinned.  The script
sets up (imports, config build, ``check_feasible``, one noiseless warm-up
trial per receiver), measures the workload, runs the correctness gate and
prints one JSON line for ``run.py``.  With ``--probe`` it stops after set-up.

Untraced runs (``--trace 0``) time ``run_trial`` or ``run_sweep`` from the
outside and, between calls, a fixed numpy SVD (:class:`HostSpeed`); their
timing metrics are ratios to that reference, so that a host whose speed
drifts from minute to minute moves both alike.  Traced runs (``--trace 1``) run the same tasks three times: plain
``run_trial`` (phase A), the traced recomposition of ``tracing.py`` (phase B,
compared result for result with A) and ``run_sweep`` (phase C, compared with
A), and derive the per-layer metrics from the three.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import bdris
from bdris.config import SolverOptions, SystemConfig, derive_seed
from bdris.errors import IdentifiabilityError, NumericalError, ScalingResolutionError
from bdris.experiments import TrialResult, run_sweep, run_trial, write_trials_csv
from bdris.identifiability import check_feasible, complexity_dominant

import metrics
from tracing import RECEIVER_SPANS, Tracer, kernels_restored, traced_trial, wrapped_kernels
from workloads import BLAS_PIN, RECEIVERS, SEMI_BLIND, WORKLOADS, Workload, config_fields

ROOT = Path(__file__).resolve().parent.parent
# the errors run_sweep records as failed trials; anything else aborts the run
TOLERATED = (ScalingResolutionError, NumericalError, IdentifiabilityError,
             np.linalg.LinAlgError)
WARMUP_SEED = 1
GATE_SEED = 2
MEASURE_CAP_S = 110.0   # hard stop of the measured loop, whatever the floors
TRACE_SHARE = 1 / 3     # share of --seconds given to phase A of a traced run
# exact-recovery gate of acceptance criteria 2 (tucker) and 3 (pakron)
GATE_SOLVER = {"pakron": SolverOptions(delta=1e-15, max_iters=500),
               "tucker": SolverOptions(delta=1e-15, max_iters=200)}
GATE_NMSE = 1e-8
NMSE_CEILING = 0.5      # a median above this means the receiver output is junk
SER_CEILING = 0.25      # QPSK guessing gives 0.75
POOL_CALL_FLOOR_S = 0.3  # pooled units repeat a receiver's call until it took this long
REF_SHAPE = (512, 32)   # complex reference matrix, about the receivers' pinv size
REF_SVDS = 16           # SVDs per reference block (about 30 ms)
REF_EVERY_S = 0.5       # a reference block follows any call that ends this long after the last


@dataclass
class Trial:
    receiver: str
    unit: int
    snr_index: int
    trial_index: int
    result: TrialResult | None  # None when run_sweep's tolerated errors fired
    ms: float                   # serial: run_trial latency; pooled: in-worker wall_ms
    error: str = ""
    repeat: int = 0             # pooled: index of the repeated identical call


_REF_MATRIX = None  # made on first use, in each process that times blocks


def reference_block(_=None) -> float:
    """Seconds per SVD over ``REF_SVDS`` SVDs of the fixed reference matrix
    (the ignored argument is the index ``pool.map`` passes)."""
    global _REF_MATRIX
    if _REF_MATRIX is None:
        rng = np.random.default_rng(0)
        _REF_MATRIX = rng.standard_normal(REF_SHAPE) + 1j * rng.standard_normal(REF_SHAPE)
    t0 = time.perf_counter()
    for _ in range(REF_SVDS):
        np.linalg.svd(_REF_MATRIX, full_matrices=False)
    return (time.perf_counter() - t0) / REF_SVDS


class HostSpeed:
    """Reference blocks timed between the workload's calls.

    A block is ``REF_SVDS`` SVDs of one fixed complex ``REF_SHAPE`` matrix
    through numpy, code no change to ``src/bdris`` can alter.  It runs with
    the workload's parallelism: in this process when ``jobs`` is 1, else in
    ``jobs`` pool processes at once (kept for the run, idle during the
    workload's calls), averaged.  The median time per SVD is the unit of the
    untraced timing metrics.
    """

    def __init__(self, jobs: int = 1):
        self.jobs = jobs
        self.pool = ProcessPoolExecutor(jobs) if jobs > 1 else None
        self.samples = []   # seconds per SVD, one per block
        self.last = -math.inf

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown(wait=True)

    def block(self) -> None:
        if self.pool is None:
            sample = reference_block()
        else:
            sample = statistics.fmean(self.pool.map(reference_block, range(self.jobs)))
        self.samples.append(sample)
        self.last = time.perf_counter()

    def tick(self) -> None:
        """Time a block if ``REF_EVERY_S`` has passed since the last one."""
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.block()

    @property
    def seconds(self) -> float:
        return statistics.median(self.samples)


def make_config(workload: Workload, seed: int, unit: int = 0) -> SystemConfig:
    return SystemConfig(**config_fields(workload, seed, unit if workload.pooled else 0))


def unit_tasks(workload, cfg, unit):
    """``(receiver, snr_index, snr_db, trial_index)`` of one unit, in run order."""
    per_point = range(workload.runs_per_call) if workload.pooled else (unit,)
    for rx in RECEIVERS:
        for si, snr in enumerate(cfg.snr_db):
            for r in per_point:
                yield rx, si, snr, r


def setup(workload: Workload, seed: int) -> SystemConfig:
    cfg = make_config(workload, seed)
    for rx in RECEIVERS:
        check_feasible(cfg, rx)
    for rx in RECEIVERS:
        run_trial(cfg, rx, math.inf, 0, 0, master_seed=WARMUP_SEED, noiseless=True)
    return cfg


def serial_trial(cfg, rx, si, snr, r, unit) -> Trial:
    t0 = time.perf_counter()
    try:
        result, error = run_trial(cfg, rx, snr, si, r), ""
    except TOLERATED as err:
        result, error = None, f"{type(err).__name__}: {err}"
    return Trial(rx, unit, si, r, result, (time.perf_counter() - t0) * 1e3, error)


def sweep_trials(cfg, rx, runs, jobs, unit, repeat=0):
    """One ``run_sweep`` call; returns ``(trials, wall_s, raw results)``."""
    t0 = time.perf_counter()
    results, _ = run_sweep(cfg, [rx], runs=runs, jobs=jobs)
    wall = time.perf_counter() - t0
    trials = []
    for idx, res in enumerate(results):
        ok = isinstance(res, TrialResult)
        trials.append(Trial(rx, unit, idx // runs, idx % runs, res if ok else None,
                            res.wall_ms if ok else math.nan, "" if ok else res.error,
                            repeat))
    return trials, wall, results


def measure(workload, seed, seconds, min_units, serial=False, host=None):
    """Closed loop over units until ``seconds`` have passed and ``min_units``
    units are complete (or ``MEASURE_CAP_S`` is reached).

    Returns ``(trials, busy, units)`` with ``busy[receiver]`` the wall seconds
    spent in that receiver's calls; ``serial`` runs a pooled workload's tasks
    one by one through ``run_trial``.  A pooled unit repeats each receiver's
    (deterministic) call until it has taken ``POOL_CALL_FLOOR_S``, so that a
    cheap receiver is timed over more than one pool start.  ``host`` gets a
    reference block between calls.
    """
    trials = []
    busy = dict.fromkeys(RECEIVERS, 0.0)
    tick = host.tick if host else (lambda: None)
    start = time.perf_counter()
    unit = 0
    while True:
        cfg = make_config(workload, seed, unit)
        if workload.pooled and not serial:
            for rx in RECEIVERS:
                spent, repeat = 0.0, 0
                while spent < POOL_CALL_FLOOR_S:
                    got, wall, _ = sweep_trials(cfg, rx, workload.runs_per_call,
                                                workload.jobs, unit, repeat)
                    trials += got
                    busy[rx] += wall
                    spent, repeat = spent + wall, repeat + 1
                    tick()
        else:
            for rx, si, snr, r in unit_tasks(workload, cfg, unit):
                trial = serial_trial(cfg, rx, si, snr, r, unit)
                trials.append(trial)
                busy[rx] += trial.ms / 1e3
                tick()
        unit += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and unit >= min_units) or elapsed >= MEASURE_CAP_S:
            return trials, busy, unit


def same_outcome(a: TrialResult | None, b: TrialResult | None) -> bool:
    """Both failed, or both completed with identical results."""
    if a is None or b is None:
        return a is b
    return (a.seed, a.snr_db, a.receiver, a.nmse_h, a.nmse_g, a.ser, a.iterations) == \
           (b.seed, b.snr_db, b.receiver, b.nmse_h, b.nmse_g, b.ser, b.iterations)


def completed(trials, rx=None, max_unit=None):
    return [t for t in trials if t.result is not None
            and (rx is None or t.receiver == rx)
            and (max_unit is None or t.unit < max_unit)]


def accuracy(trials, rx, field, max_unit):
    """Geometric mean over SNR points of the per-point median of ``field``."""
    by_point = {}
    for t in completed(trials, rx, max_unit):
        if t.repeat:
            continue
        by_point.setdefault(t.snr_index, []).append(getattr(t.result, field))
    return metrics.geomean(statistics.median(v) for v in by_point.values())


# -- correctness -------------------------------------------------------------

def noiseless_gate(workload: Workload, seed: int) -> dict:
    """One noiseless trial per receiver at the workload's dimensions must meet
    the exact-recovery thresholds of acceptance criteria 2 and 3."""
    checks = {}
    base = config_fields(workload, seed)
    for rx in RECEIVERS:
        solver = GATE_SOLVER.get(rx, SolverOptions())
        cfg = SystemConfig(**{**base, "seed": GATE_SEED, "solver": solver})
        res = run_trial(cfg, rx, math.inf, 0, 0, noiseless=True)
        ok = res.ser == 0.0
        if rx in SEMI_BLIND:
            ok = ok and max(res.nmse_h, res.nmse_g) <= GATE_NMSE \
                and res.iterations <= solver.max_iters
        checks[f"noiseless_gate.{rx}"] = ok
    return checks


def sane(trial: Trial, cfg: SystemConfig) -> bool:
    res = trial.result
    ok = (res.receiver == trial.receiver
          and res.seed == derive_seed(cfg.seed, "scenario", trial.snr_index,
                                      trial.trial_index)
          and 0.0 <= res.ser <= 1.0
          and all(math.isfinite(v) and v >= 0.0 for v in (res.nmse_h, res.nmse_g)))
    if trial.receiver in SEMI_BLIND:
        return ok and 1 <= res.iterations <= cfg.solver.max_iters
    return ok and res.iterations == 0


def output_checks(workload, seed, trials, units) -> dict:
    cfgs = {u: make_config(workload, seed, u) for u in range(units)}
    checks = {"outputs_sane": all(sane(t, cfgs[t.unit]) for t in completed(trials))}
    for rx in RECEIVERS:
        done = completed(trials, rx)
        checks[f"ser_ceiling.{rx}"] = bool(done) and \
            statistics.fmean(t.result.ser for t in done) <= SER_CEILING
    for rx in SEMI_BLIND:
        for field in ("nmse_h", "nmse_g"):
            checks[f"nmse_ceiling.{rx}.{field}"] = \
                accuracy(trials, rx, field, workload.min_units) <= NMSE_CEILING
    return checks


def rerun_checks(workload, seed, trials) -> dict:
    """The first completed trial of each receiver, run again serially, must
    give the same result (determinism; serial == pooled on pooled workloads)."""
    checks = {}
    for rx in RECEIVERS:
        first = completed(trials, rx)[0]
        cfg = make_config(workload, seed, first.unit)
        again = run_trial(cfg, rx, cfg.snr_db[first.snr_index], first.snr_index,
                          first.trial_index)
        checks[f"rerun_identical.{rx}"] = same_outcome(first.result, again)
    return checks


# -- environment record --------------------------------------------------------

def openblas_state():
    """Thread count and config string of every OpenBLAS the process loaded."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        out[Path(path).name] = {}
        for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                               ("openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            cfg = getattr(lib, f"{prefix}get_config{suffix}", None)
            if get is not None and cfg is not None:
                get.restype, cfg.restype = ctypes.c_int, ctypes.c_char_p
                out[Path(path).name] = {"threads": get(), "config": cfg().decode()}
                break
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # benchmark checkouts are not git repositories
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bdris").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "blas_env": {var: os.environ.get(var) for var in BLAS_PIN},
        "openblas_loaded": openblas_state(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_bdris_sha256": digest.hexdigest(),
    }


def peak_rss_mb(jobs: int) -> float:
    """Own peak RSS plus ``jobs`` times the largest pool child's peak (the
    pool's workers run at the same time as this process)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (jobs * child if jobs > 1 else 0)) / 1024.0


# -- untraced run --------------------------------------------------------------

def untraced(workload, seed, seconds):
    with HostSpeed(workload.jobs) as host:
        host.block()  # also starts the reference pool
        trials, busy, units = measure(workload, seed, seconds, workload.min_units,
                                      host=host)
        rss_mb = peak_rss_mb(workload.jobs)  # before the reference pool ends
    checks = output_checks(workload, seed, trials, units)
    checks.update(rerun_checks(workload, seed, trials))
    checks.update(noiseless_gate(workload, seed))

    # timings in units of one reference SVD (HostSpeed), raw ones in the record
    ref_ms = host.seconds * 1e3
    raw = {}
    for rx in RECEIVERS:
        raw[f"{rx}.trials_per_s"] = len(completed(trials, rx)) / busy[rx]
    lat = {rx: [t.ms for t in completed(trials, rx)] for rx in SEMI_BLIND}
    raw["pakron.trial_ms.p50"] = metrics.p50(lat["pakron"])
    raw["tucker.trial_ms.p50"] = metrics.p50(lat["tucker"])
    raw["tucker.trial_ms.p90"] = metrics.p90(lat["tucker"])
    values = {f"{rx}.trial_cost": 1e3 / raw[f"{rx}.trials_per_s"] / ref_ms
              for rx in RECEIVERS}
    for rx, q in (("pakron", "p50"), ("tucker", "p50"), ("tucker", "p90")):
        values[f"{rx}.latency.{q}"] = raw[f"{rx}.trial_ms.{q}"] / ref_ms
    for rx in SEMI_BLIND:
        for field in ("nmse_h", "nmse_g"):
            values[f"{rx}.{field}.median"] = accuracy(trials, rx, field, workload.min_units)
    ok = len(completed(trials))
    values["completed_ratio"] = ok / len(trials)
    values["peak_rss_mb"] = rss_mb

    record = {
        "units": units,
        "trials": {rx: len([t for t in trials if t.receiver == rx]) for rx in RECEIVERS},
        "latency_samples": {rx: len(v) for rx, v in lat.items()},
        "failures": sorted({t.error for t in trials if t.result is None}),
        "reference": {"shape": REF_SHAPE, "svds_per_block": REF_SVDS,
                      "blocks": len(host.samples), "svd_ms": ref_ms,
                      "svd_ms_range": [1e3 * min(host.samples), 1e3 * max(host.samples)]},
        "not_gated": {**raw, **not_gated(trials, lat)},
    }
    return values, checks, len(trials), len(trials) - ok, record


def not_gated(trials, lat) -> dict:
    """End-to-end quantities reported without a bound (see README.md)."""
    out = {"pakron.trial_ms.p90": metrics.p90(lat["pakron"]),
           "failed_ratio": 1.0 - len(completed(trials)) / len(trials)}
    for rx in SEMI_BLIND:
        out[f"{rx}.ser.mean"] = statistics.fmean(t.result.ser for t in completed(trials, rx))
    return out


# -- traced run ------------------------------------------------------------------

def pinv_gflop(shape) -> float:
    """Computed real Gflop of one complex ``pinv``: thin SVD (R-SVD,
    ``4 * (6 p q^2 + 20 q^3)``) plus the ``V diag(1/s) U^H`` product
    (``8 p q^2``), with ``p >= q`` the matrix sides."""
    p, q = max(shape), min(shape)
    return (4 * (6 * p * q * q + 20 * q ** 3) + 8 * p * q * q) / 1e9


def traced(workload, seed, seconds):
    cfg0 = make_config(workload, seed)
    # phase A: plain run_trial over the workload's tasks
    t0 = time.perf_counter()
    plain, _, units = measure(workload, seed, seconds * TRACE_SHARE, 1, serial=True)
    wall_a = time.perf_counter() - t0
    cfgs = {u: make_config(workload, seed, u) for u in range(units)}

    # phase B: the same tasks rebuilt from public parts, with spans
    tracer = Tracer()
    rebuilt = []
    t0 = time.perf_counter()
    with wrapped_kernels(tracer):
        for k, t in enumerate(plain):
            tracer.trial = k
            cfg = cfgs[t.unit]
            try:
                res = traced_trial(tracer, cfg, t.receiver, cfg.snr_db[t.snr_index],
                                   t.snr_index, t.trial_index)
            except TOLERATED:
                res = None
            rebuilt.append(res)
    wall_b = time.perf_counter() - t0
    checks = {"kernels_restored": kernels_restored(),
              "trace_matches_run_trial": all(
                  same_outcome(a.result, b) for a, b in zip(plain, rebuilt))}

    # phase C: the same tasks through run_sweep, trials CSV written per call
    by_key = {(t.receiver, cfgs[t.unit].seed, t.snr_index, t.trial_index): t for t in plain}
    calls = ([(cfgs[u], workload.runs_per_call, u) for u in range(units)]
             if workload.pooled else [(cfg0, units, 0)])
    jobs = workload.jobs
    sweep_wall, csv_ms, sweep_ok = 0.0, [], True
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for cfg, runs, unit in calls:
            for rx in RECEIVERS:
                got, wall, raw = sweep_trials(cfg, rx, runs, jobs, unit)
                sweep_wall += wall
                t1 = time.perf_counter()
                write_trials_csv(Path(tmp) / "trials.csv", raw)
                csv_ms.append((time.perf_counter() - t1) * 1e3)
                for t in got:
                    ref = by_key.get((rx, cfg.seed, t.snr_index, t.trial_index))
                    sweep_ok = sweep_ok and ref is not None \
                        and same_outcome(t.result, ref.result)
    checks["run_sweep_matches_run_trial"] = sweep_ok
    checks.update(noiseless_gate(workload, seed))

    values = layer_values(tracer, len(plain), cfg0)
    values["experiments.run_sweep.wall_s"] = sweep_wall
    busy = sum(t.ms for t in plain) / 1e3
    values["experiments.run_sweep.busy_s"] = busy
    values["experiments.run_sweep.parallel_efficiency"] = busy / (jobs * sweep_wall)
    values["experiments.write_trials_csv.ms"] = statistics.fmean(csv_ms)
    values["trace.overhead_ratio"] = wall_b / wall_a
    lat = {rx: [t.ms for t in completed(plain, rx)] for rx in SEMI_BLIND}
    values.update(not_gated(plain, lat))

    predicted = complexity_dominant(cfg0)
    measured = {rx: values[f"receivers.{stage}.ms_per_sweep"]
                for rx, stage in (("pakron", "pakron_stage1"), ("tucker", "tucker_tals"))}
    for rx in SEMI_BLIND:
        values[f"identifiability.complexity_dominant.{rx}"] = predicted[rx]
        values[f"identifiability.ms_per_mflop.{rx}"] = measured[rx] / (predicted[rx] / 1e6)
    record = {
        "units": units,
        "traced_trials": len(plain),
        "complexity_check": complexity_check(predicted, measured),
    }
    failed = sum(t.result is None for t in plain)
    return values, checks, len(plain), failed, record


def complexity_check(predicted, measured) -> dict:
    """Report-only: does ``complexity_dominant`` rank the receivers' per-sweep
    cost the way the measurement does?  A predicted tie holds when the
    measured costs are within 10 % of each other."""
    ratio_p = predicted["pakron"] / predicted["tucker"]
    ratio_m = measured["pakron"] / measured["tucker"]
    if ratio_p == 1.0:
        holds = abs(math.log(ratio_m)) <= math.log(1.1)
    else:
        holds = (ratio_p > 1.0) == (ratio_m > 1.0)
    return {"predicted_flop_per_sweep": predicted,
            "measured_ms_per_sweep": measured,
            "pakron_over_tucker_predicted": ratio_p,
            "pakron_over_tucker_measured": ratio_m,
            "ranking_holds": holds}


def layer_values(tracer: Tracer, n_trials: int, cfg) -> dict:
    def spans(name):
        found = tracer.by_name(name)
        if not found:
            raise RuntimeError(f"traced run recorded no {name} span")
        return found

    def mean_ms(name):
        return 1e3 * statistics.fmean(s.seconds for s in spans(name))

    values = {}
    pinv = spans("tensor_ops.pinv")
    pinv_s = sum(s.seconds for s in pinv)
    receiver_s = sum(s.seconds for name in RECEIVER_SPANS for s in spans(name))
    values["tensor_ops.pinv.calls_per_trial"] = len(pinv) / n_trials
    values["tensor_ops.pinv.ms_per_call"] = 1e3 * pinv_s / len(pinv)
    values["tensor_ops.pinv.share"] = pinv_s / receiver_s
    values["tensor_ops.pinv.gflop_computed"] = \
        sum(pinv_gflop(s.info["shape"]) for s in pinv) / n_trials
    values["tensor_ops.khatri_rao.ms_per_call"] = mean_ms("tensor_ops.khatri_rao")
    values["tensor_ops.best_rank1.ms"] = mean_ms("tensor_ops.best_rank1")
    for stage in ("pakron_stage1", "tucker_tals"):
        name = f"receivers.{stage}"
        found = spans(name)
        sweeps = [s.info["sweeps"] for s in found]
        values[f"{name}.ms"] = mean_ms(name)
        values[f"{name}.sweeps.p50"] = metrics.p50(sweeps)
        values[f"{name}.sweeps.p90"] = metrics.p90(sweeps)
        values[f"{name}.ms_per_sweep"] = 1e3 * sum(s.seconds for s in found) / sum(sweeps)
        values[f"{name}.converged_ratio"] = \
            sum(s.info["converged"] for s in found) / len(found)
    for name in ("receivers.kron_factorize", "receivers.resolve_and_detect",
                 "receivers.zf_perfect_csi", "signal.design_scattering",
                 "signal.gen_channels", "signal.gen_symbols",
                 "signal.synthesize_received", "signal.add_noise",
                 "signal.reshape_views", "experiments.nmse_aligned",
                 "experiments.ser"):
        values[f"{name}.ms"] = mean_ms(name)
    values["signal.reshape_views.core_bytes"] = \
        spans("signal.reshape_views")[0].info["core_bytes"]
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        for rx in RECEIVERS:
            check_feasible(cfg, rx)
    values["identifiability.check_feasible.ms"] = \
        1e3 * (time.perf_counter() - t0) / (reps * len(RECEIVERS))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started us")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    if not Path(bdris.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"bdris imported from {bdris.__file__}, not this checkout")
    workload = WORKLOADS[args.workload]
    cfg = setup(workload, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    run = traced if args.trace else untraced
    values, checks, attempted, failed, record = run(workload, args.seed, args.seconds)
    record.update(workload=workload.name, seed=args.seed, trace=args.trace,
                  jobs=workload.jobs, runs_per_call=workload.runs_per_call,
                  min_units=workload.min_units, master_seed_unit0=cfg.seed,
                  setup_s_main=setup_s, checks=checks, environment=environment())
    print(json.dumps({"correct": all(checks.values()), "attempted": attempted,
                      "failed": failed, "values": values, "record": record}),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
