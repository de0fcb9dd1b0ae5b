"""Metric names, units and the small statistics the benchmark reports.

``END_TO_END`` is what an untraced run prints and ``PER_LAYER`` what a traced
run prints; ``BENCHMARK.json`` lists the same names (a test keeps them equal).
"""

import math
import statistics

# time of one numpy SVD of the fixed 512 x 32 complex matrix of child.HostSpeed
REF = "svd512x32"

END_TO_END = {
    "setup_s": "s",
    # wall time per completed trial, and run_trial latency, in units of one
    # reference SVD timed on the same host during the run (REF below)
    "pakron.trial_cost": REF,
    "tucker.trial_cost": REF,
    "zf-oracle.trial_cost": REF,
    "pakron.latency.p50": REF,
    "tucker.latency.p50": REF,
    "tucker.latency.p90": REF,
    "pakron.nmse_h.median": "ratio",
    "pakron.nmse_g.median": "ratio",
    "tucker.nmse_h.median": "ratio",
    "tucker.nmse_g.median": "ratio",
    "completed_ratio": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "tensor_ops.pinv.calls_per_trial": "count",
    "tensor_ops.pinv.ms_per_call": "ms",
    "tensor_ops.pinv.share": "ratio",
    "tensor_ops.pinv.gflop_computed": "Gflop",
    "tensor_ops.khatri_rao.ms_per_call": "ms",
    "tensor_ops.best_rank1.ms": "ms",
    "receivers.pakron_stage1.ms": "ms",
    "receivers.pakron_stage1.sweeps.p50": "count",
    "receivers.pakron_stage1.sweeps.p90": "count",
    "receivers.pakron_stage1.ms_per_sweep": "ms",
    "receivers.pakron_stage1.converged_ratio": "ratio",
    "receivers.tucker_tals.ms": "ms",
    "receivers.tucker_tals.sweeps.p50": "count",
    "receivers.tucker_tals.sweeps.p90": "count",
    "receivers.tucker_tals.ms_per_sweep": "ms",
    "receivers.tucker_tals.converged_ratio": "ratio",
    "receivers.kron_factorize.ms": "ms",
    "receivers.resolve_and_detect.ms": "ms",
    "receivers.zf_perfect_csi.ms": "ms",
    "signal.design_scattering.ms": "ms",
    "signal.gen_channels.ms": "ms",
    "signal.gen_symbols.ms": "ms",
    "signal.synthesize_received.ms": "ms",
    "signal.add_noise.ms": "ms",
    "signal.reshape_views.ms": "ms",
    "signal.reshape_views.core_bytes": "bytes",
    "experiments.nmse_aligned.ms": "ms",
    "experiments.ser.ms": "ms",
    "experiments.run_sweep.wall_s": "s",
    "experiments.run_sweep.busy_s": "s",
    "experiments.run_sweep.parallel_efficiency": "ratio",
    "experiments.write_trials_csv.ms": "ms",
    "identifiability.check_feasible.ms": "ms",
    "identifiability.complexity_dominant.pakron": "flop",
    "identifiability.complexity_dominant.tucker": "flop",
    "identifiability.ms_per_mflop.pakron": "ms/Mflop",
    "identifiability.ms_per_mflop.tucker": "ms/Mflop",
    "trace.overhead_ratio": "ratio",
    # end-to-end quantities that read 0 or spread too widely across seeds
    # to carry a bound; see README.md
    "pakron.trial_ms.p90": "ms",
    "pakron.ser.mean": "ratio",
    "tucker.ser.mean": "ratio",
    "failed_ratio": "ratio",
}


def p50(values) -> float:
    return float(statistics.median(values))


def p90(values) -> float:
    """90th percentile (``statistics.quantiles`` exclusive method)."""
    values = list(values)
    if len(values) < 2:
        return float(values[0])
    return float(statistics.quantiles(values, n=10)[-1])


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def emit(values: dict, units: dict) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the names in ``units``."""
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise KeyError(f"metric set mismatch: missing {missing}, extra {extra}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}
