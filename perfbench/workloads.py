"""Benchmark workloads: configuration, seeding and sizing of each run.

This module imports nothing from ``bdris`` or numpy so that ``run.py`` can
validate a workload name before any child process starts.  Every input of a
run is a pure function of ``(workload, seed, unit)``: a *unit* is one trial
index across all receivers on a serial workload, or one ``run_sweep`` call
per receiver on a pooled workload.
"""

import hashlib
from dataclasses import dataclass, field

RECEIVERS = ("pakron", "tucker", "zf-oracle")
# BLAS/OpenMP thread pin, set in the child's environment before numpy loads
BLAS_PIN = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
SEMI_BLIND = ("pakron", "tucker")

# acceptance configuration of tests/test_acceptance.py (SWEEP_CFG), minus seed
SWEEP_ACCEPT_FIELDS = dict(tx_antennas=2, rx_antennas=4, ris_elements=8,
                           groups=2, blocks=16, slots=4, frames=2,
                           snr_db=(0.0, 10.0, 20.0, 30.0), modulation_order=4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: dict = field(default_factory=dict)  # SystemConfig fields over the defaults
    jobs: int = 1            # 1: serial run_trial loop; >1: run_sweep process pool
    runs_per_call: int = 0   # pooled only: trials per SNR point per run_sweep call
    min_units: int = 100     # a run completes at least this many units

    @property
    def pooled(self) -> bool:
        return self.jobs > 1


WORKLOADS = {w.name: w for w in (
    Workload(
        name="trial-0db",
        why="default config (Rayleigh, N=16, K=32) at 0 dB, serial: bound by "
            "ALS sweeps and pinv, where kernel and sweep-count changes show",
        fields=dict(snr_db=(0.0,)),
    ),
    Workload(
        name="sweep-accept",
        why="acceptance SWEEP_CFG (d=16, 0-30 dB) through run_sweep(jobs=2): "
            "pool, pickling and aggregation carry a larger share",
        fields=SWEEP_ACCEPT_FIELDS,
        jobs=2,
        runs_per_call=25,
        min_units=4,
    ),
)}


def master_seed(workload: Workload, seed: int, unit: int = 0) -> int:
    """Master seed of the program's config for one unit of one run.

    Serial workloads use one master seed per run (unit 0) and vary the trial
    index; pooled workloads draw a fresh master seed per ``run_sweep`` call.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(f"perfbench/{workload.name}/{seed}/{unit}".encode())
    return int.from_bytes(h.digest(), "little") >> 1


def config_fields(workload: Workload, seed: int, unit: int = 0) -> dict:
    """Keyword arguments of the ``SystemConfig`` for one unit of one run."""
    return {**workload.fields, "seed": master_seed(workload, seed, unit)}
