"""The benchmark in ``perfbench/`` imports and calls ``bdris`` directly; this
suite does not otherwise load it, so an API change that breaks every
benchmark run would still pass here.  The check runs in a subprocess because
the benchmark's modules (``child``, ``tracing``, ``metrics``, ``workloads``)
are imported by bare name from their own directory."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import child  # the benchmark's entry module: every bdris name it imports
from bdris.config import SystemConfig
from bdris.experiments import run_trial
from tracing import Tracer, kernels_restored, traced_trial, wrapped_kernels

cfg = SystemConfig(tx_antennas=2, rx_antennas=4, ris_elements=4, groups=2,
                   blocks=8, slots=4, frames=4, snr_db=(0.0,), seed=3)
out = {}
for rx in ("pakron", "tucker", "zf-oracle"):
    tracer = Tracer()
    with wrapped_kernels(tracer):
        got = traced_trial(tracer, cfg, rx, 0.0, 0, 5)
    want = run_trial(cfg, rx, 0.0, 0, 5)
    out[rx] = [[t.seed, t.nmse_h, t.nmse_g, t.ser, t.iterations]
               for t in (got, want)]
out["restored"] = kernels_restored()
print(json.dumps(out))
"""


def test_traced_trial_equals_run_trial():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out.pop("restored")
    for rx, (traced, direct) in out.items():
        assert traced == direct, rx
