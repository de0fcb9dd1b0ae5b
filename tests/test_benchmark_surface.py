"""The benchmark in ``perfbench/`` imports and calls ``bdris`` directly; this
suite does not otherwise load it, so an API change that breaks every
benchmark run would still pass here.  The check runs in a subprocess because
the benchmark's modules (``child``, ``tracing``, ``metrics``, ``workloads``)
are imported by bare name from their own directory."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

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
tracer = Tracer()
for k, rx in enumerate(("pakron", "tucker", "zf-oracle")):
    tracer.trial = k
    with wrapped_kernels(tracer):
        got = traced_trial(tracer, cfg, rx, 0.0, 0, 5)
    want = run_trial(cfg, rx, 0.0, 0, 5)
    out[rx] = [[t.seed, t.nmse_h, t.nmse_g, t.ser, t.iterations]
               for t in (got, want)]
out["restored"] = kernels_restored()
try:  # every span the traced run's per-layer metrics read
    out["layers"] = sorted(child.layer_values(tracer, 3, cfg))
except RuntimeError as err:
    out["layers"] = str(err)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def traced():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_traced_trial_equals_run_trial(traced):
    out = dict(traced)
    out.pop("layers")
    assert out.pop("restored")
    for rx, (traced_rx, direct) in out.items():
        assert traced_rx == direct, rx


def test_traced_run_records_every_layer(traced):
    # a span that no receiver opens any more fails --trace 1 runs
    assert isinstance(traced["layers"], list), traced["layers"]
    assert "tensor_ops.khatri_rao.ms_per_call" in traced["layers"]
