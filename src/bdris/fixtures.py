"""Deterministic noiseless instances serialized to JSON.

Array layout: every complex array is stored as
``{"dims": [...], "data": [re0, im0, re1, im1, ...]}`` with the flat data in
Fortran order (first mode fastest), matching the package-wide linearization
convention.  Fixtures bundle the config, the drawn design/channels/symbols
and the synthesized noiseless tensor, so an independent implementation can
replay and cross-check the synthesis to machine precision.
"""

import json

import numpy as np

from .config import SystemConfig, derive_seed
from .signal import (
    ChannelSet,
    ScatteringDesign,
    SymbolBlock,
    draw_scenario,
    psk_alphabet,
    synthesize_received,
)
from .tensor_ops import khatri_rao

FIXTURE_KIND = "bdris-fixture"
FIXTURE_VERSION = 1


def encode_array(arr) -> dict:
    arr = np.asarray(arr, dtype=complex)
    flat = arr.ravel(order="F")
    data = np.empty(2 * flat.size)
    data[0::2] = flat.real
    data[1::2] = flat.imag
    return {"dims": list(arr.shape), "data": data.tolist()}


def decode_array(obj) -> np.ndarray:
    dims = tuple(int(d) for d in obj["dims"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != 2 * int(np.prod(dims)):
        raise ValueError("interleaved data length does not match dims")
    if not np.all(np.isfinite(data)):
        raise ValueError("fixture array has non-finite entries")
    flat = data[0::2] + 1j * data[1::2]
    return flat.reshape(dims, order="F")


def make_fixture(cfg: SystemConfig, master_seed: int | None = None) -> dict:
    """Draw one noiseless instance and package truth plus received tensor."""
    master = cfg.seed if master_seed is None else master_seed
    design, channels, symbols, received = draw_scenario(
        cfg, derive_seed(master, "scenario", 0, 0))
    return {
        "kind": FIXTURE_KIND,
        "version": FIXTURE_VERSION,
        "config": cfg.to_mapping(),
        "design": {
            "scattering": encode_array(design.s),
            "rotation": encode_array(design.p),
            "coding": encode_array(design.w),
        },
        "channels": {
            "ris_bs": encode_array(channels.h),
            "ut_ris": [encode_array(gi) for gi in channels.g],
        },
        "symbols": {"x": encode_array(symbols.x)},
        "received_noiseless": encode_array(received.y),
    }


def load_fixture(obj_or_path):
    """Rebuild (cfg, design, channels, symbols, received, recorded_tensor)."""
    if isinstance(obj_or_path, (str, bytes)) or hasattr(obj_or_path, "__fspath__"):
        with open(obj_or_path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    else:
        obj = obj_or_path
    if not isinstance(obj, dict) or obj.get("kind") != FIXTURE_KIND:
        raise ValueError("not a fixture document")
    if obj.get("version") != FIXTURE_VERSION:
        raise ValueError(f"fixture version {obj.get('version')!r} is not "
                         f"{FIXTURE_VERSION}")
    try:
        cfg = SystemConfig.from_mapping(obj["config"])
        s = decode_array(obj["design"]["scattering"])
        p = decode_array(obj["design"]["rotation"])
        w = decode_array(obj["design"]["coding"])
        h = decode_array(obj["channels"]["ris_bs"])
        g = np.stack([decode_array(gi) for gi in obj["channels"]["ut_ris"]])
        x = decode_array(obj["symbols"]["x"])
        recorded = decode_array(obj["received_noiseless"])
    except (KeyError, TypeError, AttributeError) as err:
        raise ValueError(f"malformed fixture document: {err!r}") from err
    design = ScatteringDesign(s=s, p=p, w=w, psi=khatri_rao(w.T, p.T).T)
    channels = ChannelSet(h=h, g=g)
    symbols = SymbolBlock(x=x, alphabet=psk_alphabet(cfg.modulation_order))
    received = synthesize_received(channels, design, symbols)
    return cfg, design, channels, symbols, received, recorded


def write_fixture(path, fixture: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
