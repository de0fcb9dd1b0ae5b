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
    is_unitary,
    psk_alphabet,
    synthesize_received,
)

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
    dims, data = obj["dims"], obj["data"]
    if not all(type(d) is int and d >= 0 for d in dims):
        raise ValueError("fixture array dims must be non-negative integers")
    if not all(type(v) in (int, float) for v in data):
        raise ValueError("fixture array data must be one flat list of numbers")
    data = np.asarray(data, dtype=float)
    if data.size != 2 * int(np.prod(dims)):
        raise ValueError("interleaved data length does not match dims")
    if not np.all(np.isfinite(data)):
        raise ValueError("fixture array has non-finite entries")
    flat = data[0::2] + 1j * data[1::2]
    return flat.reshape(dims, order="F")


def make_fixture(cfg: SystemConfig) -> dict:
    """Draw one noiseless instance and package truth plus received tensor."""
    design, channels, symbols, received = draw_scenario(
        cfg, derive_seed(cfg.seed, "scenario", 0, 0))
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


def _check_described(cfg: SystemConfig, arrays: dict) -> None:
    """``ValueError`` unless every array has the shape ``cfg`` gives it and
    every symbol is a point of ``cfg``'s alphabet, so the receivers' alphabet
    and solver come from a config that describes the instance."""
    mt, mr, n = cfg.tx_antennas, cfg.rx_antennas, cfg.ris_elements
    k, slots, frames = cfg.blocks, cfg.slots, cfg.frames
    shapes = {"scattering": (n, n), "rotation": (k, n), "coding": (k, mt),
              "ris_bs": (mr, n), "ut_ris": (frames, n, mt), "x": (slots, mt),
              "received_noiseless": (mr, slots, k, frames)}
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(f"fixture's {name} array has shape "
                             f"{arrays[name].shape}; its config describes {shape}")
    alphabet = psk_alphabet(cfg.modulation_order)
    if np.any(np.min(np.abs(arrays["x"][..., None] - alphabet), axis=-1) > 1e-12):
        raise ValueError(f"fixture's symbols are not points of its config's "
                         f"{cfg.modulation_order}-PSK alphabet")


def load_fixture(obj_or_path):
    """Rebuild (cfg, design, channels, symbols, received, recorded_tensor);
    ``ValueError`` unless the config describes the arrays (their shapes and
    the symbols' alphabet), the design passes a drawn one's checks (full-rank
    ``psi``, unitary scattering matrix) and neither channel nor the recorded
    tensor is all zero, which would leave nothing to estimate."""
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
    arrays = dict(scattering=s, rotation=p, coding=w, ris_bs=h, ut_ris=g, x=x,
                  received_noiseless=recorded)
    _check_described(cfg, arrays)
    for name in ("ris_bs", "ut_ris", "received_noiseless"):
        if not arrays[name].any():
            raise ValueError(f"fixture's {name} array is all zero")
    design = ScatteringDesign(s=s, p=p, w=w)
    if not is_unitary(s):
        raise ValueError("fixture's scattering matrix is not unitary")
    channels = ChannelSet(h=h, g=g)
    symbols = SymbolBlock(x=x, alphabet=psk_alphabet(cfg.modulation_order))
    received = synthesize_received(channels, design, symbols)
    return cfg, design, channels, symbols, received, recorded


def write_fixture(path, fixture: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1, sort_keys=True)
        fh.write("\n")
