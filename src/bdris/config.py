"""Scenario configuration: system dimensions, SNR grid, modulation, seeds and
solver knobs, plus the flat ``key = value`` config-file format used by the CLI.

Dimension vocabulary (uplink, surface-assisted MIMO):

* ``tx_antennas``   - antennas at the user terminal (streams per slot)
* ``rx_antennas``   - antennas at the base station
* ``ris_elements``  - scattering elements on the surface
* ``groups``        - fully connected element groups (block size is
  ``ris_elements // groups``)
* ``blocks``        - surface/coding configurations per frame
* ``slots``         - symbol slots per block
* ``frames``        - frames; the terminal-to-surface channel changes per frame
"""

import dataclasses
import hashlib
import math
import operator
from dataclasses import dataclass, field

from .errors import ConfigError
from .tensor_ops import DEFAULT_PINV_TOL

CHANNEL_MODELS = ("rayleigh", "geometric")
PHASE_DESIGNS = ("random", "dft")


def derive_seed(*parts) -> int:
    """Stable 64-bit seed derived from arbitrary hashable parts.

    Used to spawn independent, reproducible RNG streams (per trial, per
    component) from one master seed.
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def _store_ints(obj, names) -> None:
    """Store each named field of a frozen dataclass as the ``int`` of
    ``operator.index`` (numpy integers pass), else raise ``ConfigError``: equal
    configs then have equal ``repr``s, so they derive equal seeds."""
    for name in names:
        try:
            value = operator.index(getattr(obj, name))
        except TypeError:
            raise ConfigError(f"{name} must be an integer, "
                              f"got {getattr(obj, name)!r}") from None
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the alternating-least-squares receivers."""

    delta: float = 1e-6          # stop when the normalized fit moves by no more
                                 # than this (or, for pakron, 1e-4 times the fit)
    max_iters: int = 500
    init_seed: int = 0
    structure_projection: bool = True  # pin the two-stage receiver's mixed factor
    pinv_tol: float = DEFAULT_PINV_TOL

    def __post_init__(self):
        _store_ints(self, ("max_iters", "init_seed"))
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ConfigError("solver.delta must be finite and nonnegative")
        if not 0 <= self.pinv_tol < 1:  # also true for NaN
            raise ConfigError("solver.pinv_tol must be in [0, 1)")
        if self.max_iters < 1:
            raise ConfigError("solver.max_iters must be at least 1")


@dataclass(frozen=True)
class SystemConfig:
    tx_antennas: int = 2
    rx_antennas: int = 4
    ris_elements: int = 16
    groups: int = 2
    blocks: int = 32
    slots: int = 4
    frames: int = 2
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    modulation_order: int = 4
    channel_model: str = "rayleigh"
    paths: int = 3               # geometric model only
    phase_design: str = "random"
    seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        # stored normalised (int counts and seed, a tuple of float SNRs), so that
        # a config is hashable and equal to its to_mapping/from_mapping round trip
        dims = ("tx_antennas", "rx_antennas", "ris_elements", "groups",
                "blocks", "slots", "frames")
        _store_ints(self, dims + ("modulation_order", "paths", "seed"))
        for name in dims:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        try:
            object.__setattr__(self, "snr_db", tuple(float(v) for v in self.snr_db))
        except (TypeError, ValueError):
            raise ConfigError(f"snr_db must be a sequence of numbers, "
                              f"got {self.snr_db!r}") from None
        if not self.snr_db:
            raise ConfigError("snr_db must contain at least one value")
        if self.ris_elements % self.groups != 0:
            raise ConfigError(
                f"groups ({self.groups}) must divide ris_elements ({self.ris_elements})"
            )
        if self.slots < self.tx_antennas:
            raise ConfigError(
                f"slots ({self.slots}) must be at least tx_antennas ({self.tx_antennas})"
            )
        m = self.modulation_order
        if m < 2 or (m & (m - 1)) != 0:
            raise ConfigError("modulation_order must be a power of two >= 2")
        if self.channel_model not in CHANNEL_MODELS:
            raise ConfigError(f"channel_model must be one of {CHANNEL_MODELS}")
        if self.phase_design not in PHASE_DESIGNS:
            raise ConfigError(f"phase_design must be one of {PHASE_DESIGNS}")
        if self.paths < 1:
            raise ConfigError("paths must be a positive integer")
        if not all(math.isfinite(v) or v == math.inf for v in self.snr_db):
            raise ConfigError("snr_db values must be finite or inf (noiseless)")
        if not isinstance(self.solver, SolverOptions):
            raise ConfigError(f"solver must be a SolverOptions, got {self.solver!r}")

    @property
    def tx_ris_dim(self) -> int:
        """Length of the vectorized per-frame terminal-to-surface channel."""
        return self.tx_antennas * self.ris_elements

    def to_mapping(self) -> dict:
        """Flat, JSON-serializable snapshot; inverse of :meth:`from_mapping`."""
        out = dataclasses.asdict(self)
        out["snr_db"] = list(self.snr_db)
        out.update((f"solver.{k}", v) for k, v in out.pop("solver").items())
        return out

    @classmethod
    def from_mapping(cls, mapping) -> "SystemConfig":
        """Build a config from a flat string/value mapping, rejecting unknown keys."""
        top = {f.name: f for f in dataclasses.fields(cls) if f.name != "solver"}
        solver_fields = {f.name: f for f in dataclasses.fields(SolverOptions)}
        kwargs = {}
        solver_kwargs = {}
        for key, raw in mapping.items():
            if key.startswith("solver."):
                name = key[len("solver."):]
                if name not in solver_fields:
                    raise ConfigError(f"unknown config key: {key}")
                solver_kwargs[name] = _coerce(key, raw, solver_fields[name].type)
            elif key in top:
                kwargs[key] = _coerce(key, raw, top[key].type)
            else:
                raise ConfigError(f"unknown config key: {key}")
        kwargs["solver"] = SolverOptions(**solver_kwargs)
        return cls(**kwargs)


def _coerce(key, raw, typ):
    """Parse a raw config value (string or already-typed) to the field type;
    an ``snr_db`` string is only split, since the config converts and checks
    its values."""
    if key == "snr_db":
        return raw if isinstance(raw, (list, tuple)) else str(raw).replace(",", " ").split()
    try:
        if typ is int:
            # a typed value is left to the constructor's integer check, so a
            # float is rejected, not truncated
            return int(raw.strip()) if isinstance(raw, str) else raw
        if typ is float:
            return float(raw)
        if typ is bool:
            if isinstance(raw, bool):
                return raw
            s = str(raw).strip().lower()
            if s in ("true", "1", "yes", "on"):
                return True
            if s in ("false", "0", "no", "off"):
                return False
            raise ValueError(s)
        return str(raw).strip()
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad value for {key}: {raw!r}") from err


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` file; '#' starts a comment, blanks ignored."""
    mapping = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                key = key.strip()
                if not key:
                    raise ConfigError(f"{path}:{lineno}: empty key")
                if key in mapping:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
                mapping[key] = value.strip()
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return mapping


def apply_overrides(mapping, overrides) -> dict:
    """Apply ``key=value`` override strings on top of a parsed mapping."""
    out = dict(mapping)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def load_config(path=None, overrides=()) -> SystemConfig:
    mapping = parse_config_file(path) if path else {}
    mapping = apply_overrides(mapping, overrides)
    return SystemConfig.from_mapping(mapping)
