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
import numbers
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


def snr_in_range(snr_db) -> bool:
    """Whether ``snr_db`` is ``+inf`` (noiseless), or finite with a power
    ratio ``10**(snr_db/10)`` that is a finite, nonzero float."""
    try:
        return snr_db == math.inf or 10.0 ** (float(snr_db) / 10.0) > 0.0
    except OverflowError:
        return False


def _store_typed(obj, prefix="") -> None:
    """Store each field of a frozen config as its declared type, else raise
    ``ConfigError``: an ``int`` field takes what ``operator.index`` takes
    (numpy integers pass), a ``float`` field any real number, neither takes
    a bool, and any other field but ``snr_db`` takes an instance of its
    type.  Equal configs then have equal ``repr``s, so they derive equal
    seeds."""
    for f in dataclasses.fields(obj):
        if f.name == "snr_db":  # a sequence, converted by SystemConfig
            continue
        value = getattr(obj, f.name)
        try:
            if isinstance(value, bool) and f.type is not bool:
                raise TypeError
            if f.type is int:
                value = operator.index(value)
            elif f.type is float and isinstance(value, numbers.Real):
                value = float(value)
            elif not isinstance(value, f.type):
                raise TypeError
        except (TypeError, OverflowError):
            kind = {int: "an integer", float: "a real number"}.get(
                f.type, f"a {f.type.__name__}")
            raise ConfigError(f"{prefix}{f.name} must be {kind}, "
                              f"got {value!r}") from None
        object.__setattr__(obj, f.name, value)


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the alternating-least-squares receivers."""

    delta: float = 1e-6          # stop when the normalized fit moves by no more
                                 # than this (or, for pakron, 1e-3 times the fit)
    max_iters: int = 500
    init_seed: int = 0
    structure_projection: bool = True  # pin the two-stage receiver's mixed factor
    pinv_tol: float = DEFAULT_PINV_TOL

    def __post_init__(self):
        _store_typed(self, "solver.")
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
        # stored as the declared types (and a tuple of float SNRs), so that a
        # config is hashable and equal to its to_mapping/from_mapping round trip
        _store_typed(self)
        for name in ("tx_antennas", "rx_antennas", "ris_elements", "groups",
                     "blocks", "slots", "frames", "paths"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        try:
            values = tuple(self.snr_db)
            if any(isinstance(v, bool) for v in values):
                raise TypeError
            object.__setattr__(self, "snr_db", tuple(map(float, values)))
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
        if not all(map(snr_in_range, self.snr_db)):
            raise ConfigError("snr_db values must be finite, with a finite nonzero "
                              "power ratio 10**(snr_db/10), or inf (noiseless)")

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
        types = {f.name: f.type for f in dataclasses.fields(cls) if f.name != "solver"}
        types.update((f"solver.{f.name}", f.type) for f in dataclasses.fields(SolverOptions))
        kwargs, solver_kwargs = {}, {}
        for key, raw in mapping.items():
            if key not in types:
                raise ConfigError(f"unknown config key: {key}")
            prefix, _, name = key.rpartition(".")
            (solver_kwargs if prefix else kwargs)[name] = _coerce(key, raw, types[key])
        return cls(**kwargs, solver=SolverOptions(**solver_kwargs))


def _coerce(key, raw, typ):
    """Parse a string config value to its field's type; any other value goes
    to the constructor as it is, which converts and checks it by the field's
    declared type.  An ``snr_db`` string is only split."""
    if not isinstance(raw, str):
        return raw
    if key == "snr_db":
        return raw.replace(",", " ").split()
    s = raw.strip()
    try:
        if typ is int:
            return int(s)
        if typ is float:
            return float(s)
        if typ is bool:
            if s.lower() in ("true", "1", "yes", "on"):
                return True
            if s.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(s)
        return s
    except ValueError as err:
        raise ConfigError(f"bad value for {key}: {raw!r}") from err


def _split(item, where) -> tuple:
    """``(key, value)`` of one ``key = value`` item, both stripped."""
    key, sep, value = item.partition("=")
    if not sep or not key.strip():
        raise ConfigError(f"{where}: expected 'key = value', got {item!r}")
    return key.strip(), value.strip()


def parse_config_file(path) -> dict:
    """Read a flat ``key = value`` file; '#' starts a comment, blanks ignored."""
    mapping = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, value = _split(line, f"{path}:{lineno}")
                if key in mapping:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
                mapping[key] = value
    except OSError as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return mapping


def load_config(path=None, overrides=()) -> SystemConfig:
    """The config of an optional ``key = value`` file, with each
    ``key=value`` override string applied after it."""
    mapping = parse_config_file(path) if path else {}
    mapping.update(_split(item, "override") for item in overrides)
    return SystemConfig.from_mapping(mapping)
