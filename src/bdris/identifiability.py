"""Closed-form feasibility checks and per-iteration cost estimates.

These gate experiment configurations before any data is generated: each
receiver's alternating updates are unique in the LS sense only when its
mixing matrices have full rank, which translates into ceiling bounds on the
number of blocks.  These LS inequalities are necessary, not sufficient: at
the default dimensions with ``blocks = 16`` (``frames*blocks`` equal to
``tx_antennas*ris_elements``) ``pakron`` passes them, but its stage I is
exactly determined and fits the noise; on default-config trials at 30 dB its
median channel NMSE stayed above 0.5 up to 18 blocks.  A
sufficient uniqueness condition for the two-stage receiver's trilinear stage
is also evaluated in its parameterized form.
"""

import math
from dataclasses import asdict, dataclass, field

from .config import SystemConfig
from .errors import IdentifiabilityError

# Per receiver, the (lhs, rhs) products of system dimensions whose
# ``lhs >= rhs`` makes each alternating update's mixing matrix full rank.
# Every left-hand side holds ``blocks`` once, which gives the kmin bounds.
INEQUALITIES = {
    "pakron": (("frames*blocks", "tx_antennas*ris_elements"),
               ("blocks*slots*rx_antennas", "tx_antennas*ris_elements")),
    "tucker": (("frames*blocks*slots", "ris_elements"),
               ("frames*blocks*rx_antennas", "tx_antennas"),
               ("blocks*slots*rx_antennas", "tx_antennas*ris_elements")),
}


@dataclass
class IdentReport:
    kmin_pakron: int = 0
    kmin_tucker: int = 0
    kruskal_lhs: int = 0
    kruskal_rhs: int = 0
    kruskal_ok: bool = False
    # set when a deficient static-channel rank plus enough frames makes the
    # trilinear stage unique even though the additive bound alone fails
    rank_deficient_override: bool = False
    inequalities: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _product(expr: str, dims: dict) -> int:
    return math.prod(dims[name] for name in expr.split("*"))


def dims_of(cfg: SystemConfig) -> dict:
    """The system dimensions the inequalities name, read from ``cfg``."""
    return {name: getattr(cfg, name) for name in ("tx_antennas", "rx_antennas",
            "ris_elements", "blocks", "slots", "frames")}


def require_feasible(receiver: str, dims: dict) -> None:
    """Raise IdentifiabilityError for the first of the receiver's inequalities
    that ``dims`` violates; receivers without any pass."""
    for lhs, rhs in INEQUALITIES.get(receiver, ()):
        left, right = _product(lhs, dims), _product(rhs, dims)
        if left < right:
            raise IdentifiabilityError(f"{lhs} >= {rhs}", left, right)


def kmin_bounds(cfg: SystemConfig, report: IdentReport | None = None) -> IdentReport:
    """Minimum number of blocks for LS-unique updates, per receiver."""
    report = report or IdentReport()
    dims = dims_of(cfg)
    for receiver, table in INEQUALITIES.items():
        kmin = 0
        for lhs, rhs in table:
            left, right = _product(lhs, dims), _product(rhs, dims)
            # left is blocks times the rest: blocks >= ceil(right / rest)
            kmin = max(kmin, -(-right * dims["blocks"] // left))
            report.inequalities[f"{receiver}: {lhs} >= {rhs}"] = {
                "lhs": left, "rhs": right, "ok": left >= right}
        setattr(report, f"kmin_{receiver}", kmin)
    return report


def kruskal_check(cfg: SystemConfig, rank_h: int | None = None,
                  report: IdentReport | None = None) -> IdentReport:
    """Sufficient uniqueness condition for the two-stage receiver's stage I.

    Evaluates ``K + slots*rank(H) + min(frames, d) >= 2d + 2`` with
    ``d = tx_antennas*ris_elements`` and ``rank(H) = min(rx_antennas,
    ris_elements)`` for generic fading; a deficient ``rank_h`` (e.g. 1 under
    pure line of sight) replaces that term.  In the deficient case with
    ``frames >= d`` the stacked per-frame factor has full column rank, which
    restores uniqueness regardless of the additive bound; this is reported
    via ``rank_deficient_override``.  A ``rank_h`` outside ``1 ..
    min(rx_antennas, ris_elements)`` raises ``ValueError``.
    """
    report = report or IdentReport()
    mt, mr, n = cfg.tx_antennas, cfg.rx_antennas, cfg.ris_elements
    t, ni, k = cfg.slots, cfg.frames, cfg.blocks
    d = mt * n
    full = min(mr, n)
    rank = full if rank_h is None else int(rank_h)
    if not 1 <= rank <= full:
        raise ValueError(f"rank_h must be in 1..{full} = min(rx_antennas, "
                         f"ris_elements), got {rank}")
    report.kruskal_lhs = k + t * rank + min(ni, d)
    report.kruskal_rhs = 2 * d + 2
    report.kruskal_ok = report.kruskal_lhs >= report.kruskal_rhs
    if rank < full and ni >= d and not report.kruskal_ok:
        report.kruskal_ok = True
        report.rank_deficient_override = True
    report.inequalities["kruskal sum >= 2*tx_antennas*ris_elements + 2"] = {
        "lhs": report.kruskal_lhs, "rhs": report.kruskal_rhs,
        "ok": report.kruskal_ok,
    }
    return report


def complexity_dominant(cfg: SystemConfig) -> dict:
    """Dominant per-iteration flop terms of both receivers, for the benchmark's
    report only: measured sweep cost grows 3.5-3.9x per doubling of d, not 8x."""
    mt, mr, n = cfg.tx_antennas, cfg.rx_antennas, cfg.ris_elements
    t, ni, k = cfg.slots, cfg.frames, cfg.blocks
    d = mt * n
    return {
        "pakron": max(d * d * ni * k, d * d * k * t * mr, d * t * mr),
        "tucker": max(n * n * ni * k * t, ni * k * mr * mt * mt,
                      k * t * mr * d * d),
    }


def full_report(cfg: SystemConfig, rank_h: int | None = None) -> IdentReport:
    report = kmin_bounds(cfg)
    return kruskal_check(cfg, rank_h=rank_h, report=report)


def check_feasible(cfg: SystemConfig, receiver: str) -> None:
    """Raise IdentifiabilityError when the receiver's LS bounds fail."""
    require_feasible(receiver, dims_of(cfg))
