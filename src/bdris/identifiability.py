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

import operator

from .config import SystemConfig
from .receivers import RECEIVERS, dims_product, require_feasible


def kmin_bounds(cfg: SystemConfig) -> dict:
    """Minimum number of blocks for LS-unique updates, ``kmin_<name>`` per
    receiver with inequalities, and their rows under ``"inequalities"``."""
    report = {"inequalities": {}}
    dims = vars(cfg)  # the inequalities name fields of cfg
    for entry in RECEIVERS.values():
        if not entry.inequalities:
            continue
        kmin = 0
        for lhs, rhs in entry.inequalities:
            left, right = dims_product(lhs, dims), dims_product(rhs, dims)
            # left is blocks times the rest: blocks >= ceil(right / rest)
            kmin = max(kmin, -(-right * dims["blocks"] // left))
            report["inequalities"][f"{entry.name}: {lhs} >= {rhs}"] = {
                "lhs": left, "rhs": right, "ok": left >= right}
        report[f"kmin_{entry.name}"] = kmin
    return report


def kruskal_check(cfg: SystemConfig, rank_h: int | None = None) -> dict:
    """Sufficient uniqueness condition for the two-stage receiver's stage I.

    Returns ``kruskal_ok`` for ``kruskal_lhs = K + slots*rank(H) + min(frames,
    d) >= kruskal_rhs = 2d + 2``, with ``d = tx_antennas*ris_elements`` and
    ``rank(H) = min(rx_antennas, ris_elements)`` for generic fading (a
    deficient ``rank_h``, e.g. 1 under pure line of sight, replaces that
    term), and the condition's row under ``"inequalities"``, whose ``ok`` is
    the additive bound alone.  In the deficient case with ``frames >= d`` the
    stacked per-frame factor has full column rank, which restores uniqueness
    regardless of the additive bound; this is reported via
    ``rank_deficient_override`` and counts in ``kruskal_ok``.  A ``rank_h`` that
    ``operator.index`` refuses, a bool, or one outside ``1 ..
    min(rx_antennas, ris_elements)`` raises ``ValueError``.
    """
    mt, mr, n = cfg.tx_antennas, cfg.rx_antennas, cfg.ris_elements
    t, ni, k = cfg.slots, cfg.frames, cfg.blocks
    d = mt * n
    full = min(mr, n)
    try:
        rank = full if rank_h is None else operator.index(rank_h)
    except TypeError:
        rank = None
    if isinstance(rank_h, bool) or rank is None or not 1 <= rank <= full:
        raise ValueError(f"rank_h must be in 1..{full} = min(rx_antennas, "
                         f"ris_elements), got {rank_h!r}")
    lhs, rhs = k + t * rank + min(ni, d), 2 * d + 2
    # a deficient static-channel rank plus enough frames makes the trilinear
    # stage unique even though the additive bound alone fails
    override = rank < full and ni >= d and lhs < rhs
    ok = lhs >= rhs
    return {"kruskal_lhs": lhs, "kruskal_rhs": rhs, "kruskal_ok": ok or override,
            "rank_deficient_override": override,
            "inequalities": {"kruskal sum >= 2*tx_antennas*ris_elements + 2": {
                "lhs": lhs, "rhs": rhs, "ok": ok}}}


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


def full_report(cfg: SystemConfig, rank_h: int | None = None) -> dict:
    """``check``'s report: :func:`kmin_bounds` and :func:`kruskal_check`, with
    the rows of both under ``"inequalities"``."""
    bounds, kruskal = kmin_bounds(cfg), kruskal_check(cfg, rank_h)
    return {**bounds, **kruskal,
            "inequalities": {**bounds["inequalities"], **kruskal["inequalities"]}}


def check_feasible(cfg: SystemConfig, receiver: str) -> None:
    """Raise IdentifiabilityError when the receiver's LS bounds fail."""
    require_feasible(receiver, vars(cfg))
