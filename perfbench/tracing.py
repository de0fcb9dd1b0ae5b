"""Outside-in trace: spans around calls into each ``bdris`` layer.

The traced run does not call ``run_trial``.  It rebuilds a trial from the
public functions of ``signal``, ``receivers`` and ``experiments`` and times
each call from here; ``pinv``, ``khatri_rao`` and ``best_rank1`` (called
inside the receivers) are timed through wrappers that :func:`wrapped_kernels`
installs on the ``receivers``/``tensor_ops`` module attributes and removes
again on exit.  The caller compares every rebuilt trial with ``run_trial``,
so the recomposition cannot drift from the program unnoticed.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from bdris import receivers, tensor_ops
from bdris.config import derive_seed
from bdris.experiments import TrialResult, nmse_aligned, ser
from bdris.receivers import (
    ReceiverOutput,
    hard_decisions,
    kron_factorize,
    pakron_stage1,
    resolve_and_detect,
    tucker_tals,
    zf_perfect_csi,
)
from bdris.signal import (
    add_noise,
    design_scattering,
    gen_channels,
    gen_symbols,
    reshape_views,
    synthesize_received,
)

# (module, attribute, span name) of the kernels timed from inside receivers
KERNELS = (
    (receivers, "pinv", "tensor_ops.pinv"),
    (receivers, "khatri_rao", "tensor_ops.khatri_rao"),
    (receivers, "best_rank1", "tensor_ops.best_rank1"),
    (tensor_ops, "best_rank1", "tensor_ops.best_rank1"),  # via nearest_kronecker
)

RECEIVER_SPANS = ("receivers.pakron_stage1", "receivers.tucker_tals",
                  "receivers.kron_factorize", "receivers.resolve_and_detect",
                  "receivers.zf_perfect_csi")


@dataclass
class Span:
    name: str
    trial: int
    parent: int      # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)  # shape, sweeps, converged, core_bytes

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; ``trial`` tags the spans of one trial."""

    def __init__(self):
        self.spans = []
        self.trial = -1
        self._open = []

    @contextmanager
    def span(self, name):
        record = Span(name, self.trial, self._open[-1] if self._open else -1,
                      time.perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = time.perf_counter()

    def wrap(self, fn, name):
        def traced(a, *args, **kwargs):
            with self.span(name) as record:
                record.info["shape"] = getattr(a, "shape", ())
                return fn(a, *args, **kwargs)
        traced.original = fn
        return traced

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]


@contextmanager
def wrapped_kernels(tracer: Tracer):
    """Install kernel wrappers for the duration of the block, then restore."""
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in KERNELS]
    try:
        for mod, attr, name in KERNELS:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name))
        yield
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


def kernels_restored() -> bool:
    return (receivers.pinv is tensor_ops.pinv
            and receivers.khatri_rao is tensor_ops.khatri_rao
            and receivers.best_rank1 is tensor_ops.best_rank1
            and not hasattr(tensor_ops.best_rank1, "original"))


def traced_trial(tracer: Tracer, cfg, receiver, snr_db, snr_index=0,
                 trial_index=0) -> TrialResult:
    """``run_trial(cfg, receiver, snr_db, snr_index, trial_index)`` rebuilt
    from its public parts, one span per call."""
    span = tracer.span
    master = cfg.seed
    scenario_seed = derive_seed(master, "scenario", snr_index, trial_index)
    with span("signal.design_scattering"):
        design = design_scattering(cfg, derive_seed(scenario_seed, "design"))
    with span("signal.gen_channels"):
        channels = gen_channels(cfg, derive_seed(scenario_seed, "channels"))
    with span("signal.gen_symbols"):
        symbols = gen_symbols(cfg, derive_seed(scenario_seed, "symbols"))
    with span("signal.synthesize_received"):
        received = synthesize_received(channels, design, symbols)
    with span("signal.add_noise"):
        received = add_noise(received, snr_db, derive_seed(scenario_seed, "noise"))
    init_seed = derive_seed(master, "init", receiver, snr_index, trial_index,
                            cfg.solver.init_seed)
    alphabet = symbols.alphabet

    if receiver == "zf-oracle":
        with span("receivers.zf_perfect_csi") as rx_span:
            x_hat = zf_perfect_csi(received, channels, design, cfg.solver.pinv_tol)
        detected = alphabet[hard_decisions(x_hat, alphabet)]
        with span("experiments.ser"):
            error_rate = ser(symbols, detected)
        return TrialResult(seed=scenario_seed, snr_db=snr_db, receiver=receiver,
                           nmse_h=0.0, nmse_g=0.0, ser=error_rate, iterations=0,
                           wall_ms=rx_span.seconds * 1e3)

    t0 = time.perf_counter()
    with span("signal.reshape_views") as views_span:
        views = reshape_views(received, design)
    views_span.info["core_bytes"] = views.core.nbytes
    if receiver == "pakron":
        mr, slots = received.y.shape[:2]
        n = design.s.shape[0]
        mt = design.psi.shape[1] // n
        with span("receivers.pakron_stage1") as stage:
            stage1 = pakron_stage1(views.z, design.psi, (slots, mt), (mr, n),
                                   cfg.solver, init_seed)
        stage.info.update(sweeps=stage1.iterations, converged=stage1.converged)
        with span("receivers.kron_factorize"):
            x_raw, h_hat = kron_factorize(stage1.omega, design.s, slots, mr)
        out = ReceiverOutput(h_hat=h_hat, hs_hat=h_hat @ design.s,
                             gbar_hat=stage1.gbar, x_hat=x_raw, x_detected=None,
                             iterations=stage1.iterations,
                             residual_trajectory=stage1.trajectory,
                             converged=stage1.converged, final_fit=stage1.fit)
    else:
        with span("receivers.tucker_tals") as stage:
            f, x_raw, gbar, trajectory, converged = tucker_tals(
                views.q4, views.core, design.psi, cfg.solver, init_seed)
        stage.info.update(sweeps=len(trajectory), converged=converged)
        out = ReceiverOutput(h_hat=f @ design.s.conj().T, hs_hat=f, gbar_hat=gbar,
                             x_hat=x_raw, x_detected=None,
                             iterations=len(trajectory),
                             residual_trajectory=trajectory,
                             converged=converged, final_fit=trajectory[-1])
    with span("receivers.resolve_and_detect"):
        out = resolve_and_detect(out, alphabet)
    wall = time.perf_counter() - t0

    hs_true = channels.h @ design.s
    with span("experiments.nmse_aligned"):
        nmse_h = nmse_aligned(hs_true, out.hs_hat, "per-column")
    with span("experiments.nmse_aligned"):
        nmse_g = nmse_aligned(channels.gbar, out.gbar_hat, "per-column")
    with span("experiments.ser"):
        error_rate = ser(symbols, out.x_detected)
    return TrialResult(seed=scenario_seed, snr_db=snr_db, receiver=receiver,
                       nmse_h=nmse_h, nmse_g=nmse_g, ser=error_rate,
                       iterations=out.iterations, wall_ms=wall * 1e3)
