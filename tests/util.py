"""Shared helpers for the test suite: instance drawing, loop oracles and the
tensor, signal and CSV helpers that only tests use."""

import csv
import dataclasses

import numpy as np

from bdris.config import SolverOptions, SystemConfig
from bdris.experiments import TrialFailure, TrialResult
from bdris.receivers import RECEIVERS
from bdris.signal import ChannelSet, ScatteringDesign, SymbolBlock, draw_scenario
from bdris.tensor_ops import (best_rank1, khatri_rao, kron, kron_rearrange, pinv,
                              solve_grams, unfold)


def desk_config(**overrides) -> SystemConfig:
    """Small feasible configuration used across receiver tests."""
    base = dict(tx_antennas=2, rx_antennas=4, ris_elements=4, groups=2,
                blocks=8, slots=4, frames=4, snr_db=(10.0,),
                modulation_order=4, seed=0)
    base.update(overrides)
    return SystemConfig(**base)


def tight_solver(max_iters=500, structure_projection=True) -> SolverOptions:
    return SolverOptions(delta=1e-15, max_iters=max_iters,
                         structure_projection=structure_projection)


def draw_instance(cfg: SystemConfig, seed: int):
    """Deterministic (design, channels, symbols, received) tuple."""
    return draw_scenario(cfg, seed)


def vec(a):
    """Stack the columns of a matrix (or flatten a tensor, first mode fastest)."""
    return np.ravel(a, order="F")


def unvec(v, rows, cols):
    """The matrix whose stacked columns are ``v``."""
    return np.reshape(v, (rows, cols), order="F")


def loop_oracle(cfg: SystemConfig, design, channels, symbols) -> np.ndarray:
    """Brute-force synthesis: explicit loop over (group, slot, block, frame)."""
    y = np.zeros((cfg.rx_antennas, cfg.slots, cfg.blocks, cfg.frames),
                 dtype=complex)
    nbar = cfg.ris_elements // cfg.groups
    for q in range(cfg.groups):
        sl = slice(q * nbar, (q + 1) * nbar)
        hq = channels.h[:, sl]
        s0q = design.s[sl, sl]
        for i in range(cfg.frames):
            giq = channels.g[i][sl, :]
            for k in range(cfg.blocks):
                m = (hq @ s0q @ np.diag(design.p[k, sl]) @ giq
                     @ np.diag(design.w[k]))
                for t in range(cfg.slots):
                    y[:, t, k, i] += m @ symbols.x[t, :]
    return y


def trilinear_oracle(a, b, c) -> np.ndarray:
    """Explicit rank-one-sum tensor: T[i,j,k] = sum_r a[i,r] b[j,r] c[k,r]."""
    out = np.zeros((a.shape[0], b.shape[0], c.shape[0]), dtype=complex)
    for r in range(a.shape[1]):
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                for k in range(c.shape[0]):
                    out[i, j, k] += a[i, r] * b[j, r] * c[k, r]
    return out


def count_calls(mp, module, name):
    """Patch ``module.name`` (with the monkeypatch ``mp``) to log each call
    into the returned list."""
    calls = []
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    mp.setattr(module, name, counting)
    return calls


def patch_entry(mp, receiver, **fields):
    """Replace fields of ``receiver``'s entry of ``receivers.RECEIVERS`` (with
    the monkeypatch ``mp``)."""
    mp.setitem(RECEIVERS, receiver, dataclasses.replace(RECEIVERS[receiver], **fields))


def rel_err(actual, expected) -> float:
    denom = np.linalg.norm(expected)
    if denom == 0:
        return float(np.linalg.norm(actual))
    return float(np.linalg.norm(np.asarray(actual) - np.asarray(expected)) / denom)


def solve_gram(rhs, gram, tol, cond_bound=None):
    """``solve_grams`` on a stack of one Gram: ``rhs @ inv(gram)``, or
    ``None`` when the Gram is not trusted."""
    bound = None if cond_bound is None else [cond_bound]
    x, trusted = solve_grams(rhs[None], gram[None], tol, bound)
    return x[0] if trusted[0] else None


def solve_rows(z, m, tol):
    """``z @ pinv(m, tol)`` for a wide ``m``, from the explicit normal
    equations ``x @ (m @ m^H) = z @ m^H`` by ``solve_gram``, else by
    ``pinv``."""
    m = np.asarray(m)
    mh = m.conj().T
    x = solve_gram(z @ mh, m @ mh, tol)
    return z @ pinv(m, tol) if x is None else x


def kron_split_explicit(omega, s, slots, rx_antennas):
    """Split ``kron(X, H @ S)`` into ``(X, H)`` by the rank-1 fit of the
    Kronecker rearrangement of ``omega @ kron(I, S^H)``, with the unitary
    factor removed by an explicit product."""
    n = s.shape[0]
    mt = omega.shape[1] // n
    delta = omega @ kron(np.eye(mt), s.conj().T)
    u, v, sigma = best_rank1(kron_rearrange(delta, (slots, mt), (rx_antennas, n)))
    root = np.sqrt(sigma)
    return unvec(root * u, slots, mt), unvec(root * v.conj(), rx_antennas, n)


def tucker_mixing(mode, f, x, psi, gbar):
    """Mixing matrix of mode 0, 1 or 3 of the fourth-order view:
    ``unfold(q4, 0) == f @ v``, ``unfold(q4, 1) == x @ v`` or
    ``unfold(q4, 3) == gbar @ v``.  The selection structure of the core
    reduces ``unfold(core x2 X x3 psi x4 gbar, 0)`` etc. to these
    contractions."""
    mt = x.shape[1]
    n = psi.shape[1] // mt
    psi3 = np.reshape(psi, (psi.shape[0], n, mt), order="F")
    g3 = np.reshape(gbar, (gbar.shape[0], n, mt), order="F")
    if mode == 0:
        return np.einsum("tm,knm,inm->ntki", x, psi3, g3).reshape(n, -1, order="F")
    if mode == 1:
        return np.einsum("rn,knm,inm->mrki", f, psi3, g3).reshape(mt, -1, order="F")
    return np.einsum("rn,tm,knm->nmrtk", f, x, psi3).reshape(n * mt, -1, order="F")


def tucker_tals_explicit(q4, psi, tx_antennas, solver: SolverOptions,
                         init_seed: int, x_init=None, gbar_init=None):
    """Trilinear ALS oracle: each sweep builds the mode mixing matrices,
    solves ``solve_rows(unfold(q4, mode), v, tol)`` for ``F``, ``X`` and
    ``gbar`` in turn and takes the residual explicitly.  From sweep 3 on it
    also scores ``old + sweep ** (1/3) * (new - old)`` of all three factors by
    its explicit residual and keeps that point when it is strictly lower.
    It stops when the residual moves by no more than ``max(solver.delta, eps
    * residual)``, with ``tucker``'s ``rel_tol`` in ``receivers.RECEIVERS``
    as ``eps``.  Same initial draws, stopping rule and return tuple as
    ``receivers.tucker_tals``."""
    q4 = np.asarray(q4)
    slots, frames = q4.shape[1], q4.shape[3]
    d, mt = psi.shape[1], tx_antennas
    q1, q2, q4m = unfold(q4, 0), unfold(q4, 1), unfold(q4, 3)
    qnorm2 = float(np.linalg.norm(q4) ** 2)
    rng = np.random.default_rng(init_seed)

    def cn(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)

    def residual(f, x, gbar):
        v4 = tucker_mixing(3, f, x, psi, gbar)
        return float(np.linalg.norm(q4m - gbar @ v4) ** 2) / qnorm2

    x = np.array(x_init, dtype=complex) if x_init is not None else cn((slots, mt))
    gbar = np.array(gbar_init, dtype=complex) if gbar_init is not None else cn((frames, d))
    tol = solver.pinv_tol
    eps = RECEIVERS["tucker"].rel_tol
    trajectory = []
    prev = np.inf
    converged = False
    f = None
    for sweep in range(1, solver.max_iters + 1):
        f_new = solve_rows(q1, tucker_mixing(0, f, x, psi, gbar), tol)
        x_new = solve_rows(q2, tucker_mixing(1, f_new, x, psi, gbar), tol)
        gbar_new = solve_rows(q4m, tucker_mixing(3, f_new, x_new, psi, gbar), tol)
        err = residual(f_new, x_new, gbar_new)
        if sweep >= 3:
            step = sweep ** (1 / 3)
            jump = [old + step * (new - old)
                    for old, new in ((f, f_new), (x, x_new), (gbar, gbar_new))]
            err_jump = residual(*jump)
            if err_jump < err:
                (f_new, x_new, gbar_new), err = jump, err_jump
        f, x, gbar = f_new, x_new, gbar_new
        trajectory.append(err)
        if abs(err - prev) <= max(solver.delta, eps * err):
            converged = True
            break
        prev = err
    return f, x, gbar, tuple(trajectory), converged


def fold(mat, mode, dims):
    """Inverse of :func:`unfold`: rebuild the tensor of shape ``dims``."""
    dims = tuple(dims)
    if not 0 <= mode < len(dims):
        raise ValueError(f"mode index {mode} out of range for order-{len(dims)} tensor")
    rest = [d for i, d in enumerate(dims) if i != mode]
    t = np.reshape(np.asarray(mat), [dims[mode]] + rest, order="F")
    return np.moveaxis(t, 0, mode)


def unfold_multi(t, row_modes, col_modes):
    """Generalized unfolding combining several modes per axis.

    The row index runs over ``row_modes`` with the first listed mode varying
    fastest; same for columns.  ``unfold_multi(t, [0], [1, .., d-1])`` is the
    plain mode-0 unfolding.
    """
    t = np.asarray(t)
    if sorted(list(row_modes) + list(col_modes)) != list(range(t.ndim)):
        raise ValueError("row and column modes must partition the tensor modes")
    rows = int(np.prod([t.shape[m] for m in row_modes]))
    perm = list(row_modes) + list(col_modes)
    return np.reshape(np.transpose(t, perm), (rows, -1), order="F")


def nmode_product(t, m, mode):
    """Multiply matrix ``m`` onto tensor ``t`` along ``mode``.

    The result has ``dims[mode]`` replaced by ``m.shape[0]`` and satisfies
    ``unfold(result, mode) == m @ unfold(t, mode)``.
    """
    t = np.asarray(t)
    m = np.asarray(m)
    if not 0 <= mode < t.ndim:
        raise ValueError(f"mode index {mode} out of range for order-{t.ndim} tensor")
    if m.shape[1] != t.shape[mode]:
        raise ValueError(
            f"matrix with {m.shape[1]} columns cannot act on mode of size {t.shape[mode]}"
        )
    return np.moveaxis(np.tensordot(m, t, axes=(1, mode)), 0, mode)


def identity_tensor(order, size):
    """Superdiagonal tensor of the given order with ones on its diagonal."""
    t = np.zeros((size,) * order, dtype=complex)
    idx = np.arange(size)
    t[(idx,) * order] = 1.0
    return t


def selection_matrix(l):
    """The ``l**2 x l`` 0/1 matrix that extracts the column-wise Kronecker
    product: ``kron(A, B) @ selection_matrix(l) == khatri_rao(A, B)`` for
    square ``A, B`` with ``l`` columns."""
    if l < 1:
        raise ValueError("extent must be positive")
    eye = np.eye(l, dtype=complex)
    return khatri_rao(eye, eye)


def ambiguity_equivalent(channels: ChannelSet, design: ScatteringDesign,
                         symbols: SymbolBlock,
                         element_scale: np.ndarray,
                         stream_scale: np.ndarray):
    """Rescaled (channels, symbols) that synthesize the *same* received tensor.

    ``element_scale`` (len ris_elements) multiplies the effective channel
    ``H @ S`` column-wise and is compensated inside every ``g`` slice;
    ``stream_scale`` (len tx_antennas) multiplies the symbol columns and is
    compensated the same way.  This is the model's inherent indeterminacy;
    accuracy metrics are therefore only meaningful after column alignment.
    """
    d = np.asarray(element_scale, dtype=complex)
    e = np.asarray(stream_scale, dtype=complex)
    s = design.s
    h = channels.h @ s @ np.diag(d) @ s.conj().T
    g = np.einsum("n,inm,m->inm", 1.0 / d, channels.g, 1.0 / e)
    x = symbols.x * e[None, :]
    return ChannelSet(h=h, g=g), SymbolBlock(x=x, alphabet=symbols.alphabet)


def read_trials_csv(path):
    """Load per-trial rows back: a TrialResult per completed row and a
    TrialFailure per row with an error."""
    out = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["error"]:
                out.append(TrialFailure(
                    seed=int(row["seed"]), snr_db=float(row["snr_db"]),
                    receiver=row["receiver"], error=row["error"]))
                continue
            out.append(TrialResult(
                seed=int(row["seed"]), snr_db=float(row["snr_db"]),
                receiver=row["receiver"], nmse_h=float(row["nmse_h"]),
                nmse_g=float(row["nmse_g"]), ser=float(row["ser"]),
                iterations=int(row["iters"]), wall_ms=float(row["wall_ms"])))
    return out
