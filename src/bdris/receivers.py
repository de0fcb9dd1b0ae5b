"""Semi-blind estimation of (channel pair, symbols) from the received tensor.

Both receivers read the received tensor ``y`` through its third-order view
``z`` (``y`` reshaped to rx*slots x blocks x frames in Fortran order, no copy):

* ``pakron``  - two stages.  Stage I runs bilinear alternating least squares
  on the third-order view to estimate the mixed factor
  ``omega = kron(X, H @ S)`` together with the stacked per-frame channel; its
  updates and fit work on the data contracted with the known coding and
  rotation matrix ``psi``.
  With the structure projection on, stage I ends by re-solving the stacked
  channel at the nearest Kronecker product to ``omega`` and then ``omega``,
  on the same systems.  Stage II splits ``omega`` into ``X`` and ``H`` by the
  nearest Kronecker product (a rank-1 fit of its rearrangement).
* ``tucker``  - single stage.  Trilinear alternating least squares for the
  fourth-order model, whose known selection core no arithmetic reads: its
  ``H @ S`` and ``X`` updates split stage I's ``omega`` system over the two
  Kronecker factors of ``omega``; its channel update and fit are stage I's.

Both run their sweeps through one loop, ``_extrapolated_als``, which also
tries an extrapolated step per sweep and keeps it when it lowers the fit.
The step's length comes from the receiver (``STEP_SCHEDULES``): ``pakron``'s
bilinear stage I takes ``sqrt(k)`` at sweep ``k``, ``tucker``'s trilinear
sweeps the shorter ``k ** (1/3)``.  The loop stops when the fit changes by
no more than ``max(solver.delta, eps * fit)``, with the receiver's ``eps``
from ``RELATIVE_TOLERANCES``: 1e-3 for ``pakron``, whose fit creeps near the
noise share at low SNR, and 0 for ``tucker``.  A sweep's fit comes from its
last solve (``_solved_fit``); a candidate's from the Gram of one system at it
(``_gram_fit``).  ``pakron`` scores its candidate on the ``omega`` system at
the candidate's ``gbar``, which is the next sweep's first system when the
candidate is kept, so that sweep solves it as it is.

Every Gram either receiver solves is a Hadamard product of a factor Gram with
``psi``'s Gram, or (``tucker``'s ``H @ S`` and ``X`` updates) a contraction of
one, so Schur's bound on its condition number comes from ``cond(psi^T
conj(psi))`` and the factor Gram's diagonal, which each system carries.
``solve_gram`` solves a trusted Gram by LU, reading its condition number off
this bound or, when the bound is too loose, off the Gram's eigenvalues; an
untrusted one falls back to ``pinv`` of the explicit matrix, which is built
only then.

Both receivers start from the same preparation of one received tensor
(``_contract``): the data contracted with ``conj(psi)``, ``psi``'s Gram and
its condition number, and ``||z||^2``, which must be finite and positive.
``pakron`` and ``tucker`` take ``psi``'s Gram and condition number from the
design (``ScatteringDesign.psi_spectrum``), the decomposition the design made
for its rank check, so every receiver on one design shares it.

Both inherit the model's indeterminacies: a per-stream scale on the symbol
columns (pinned by the known reference row, see ``resolve_and_detect``) and a
per-element column scale on ``H @ S`` compensated inside the stacked channel
(left to evaluation-time column alignment).

A zero-forcing oracle with perfect channel knowledge is included as a symbol
detection baseline.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import SolverOptions
from .errors import ScalingResolutionError
from .identifiability import require_feasible
from .signal import ChannelSet, ReceivedTensor, ScatteringDesign, complex_normal, energy
# perfbench wraps best_rank1, khatri_rao and pinv as attributes of this module
from .tensor_ops import (  # noqa: F401
    DEFAULT_PINV_TOL,
    best_rank1,
    gram_spectrum,
    khatri_rao,
    kron,
    nearest_kronecker,
    pinv,
    schur_cond_bound,
    solve_gram,
    unfold,
)

RECEIVER_NAMES = ("pakron", "tucker", "zf-oracle")

# Length of the extrapolated step at sweep k (Bro 1998, §4.6) per ALS
# receiver.  sqrt(k) overshoots tucker's trilinear problem: at 10-30 dB it
# kept 4-12 % of its candidates, against 35-46 % with k^(1/3), which cut its
# mean sweeps from 8.2-8.5 to 7.1-7.4; pakron's stage I takes more sweeps
# with the shorter step (36.6 -> 43.6 at 0 dB, d = 16).
STEP_SCHEDULES = {"pakron": math.sqrt, "tucker": lambda k: k ** (1 / 3)}

# Relative stopping tolerance eps per ALS receiver: a sweep loop also stops
# when the fit changes by no more than eps * fit (Tensor Toolbox's cp_als
# stops on the change of its fit).  At 0 dB pakron's fit settles near the
# noise share and then creeps: eps = 1e-3 cut its mean sweeps 44 -> 15 at the
# default config with NMSE medians at most 0.7 % higher, and below a fit of
# delta / eps = 1e-3 (30 dB and noiseless) it stops where delta alone does.
# tucker keeps the absolute rule (eps = 0) while perfbench reads peak RSS
# after a fixed run time, which grows with every trial a faster receiver
# completes.
RELATIVE_TOLERANCES = {"pakron": 1e-3, "tucker": 0.0}


@dataclass(frozen=True)
class ReceiverOutput:
    h_hat: np.ndarray | None      # rx_antennas x ris_elements
    hs_hat: np.ndarray | None     # effective channel H @ S (same shape)
    gbar_hat: np.ndarray | None   # frames x (tx_antennas * ris_elements)
    x_hat: np.ndarray             # slots x tx_antennas, soft symbol estimates
    x_detected: np.ndarray | None
    iterations: int
    residual_trajectory: tuple    # normalized reconstruction error per sweep
    converged: bool
    final_fit: float              # error of the returned factors


@dataclass(frozen=True)
class StageOneResult:
    omega: np.ndarray             # (slots*rx) x (tx*ris) mixed factor
    gbar: np.ndarray
    trajectory: tuple
    iterations: int
    converged: bool
    fit: float


# Both receivers solve the normal equations (Kolda & Bader 2009, §3.4) of
# unfold(z, 2) == gbar @ khatri_rao(psi, omega).T on zp = z^T @ conj(psi),
# with Khatri-Rao Grams as Hadamard products B ∘ psi_gram of factor Grams.
# Each system carries the real diagonal of its factor Gram B, from which its
# solve takes Schur's bound on the Gram's condition number.

def _contract(z, psi, spectrum):
    """``(zp, psi_gram, znorm2, psi_cond)`` of the third-order view ``z`` and
    ``psi``: ``zp = z^T @ conj(psi)`` (frames x rows x d), ``psi``'s Gram
    ``psi^T conj(psi)``, ``||z||^2`` and the Gram's condition number; the Gram
    and its condition number are read off ``spectrum``, :func:`gram_spectrum`
    of ``psi``.  ``||z||^2``, by which every fit is normalized, is checked
    by :func:`bdris.signal.energy` before the contraction.
    """
    znorm2 = energy(z)
    psi_gram, psi_cond, _ = spectrum
    return np.transpose(z, (2, 0, 1)) @ psi.conj(), psi_gram, znorm2, psi_cond


def _contracted_bound(bound, x):
    """Bound for ``sum_t (x_t ⊗ I)^T G conj(x_t ⊗ I)`` over the rows ``x_t`` of
    ``x``: its eigenvalues lie in ``||x||^2 [lambda_min(G), lambda_max(G)]``, so
    it keeps ``G``'s condition bound while ``x`` is finite and nonzero."""
    scale = np.vdot(x, x).real
    return bound if 0 < scale < np.inf else np.inf


def _omega_system(zp, psi_gram, gbar):
    """``(rhs, gram, b_diag)`` of the ``omega`` update at ``gbar``: its Gram
    is ``B ∘ psi_gram`` with ``B = gbar^T conj(gbar)``, whose real diagonal is
    ``b_diag``."""
    b = gbar.T @ gbar.conj()
    return (zp * gbar.conj()[:, None, :]).sum(0), b * psi_gram, b.diagonal().real


def _gbar_system(zp, psi_gram, omega):
    """``(rhs, gram, b_diag)`` of the ``gbar`` update at ``omega``, with
    ``B = omega^T conj(omega)``."""
    b = omega.T @ omega.conj()
    return (zp * omega.conj()).sum(1), psi_gram * b, b.diagonal().real


def _gram_fit(x, rhs, gram, znorm2):
    """Normalized residual at ``x`` of the system ``(rhs, gram)``, from its
    Gram, clamped at 0; either system gives the residual of the same model."""
    err = znorm2 - 2 * np.vdot(x, rhs).real + np.vdot(x, x @ gram).real
    return max(float(err) / znorm2, 0.0)


def _solved_fit(x, rhs, znorm2):
    """:func:`_gram_fit` at the least-squares solution ``x`` of its system:
    there ``x @ gram`` meets ``rhs`` on the subspace the solve keeps (LU or
    ``pinv``), so the residual is ``(||z||^2 - Re<x, rhs>) / ||z||^2``."""
    return max(float(znorm2 - np.vdot(x, rhs).real) / znorm2, 0.0)


def _solve(rhs, gram, tol, cond_bound, fallback, *args):
    """``rhs @ inv(gram)`` by :func:`solve_gram` with the Gram's condition
    bound; on an untrusted Gram, ``fallback(*args, tol)``, which builds the
    unfolding and the explicit mixing matrix only then."""
    x = solve_gram(rhs, gram, tol, cond_bound)
    return fallback(*args, tol) if x is None else x


def _solve_system(system, psi_cond, tol, fallback, *args):
    """:func:`_solve` of a Hadamard system ``(rhs, gram, b_diag)``, trusted
    by Schur's bound from ``cond(psi_gram)`` and ``b_diag``."""
    rhs, gram, b_diag = system
    return _solve(rhs, gram, tol, schur_cond_bound(psi_cond, b_diag), fallback, *args)


# the fallbacks of _solve: least squares by pinv of an explicit mixing matrix

def _omega_pinv(z, psi, gbar, tol):
    return unfold(z, 0) @ pinv(khatri_rao(gbar, psi).T, tol)


def _gbar_pinv(z, psi, omega, tol):
    return unfold(z, 2) @ pinv(khatri_rao(psi, omega).T, tol)


def _mode_pinv(q4, mode, factor, psi, gbar, n, tol):
    return unfold(q4, mode) @ pinv(_mixing(mode, factor, psi, gbar, n), tol)


def _extrapolated_als(sweep, fit_at, factors, solver: SolverOptions, step, rel_tol):
    """Alternating least squares from ``factors`` with an extrapolated step.

    ``sweep(factors)`` returns the updated factors and their fit.  From sweep
    3 on, every factor is also tried at ``old + step(k) * (new - old)`` at
    sweep ``k`` (Bro 1998, §4.6), with the calling receiver's schedule from
    ``STEP_SCHEDULES``, and that point is kept when ``fit_at`` of it is
    strictly lower, so a sweep never ends above the plain update's fit.  The
    loop stops (converged) when the fit changes by no more than the larger of
    ``solver.delta`` and ``rel_tol`` times the fit, the calling receiver's
    entry of ``RELATIVE_TOLERANCES``, or after ``solver.max_iters`` sweeps.

    Returns ``(factors, trajectory, converged)`` with the fit of every sweep.
    """
    trajectory = []
    prev = np.inf
    for k in range(1, solver.max_iters + 1):
        new, fit = sweep(factors)
        if k >= 3:
            length = step(k)
            jump = tuple(old + length * (upd - old) for old, upd in zip(factors, new))
            jump_fit = fit_at(jump)
            if jump_fit < fit:
                new, fit = jump, jump_fit
        factors = new
        trajectory.append(fit)
        if abs(fit - prev) <= max(solver.delta, rel_tol * fit):
            return factors, tuple(trajectory), True
        prev = fit
    return factors, tuple(trajectory), False


def pakron_stage1(z, psi, left_shape, right_shape, solver: SolverOptions,
                  init_seed: int, gbar_init=None, spectrum=None) -> StageOneResult:
    """Bilinear ALS on the third-order view ``z``.

    Alternates ``omega <- unfold(z,0) @ pinv(khatri_rao(gbar, psi).T)`` and
    ``gbar <- unfold(z,2) @ pinv(khatri_rao(psi, omega).T)`` without forming
    either Khatri-Rao matrix: both are solved from the normal equations on
    the ``psi``-contracted data (``_omega_system``, ``_gbar_system``), with a
    ``pinv`` fallback on an untrusted Gram.  A sweep's fit is read off its
    ``gbar`` solve, ``(||z||^2 - Re<gbar, rhs>) / ||z||^2`` clamped at 0.  The
    sweeps run in :func:`_extrapolated_als` on the factors ``(omega, gbar)``,
    with the ``sqrt(k)`` step, and stop when the fit changes by no more than
    ``max(solver.delta, eps * fit)`` with ``pakron``'s ``eps = 1e-3`` from
    ``RELATIVE_TOLERANCES``: at low SNR the fit settles near the noise share
    and then creeps, and those sweeps do not move stage II's output.  A
    candidate is scored by the Gram fit of the ``omega`` system at its
    ``gbar``, and when the loop keeps it, the next sweep solves that system
    instead of building it again.

    ``left_shape = (slots, tx_antennas)`` and
    ``right_shape = (rx_antennas, ris_elements)`` describe the Kronecker
    structure of ``omega``; when ``solver.structure_projection`` is set, a
    final sweep re-solves ``gbar`` at the nearest separable matrix to the
    converged ``omega``, then ``omega``, on the same systems.  That pins the
    per-column scale indeterminacy to a separable one without degrading the
    noiseless fit, and the reported fit is then the explicit residual of the
    returned factors.

    ``spectrum`` is ``psi``'s :func:`gram_spectrum`, such as a design's
    ``psi_spectrum``; without it, ``psi`` is decomposed here, to the same bits.
    """
    z = np.asarray(z)
    tm_r, k, frames = z.shape
    d = psi.shape[1]
    (slots, mt), (mr, n) = left_shape, right_shape
    if slots * mr != tm_r or mt * n != d:
        raise ValueError("factor shapes inconsistent with the data view")
    require_feasible("pakron", dict(tx_antennas=mt, rx_antennas=mr, ris_elements=n,
                                    blocks=k, slots=slots, frames=frames))

    gbar = (np.array(gbar_init, dtype=complex) if gbar_init is not None
            else complex_normal(np.random.default_rng(init_seed), (frames, d)))
    tol = solver.pinv_tol
    zp, psi_gram, znorm2, psi_cond = _contract(z, psi, spectrum or gram_spectrum(psi))
    # the gbar of the last candidate scored and its omega system
    scored = [None, None]

    def sweep(factors):
        gbar = factors[1]
        system = (scored[1] if gbar is scored[0]
                  else _omega_system(zp, psi_gram, gbar))
        omega = _solve_system(system, psi_cond, tol, _omega_pinv, z, psi, gbar)
        system = _gbar_system(zp, psi_gram, omega)
        gbar = _solve_system(system, psi_cond, tol, _gbar_pinv, z, psi, omega)
        return (omega, gbar), _solved_fit(gbar, system[0], znorm2)

    def fit_at(factors):
        # scored on the omega system at the candidate's gbar, which the next
        # sweep solves as it is when the loop keeps the candidate
        omega, gbar = factors
        scored[:] = gbar, _omega_system(zp, psi_gram, gbar)
        rhs, gram, _ = scored[1]
        return _gram_fit(omega, rhs, gram, znorm2)

    (omega, gbar), trajectory, converged = _extrapolated_als(
        sweep, fit_at, (None, gbar), solver, STEP_SCHEDULES["pakron"],
        RELATIVE_TOLERANCES["pakron"])
    fit = trajectory[-1]

    if solver.structure_projection:
        omega_p = kron(*nearest_kronecker(omega, left_shape, right_shape))
        gbar = _solve_system(_gbar_system(zp, psi_gram, omega_p), psi_cond, tol,
                             _gbar_pinv, z, psi, omega_p)
        omega = _solve_system(_omega_system(zp, psi_gram, gbar), psi_cond, tol,
                              _omega_pinv, z, psi, gbar)
        residual = unfold(z, 0) - omega @ khatri_rao(gbar, psi).T
        fit = float(np.linalg.norm(residual) ** 2) / znorm2

    return StageOneResult(omega=omega, gbar=gbar, trajectory=trajectory,
                          iterations=len(trajectory), converged=converged, fit=fit)


def kron_factorize(omega, s, slots, rx_antennas):
    """Split an estimated ``kron(X, H @ S)`` into ``(X, H)``.

    The nearest Kronecker product to ``omega`` gives ``X`` and ``H @ S``, and
    ``S^H`` removes the known unitary factor.  This equals the nearest
    Kronecker product to ``omega @ kron(I, S^H)``, because that product
    right-multiplies the rank-1 rearrangement by a unitary matrix.  The split is
    exact for perfectly structured input, up to one complex scale trade-off
    between the two factors.
    """
    n = s.shape[0]
    x_hat, hs_hat = nearest_kronecker(omega, (slots, omega.shape[1] // n),
                                      (rx_antennas, n))
    return x_hat, hs_hat @ s.conj().T


def pakron(received: ReceivedTensor, design: ScatteringDesign, alphabet,
           solver: SolverOptions, init_seed: int) -> ReceiverOutput:
    """Two-stage semi-blind receiver (alternating LS + Kronecker split)."""
    mr, slots, k, frames = received.y.shape
    z = np.reshape(received.y, (mr * slots, k, frames), order="F")
    n = design.s.shape[0]
    mt = design.psi.shape[1] // n
    stage1 = pakron_stage1(z, design.psi, (slots, mt), (mr, n), solver, init_seed,
                           spectrum=design.psi_spectrum)
    x_raw, h_hat = kron_factorize(stage1.omega, design.s, slots, mr)
    out = ReceiverOutput(
        h_hat=h_hat,
        hs_hat=h_hat @ design.s,
        gbar_hat=stage1.gbar,
        x_hat=x_raw,
        x_detected=None,
        iterations=stage1.iterations,
        residual_trajectory=stage1.trajectory,
        converged=stage1.converged,
        final_fit=stage1.fit,
    )
    return resolve_and_detect(out, alphabet)


def _mixing(mode, factor, psi, gbar, n):
    """Mixing matrix ``V`` of mode 0 or 1 of the fourth-order view
    (``unfold(q4, 0) == F @ V``, ``unfold(q4, 1) == X @ V``), given the other
    factor (``X`` or ``F``).  The structured core reduces it to a product of
    the factor with ``khatri_rao(gbar, psi)``, whose rows (frames·blocks)
    reshape to tx x ris matrices (ris x tx for mode 0); columns run over
    (other factor's row, k, i), first fastest."""
    kr = khatri_rao(gbar, psi).reshape(-1, psi.shape[1] // n, n)
    if mode == 0:
        kr = kr.transpose(0, 2, 1)
    return (kr @ factor.T).transpose(1, 0, 2).reshape(kr.shape[1], -1)


def tucker_tals(q4, core, psi, solver: SolverOptions, init_seed: int,
               x_init=None, gbar_init=None):
    """:func:`tucker`'s trilinear ALS on the fourth-order view ``q4``, given
    its core: ``core`` must be :func:`bdris.signal.build_core`'s for ``psi``'s
    dimensions, and every call checks its shape, its ``d`` nonzeros and its
    ones at the canonical positions.

    Returns ``(f, x, gbar, trajectory, converged)`` with the trajectory of
    normalized reconstruction errors.  Each call decomposes ``psi``, where
    :func:`tucker` reads the design's ``psi_spectrum``, to the same bits.
    """
    n, mt = core.shape[0], core.shape[1]
    d = n * mt
    r = np.arange(d)  # the ones of build_core(n, mt) sit at (r % n, r // n, r, r)
    if (core.shape != (n, mt, d, d) or psi.shape[1] != d
            or np.count_nonzero(core) != d
            or not np.all(core[r % n, r // n, r, r] == 1)):
        raise ValueError("core must be the canonical selection-structured core")
    return _tucker_als(q4, n, psi, gram_spectrum(psi), solver, init_seed,
                       x_init, gbar_init)


def _tucker_als(q4, n, psi, spectrum, solver: SolverOptions, init_seed: int,
                x_init=None, gbar_init=None):
    """Trilinear ALS for ``n`` surface elements on the fourth-order view.

    Per sweep it updates the effective channel ``F = H @ S``, the symbols
    ``X`` and the stacked per-frame channel ``gbar`` on ``pakron_stage1``'s
    ``psi``-contracted systems with ``omega = kron(X, F)``.  The F and X
    updates split its ``omega`` system (formed once per sweep from ``gbar``)
    over the two Kronecker factors, as products with a block view of its
    right-hand side and Gram; the ``gbar`` update and the clamped Gram fit
    are its ``gbar`` system.  A mode whose Gram is not trusted falls back to
    ``pinv`` of its explicit mixing matrix.  The sweeps run in
    :func:`_extrapolated_als` on the factors ``(F, X, gbar)``, with the
    ``k ** (1/3)`` step, shorter than ``pakron``'s ``sqrt(k)``: the longer step
    overshoots the trilinear problem, so most of its candidates were refused.
    ``spectrum`` is ``psi``'s :func:`gram_spectrum`.
    """
    q4 = np.asarray(q4)
    mr, slots, k, frames = q4.shape
    mt = psi.shape[1] // n
    d = n * mt
    require_feasible("tucker", dict(tx_antennas=mt, rx_antennas=mr, ris_elements=n,
                                    blocks=k, slots=slots, frames=frames))

    rng = np.random.default_rng(init_seed)
    x = (np.array(x_init, dtype=complex) if x_init is not None
         else complex_normal(rng, (slots, mt)))
    gbar = (np.array(gbar_init, dtype=complex) if gbar_init is not None
            else complex_normal(rng, (frames, d)))

    tol = solver.pinv_tol
    z = np.reshape(q4, (mr * slots, k, frames), order="F")
    zp, psi_gram, znorm2, psi_cond = _contract(z, psi, spectrum)

    def sweep(factors):
        _, x, gbar = factors
        rhs, gram, b_diag = _omega_system(zp, psi_gram, gbar)
        bound = schur_cond_bound(psi_cond, b_diag)
        # omega = kron(X, F): block (t, m) of rhs is rx x n, block (m, p) of
        # gram is n x n; rows of these views run over the blocks
        rb = rhs.reshape(slots, mr, mt, n).transpose(0, 2, 1, 3).reshape(slots * mt, -1)
        gb = gram.reshape(mt, n, mt, n).transpose(0, 2, 1, 3).reshape(mt * mt, -1)
        f = _solve((x.conj().ravel() @ rb).reshape(mr, n),
                   ((x.T @ x.conj()).ravel() @ gb).reshape(n, n), tol,
                   _contracted_bound(bound, x), _mode_pinv, q4, 0, x, psi, gbar, n)
        x = _solve((rb @ f.conj().ravel()).reshape(slots, mt),
                   (gb @ (f.T @ f.conj()).ravel()).reshape(mt, mt), tol,
                   _contracted_bound(bound, f), _mode_pinv, q4, 1, f, psi, gbar, n)
        omega = kron(x, f)
        system = _gbar_system(zp, psi_gram, omega)
        gbar = _solve_system(system, psi_cond, tol, _gbar_pinv, z, psi, omega)
        return (f, x, gbar), _solved_fit(gbar, system[0], znorm2)

    def fit_at(factors):
        f, x, gbar = factors
        rhs, gram, _ = _gbar_system(zp, psi_gram, kron(x, f))
        return _gram_fit(gbar, rhs, gram, znorm2)

    (f, x, gbar), trajectory, converged = _extrapolated_als(
        sweep, fit_at, (None, x, gbar), solver, STEP_SCHEDULES["tucker"],
        RELATIVE_TOLERANCES["tucker"])
    return f, x, gbar, trajectory, converged


def tucker(received: ReceivedTensor, design: ScatteringDesign, alphabet,
           solver: SolverOptions, init_seed: int) -> ReceiverOutput:
    """Single-stage semi-blind receiver (trilinear ALS on the 4-way view)."""
    f, x_raw, gbar, trajectory, converged = _tucker_als(
        received.y, design.s.shape[0], design.psi, design.psi_spectrum, solver,
        init_seed)
    out = ReceiverOutput(
        h_hat=f @ design.s.conj().T,  # S is unitary, so this inverts it exactly
        hs_hat=f,
        gbar_hat=gbar,
        x_hat=x_raw,
        x_detected=None,
        iterations=len(trajectory),
        residual_trajectory=trajectory,
        converged=converged,
        final_fit=trajectory[-1],
    )
    return resolve_and_detect(out, alphabet)


def zf_perfect_csi(received: ReceivedTensor, channels: ChannelSet,
                   design: ScatteringDesign, pinv_tol=DEFAULT_PINV_TOL) -> np.ndarray:
    """Zero-forcing symbol estimate with perfect channel knowledge.

    Inverts the known mode-1 mixing of the fourth-order view:
    ``X = unfold(q4, 1) @ pinv(V)`` with ``V`` built from the true channels
    and the design.
    """
    return _mode_pinv(received.y, 1, channels.h @ design.s, design.psi,
                      channels.gbar, design.s.shape[0], pinv_tol)


def hard_decisions(x, alphabet) -> np.ndarray:
    """Indices of the nearest constellation points (ties to the lower index)."""
    dist = np.abs(np.asarray(x)[..., None] - np.asarray(alphabet))
    return np.argmin(dist, axis=-1)


def resolve_and_detect(out: ReceiverOutput, alphabet) -> ReceiverOutput:
    """Fix the per-stream scale from the known reference row, then detect.

    Column m of the soft estimate is scaled by ``alphabet[0] / x_hat[0, m]``,
    the known reference symbol over its estimate, cancelling the per-stream
    diagonal indeterminacy; the remaining rows are hard-decided to the nearest
    constellation point.  The channel estimates are left untouched.
    """
    ref = complex(alphabet[0])
    x = out.x_hat
    pivot = x[0, :]
    # zero relative to its column: a tiny column whose scale is intact is fine
    if np.any(np.abs(pivot) <= np.finfo(float).eps * np.linalg.norm(x, axis=0)):
        raise ScalingResolutionError(
            "reference-row estimate is numerically zero; cannot resolve scaling"
        )
    x_res = x * (ref / pivot)[None, :]
    detected = np.asarray(alphabet)[hard_decisions(x_res, alphabet)]
    detected[0, :] = ref
    return replace(out, x_hat=x_res, x_detected=detected)
