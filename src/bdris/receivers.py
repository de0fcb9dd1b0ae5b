"""Semi-blind estimation of (channel pair, symbols) from the received tensor.

Both receivers read the received tensor ``y`` through its third-order view
``z`` (``y`` reshaped to rx*slots x blocks x frames in Fortran order, a copy
of a C-ordered ``y`` made where it is read and not kept):

* ``pakron``  - two stages.  Stage I runs bilinear alternating least squares
  on the third-order view to estimate the mixed factor
  ``omega = kron(X, H @ S)`` together with the stacked per-frame channel; its
  updates and fit work on the data contracted with the known coding and
  rotation matrix ``psi``.  When ``psi`` has full column rank it starts from
  the closed-form Khatri-Rao factorization of the contracted data.
  With the structure projection on, stage I ends by re-solving the stacked
  channel at the nearest Kronecker product to ``omega`` and then ``omega``,
  on the same systems.  Stage II splits ``omega`` into ``X`` and ``H`` by the
  nearest Kronecker product (a rank-1 fit of its rearrangement).
* ``tucker``  - single stage.  Trilinear alternating least squares for the
  fourth-order model, whose known selection core no arithmetic reads: its
  ``H @ S`` and ``X`` updates split stage I's ``omega`` system over the two
  Kronecker factors of ``omega``; its channel update and fit are stage I's.

Each receiver runs a batch of trials of one configuration at a time
(``Receiver.run``), its trials in lockstep (a :class:`Lockstep`): each step of
a sweep, ``pakron``'s Khatri-Rao start, structure projection and Kronecker
split, and both receivers' symbol resolution are each one stacked numpy call
for every trial still running; only the contraction runs trial by trial.  A
trial leaves the batch when it stops or raises a tolerated error, which fails
it alone: a stacked step that raises reruns its trials one by one, and only
the trial that fails leaves.  Each trial gets the bits it gets alone, so no
output depends on the batch; a single trial, as :func:`pakron` and
:func:`tucker` run it, is a batch of one.

Both run their sweeps through one loop, ``_extrapolated_als``, which also
tries an extrapolated step per sweep and keeps it when it lowers the fit;
the step's length and the relative stopping tolerance ``eps`` of the loop
are the receiver's ``step`` and ``rel_tol`` in :data:`RECEIVERS`.  A sweep's
fit comes from its last solve (``_solved_fit``); a candidate's from the Gram
of one system at it (``_gram_fit``).  ``pakron`` scores its candidate on the
``omega`` system at the candidate's ``gbar``, the next sweep's first system
when the candidate is kept, so that sweep solves it as it is.

Every Gram either receiver solves is a Hadamard product of a factor Gram with
``psi``'s Gram, or (``tucker``'s ``H @ S`` and ``X`` updates) a contraction of
one, so Schur's bound on its condition number comes from ``cond(psi^T
conj(psi))`` and the factor Gram's diagonal, which each system carries.
``solve_grams`` solves a trusted Gram by LU, reading its condition number off
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
detection baseline.  Every other module reads the receivers from
:data:`RECEIVERS`, one record each, so a new receiver is one entry there.
"""

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, replace
from operator import attrgetter, itemgetter

import numpy as np

from .config import SolverOptions
from .errors import IdentifiabilityError, NumericalError, ScalingResolutionError
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
    solve_grams,
    unfold,
)

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


# the errors that end only the trial that raised them (a sweep records it)
TOLERATED = (ScalingResolutionError, NumericalError, np.linalg.LinAlgError)


class Lockstep:
    """Trials of one configuration run in lockstep.  ``live`` holds the batch
    indices of the trials still running and ``data`` their stacked arrays,
    one row per live trial; ``errors`` holds each trial's tolerated error and
    ``ms`` its share of receiver time, in milliseconds: :meth:`charge` splits
    the time since its last call evenly over the trials it names."""

    def __init__(self, n):
        self.live, self.data = np.arange(n), ()
        self.errors, self.ms = [None] * n, [0.0] * n
        self.clock = time.perf_counter()

    def charge(self, trials):
        now = time.perf_counter()
        share = (now - self.clock) * 1e3 / len(trials)
        for i in trials:
            self.ms[i] += share
        self.clock = now

    def attempt(self, i, fn, *args):
        """``fn(*args)``; ``None`` when it raises a tolerated error, which is
        kept as trial ``i``'s."""
        try:
            return fn(*args)
        except TOLERATED as err:
            self.errors[i] = err

    def keep(self, rows):
        """Keep the live trials at ``rows``, ascending indices into ``live``."""
        if len(rows) < len(self.live):
            self.live = self.live[rows]
            self.data = tuple(a[rows] for a in self.data)

    def each(self, fn):
        """``fn(j, i)`` of each live trial ``i`` at row ``j``, timed alone; the
        trials it fails leave the batch, and the others' results are
        returned."""
        out = []
        for j, i in enumerate(self.live.tolist()):
            out.append(self.attempt(i, fn, j, i))
            self.charge([i])
        ok = [j for j, i in enumerate(self.live.tolist()) if self.errors[i] is None]
        self.keep(ok)
        return [out[j] for j in ok]

    def stacked(self, fn, *stacks):
        """``fn(*stacks)`` of ``stacks`` with one row per live trial, timed as
        one call.  When it raises a tolerated error, each trial's rows run
        alone (:meth:`each`, stacks of one), the trials that fail leave the
        batch and the others' results are stacked again (a tuple of stacks)."""
        try:
            out = fn(*stacks)
        except TOLERATED:
            self.charge(self.live)  # the failed call, split over its trials
            rows = self.each(lambda j, i: fn(*(a[j:j + 1] for a in stacks)))
            if rows and isinstance(rows[0], tuple):
                return tuple(map(np.concatenate, zip(*rows)))
            return rows and np.concatenate(rows)
        self.charge(self.live)
        return out

    def finish(self, cases, results, output, record, *fields):
        """``(outputs, ms)`` of a receiver's batch from its ``results``: one
        stacked step ``output(*stacks, s, alphabets)`` of each of ``fields``
        of the trials without an error, their designs' ``S`` and alphabets,
        gives stacks of ``(h_hat, hs_hat, x_hat, x_detected)``, and
        ``record(result)`` the rest, ``(gbar, trajectory, converged, fit)``."""
        self.live, self.data = np.flatnonzero([err is None for err in self.errors]), ()
        live = self.live.tolist()
        out = live and self.stacked(
            output, *(np.array([field(results[i]) for i in live]) for field in fields),
            np.array([cases[i][1].s for i in live]), np.array([cases[i][2] for i in live]))
        done = list(self.errors)
        for j, i in enumerate(self.live.tolist()):
            gbar, trajectory, converged, fit = record(results[i])
            h_hat, hs_hat, x_hat, x_detected = (a[j] for a in out)
            done[i] = ReceiverOutput(h_hat, hs_hat, gbar, x_hat, x_detected,
                                     len(trajectory), trajectory, converged, fit)
        return done, self.ms


def _view(y):
    """The third-order view ``z`` of a received tensor ``y`` (of ``z``, ``z``
    itself); built where it is read (contraction, ``pinv`` fallback)."""
    return np.reshape(y, (-1, *y.shape[-2:]), order="F")


def _alone(results):
    """The one result of a batch of one trial, or its error raised."""
    (res,) = results
    if isinstance(res, Exception):
        raise res
    return res


# Both receivers solve the normal equations (Kolda & Bader 2009, §3.4) of
# unfold(z, 2) == gbar @ khatri_rao(psi, omega).T on zp = z^T @ conj(psi),
# with Khatri-Rao Grams as Hadamard products B ∘ psi_gram of factor Grams.
# Each system carries the real diagonal of its factor Gram B, from which its
# solve takes Schur's bound on the Gram's condition number.  Every function
# below works on a stack of trials, one per row of its arrays, and gives each
# trial the bits it gets alone: the system builders also take one trial.

def _contract(z, psi, spectrum):
    """``(zp, psi_gram, znorm2, psi_cond)`` of the third-order view ``z`` and
    ``psi``: ``zp = z^T @ conj(psi)`` (frames x rows x d), ``psi``'s Gram
    ``psi^T conj(psi)``, ``||z||^2`` and the Gram's condition number; the Gram
    and its condition number are read off ``spectrum``, :func:`gram_spectrum`
    of ``psi``.  ``||z||^2``, by which every fit is normalized, is checked
    by :func:`bdris.signal.energy` before the contraction.  One trial: a
    stack of the trials' ``psi`` would change the product's bits.
    """
    znorm2 = energy(z)
    psi_gram, psi_cond, _ = spectrum
    return np.transpose(z, (2, 0, 1)) @ psi.conj(), psi_gram, znorm2, psi_cond


def _prepare(lock, ys, psis, spectra):
    """:func:`_contract` of each live trial's :func:`_view`, stacked into
    ``lock.data``; a trial whose data it refuses leaves the batch.  The views
    are all built first: freed one by one, they let malloc trim and refault the heap."""
    zs = [_view(y) for y in ys]
    prepared = lock.each(lambda j, i: _contract(zs[i], psis[i], spectra[i]))
    zp, psi_gram, znorm2, psi_cond = zip(*prepared) if prepared else ((),) * 4
    lock.data = np.array(zp), np.array(psi_gram), np.array(znorm2), np.array(psi_cond)


def _dot(a, b):
    """``np.vdot(a[j], b[j]).real`` of each trial, to its bits, as a list
    (``einsum`` and sums of products round otherwise)."""
    m = len(a)
    return np.vecdot(a.reshape(m, -1), b.reshape(m, -1)).real.tolist()


def _contracted_bound(bound, x):
    """Bound for ``sum_t (x_t ⊗ I)^T G conj(x_t ⊗ I)`` over the rows ``x_t`` of
    ``x``: its eigenvalues lie in ``||x||^2 [lambda_min(G), lambda_max(G)]``, so
    it keeps ``G``'s condition bound while ``x`` is finite and nonzero."""
    return [b if 0 < scale < np.inf else np.inf
            for b, scale in zip(bound, _dot(x, x))]


def _omega_system(zp, psi_gram, gbar):
    """``(rhs, gram, b_diag)`` of the ``omega`` update at ``gbar``: its Gram
    is ``B ∘ psi_gram`` with ``B = gbar^T conj(gbar)``, whose real diagonal is
    ``b_diag``."""
    conj = gbar.conj()
    b = gbar.mT @ conj
    return (zp * conj[..., None, :]).sum(-3), b * psi_gram, b.diagonal(0, -2, -1).real


def _gbar_system(zp, psi_gram, omega):
    """``(rhs, gram, b_diag)`` of the ``gbar`` update at ``omega``, with
    ``B = omega^T conj(omega)``."""
    conj = omega.conj()
    b = omega.mT @ conj
    return (zp * conj[..., None, :, :]).sum(-2), psi_gram * b, b.diagonal(0, -2, -1).real


def _gram_fit(x, rhs, gram, znorm2):
    """Normalized residual at ``x`` of the system ``(rhs, gram)``, from its
    Gram, clamped at 0; either system gives the residual of the same model."""
    return [max((z - 2 * a + b) / z, 0.0) for z, a, b in zip(
        znorm2.tolist(), _dot(x, rhs), _dot(x, x @ gram))]


def _solved_fit(x, rhs, znorm2):
    """:func:`_gram_fit` at the least-squares solution ``x`` of its system:
    there ``x @ gram`` meets ``rhs`` on the subspace the solve keeps (LU or
    ``pinv``), so the residual is ``(||z||^2 - Re<x, rhs>) / ||z||^2``."""
    return [max((z - a) / z, 0.0) for z, a in zip(znorm2.tolist(), _dot(x, rhs))]


def _solve(lock, rhs, gram, tol, cond_bound, fallback, *stacks):
    """``rhs @ inv(gram)`` of each live trial by :func:`solve_grams` with its
    Gram's condition bound (no trusted Gram is singular to LU); the row ``j``
    of an untrusted Gram of trial ``i`` is ``fallback(i, *rows, tol)`` with
    ``rows`` the rows ``j`` of ``stacks``, which builds the trial's unfolding
    and explicit mixing matrix only then.  A trial whose fallback raises a
    tolerated error keeps it, and a zero row."""
    x, trusted = solve_grams(rhs, gram, tol, cond_bound)
    if not all(trusted):
        for j, i in enumerate(lock.live.tolist()):
            if not trusted[j] and lock.errors[i] is None:
                row = lock.attempt(i, fallback, i, *(a[j] for a in stacks), tol)
                if row is not None:
                    x[j] = row
    return x


def _solve_system(lock, system, psi_cond, tol, fallback, *stacks):
    """:func:`_solve` of Hadamard systems ``(rhs, gram, b_diag)``, trusted
    by Schur's bound from ``cond(psi_gram)`` and ``b_diag``."""
    rhs, gram, b_diag = system
    return _solve(lock, rhs, gram, tol, schur_cond_bound(psi_cond, b_diag), fallback,
                  *stacks)


# the fallbacks of _solve: least squares by pinv of an explicit mixing matrix

def _omega_pinv(z, psi, gbar, tol):
    return unfold(_view(z), 0) @ pinv(khatri_rao(gbar, psi).T, tol)


def _gbar_pinv(z, psi, omega, tol):
    return unfold(_view(z), 2) @ pinv(khatri_rao(psi, omega).T, tol)


def _mode_pinv(q4, mode, factor, psi, gbar, n, tol):
    return unfold(q4, mode) @ pinv(_mixing(mode, factor, psi, gbar, n), tol)


def _extrapolated_als(sweep, fit_at, factors, solver: SolverOptions, step, rel_tol,
                      lock):
    """Alternating least squares with an extrapolated step, on the live
    trials of ``lock`` in lockstep.

    ``factors`` are stacks with one row per live trial; ``sweep(factors)``
    returns the updated factors and their fits.  From sweep 3 on, every
    factor is also tried at ``old + step(k) * (new - old)`` at sweep ``k``
    (Bro 1998, §4.6) with the calling receiver's ``step``, and a trial keeps
    that point when its ``fit_at`` is strictly lower, so a sweep never ends
    above the plain update's fit.  A trial stops (converged) when its fit
    changes by no more than the larger of ``solver.delta`` and the receiver's
    ``rel_tol`` times the fit, or after ``solver.max_iters`` sweeps; it then
    leaves the batch, as does a trial that raised a tolerated error.

    Returns ``(factors, trajectories, converged)``, each a list over the
    batch: a trial's final factors (``None`` when it failed), copied out of
    the stacks, the fit of every sweep and whether it converged.
    """
    n = len(lock.errors)
    out, trajectories, converged = [None] * n, [[] for _ in range(n)], [False] * n
    live, prev, ok = lock.live.tolist(), [np.inf] * len(lock.live), lock.errors.count(None)
    for k in range(1, solver.max_iters + 1):
        new, fit = sweep(factors)
        if k >= 3:
            length = step(k)
            jump = tuple(old + length * (upd - old) for old, upd in zip(factors, new))
            jump_fit = fit_at(jump)
            better = [a < b for a, b in zip(jump_fit, fit)]
            if all(better):
                new, fit = jump, jump_fit
            elif any(better):
                mask = np.array(better)
                new = tuple(np.where(mask.reshape(-1, *[1] * (a.ndim - 1)), a, b)
                            for a, b in zip(jump, new))
                fit = [a if keep else b for keep, a, b in zip(better, jump_fit, fit)]
        factors = new
        stop = []
        for i, f, p in zip(live, fit, prev):
            trajectories[i].append(f)
            stop.append(abs(f - p) <= max(solver.delta, rel_tol * f))
        if any(stop) or k == solver.max_iters or lock.errors.count(None) < ok:
            stays = []
            for j, i in enumerate(live):
                if lock.errors[i] is None and (stop[j] or k == solver.max_iters):
                    out[i] = tuple(a[j].copy(order="K") for a in factors)
                    converged[i] = stop[j]
                elif lock.errors[i] is None:
                    stays.append(j)
            lock.charge(live)
            if not stays:
                break
            lock.keep(stays)
            live, ok = lock.live.tolist(), lock.errors.count(None)
            factors = tuple(a[stays] for a in factors)
            fit = [fit[j] for j in stays]
        prev = fit
    return out, [tuple(t) for t in trajectories], converged


def pakron_stage1(z, psi, left_shape, right_shape, solver: SolverOptions,
                  init_seed: int, gbar_init=None, spectrum=None) -> StageOneResult:
    """Bilinear ALS on the third-order view ``z`` of one trial: the batch of
    one of :func:`pakron_stage1_batch`, which raises the trial's error.

    ``spectrum`` is ``psi``'s :func:`gram_spectrum`, such as a design's
    ``psi_spectrum``; without it, ``psi`` is decomposed here, to the same bits.
    """
    return _alone(pakron_stage1_batch(
        Lockstep(1), [np.asarray(z)], [psi], [spectrum or gram_spectrum(psi)],
        left_shape, right_shape, solver, [init_seed],
        None if gbar_init is None else [gbar_init]))


def pakron_stage1_batch(lock, zs, psis, spectra, left_shape, right_shape,
                        solver: SolverOptions, init_seeds, gbar_inits=None) -> list:
    """Bilinear ALS on the third-order views ``zs`` of the trials of
    ``lock`` (or their received tensors, viewed where read), in lockstep; a
    :class:`StageOneResult` per trial, or the error of a trial that failed.

    Alternates ``omega <- unfold(z,0) @ pinv(khatri_rao(gbar, psi).T)`` and
    ``gbar <- unfold(z,2) @ pinv(khatri_rao(psi, omega).T)`` without forming
    either Khatri-Rao matrix: both are solved from the normal equations on
    the ``psi``-contracted data (``_omega_system``, ``_gbar_system``), with a
    ``pinv`` fallback on an untrusted Gram.  A sweep's fit is read off its
    ``gbar`` solve, ``(||z||^2 - Re<gbar, rhs>) / ||z||^2`` clamped at 0.  The
    sweeps run in :func:`_extrapolated_als` on the factors ``(omega, gbar)``
    with ``pakron``'s step and ``eps``; the sweeps in which the fit creeps
    near the noise share do not move stage II's output.  A candidate is
    scored by the Gram fit of the ``omega`` system at its ``gbar``, and when
    every live trial keeps it, the next sweep solves that system instead of
    building it again.

    Without ``gbar_inits``, column ``r`` of a trial's ``gbar`` starts as the
    top eigenvector of ``T_r T_r^H`` for the least-squares ``T = zp @
    inv(psi_gram)`` (the Khatri-Rao factorization of de Araujo et al., IEEE
    JSTSP 2021) when ``blocks >= d`` and its ``psi_gram`` is trusted, else it
    is drawn from its ``init_seeds`` entry.

    ``left_shape = (slots, tx_antennas)`` and
    ``right_shape = (rx_antennas, ris_elements)`` describe the Kronecker
    structure of ``omega``; when ``solver.structure_projection`` is set, a
    final sweep re-solves ``gbar`` at the nearest separable matrix to the
    converged ``omega``, then ``omega``, on the same systems.  That pins the
    per-column scale indeterminacy to a separable one without degrading the
    noiseless fit, and the reported fit is then read off that last ``omega``
    solve, as a sweep's is off its ``gbar`` solve.  ``spectra`` are the
    trials' :func:`gram_spectrum` of ``psi``.
    """
    tm_r, (k, frames) = math.prod(zs[0].shape[:-2]), zs[0].shape[-2:]
    d = psis[0].shape[1]
    (slots, mt), (mr, n) = left_shape, right_shape
    if slots * mr != tm_r or mt * n != d:
        raise ValueError("factor shapes inconsistent with the data view")
    require_feasible("pakron", dict(tx_antennas=mt, rx_antennas=mr, ris_elements=n,
                                    blocks=k, slots=slots, frames=frames))

    tol = solver.pinv_tol
    _prepare(lock, zs, psis, spectra)
    if not lock.live.size:
        return lock.errors
    zp, psi_gram, znorm2, psi_cond = lock.data
    # the Khatri-Rao factorization: zp = T @ psi_gram, T[f, a, r] = gbar[f, r] * omega[a, r]
    start = dict.fromkeys(lock.live.tolist(), False)
    if gbar_inits is None and k >= d:
        t, trusted = solve_grams(zp.reshape(len(zp), -1, d), psi_gram, tol,
                                 psi_cond.tolist())
        start.update(zip(start, trusted))
        t = t.reshape(-1, frames, tm_r, d).transpose(0, 3, 1, 2)
        lock.charge(lock.live)
        if any(trusted):  # column r of gbar: the top eigenvector of T_r T_r^H
            top = lock.stacked(lambda g: np.linalg.eigh(g)[1][..., -1], t @ t.conj().mT)
            if not lock.live.size:
                return lock.errors
    gbar = np.array([top[j].T if start[i] else gbar_inits[i] if gbar_inits is not None
                     else complex_normal(np.random.default_rng(init_seeds[i]), (frames, d))
                     for j, i in enumerate(lock.live.tolist())], complex)
    t = top = None  # the stacks are not kept through the sweeps
    # the gbar of the last candidate scored and its omega system
    scored = [None, None]

    def omega_pinv(i, gbar, tol):
        return _omega_pinv(zs[i], psis[i], gbar, tol)

    def gbar_pinv(i, omega, tol):
        return _gbar_pinv(zs[i], psis[i], omega, tol)

    def sweep(factors):
        zp, psi_gram, znorm2, psi_cond = lock.data
        gbar = factors[1]
        system = (scored[1] if gbar is scored[0]
                  else _omega_system(zp, psi_gram, gbar))
        omega = _solve_system(lock, system, psi_cond, tol, omega_pinv, gbar)
        system = _gbar_system(zp, psi_gram, omega)
        gbar = _solve_system(lock, system, psi_cond, tol, gbar_pinv, omega)
        return (omega, gbar), _solved_fit(gbar, system[0], znorm2)

    def fit_at(factors):
        # scored on the omega system at the candidate's gbar, which the next
        # sweep solves as it is when every trial keeps the candidate
        zp, psi_gram, znorm2, _ = lock.data
        omega, gbar = factors
        scored[:] = gbar, _omega_system(zp, psi_gram, gbar)
        rhs, gram, _ = scored[1]
        return _gram_fit(omega, rhs, gram, znorm2)

    data, live = lock.data, lock.live
    factors, trajectories, converged = _extrapolated_als(
        sweep, fit_at, (None, gbar), solver, RECEIVERS["pakron"].step,
        RECEIVERS["pakron"].rel_tol, lock)
    lock.data, lock.live = data, live
    lock.keep([j for j, i in enumerate(live) if lock.errors[i] is None])
    fits = [trajectories[i][-1] for i in lock.live]
    omega, gbar = ([factors[i][m] for i in lock.live] for m in (0, 1))

    if solver.structure_projection and lock.live.size:
        omega_p = lock.stacked(
            lambda omega: kron(*nearest_kronecker(omega, left_shape, right_shape)),
            np.array(omega))
        if not lock.live.size:
            return lock.errors
        zp, psi_gram, znorm2, psi_cond = lock.data
        gbar = _solve_system(lock, _gbar_system(zp, psi_gram, omega_p), psi_cond, tol,
                             gbar_pinv, omega_p)
        system = _omega_system(zp, psi_gram, gbar)
        omega = _solve_system(lock, system, psi_cond, tol, omega_pinv, gbar)
        fits = _solved_fit(omega, system[0], znorm2)
        lock.charge(lock.live)

    results = list(lock.errors)
    for j, i in enumerate(lock.live.tolist()):
        results[i] = results[i] or StageOneResult(
            omega=omega[j], gbar=gbar[j], trajectory=trajectories[i],
            iterations=len(trajectories[i]), converged=converged[i], fit=fits[j])
    return results


def kron_factorize(omega, s, slots, rx_antennas):
    """Split an estimated ``kron(X, H @ S)`` into ``(X, H)``, or each of a
    stack with its ``S``.

    The nearest Kronecker product to ``omega`` gives ``X`` and ``H @ S``, and
    ``S^H`` removes the known unitary factor.  This equals the nearest
    Kronecker product to ``omega @ kron(I, S^H)``, because that product
    right-multiplies the rank-1 rearrangement by a unitary matrix.  The split is
    exact for perfectly structured input, up to one complex scale trade-off
    between the two factors.
    """
    n = s.shape[-1]
    x_hat, hs_hat = nearest_kronecker(omega, (slots, omega.shape[-1] // n),
                                      (rx_antennas, n))
    return x_hat, hs_hat @ s.conj().mT


def pakron_batch(cases, solver: SolverOptions):
    """Two-stage semi-blind receiver (alternating LS + Kronecker split) on a
    batch of trials of one configuration, stage I in lockstep; as
    ``Receiver.run``."""
    lock = Lockstep(len(cases))
    mr, slots = cases[0][0].y.shape[:2]
    n = cases[0][1].s.shape[0]
    mt = cases[0][1].psi.shape[1] // n
    stage1 = pakron_stage1_batch(
        lock, [c[0].y for c in cases], [c[1].psi for c in cases],
        [c[1].psi_spectrum for c in cases], (slots, mt), (mr, n), solver,
        [c[3] for c in cases])

    def output(omega, s, alphabet):
        x_raw, h_hat = kron_factorize(omega, s, slots, mr)
        return h_hat, h_hat @ s, *_resolve(x_raw, alphabet)

    record = attrgetter("gbar", "trajectory", "converged", "fit")
    return lock.finish(cases, stage1, output, record, attrgetter("omega"))


def pakron(received: ReceivedTensor, design: ScatteringDesign, alphabet,
           solver: SolverOptions, init_seed: int, channels=None) -> ReceiverOutput:
    """:func:`pakron_batch` on one trial."""
    return _alone(pakron_batch([(received, design, alphabet, init_seed, channels)],
                               solver)[0])


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
    """:func:`tucker`'s trilinear ALS on the fourth-order view ``q4`` of one
    trial, given its core: ``core`` must be :func:`bdris.signal.build_core`'s
    for ``psi``'s dimensions, and every call checks its shape, its ``d``
    nonzeros and its ones at the canonical positions.

    Returns ``(f, x, gbar, trajectory, converged)`` with the trajectory of
    normalized reconstruction errors, from the batch of one of
    :func:`tucker_als_batch`, which raises the trial's error.  Each call
    decomposes ``psi``, where :func:`tucker` reads the design's
    ``psi_spectrum``, to the same bits.
    """
    n, mt = core.shape[0], core.shape[1]
    d = n * mt
    r = np.arange(d)  # the ones of build_core(n, mt) sit at (r % n, r // n, r, r)
    if (core.shape != (n, mt, d, d) or psi.shape[1] != d
            or np.count_nonzero(core) != d
            or not np.all(core[r % n, r // n, r, r] == 1)):
        raise ValueError("core must be the canonical selection-structured core")
    return _alone(tucker_als_batch(Lockstep(1), [np.asarray(q4)], n, [psi],
                                   [gram_spectrum(psi)], solver, [init_seed], x_init,
                                   gbar_init))


def tucker_als_batch(lock, q4s, n, psis, spectra, solver: SolverOptions, init_seeds,
                     x_init=None, gbar_init=None) -> list:
    """Trilinear ALS for ``n`` surface elements on the fourth-order views
    ``q4s`` of the trials of ``lock``, in lockstep; per trial ``(f, x, gbar,
    trajectory, converged)``, or the error of a trial that failed.

    Per sweep it updates the effective channel ``F = H @ S``, the symbols
    ``X`` and the stacked per-frame channel ``gbar`` on ``pakron``'s
    ``psi``-contracted systems with ``omega = kron(X, F)``.  The F and X
    updates split its ``omega`` system (formed once per sweep from ``gbar``)
    over the two Kronecker factors, as products with a block view of its
    right-hand side and Gram; the ``gbar`` update and the clamped Gram fit
    are its ``gbar`` system.  A mode whose Gram is not trusted falls back to
    ``pinv`` of its explicit mixing matrix.  The sweeps run in
    :func:`_extrapolated_als` on the factors ``(F, X, gbar)`` with
    ``tucker``'s step and ``eps``.  ``spectra`` are the trials'
    :func:`gram_spectrum` of ``psi``; ``x_init`` and ``gbar_init``, when
    given, start every trial.
    """
    mr, slots, k, frames = q4s[0].shape
    mt = psis[0].shape[1] // n
    d = n * mt
    require_feasible("tucker", dict(tx_antennas=mt, rx_antennas=mr, ris_elements=n,
                                    blocks=k, slots=slots, frames=frames))

    starts = []
    for init_seed in init_seeds:
        rng = np.random.default_rng(init_seed)
        starts.append((np.array(x_init, dtype=complex) if x_init is not None
                       else complex_normal(rng, (slots, mt)),
                       np.array(gbar_init, dtype=complex) if gbar_init is not None
                       else complex_normal(rng, (frames, d))))
    tol = solver.pinv_tol
    _prepare(lock, q4s, psis, spectra)
    if not lock.live.size:
        return lock.errors
    live = lock.live.tolist()
    x, gbar = (np.array([starts[i][m] for i in live]) for m in (0, 1))

    def f_pinv(i, x, gbar, tol):
        return _mode_pinv(q4s[i], 0, x, psis[i], gbar, n, tol)

    def x_pinv(i, f, gbar, tol):
        return _mode_pinv(q4s[i], 1, f, psis[i], gbar, n, tol)

    def gbar_pinv(i, omega, tol):
        return _gbar_pinv(q4s[i], psis[i], omega, tol)

    def sweep(factors):
        zp, psi_gram, znorm2, psi_cond = lock.data
        _, x, gbar = factors
        rhs, gram, b_diag = _omega_system(zp, psi_gram, gbar)
        bound = schur_cond_bound(psi_cond, b_diag)
        # omega = kron(X, F): block (t, m) of rhs is rx x n, block (m, p) of
        # gram is n x n; rows of these views run over the blocks
        m = len(x)
        rb = rhs.reshape(m, slots, mr, mt, n).transpose(0, 1, 3, 2, 4).reshape(
            m, slots * mt, -1)
        gb = gram.reshape(m, mt, n, mt, n).transpose(0, 1, 3, 2, 4).reshape(
            m, mt * mt, -1)
        f = _solve(lock, (x.conj().reshape(m, 1, -1) @ rb).reshape(m, mr, n),
                   ((x.mT @ x.conj()).reshape(m, 1, -1) @ gb).reshape(m, n, n), tol,
                   _contracted_bound(bound, x), f_pinv, x, gbar)
        x = _solve(lock, (rb @ f.conj().reshape(m, -1, 1)).reshape(m, slots, mt),
                   (gb @ (f.mT @ f.conj()).reshape(m, -1, 1)).reshape(m, mt, mt), tol,
                   _contracted_bound(bound, f), x_pinv, f, gbar)
        omega = kron(x, f)
        system = _gbar_system(zp, psi_gram, omega)
        gbar = _solve_system(lock, system, psi_cond, tol, gbar_pinv, omega)
        return (f, x, gbar), _solved_fit(gbar, system[0], znorm2)

    def fit_at(factors):
        zp, psi_gram, znorm2, _ = lock.data
        f, x, gbar = factors
        rhs, gram, _ = _gbar_system(zp, psi_gram, kron(x, f))
        return _gram_fit(gbar, rhs, gram, znorm2)

    factors, trajectories, converged = _extrapolated_als(
        sweep, fit_at, (None, x, gbar), solver, RECEIVERS["tucker"].step,
        RECEIVERS["tucker"].rel_tol, lock)
    return [lock.errors[i] or (*factors[i], trajectories[i], converged[i])
            for i in range(len(q4s))]


def tucker_batch(cases, solver: SolverOptions):
    """Single-stage semi-blind receiver (trilinear ALS on the 4-way view) on a
    batch of trials of one configuration, in lockstep; as ``Receiver.run``."""
    lock = Lockstep(len(cases))
    results = tucker_als_batch(
        lock, [c[0].y for c in cases], cases[0][1].s.shape[0], [c[1].psi for c in cases],
        [c[1].psi_spectrum for c in cases], solver, [c[3] for c in cases])

    def output(f, x_raw, s, alphabet):
        # S is unitary, so f @ S^H inverts it exactly
        return f @ s.conj().mT, f, *_resolve(x_raw, alphabet)

    return lock.finish(cases, results, output, lambda res: (*res[2:], res[3][-1]),
                       itemgetter(0), itemgetter(1))


def tucker(received: ReceivedTensor, design: ScatteringDesign, alphabet,
           solver: SolverOptions, init_seed: int, channels=None) -> ReceiverOutput:
    """:func:`tucker_batch` on one trial."""
    return _alone(tucker_batch([(received, design, alphabet, init_seed, channels)],
                               solver)[0])


def zf_perfect_csi(received: ReceivedTensor, channels: ChannelSet,
                   design: ScatteringDesign, pinv_tol=DEFAULT_PINV_TOL) -> np.ndarray:
    """Zero-forcing symbol estimate with perfect channel knowledge.

    Inverts the known mode-1 mixing of the fourth-order view:
    ``X = unfold(q4, 1) @ pinv(V)`` with ``V`` built from the true channels
    and the design.
    """
    return _mode_pinv(received.y, 1, channels.h @ design.s, design.psi,
                      channels.gbar, design.s.shape[0], pinv_tol)


def zf_oracle(received: ReceivedTensor, design: ScatteringDesign, alphabet,
              solver: SolverOptions, init_seed: int, channels) -> ReceiverOutput:
    """:func:`zf_perfect_csi` with the true ``channels``, hard-decided without
    the reference-row rescale; its channel estimates are the truth, ``None``."""
    x_hat = zf_perfect_csi(received, channels, design, solver.pinv_tol)
    return ReceiverOutput(
        h_hat=None, hs_hat=None, gbar_hat=None, x_hat=x_hat,
        x_detected=np.asarray(alphabet)[hard_decisions(x_hat, alphabet)],
        iterations=0, residual_trajectory=(), converged=True, final_fit=math.nan)


def zf_oracle_batch(cases, solver: SolverOptions):
    """:func:`zf_oracle` on each trial of a batch in turn, each timed alone;
    as ``Receiver.run``."""
    outputs, wall_ms = [], []
    for case in cases:
        t0 = time.perf_counter()
        try:
            outputs.append(zf_oracle(*case[:3], solver, *case[3:]))
        except TOLERATED as err:
            outputs.append(err)
        wall_ms.append((time.perf_counter() - t0) * 1e3)
    return outputs, wall_ms


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
    x_res, detected = _resolve(out.x_hat[None], np.asarray(alphabet)[None])
    return replace(out, x_hat=x_res[0], x_detected=detected[0])


def _resolve(x, alphabet):
    """``(x_hat, x_detected)`` of :func:`resolve_and_detect` for a stack of
    soft estimates ``x`` and their alphabets, each row with its bits alone; a
    zero reference-row estimate of any row raises for the stack."""
    pivot = x[:, 0, :]
    # zero relative to its column: a tiny column whose scale is intact is fine
    if (np.abs(pivot) <= np.finfo(float).eps * np.linalg.norm(x, axis=-2)).any():
        raise ScalingResolutionError(
            "reference-row estimate is numerically zero; cannot resolve scaling"
        )
    ref = alphabet[:, :1]
    x_res = x * (ref / pivot)[:, None, :]
    detected = alphabet[np.arange(len(x))[:, None, None],
                        hard_decisions(x_res, alphabet[:, None, None, :])]
    detected[:, 0, :] = ref
    return x_res, detected


@dataclass(frozen=True)
class Receiver:
    """One receiver: ``run(cases, solver)`` runs it on a batch of trials of
    one configuration, each case ``(received, design, alphabet, init_seed,
    channels)``, and returns ``(outputs, wall_ms)``: per trial its
    :class:`ReceiverOutput` or the tolerated error it raised, and its share of
    the batch's time in milliseconds.  Only the oracle's reads the channels."""
    name: str
    run: Callable[..., tuple]
    # an ALS receiver's extrapolated step length at sweep k (Bro 1998, §4.6)
    step: Callable[[int], float] | None = None
    # an ALS receiver's relative stopping tolerance eps: its sweeps also stop
    # when the fit moves by no more than eps * fit (as Tensor Toolbox's cp_als
    # does), since at low SNR the fit settles near the noise share and then
    # creeps; below a fit of delta / eps they stop where delta alone does
    rel_tol: float | None = None
    # the (lhs, rhs) products of system dimensions whose lhs >= rhs makes
    # each alternating update's mixing matrix full rank; every lhs holds
    # blocks once, which gives the kmin bounds
    inequalities: tuple = ()


RECEIVERS = {entry.name: entry for entry in (
    # pakron's 3e-3, from its closed-form start, took 12.7 mean sweeps at 0 dB
    # against 15.1 from a random start at 1e-3, with NMSE medians at most 2 %
    # higher and mean SER no higher (5e-3: +4 %).  Its stage I takes more
    # sweeps with tucker's shorter step (36.6 -> 43.6 at 0 dB, d = 16).
    Receiver("pakron", pakron_batch, step=math.sqrt, rel_tol=3e-3,
             inequalities=(("frames*blocks", "tx_antennas*ris_elements"),
                           ("blocks*slots*rx_antennas", "tx_antennas*ris_elements"))),
    # sqrt(k) overshoots tucker's trilinear problem: at 10-30 dB it kept 4-12 %
    # of its candidates, against 35-46 % with k^(1/3), which cut its mean
    # sweeps from 8.2-8.5 to 7.1-7.4.  Its 3e-4 cut them 10.3 -> 7.0 (40.8 ->
    # 19.1 at blocks = 16), and 1e-3 raised its SER at blocks = 16.
    Receiver("tucker", tucker_batch, step=lambda k: k ** (1 / 3), rel_tol=3e-4,
             inequalities=(("frames*blocks*slots", "ris_elements"),
                           ("frames*blocks*rx_antennas", "tx_antennas"),
                           ("blocks*slots*rx_antennas", "tx_antennas*ris_elements"))),
    Receiver("zf-oracle", zf_oracle_batch),
)}


def find_receiver(name: str) -> Receiver:
    """``RECEIVERS[name]``; ``ValueError`` for an unknown name."""
    if name not in RECEIVERS:
        raise ValueError(f"unknown receiver {name!r}; choose from {tuple(RECEIVERS)}")
    return RECEIVERS[name]


def dims_product(expr: str, dims: dict) -> int:
    """The product of the dimensions ``expr`` names, such as ``"frames*blocks"``."""
    return math.prod(dims[name] for name in expr.split("*"))


def require_feasible(receiver: str, dims: dict) -> None:
    """Raise IdentifiabilityError for the first of the receiver's inequalities
    that ``dims`` violates; receivers without any pass."""
    for lhs, rhs in find_receiver(receiver).inequalities:
        left, right = dims_product(lhs, dims), dims_product(rhs, dims)
        if left < right:
            raise IdentifiabilityError(f"{lhs} >= {rhs}", left, right)
