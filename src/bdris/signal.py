"""Ground-truth generation and received-signal synthesis.

The link is an uplink MIMO channel relayed by a group-connected passive
surface.  During block ``k`` of frame ``i`` the noiseless receive matrix over
the ``slots`` symbol slots is

    Y[i,k] = H @ S @ diag(p_k) @ G_i @ diag(w_k) @ X.T

where ``H`` (rx_antennas x ris_elements) is the static surface-to-receiver
channel, ``S`` is a fixed block-diagonal unitary scattering matrix, ``p_k``
is the unit-modulus per-element rotation applied in block ``k``, ``G_i``
(ris_elements x tx_antennas) is the frame-varying transmitter-to-surface
channel, ``w_k`` is the per-block coding vector and ``X`` (slots x
tx_antennas) holds the transmitted symbols.  Stacking all blocks and frames
gives a fourth-order tensor of shape
(rx_antennas, slots, blocks, frames).

All generators are pure functions of (config, seed).
"""

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import SystemConfig, derive_seed, snr_in_range
from .errors import NumericalError
from .tensor_ops import gram_spectrum, khatri_rao, kron


def psk_alphabet(order: int) -> np.ndarray:
    """Unit-power PSK constellation ``exp(1j*pi*(2m+1)/order)``, m = 0..order-1."""
    m = np.arange(order)
    return np.exp(1j * np.pi * (2 * m + 1) / order)


@dataclass(frozen=True)
class ScatteringDesign:
    """Known receive-side quantities: scattering, rotations, coding.

    A design refuses (``ValueError``) a rank-deficient ``psi``: its rank,
    counted from the eigenvalues of its Gram ``psi^T conj(psi)`` above
    ``max(blocks, d) * eps * lambda_max`` (:func:`bdris.tensor_ops.gram_spectrum`
    says why), must be ``min(blocks, tx_antennas * ris_elements)``.
    """

    s: np.ndarray    # ris_elements x ris_elements, block-diagonal unitary
    p: np.ndarray    # blocks x ris_elements, unit-modulus rotations
    w: np.ndarray    # blocks x tx_antennas, coding matrix

    def __post_init__(self):
        if self.psi_spectrum[2] != min(self.psi.shape):
            raise ValueError("combined rotation/coding matrix is rank deficient")

    @cached_property
    def psi(self) -> np.ndarray:
        """blocks x (tx_antennas * ris_elements), coding and rotations
        combined row-wise: row k is ``kron(w_k, p_k)``."""
        return khatri_rao(self.w.T, self.p.T).T

    @cached_property
    def psi_spectrum(self) -> tuple:
        """``(gram, cond, rank)`` of ``psi`` (:func:`bdris.tensor_ops.gram_spectrum`),
        decomposed once per design: the design's rank check and every receiver
        on it read it.  The Gram is read-only, since they share it."""
        gram, cond, rank = gram_spectrum(self.psi)
        gram.flags.writeable = False
        return gram, cond, rank


@dataclass(frozen=True)
class ChannelSet:
    """Ground-truth channels: static ``h`` and one ``g`` slice per frame."""

    h: np.ndarray    # rx_antennas x ris_elements
    g: np.ndarray    # frames x ris_elements x tx_antennas

    @cached_property
    def gbar(self) -> np.ndarray:
        """frames x (tx_antennas * ris_elements); row i is vec(g[i])."""
        return self.g.transpose(0, 2, 1).reshape(self.g.shape[0], -1)


@dataclass(frozen=True)
class SymbolBlock:
    x: np.ndarray          # slots x tx_antennas; row 0 is the known reference
    alphabet: np.ndarray


@dataclass(frozen=True)
class ReceivedTensor:
    y: np.ndarray                  # rx_antennas x slots x blocks x frames
    achieved_snr_db: float = math.inf


@dataclass(frozen=True)
class TensorViews:
    """The two model views of one received tensor and the fourth-order core.

    ``z``  - third-order view, (rx_antennas*slots) x blocks x frames; frontal
             slice i stacks vec(Y[i,k]) over k.
    ``q4`` - the received tensor itself, reinterpreted as a fourth-order
             multilinear model with the known structured core ``core``.
    """

    z: np.ndarray
    q4: np.ndarray
    core: np.ndarray


def _read_only(*arrays) -> None:
    """Clear the write flag of each array in place: a write then raises
    ``ValueError``, so one scenario can be handed to several receivers."""
    for a in arrays:
        a.flags.writeable = False


def _frozen(a: np.ndarray) -> np.ndarray:
    """A copy of ``a`` over an immutable ``bytes`` buffer: read-only for good,
    since ``setflags(write=True)`` raises on it."""
    return np.frombuffer(a.tobytes(), dtype=a.dtype).reshape(a.shape)


def is_unitary(s) -> bool:
    """Whether ``s`` is square with ``||s s^H - I||_F <= 1e-12 * rows``, the
    tolerance every scattering matrix is held to."""
    n = s.shape[0]
    return s.shape == (n, n) and np.linalg.norm(s @ s.conj().T - np.eye(n)) <= 1e-12 * n


@functools.cache
def _block_dft(ris_elements: int, groups: int) -> np.ndarray:
    """The block-diagonal scattering matrix with unitary DFT blocks, built and
    checked for unitarity once per process for each dimension pair."""
    nbar = ris_elements // groups
    omegas = np.exp(-2j * np.pi * np.arange(nbar) / nbar)[:, None]
    block = omegas ** np.arange(nbar) / math.sqrt(nbar)
    s = np.zeros((ris_elements, ris_elements), dtype=complex)
    for q in range(groups):
        s[q * nbar:(q + 1) * nbar, q * nbar:(q + 1) * nbar] = block
    if not is_unitary(s):
        raise AssertionError("scattering matrix lost unitarity")
    return _frozen(s)


def design_scattering(cfg: SystemConfig, seed: int) -> ScatteringDesign:
    """Draw the known surface/coding design for one scenario.

    The scattering matrix is block-diagonal with unitary DFT blocks of size
    ``ris_elements // groups``; it depends on the dimensions only, so every
    design with the same ``(ris_elements, groups)`` shares one read-only
    array, checked for unitarity when first built.  Rotations and coding
    entries are unit-modulus with random phases (or deterministic DFT-style
    phases when ``phase_design = dft``).  The design checks its ``psi``'s
    rank from ``psi_spectrum``, so the receivers on it take the Gram and its
    condition number from the same decomposition.
    """
    s = _block_dft(cfg.ris_elements, cfg.groups)
    k = cfg.blocks
    n = cfg.ris_elements
    mt = cfg.tx_antennas
    if cfg.phase_design == "dft":
        # Vandermonde phases: row k of psi is then a row of the K-point DFT
        # matrix sampled at column n + m*n_total, full rank by construction.
        kk = np.arange(k)[:, None]
        p = np.exp(-2j * np.pi * kk * np.arange(n)[None, :] / k)
        w = np.exp(-2j * np.pi * kk * (np.arange(mt)[None, :] * n) / k)
    else:
        rng = np.random.default_rng(seed)
        p = np.exp(2j * np.pi * rng.random((k, n)))
        w = np.exp(2j * np.pi * rng.random((k, mt)))
    return ScatteringDesign(s=s, p=p, w=w)


def gen_channels(cfg: SystemConfig, seed: int) -> ChannelSet:
    """Draw ground-truth channels per the configured fading model."""
    rng = np.random.default_rng(seed)
    mr, n, mt, ni = cfg.rx_antennas, cfg.ris_elements, cfg.tx_antennas, cfg.frames
    if cfg.channel_model == "rayleigh":
        h = complex_normal(rng, (mr, n))
        g = complex_normal(rng, (ni, n, mt))
    else:
        root = math.isqrt(n)
        if root * root != n:
            raise ValueError(
                "geometric channel model requires ris_elements to be a perfect square"
            )
        h = _geometric(rng, cfg.paths, mr, root)
        g = np.stack([
            _geometric(rng, cfg.paths, mt, root).conj().T for _ in range(ni)
        ])
    return ChannelSet(h=h, g=g)


def complex_normal(rng, shape):
    """i.i.d. circularly symmetric complex Gaussian entries, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


def _ula(size, angle):
    """Half-wavelength uniform linear array steering vector."""
    return np.exp(1j * np.pi * np.arange(size) * np.sin(angle))


def _upa(root, azimuth, elevation):
    """root x root half-wavelength uniform planar array steering vector."""
    horiz = np.exp(1j * np.pi * np.arange(root) * np.sin(azimuth) * np.sin(elevation))
    vert = np.exp(1j * np.pi * np.arange(root) * np.cos(elevation))
    return np.kron(vert, horiz)  # horizontal index varies fastest


def _geometric(rng, paths, array_size, root):
    """Multipath low-rank channel: linear array x planar surface array."""
    gains = complex_normal(rng, paths) / math.sqrt(paths)
    h = np.zeros((array_size, root * root), dtype=complex)
    for gain in gains:
        theta = rng.uniform(-np.pi / 2, np.pi / 2)
        az = rng.uniform(-np.pi / 2, np.pi / 2)
        el = rng.uniform(0, np.pi / 2)
        h += gain * np.outer(_ula(array_size, theta), _upa(root, az, el).conj())
    return h


def gen_symbols(cfg: SystemConfig, seed: int) -> SymbolBlock:
    """Draw the symbol matrix; the first row is the known reference vector."""
    rng = np.random.default_rng(seed)
    alphabet = psk_alphabet(cfg.modulation_order)
    idx = rng.integers(0, cfg.modulation_order, size=(cfg.slots, cfg.tx_antennas))
    x = alphabet[idx]
    x[0, :] = alphabet[0]
    return SymbolBlock(x=x, alphabet=alphabet)


def synthesize_received(channels: ChannelSet, design: ScatteringDesign,
                        symbols: SymbolBlock) -> ReceivedTensor:
    """Noiseless received tensor of shape (rx, slots, blocks, frames).

    It is formed as one product, the PARAFAC view of the model:
    ``unfold(z, 0) == kron(X, H @ S) @ khatri_rao(gbar, psi).T`` for the
    third-order view ``z`` of :func:`reshape_views`, folded back in Fortran
    order.
    """
    hs = channels.h @ design.s
    if hs.shape[1] != channels.g.shape[1] or channels.g.shape[2] != symbols.x.shape[1]:
        raise ValueError("channel / design / symbol dimensions are inconsistent")
    shape = (hs.shape[0], symbols.x.shape[0], design.psi.shape[0], channels.g.shape[0])
    # this is unfold(z, 0).T in C order, so the Fortran fold is a view of it
    y = khatri_rao(channels.gbar, design.psi) @ kron(symbols.x, hs).T
    return ReceivedTensor(y=y.reshape(shape[::-1]).transpose(), achieved_snr_db=math.inf)


def draw_scenario(cfg: SystemConfig, scenario_seed: int):
    """One noiseless scenario: ``(design, channels, symbols, received)``, each
    component drawn from its own stream derived from ``scenario_seed``.  Its
    arrays are read-only, so that several receivers can share one draw."""
    design = design_scattering(cfg, derive_seed(scenario_seed, "design"))
    channels = gen_channels(cfg, derive_seed(scenario_seed, "channels"))
    symbols = gen_symbols(cfg, derive_seed(scenario_seed, "symbols"))
    received = synthesize_received(channels, design, symbols)
    _read_only(design.p, design.w, design.psi, channels.h, channels.g,
               channels.gbar, symbols.x, symbols.alphabet, received.y)
    return design, channels, symbols, received


def energy(y) -> float:
    """``||y||_F^2`` of a received tensor or a view of it; ``NumericalError``
    unless it is finite (so is every entry) and positive."""
    with np.errstate(over="ignore"):  # an overflow is refused just below
        total = float(np.linalg.norm(y) ** 2)
    if not math.isfinite(total):
        raise NumericalError("received tensor has non-finite entries or energy")
    if not total > 0:
        raise NumericalError("received tensor has zero energy")
    return total


def add_noise(received: ReceivedTensor, snr_db: float, seed: int) -> ReceivedTensor:
    """Add white circular Gaussian noise at the requested per-entry SNR.

    The noise variance is set from the Frobenius power of the noiseless
    tensor: ``sigma2 = ||Y||_F^2 / (numel * 10**(snr/10))``, which
    :func:`energy` refuses when zero or not finite.  The noisy tensor is
    read-only, like the scenario it is added to.  ``snr_db = +inf`` returns
    ``received`` itself; ``-inf``, NaN and an SNR whose power ratio
    ``10**(snr/10)`` overflows or underflows to zero raise ``ValueError``.
    """
    if snr_db == math.inf:
        return received
    if not snr_in_range(snr_db):
        raise ValueError(f"snr_db must be finite or +inf, with a finite nonzero "
                         f"power ratio 10**(snr_db/10), got {snr_db}")
    y0 = received.y
    signal_power = energy(y0)
    sigma2 = signal_power / (y0.size * 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    noise = complex_normal(rng, y0.shape) * math.sqrt(sigma2)
    achieved = 10.0 * math.log10(signal_power / float(np.linalg.norm(noise) ** 2))
    y = y0 + noise
    _read_only(y)
    return ReceivedTensor(y=y, achieved_snr_db=achieved)


def build_core(ris_elements: int, tx_antennas: int) -> np.ndarray:
    """Structured core of the fourth-order multilinear view.

    Shape (ris_elements, tx_antennas, d, d) with d = tx_antennas*ris_elements;
    entry (n, m, r, r) is 1 for r = n + m*ris_elements, all else zero.  Its
    unfolding with rows over modes (0, 1) and columns over modes (2, 3) is
    ``khatri_rao(eye(d), eye(d)).T``.  No receiver builds or reads it: each
    call returns a new array, for callers that ask for the fourth-order model
    itself (:func:`reshape_views`, ``tucker_tals``'s explicit core).
    """
    d = ris_elements * tx_antennas
    core = np.zeros((ris_elements, tx_antennas, d, d), dtype=complex)
    n_idx, m_idx = np.unravel_index(np.arange(d), (ris_elements, tx_antennas), order="F")
    core[n_idx, m_idx, np.arange(d), np.arange(d)] = 1.0
    return core


def reshape_views(received: ReceivedTensor, design: ScatteringDesign) -> TensorViews:
    """The two model views and a new canonical core, for callers that ask for
    the multilinear model; the receivers build neither the views nor the core.

    ``z`` is ``q4`` with its first two modes merged, so both hold the same
    flat data (first mode fastest): the stacked per-frame block matrices.
    """
    y = received.y
    mr, t, k, ni = y.shape
    z = np.reshape(y, (mr * t, k, ni), order="F")
    n = design.s.shape[0]
    mt = design.psi.shape[1] // n
    return TensorViews(z=z, q4=y, core=build_core(n, mt))
