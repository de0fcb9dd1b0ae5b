"""Semi-blind joint channel and symbol estimation for beyond-diagonal
RIS-assisted MIMO links: signal synthesis, two tensor-based receivers,
identifiability checks and a seeded Monte-Carlo harness."""

from .config import SolverOptions, SystemConfig, derive_seed, load_config
from .errors import (
    ConfigError,
    IdentifiabilityError,
    NumericalError,
    ScalingResolutionError,
)
from .experiments import TrialResult, nmse_aligned, run_sweep, run_trial, ser
from .identifiability import full_report, kmin_bounds, kruskal_check
from .receivers import ReceiverOutput, pakron, resolve_and_detect, tucker, zf_perfect_csi
from .signal import (
    ChannelSet,
    ReceivedTensor,
    ScatteringDesign,
    SymbolBlock,
    add_noise,
    design_scattering,
    draw_scenario,
    gen_channels,
    gen_symbols,
    psk_alphabet,
    synthesize_received,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
