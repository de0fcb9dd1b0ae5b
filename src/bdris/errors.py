"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Malformed configuration file, unknown key, or invalid field value."""


class IdentifiabilityError(RuntimeError):
    """A receiver's uniqueness precondition does not hold.

    Carries the violated inequality by name so callers (and the CLI) can
    report exactly which system dimension is too small.
    """

    def __init__(self, inequality: str, lhs: int, rhs: int):
        self.inequality = inequality
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"identifiability violated: {inequality} fails ({lhs} < {rhs})"
        )


class NumericalError(RuntimeError):
    """An SVD failed to converge, or a received tensor has non-finite or
    zero energy."""


class ScalingResolutionError(RuntimeError):
    """Reference symbol estimate too close to zero to fix a stream's scale."""
