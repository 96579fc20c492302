"""Exception types shared across the package, and the mechanical chain's mode
limit, which ``dynamics --modes`` and ``om_dynamics.evolve_chain`` obey.  It
imports nothing, so the CLI can check and name the limit without loading the
numerics."""

# Longest mechanical chain, and so the largest C and multimode model.  Every
# trace over all N modes takes the completeness route instead.
MAX_MODES = 512


class ArrayCavError(Exception):
    """Base class for all package errors."""


class ConfigError(ArrayCavError):
    """Bad or missing configuration value; message names the offending key."""


class RegimeError(ArrayCavError):
    """A required physical-regime inequality is violated."""


class ConvergenceError(ArrayCavError):
    """A numerical routine failed to meet its accuracy target."""


class GrazingError(ArrayCavError):
    """Wavevector sits exactly on a light line / grazing diffraction order."""

