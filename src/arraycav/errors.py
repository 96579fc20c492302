"""Exception types shared across the package, and the mode limit that
``optomech.check_modes`` enforces.  It imports nothing, so the CLI can name
the limit in its help without loading the numerics."""

# Largest explicit mechanical basis or chain, and so the largest C and
# multimode model.  Every trace over all N modes takes the completeness route
# instead.
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

