"""Exception types shared across the package."""


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

