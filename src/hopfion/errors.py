"""Exceptions shared across the package."""


class HopfionError(Exception):
    """Base class for all library errors."""


class RoughFieldError(HopfionError):
    """A link angle at the logarithm's cut, or a relax start beyond the admissibility wall."""


class FluxObstructionError(HopfionError):
    """A pullback 2-form has nonzero flux through a coordinate 2-torus."""


class DegeneratePreimageError(HopfionError):
    """Preimage extraction hit a degenerate cell configuration."""


class ConfigError(HopfionError, ValueError):
    """A run configuration could not be parsed or holds an invalid value."""
