"""Exception types shared across the package, and the number check that
every config value goes through."""

import math
import numbers


class MagsimError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(MagsimError):
    """Operand shapes are incompatible for the requested operation."""


class TapeError(MagsimError):
    """Gradient tape misuse (double backward, norms before backward, ...)."""


class ContractError(MagsimError):
    """A documented precondition was violated (e.g. alpha outside (0,1))."""


class DatasetError(MagsimError):
    """On-disk dataset is malformed or inconsistent."""


class ConfigError(MagsimError):
    """Run configuration is invalid (unknown key, bad value)."""


def check_number(name: str, value, integer: bool = False, low=None):
    """ContractError unless ``value`` is a finite number (an integer if
    ``integer``) of at least ``low``; a bool (JSON's true/false) is none."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        raise ContractError(f"{name} must be {'an integer' if integer else 'a number'}, "
                            f"got {value!r:.40}")
    if not (integer or math.isfinite(value)):
        raise ContractError(f"{name} must be finite, got {value}")
    if low is not None and value < low:
        raise ContractError(f"{name} must be >= {low}, got {value}")
