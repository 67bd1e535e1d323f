"""Argument validation helpers shared across the package.

These helpers raise :class:`repro.exceptions.ConfigurationError` with a
descriptive message so that user-facing estimators fail fast on invalid
hyperparameters instead of producing silently wrong privacy guarantees.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.exceptions import ConfigurationError, ReproError


def check_positive(value: float, name: str, *, strict: bool = True,
                   error: type[ReproError] = ConfigurationError) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite number;
    raises ``error`` (a :class:`ConfigurationError` by default) otherwise."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    if strict and value <= 0:
        raise error(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise error(f"{name} must be >= 0, got {value}")
    return value


def check_probability(value: float, name: str, *, inclusive_low: bool = True,
                      inclusive_high: bool = True) -> float:
    """Validate that ``value`` lies in the unit interval."""
    return check_in_range(
        value,
        name,
        low=0.0,
        high=1.0,
        inclusive_low=inclusive_low,
        inclusive_high=inclusive_high,
    )


def check_in_range(value: float, name: str, *, low: float, high: float,
                   inclusive_low: bool = True, inclusive_high: bool = True) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (bound inclusivity configurable)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    low_ok = value >= low if inclusive_low else value > low
    high_ok = value <= high if inclusive_high else value < high
    if not (low_ok and high_ok):
        lo_b = "[" if inclusive_low else "("
        hi_b = "]" if inclusive_high else ")"
        raise ConfigurationError(f"{name} must be in {lo_b}{low}, {high}{hi_b}, got {value}")
    return value


def check_array_2d(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``array`` is a finite 2-D float array and return it as float64."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim != 2:
        raise ConfigurationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} must contain only finite values")
    return arr
