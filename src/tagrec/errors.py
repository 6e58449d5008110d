"""Exception hierarchy and the checks of integer and number settings shared
across the package."""

import math


class TagRecError(Exception):
    """Base class for all errors raised by this package."""


class CorpusError(TagRecError):
    """Malformed, duplicated, or unresolvable taxonomy/dataset content."""


class UnparseableReplyError(TagRecError):
    """A ranker reply contained no usable group identifier."""


class BackendError(TagRecError):
    """A generator, embedder, or ranker backend failed."""


class MissingGenerationError(BackendError):
    """The file-backed generator has no stored text for a record."""


class CacheConflictError(TagRecError):
    """A cache key was written twice with different content."""


class CacheEntryError(TagRecError):
    """A response cache entry file cannot be read back."""


class ConfigError(TagRecError):
    """Invalid run configuration (bad paths, inconsistent parameters)."""


def integer(name: str, value, low: int | None = None,
            high: int | None = None) -> int:
    """``value`` if it is an int, not a bool, from ``low`` to ``high`` where
    given; otherwise a ValueError naming setting ``name``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return _in_range(name, value, value, low, high)


def number(name: str, value, low: float | None = None,
           high: float | None = None) -> float:
    """``value`` as a float if it is a finite int or float, not a bool, from
    ``low`` to ``high`` where given; otherwise a ValueError naming setting
    ``name``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        as_float = float(value)
    except OverflowError:  # an int past every float
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(as_float):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return _in_range(name, value, as_float, low, high)


def _in_range(name: str, value, compared, low, high):
    """``compared`` (``value`` as checked) if from ``low`` to ``high``."""
    if high is not None and not low <= compared <= high:
        raise ValueError(f"{name} must be from {low} to {high}, got {value!r}")
    if low is not None and compared < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return compared
