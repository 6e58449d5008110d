"""Exception hierarchy shared across the package."""


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
