"""Exception hierarchy for the caching simulator."""


class HybridCacheError(Exception):
    """Base class for all simulator errors."""


class RangeDegenerate(HybridCacheError):
    """A feature normalization range has max == min."""


class EmptyFeatures(HybridCacheError):
    """Feature influence requested for an empty feature vector."""


class LibraryTooSmall(HybridCacheError):
    """Catalog construction needs at least two items."""


class EmptyLibrary(HybridCacheError):
    """An operation over library contents received zero contents."""


class BadUniform(HybridCacheError):
    """Inverse-CDF sampling needs a uniform draw in [0, 1)."""


class TraceParseError(HybridCacheError):
    """A trace or results file failed to parse.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownContent(HybridCacheError):
    """A trace event references an id absent from the catalog."""


class EmptyWindow(HybridCacheError):
    """Allocation estimation over a window with no observed requests."""


class BadInput(HybridCacheError):
    """Knapsack input with a negative value or non-positive size."""


class NeedsIntegerSizes(HybridCacheError):
    """Exact knapsack requires integer item sizes."""


class ColdStart(HybridCacheError):
    """UCB index requested for a content that was never cached."""


class LengthMismatch(HybridCacheError):
    """Paired per-slot series have different lengths."""


class UnknownPolicy(HybridCacheError):
    """Policy name not one of the registered policies."""


class ConfigError(HybridCacheError):
    """Invalid experiment configuration; message names the field."""
