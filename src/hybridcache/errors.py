"""Exception classes of the caching simulator.

A class exists only where code catches it by type or it carries data;
every other rejection raises HybridCacheError with a message that names
what was wrong.
"""


class HybridCacheError(ValueError):
    """Rejected input: a setting, a file row or an argument.

    The CLI exits 2 on it.
    """


class TraceParseError(HybridCacheError):
    """A trace, catalog or results file failed to parse.

    Carries the 1-based line number of the offending row.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyWindow(HybridCacheError):
    """Allocation estimation over a window with no observed requests."""
