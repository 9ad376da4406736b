"""Exception types shared across the toolkit."""


class TrendgramError(Exception):
    """Base class for data-level failures raised by this package."""


class IngestError(TrendgramError):
    """Unrecoverable problem with an input export or corpus file.

    Raised with the `line` it concerns, it reads `line LINE: message`;
    `message` and `line` are kept so that a caller that knows the file
    can name it instead.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.message = message
        self.line = line


class RecordsError(TrendgramError):
    """Corrupt n-gram records file."""


class QueryError(TrendgramError):
    """Malformed trend query string."""
