"""Exception types shared across the package.

The CLI maps these onto exit codes: anything derived from SemtaggerError
(or IndexError from tag/id range checks) is a data/model error (exit 1);
bad command lines are usage errors (exit 2) and are handled by argparse.
"""


class SemtaggerError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SemtaggerError, ValueError):
    """Array shapes or sequence lengths do not line up."""


class EmptySequenceError(SemtaggerError, ValueError):
    """An operation that needs at least one time step got an empty input."""


class ConfigError(SemtaggerError, ValueError):
    """Invalid configuration value (dimension, fraction, missing file, ...)."""


class ParseError(SemtaggerError, ValueError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class EmptyCorpusError(SemtaggerError, ValueError):
    """A corpus file parsed to zero sentences."""


class UnknownTagError(SemtaggerError, KeyError):
    """A tag outside the closed tag inventory was encountered."""

    def __init__(self, tag: str):
        super().__init__(f"unknown tag {tag!r}: the tag inventory is closed")
        self.tag = tag

    def __str__(self):  # plain message, not KeyError's quoted repr
        return self.args[0]


class DivergenceError(SemtaggerError, ValueError):
    """Scores or parameters became non-finite, as when training diverges."""


class CheckpointError(SemtaggerError, ValueError):
    """Checkpoint file is malformed or inconsistent with its own manifest."""
