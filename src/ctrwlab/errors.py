"""Shared exception types.

Every error raised by the library maps to one of these classes so the CLI
can translate failures into stable exit codes and machine-readable tags.
"""


class CtrwlabError(Exception):
    """Base class; carries a short machine-readable tag for the CLI."""

    tag = "ERROR"

    def __init__(self, message, tag=None):
        super().__init__(message)
        if tag is not None:
            self.tag = tag


class ParameterError(CtrwlabError):
    """Invalid parameter value (validation failure, exit code 2)."""

    tag = "PARAM"


class RangeError(CtrwlabError):
    """Time or index argument outside the valid range."""

    tag = "RANGE"


class ShapeError(CtrwlabError):
    """Mismatched horizons, grids, or array shapes."""

    tag = "SHAPE"


class DataError(CtrwlabError):
    """Empty or inconsistent data (runtime failure, exit code 3)."""

    tag = "DATA"


class UnsupportedDecomposition(CtrwlabError):
    """Requested split is not defined for this configuration.

    The truncated martingale split needs uncorrelated jumps: with memory in
    the jump sequence, the large-jump part fails to have tight total
    variation and the split stops being useful, so asking for it is treated
    as a caller error rather than silently returning a bad object.
    """

    tag = "DECOMP"
