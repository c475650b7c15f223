"""Typed errors.

Three families, matching the CLI exit-code contract:
  usage/config problems      -> ConfigError            (exit 1)
  data/validation problems   -> GraphDataError family  (exit 2), including
                                an input too large to count exactly
  degenerate inference       -> DegenerateError family (exit 3)
"""


class SignedBalanceError(Exception):
    """Base class for all package errors."""


class ConfigError(SignedBalanceError):
    """Bad option value, malformed experiment config, unknown name."""


# ---------------------------------------------------------------- data errors

class GraphDataError(SignedBalanceError):
    """Base class for input-data and validation errors."""


class EdgeListParseError(GraphDataError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class SelfLoopError(EdgeListParseError):
    pass


class ConflictingSignError(EdgeListParseError):
    pass


class AsymmetricMatrixError(GraphDataError):
    pass


class NonzeroDiagonalError(GraphDataError):
    pass


class AlphabetError(GraphDataError):
    """Adjacency entry outside {-1, 0, +1}."""


class SummaryUndefinedError(GraphDataError):
    """Summary statistics need at least 2 nodes."""


class GraphonRangeError(GraphDataError):
    """rho*F or s*G left [0, 1] at a probed point."""


class CensusExactnessError(GraphDataError):
    """A census count failed its exactness check (input too large to count)."""


# ---------------------------------------------------------- degenerate errors

class DegenerateError(SignedBalanceError):
    """Base class: the inference target is undefined on this input."""


class NoTriangleError(DegenerateError):
    """Zero triangles; the moment ratio does not exist."""


class DegenerateVarianceError(DegenerateError):
    """xi1_hat = 0; the studentized statistic does not exist."""


class DegenerateBootstrapError(DegenerateError):
    """Too many bootstrap replicates were degenerate."""
