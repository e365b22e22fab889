"""Exception types raised by the library.

Each class corresponds to one rejected precondition; plain ValueError is
reserved for garden-variety argument mistakes (wrong lengths, bad ranges).
"""


class ZeroParameter(ValueError):
    """A character-sum parameter that must be nonzero mod p was zero."""


class ConstantPolynomial(ValueError):
    """Polynomial character sum applied to a constant polynomial."""


class DegreeDivisibleByP(ValueError):
    """Polynomial character sum with p dividing the degree (bound unusable)."""


class SingularMatrix(ValueError):
    """A linear map that must be invertible mod p was singular."""


class EmptySet(ValueError):
    """An operation that needs a nonempty point set received an empty one."""


class DegenerateConic(ValueError):
    """The quadratic reduces to a degenerate zero set (no Salem certificate)."""


class BadDegree(ValueError):
    """Polynomial graph with degree < 2 or degree divisible by p."""


class NotSymmetric(ValueError):
    """An operation requiring S = -S received an asymmetric set."""


class DimensionMismatch(ValueError):
    """Witness shape does not match the problem it claims to certify."""


class SizeOutOfRange(ValueError):
    """Requested sample size outside [0, p^d]."""


class DegenerateSize(ValueError):
    """Spectral-gap check on an empty or full subset, where it is vacuous."""


class SweepTooLarge(ValueError):
    """A sweep or search whose cost grows with p would exceed its fixed cap."""


class PointSetParseError(ValueError):
    """Malformed point-set text input; message names the offending line."""
