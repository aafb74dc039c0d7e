"""Exception types shared across the package.

Each class carries the command line's exit code and stderr prefix for it;
a class that sets neither inherits those of ``ToricError``.
"""


class ToricError(Exception):
    """Base class for all package errors."""

    exit_code, prefix = 4, "hypotheses violated"


class ParseError(ToricError):
    """Malformed input file, polynomial string, or order string."""

    exit_code, prefix = 2, "parse error"


class InvalidFan(ToricError):
    """Fan data violates a structural requirement."""

    exit_code, prefix = 3, "invalid fan"


class NotAGrading(ToricError):
    """User-supplied degree rows do not annihilate the ray pairing."""

    exit_code, prefix = 3, "invalid fan"


class NotSurjective(ToricError):
    """User-supplied degree rows do not map onto the full free degree group."""

    exit_code, prefix = 3, "invalid fan"


class ZeroPolynomial(ToricError):
    """The zero polynomial has no degree."""


class NotHomogeneous(ToricError):
    """Polynomial mixes degrees; carries a witness pair of exponents."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NonSquare(ToricError):
    """Determinant of a non-square matrix."""


class NoIntegralLift(ToricError):
    """A chart monomial has no nonnegative integral homogenization."""


class NonUniqueLift(ToricError):
    """Chart homogenization is underdetermined."""


class Unbounded(ToricError):
    """Polyhedron is unbounded; enumeration refused."""

    exit_code, prefix = 3, "invalid fan"


class DegenerateVolume(ToricError):
    """Polytope is not full-dimensional."""


class NotAmple(ToricError):
    """Divisor or class fails the ampleness test."""


class DecompositionFailed(ToricError):
    """A term is divisible neither by a cone variable nor by the cone's complement monomial."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class WrongDegree(ToricError):
    """Numerator degree differs from the critical degree."""


class CodimNotOne(ToricError):
    """Degree-critical quotient has dimension above one."""

    exit_code, prefix = 5, "codimension failure"


class HypothesesFailed(ToricError):
    """System violates a residue hypothesis (membership or base locus)."""


class AllReduceToZero(ToricError):
    """Every critical-degree monomial lies in the ideal; quotient is zero."""

    exit_code, prefix = 5, "codimension failure"


class DegreeMismatch(ToricError):
    """Degrees of supplied polynomials are inconsistent with the construction."""


class NotZeroDimensional(ToricError):
    """Chart system has positive-dimensional zero locus."""


class NonSimpleZero(ToricError):
    """A zero has multiplicity: the Jacobian vanishes there (det M_J = 0)."""


class ZeroOnPolarLocus(ToricError):
    """A zero of the partial system lies on the divisor of the omitted polynomial."""


class NotTorusZero(ToricError):
    """A zero has a vanishing coordinate; outside the dense torus."""


class InfiniteIntersection(ToricError):
    """Partial intersection of the divisors is not finite."""
