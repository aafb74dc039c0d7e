"""Exception types shared across the package.

Each class carries the command line's exit code and stderr prefix for it;
a class that sets neither inherits those of ``ToricError``.
"""


class ToricError(Exception):
    """Base class for all package errors; some carry a ``witness``."""

    exit_code, prefix = 4, "hypotheses violated"

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


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


class NonSquare(ToricError):
    """Determinant of a non-square matrix."""


class NoIntegralLift(ToricError):
    """No nonnegative integral exponent vector reaches a degree."""


class Unbounded(ToricError):
    """Polyhedron is unbounded; enumeration refused.  The fan may be valid,
    so the prefix is its own."""

    exit_code, prefix = 3, "unbounded polytope"


class NotAmple(ToricError):
    """Divisor or class fails the ampleness test."""


class DecompositionFailed(ToricError):
    """A term is divisible neither by a cone variable nor by the cone's
    complement monomial; carries the term's exponent as witness."""


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
    """A zero of the partial system lies on the divisor of the omitted
    polynomial: in the local sums, all inputs have a common zero on X."""


class NotTorusZero(ToricError):
    """In the local sums, no single chart holds every zero of the partial
    system; in the torus totals, a zero has a vanishing coordinate."""


class InfiniteIntersection(ToricError):
    """Partial intersection of the divisors is not finite."""


class ExponentTooLarge(ToricError):
    """An exponent is above 2^31 - 1, the largest a packed monomial's field
    holds: refused, not computed."""
