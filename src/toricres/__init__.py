"""Exact toric residue computations on complete simplicial fans.

The package computes the residue map in the homogeneous coordinate ring:
given a fan, a critical-degree input H, and a regular sequence of
homogeneous polynomials, it produces an exact rational number, normalized
by the cone determinant of a distinguished maximal cone.  An exact
cross-check sums local residues over the zero set in a torus chart.
"""

from .cayley import (
    CayleyData,
    build_cayley,
    bundle_class,
    cayley_polytope_check,
    critical_degree_lifted,
    equal_degree_check,
    jacobian_ideal_degree_check,
)
from .divisors import PositivityReport, cone_functionals, is_ample, is_cartier, is_q_ample
from .errors import (
    AllReduceToZero,
    CodimNotOne,
    DecompositionFailed,
    DegenerateVolume,
    DegreeMismatch,
    HypothesesFailed,
    InfiniteIntersection,
    InvalidFan,
    NoIntegralLift,
    NonSimpleZero,
    NonSquare,
    NotAGrading,
    NotAmple,
    NotHomogeneous,
    NotSurjective,
    NotTorusZero,
    NotZeroDimensional,
    NonUniqueLift,
    ParseError,
    ToricError,
    Unbounded,
    WrongDegree,
    ZeroOnPolarLocus,
    ZeroPolynomial,
)
from .files import LoadedProblem, load_fan, load_problem
from .grading import (
    DegreeClass,
    Grading,
    anticanonical_class,
    compute_grading,
    critical_degree,
    grading_from_rays,
    representative_divisor,
    validate_user_grading,
)
from .groebner import (
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    grevlex,
    ideal_member,
    lex,
    normal_form,
    parse_order,
    quotient_is_finite,
    standard_monomials,
)
from .lattice import (
    CompletenessReport,
    FanData,
    SmithDecomposition,
    cone_det,
    cone_group_order,
    is_complete,
    is_simplicial,
    make_fan,
    smith_normal_form,
)
from .localres import (
    euler_jacobi_check,
    sum_local_residues,
)
from .poly import (
    MultiPoly,
    degree_of,
    dehomogenize,
    homogenize_to_degree,
    is_homogeneous,
    parse_poly,
    poly_det,
    poly_to_string,
)
from .polytopes import (
    HPolytope,
    divisor_polytope,
    intersection_number,
    lattice_points,
    monomial_basis,
    normalized_volume,
    polytope_volume,
)
from .residues import (
    AnnihilationReport,
    CodimReport,
    ResidueProblem,
    ResidueReport,
    ZeroLocusReport,
    cone_determinant,
    decompose,
    in_irrelevant_ideal,
    irrelevant_ideal,
    jacobian_residue_check,
    no_common_zeros_on_x,
    residue_report,
    sigma_independence_check,
    toric_jacobian,
    toric_residue,
    variable_annihilation_check,
    verify_gtl,
)

__version__ = "0.1.0"

__all__ = [
    "CayleyData", "build_cayley", "bundle_class", "cayley_polytope_check",
    "critical_degree_lifted", "equal_degree_check", "jacobian_ideal_degree_check",
    "PositivityReport", "cone_functionals", "is_ample", "is_cartier", "is_q_ample",
    "AllReduceToZero", "CodimNotOne", "DecompositionFailed", "DegenerateVolume",
    "DegreeMismatch", "HypothesesFailed", "InfiniteIntersection", "InvalidFan",
    "NoIntegralLift", "NonSimpleZero", "NonSquare", "NotAGrading", "NotAmple",
    "NotHomogeneous", "NotSurjective", "NotTorusZero",
    "NotZeroDimensional", "NonUniqueLift", "ParseError", "ToricError", "Unbounded",
    "WrongDegree", "ZeroOnPolarLocus", "ZeroPolynomial",
    "LoadedProblem", "load_fan", "load_problem",
    "DegreeClass", "Grading", "anticanonical_class", "compute_grading",
    "critical_degree", "grading_from_rays", "representative_divisor",
    "validate_user_grading",
    "GroebnerBasis", "MonomialOrder", "buchberger", "grevlex", "ideal_member", "lex",
    "normal_form", "parse_order", "quotient_is_finite", "standard_monomials",
    "CompletenessReport", "FanData", "SmithDecomposition", "cone_det", "cone_group_order",
    "is_complete", "is_simplicial", "make_fan", "smith_normal_form",
    "euler_jacobi_check", "sum_local_residues",
    "MultiPoly", "degree_of", "dehomogenize", "homogenize_to_degree", "is_homogeneous",
    "parse_poly", "poly_det", "poly_to_string",
    "HPolytope", "divisor_polytope", "intersection_number", "lattice_points",
    "monomial_basis", "normalized_volume", "polytope_volume",
    "AnnihilationReport", "CodimReport", "ResidueProblem", "ResidueReport",
    "ZeroLocusReport", "cone_determinant", "decompose",
    "in_irrelevant_ideal", "irrelevant_ideal", "jacobian_residue_check",
    "no_common_zeros_on_x", "residue_report",
    "sigma_independence_check", "toric_jacobian", "toric_residue",
    "variable_annihilation_check", "verify_gtl",
    "__version__",
]
