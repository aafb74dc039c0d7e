"""One signed determinant per cone against the oriented-basis oracle.

A cone's orientation and index used to be read from a basis of M oriented
positively on sigma (``oracles.oriented_basis``) through pairing
determinants (``oracles.pairing_det``).  ``lattice.cone_det`` replaces both:
``cone_sign`` must be the sign of the pairing against sigma's basis,
``cone_group_order`` the pairing of the cone's own basis, ``is_simplicial``
the nonvanishing of every pairing, and the chart Jacobian must divide by
the same index.  Every sigma and k of the six fixture fans, of P^3 and of
random complete polygon fans is compared.
"""

import pytest
from hypothesis import given, settings

from toricres import (
    InvalidFan,
    MultiPoly,
    ResidueProblem,
    compute_grading,
    cone_det,
    cone_group_order,
    is_simplicial,
    load_fan,
    make_fan,
    toric_jacobian,
)

from conftest import FIXTURES, load, complete_polygon_fans
from oracles import basis_toric_jacobian, oriented_basis, pairing_det
from test_functional import VALID_FIXTURES, outcome

FAN_FILES = ["p1", "p2", "p1p1", "p112", "pentagon", "torsion"]
P3 = make_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
              [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


def _sign(x):
    return (x > 0) - (x < 0)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _probe(fan, grading, sigma):
    """A problem at sigma on single-variable inputs: enough for ``cone_sign``."""
    polys = [MultiPoly.variable(fan.nvars, i) for i in range(fan.dim + 1)]
    return ResidueProblem(fan, polys, sigma=sigma, grading=grading)


def _check_fan(fan, grading=None):
    grading = grading or compute_grading(fan)
    cones = range(len(fan.max_cones))
    eye = _identity(fan.dim)
    assert is_simplicial(fan) == all(pairing_det(fan, eye, c) for c in fan.max_cones)
    for k in cones:
        assert cone_det(fan, k) == pairing_det(fan, eye, fan.max_cones[k])
        assert cone_group_order(fan, k) == pairing_det(fan, oriented_basis(fan, k),
                                                       fan.max_cones[k])
    for sigma in cones:
        basis = oriented_basis(fan, sigma)
        pb = _probe(fan, grading, sigma)
        assert [pb.cone_sign(k) for k in cones] == \
            [_sign(pairing_det(fan, basis, fan.max_cones[k])) for k in cones]


@pytest.mark.parametrize("name", FAN_FILES)
def test_fixture_fans_match_the_oriented_basis(name):
    _check_fan(*load_fan(FIXTURES / f"{name}.fan.json"))


def test_p3_matches_the_oriented_basis():
    _check_fan(P3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(complete_polygon_fans())
def test_polygon_fans_match_the_oriented_basis(fan):
    _check_fan(fan)


def test_degenerate_cones():
    # cone 0 has the dependent rays (1,0), (-1,0); cone 2 has one ray
    fan = make_fan(2, [[1, 0], [0, 1], [-1, 0]], [[0, 2], [0, 1], [1]])
    assert [cone_det(fan, k) for k in range(3)] == [0, 1, 0]
    assert not is_simplicial(fan)
    for k in (0, 2):
        with pytest.raises(InvalidFan, match=f"cone {k} does not have 2 independent rays"):
            cone_group_order(fan, k)
    grading = compute_grading(fan)
    polys = [MultiPoly.variable(3, i) for i in range(3)]
    with pytest.raises(ValueError, match="cone rays are dependent"):
        ResidueProblem(fan, polys, sigma=0, grading=grading)
    assert ResidueProblem(fan, polys, sigma=1, grading=grading).cone_sign(0) == 0


def _powers(fan, d):
    return [MultiPoly.monomial(tuple(d * (i == j) for j in range(fan.nvars)))
            for i in range(fan.dim + 1)]


def _shared_degree_problems():
    for name in VALID_FIXTURES:
        pb = load(name).problem
        if all(d == pb.degrees[0] for d in pb.degrees):
            yield name, pb.fan, pb.polys, pb.order, pb.grading
    yield "P3 cubes", P3, _powers(P3, 3), None, compute_grading(P3)


@pytest.mark.parametrize("case", list(_shared_degree_problems()), ids=lambda c: c[0])
def test_toric_jacobian_divides_by_the_oriented_pairing(case):
    _, fan, polys, order, grading = case
    for sigma in range(len(fan.max_cones)):
        pb = ResidueProblem(fan, polys, order=order, sigma=sigma, grading=grading)
        assert outcome(lambda: toric_jacobian(pb)) == outcome(lambda: basis_toric_jacobian(pb))
