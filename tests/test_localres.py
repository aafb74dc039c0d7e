"""Local residue sums and torus residue totals, exactly; the chart solver
and the per-zero residues of the floating-point oracle they replaced."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import oracles
from toricres import (
    DegreeMismatch,
    InfiniteIntersection,
    MultiPoly,
    NonSimpleZero,
    NotTorusZero,
    NotZeroDimensional,
    WrongDegree,
    ZeroOnPolarLocus,
    euler_jacobi_check,
    parse_poly,
    residue_report,
    sum_local_residues,
    toric_residue,
)

from conftest import load
from oracles import chart_zero_set, local_residue_simple, solve_chart_system

TOL = 1e-8


def up(text, names):
    return parse_poly(text, names)


def close(a, b, tol=TOL):
    return abs(complex(a) - complex(b)) < tol


# ---------------------------------------------------------------------------
# solve_chart_system


def test_solve_univariate_pair_of_roots():
    f = up("x^2 - 1", ("x",))
    zeros, qdim = solve_chart_system([f])
    assert qdim == 2
    got = sorted(z[0].real for z in zeros)
    assert close(got[0], -1) and close(got[1], 1)


def test_solve_triangular_two_variables():
    names = ("a", "b")
    sys_ = [up("a^2 - 1", names), up("b - a", names)]
    zeros, qdim = solve_chart_system(sys_)
    assert qdim == 2
    got = sorted(zeros, key=lambda z: z[0].real)
    assert close(got[0][0], -1) and close(got[0][1], -1)
    assert close(got[1][0], 1) and close(got[1][1], 1)


def test_solve_origin_only():
    names = ("x", "y")
    zeros, qdim = solve_chart_system([up("x", names), up("y", names)])
    assert qdim == 1
    assert len(zeros) == 1
    assert close(zeros[0][0], 0) and close(zeros[0][1], 0)


def test_solve_needs_coordinate_change():
    # neither coordinate alone separates the four zeros; the eigenvectors
    # of a seeded combination of both multiplication matrices do
    names = ("x", "y")
    sys_ = [up("x^2 - 1", names), up("y^2 - 1", names)]
    zeros, qdim = solve_chart_system(sys_)
    assert qdim == 4
    pts = sorted((round(z[0].real), round(z[1].real)) for z in zeros)
    assert pts == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    for z in zeros:
        assert close(z[0] * z[0], 1) and close(z[1] * z[1], 1)


def test_solve_positive_dimensional():
    names = ("x", "y")
    with pytest.raises(NotZeroDimensional):
        solve_chart_system([up("x*y", names)])


def test_solve_multiple_root_refused():
    with pytest.raises(NonSimpleZero):
        solve_chart_system([up("x^2", ("x",))])


def test_newton_stops_relative_to_the_size_of_the_zero(monkeypatch):
    """Near a zero of size 80 a step is a few ulps of 80, above an absolute
    1e-15 but below 1e-15 * |x|: Newton stops instead of taking all steps."""
    names = ("x", "y")
    polys = [up("x^2 + x*y - 12345 - 7*y", names), up("y - x + 1", names)]
    solves = []
    real_solve = np.linalg.solve

    def counted(a, b):
        solves.append(b)
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    start = (12345 ** 0.5 * 1.01, 12345 ** 0.5)
    (x, y), = oracles._newton_refine([oracles._complex_terms(p) for p in polys],
                                     oracles._jacobian_terms(polys), [start])
    assert len(solves) < 10
    assert abs(y - (x - 1)) < 1e-12 and abs(x * x + x * y - 12345 - 7 * y) < 1e-9


# ---------------------------------------------------------------------------
# per-zero residues on the line fixture


def test_chart_zero_set_line():
    lp = load("p1_numeric_a.json")
    zs = chart_zero_set(lp.problem, 0)
    assert zs.quotient_dim == 2
    assert len(zs.zeros) == 2
    for z, jac in zip(zs.zeros, zs.jacobians):
        # dropped system is 1 - y^2 in the distinguished chart
        assert close(z[0] * z[0], 1)
        assert close(jac, -2 * z[0])


def test_local_residue_matches_partial_fractions():
    lp = load("p1_numeric_a.json")
    zs = chart_zero_set(lp.problem, 0)
    from oracles import simple_pole_residue

    for z, jac in zip(zs.zeros, zs.jacobians):
        got = local_residue_simple(lp.problem, lp.inputs[0], 0, z, jac)
        root = round(z[0].real)
        # y / (1 - y^2) has residue num(r)/den'(r) at each simple root r
        want = simple_pole_residue([0, 1], root, [0, -2])
        assert close(got, Fraction(want))
        assert close(got, Fraction(-1, 2))


def test_polar_factor_vanishing_is_refused():
    lp = load("p1_numeric_a.json")
    # in the other chart the dropped input is the coordinate itself
    with pytest.raises(ZeroOnPolarLocus):
        local_residue_simple(lp.problem, lp.inputs[0], 0, (0j,), 1 + 0j,
                             cone_index=1)


def test_zero_jacobian_is_refused():
    lp = load("p1_numeric_a.json")
    with pytest.raises(NonSimpleZero):
        local_residue_simple(lp.problem, lp.inputs[0], 0, (1 + 0j,), 0j)


# ---------------------------------------------------------------------------
# full sums against the exact engine


def test_sum_matches_exact_line_a():
    lp = load("p1_numeric_a.json")
    exact = toric_residue(lp.problem, lp.inputs[0])
    assert exact == -1
    got = sum_local_residues(lp.problem, lp.inputs[0], 0)
    assert got == exact and isinstance(got, Fraction)


def test_sum_matches_exact_line_b_all_k():
    lp = load("p1_numeric_b.json")
    exact = toric_residue(lp.problem, lp.inputs[0])
    assert exact == Fraction(1, 3)
    assert [sum_local_residues(lp.problem, lp.inputs[0], k) for k in (0, 1)] == [exact] * 2


def test_sum_matches_exact_surface_all_k():
    lp = load("p1p1_numeric.json")
    exact = toric_residue(lp.problem, lp.inputs[0])
    assert exact == Fraction(-3, 29)
    assert [sum_local_residues(lp.problem, lp.inputs[0], k) for k in (0, 1, 2)] == [exact] * 3


def test_zero_off_torus_is_refused():
    lp = load("p1_numeric_a.json")
    with pytest.raises(NotTorusZero):
        sum_local_residues(lp.problem, lp.inputs[0], 1)


def test_positive_dimensional_drop_is_refused():
    lp = load("p1p1_infinite.json")
    with pytest.raises(InfiniteIntersection):
        sum_local_residues(lp.problem, lp.inputs[0], 0)


# ---------------------------------------------------------------------------
# the inputs of a sum: H of the critical degree in the fan's ring, k an input


def test_sum_refuses_an_input_of_another_degree():
    lp = load("p1p1_numeric.json")
    H = parse_poly("x", lp.fan.variables)
    with pytest.raises(WrongDegree, match="differs from the critical degree") as exc:
        sum_local_residues(lp.problem, H, 0)
    with pytest.raises(WrongDegree) as want:
        toric_residue(lp.problem, H)
    assert str(exc.value) == str(want.value)
    H = lp.inputs[0] + parse_poly("x^2", lp.fan.variables)
    with pytest.raises(WrongDegree, match="not homogeneous"):
        sum_local_residues(lp.problem, H, 0)


@pytest.mark.parametrize("k", [-1, 3])
def test_sum_refuses_an_index_that_names_no_input(k):
    lp = load("p1p1_numeric.json")
    with pytest.raises(ValueError, match=f"no input with index {k}"):
        sum_local_residues(lp.problem, lp.inputs[0], k)


def test_an_input_from_another_ring_is_refused():
    lp = load("p2_fermat.json")
    H = MultiPoly.monomial((1, 1, 1, 0))
    for compute in (toric_residue, residue_report, lambda pb, h: sum_local_residues(pb, h, 0)):
        with pytest.raises(DegreeMismatch, match="polynomial ring does not match the fan"):
            compute(lp.problem, H)


def test_import_loads_no_numpy():
    code = "import sys, toricres; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# torus residue totals


def test_torus_total_vanishes_for_coordinate_numerator():
    assert euler_jacobi_check(1, [up("x^2 - 1", ("x",))], up("x", ("x",))) == (True, 0)


def test_torus_total_counts_constant_numerator():
    assert euler_jacobi_check(1, [up("x^2 - 1", ("x",))], up("1", ("x",))) == (False, 1)


def test_torus_total_single_zero():
    assert euler_jacobi_check(1, [up("x - 2", ("x",))], up("1", ("x",))) == (False, Fraction(1, 2))


def test_torus_total_vanishes_on_the_ideal():
    f = up("x^2 - 1", ("x",))
    g = up("x", ("x",)) * f
    assert euler_jacobi_check(1, [f], g) == (True, 0)


def test_torus_total_two_variables():
    names = ("x", "y")
    sys_ = [up("x^2 - 1", names), up("y^2 - 1", names)]
    assert euler_jacobi_check(2, sys_, up("x*y", names)) == (True, 0)
