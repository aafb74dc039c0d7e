import random
from fractions import Fraction

import pytest

from toricres import (
    InvalidFan,
    compute_grading,
    cone_det,
    cone_group_order,
    is_complete,
    is_simplicial,
    load_fan,
    make_fan,
    smith_normal_form,
)
from toricres.lattice import (
    dot,
    hnf_rows,
    mat_det,
    reduce_mod_lattice,
)

from conftest import FIXTURES
from oracles import (degree_system, full_scan_smith_normal_form, mat_rank, random_surface,
                     smith_verify, solve_integer, solve_rational)


def test_dot_of_integers_and_fractions():
    assert dot((2, -3), (4, 5)) == -7 and type(dot((2, -3), (4, 5))) is int
    assert dot((Fraction(1, 2), 3), (4, Fraction(1, 3))) == 3
    assert dot((), ()) == 0


def test_smith_diag_2_3():
    s = smith_normal_form([[2, 0], [0, 3]])
    assert s.diagonal == (1, 6)
    assert smith_verify(s, [[2, 0], [0, 3]])


def test_smith_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    s = smith_normal_form(eye)
    assert s.diagonal == (1, 1, 1)
    assert smith_verify(s, eye)


def test_smith_2_4_6_8():
    a = [[2, 4], [6, 8]]
    s = smith_normal_form(a)
    assert s.diagonal == (2, 4)
    assert smith_verify(s, a)


def test_smith_rectangular_and_unimodular_factors():
    a = [[1, 0], [0, 1], [-1, -1]]
    s = smith_normal_form(a)
    assert smith_verify(s, a)
    assert abs(mat_det(s.U)) == 1
    assert abs(mat_det(s.V)) == 1


def _smith_inputs():
    """The rays of every fixture fan and of random surfaces of 8 to 38 rays,
    each with the degree system of its grading, and seeded integer
    matrices of every shape up to 5 x 5."""
    fans = [load_fan(path) for path in sorted(FIXTURES.glob("*.fan.json"))]
    rng = random.Random(45)
    for nrays in range(8, 39, 3):
        fan, _ = random_surface(rng, nrays, box=4)
        fans.append((fan, compute_grading(fan)))
    for fan, grading in fans:
        yield fan.rays, 0
        yield degree_system(grading), grading.nvars + len(grading.moduli)
    for m in range(6):
        for n in range(1, 6):
            yield [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)], n


def test_smith_stops_at_a_unit_with_the_full_scan_decomposition():
    """A unit pivot ends the pivot search, and it skips the search for an
    entry it does not divide; it is the first least entry in row-major
    order and divides every entry, so U, S and V are those of a scan of
    every entry."""
    count = 0
    for A, ncols in _smith_inputs():
        dec = smith_normal_form(A, ncols)
        assert dec == full_scan_smith_normal_form(A, ncols), A
        assert smith_verify(dec, A) or not A
        count += 1
    assert count > 60


def test_simplicial_fans(p2, p1p1, pentagon):
    assert is_simplicial(p2[0])
    assert is_simplicial(p1p1[0])
    assert is_simplicial(pentagon[0])


def test_complete_fans(p1, p2, p1p1, p112, pentagon, torsion_fan):
    for fan, _ in (p1, p2, p1p1, p112, pentagon, torsion_fan):
        assert is_complete(fan).ok


def test_incomplete_single_cone():
    fan = make_fan(2, [[1, 0], [0, 1]], [[0, 1]])
    report = is_complete(fan)
    assert not report.ok
    assert report.witness


def test_overlapping_cones_flagged():
    # three 2-cones pairwise overlapping around the first quadrant
    fan = make_fan(2,
                   [[1, 0], [0, 1], [-1, -1], [1, 1]],
                   [[0, 1], [0, 3], [1, 2], [0, 2]])
    assert not is_complete(fan).ok


def test_group_orders(p2, p112, pentagon):
    assert [cone_group_order(p2[0], k) for k in range(3)] == [1, 1, 1]
    orders = [cone_group_order(p112[0], k) for k in range(3)]
    assert sorted(orders) == [1, 1, 2]
    # the cone on rays (-1,1) and (-1,-1) has index two
    pent = pentagon[0]
    idx = pent.max_cones.index((2, 3))
    assert cone_group_order(pent, idx) == 2


def test_group_order_from_raw_cone():
    fan = make_fan(2, [[1, 0], [1, 2], [-1, -1]], [[0, 1], [1, 2], [0, 2]])
    assert cone_group_order(fan, 0) == 2


def test_cone_det_p1(p1):
    fan, _ = p1
    # ray 0 is +1, ray 1 is -1
    assert cone_det(fan, fan.max_cones.index((0,))) == 1
    assert cone_det(fan, fan.max_cones.index((1,))) == -1


def test_cone_det_p2(p2):
    fan, _ = p2
    assert fan.max_cones[2] == (0, 1)  # rays (-1,-1),(1,0)
    assert cone_det(fan, 2) == 1


def test_make_fan_rejects_bad_data():
    with pytest.raises(InvalidFan):
        make_fan(2, [[2, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [0, 2]])
    with pytest.raises(InvalidFan):
        make_fan(2, [[1, 0], [1, 0], [-1, -1]], [[0, 1], [1, 2], [0, 2]])
    with pytest.raises(InvalidFan):
        make_fan(2, [[1, 0], [0, 1]], [[0, 5]])


def test_solvers():
    assert solve_rational([[2, 0], [0, 4]], [1, 2]) == (Fraction(1, 2), Fraction(1, 2))
    assert solve_rational([[1, 1], [1, 1]], [1, 2]) is None
    assert solve_integer([[2, 0], [0, 4]], [4, 8]) == (2, 2)
    assert solve_integer([[2]], [3]) is None
    assert mat_rank([[1, 2], [2, 4]]) == 1


def test_a_smith_solve_refuses_a_right_hand_side_of_another_length():
    """The right-hand side has one entry per row: [2] is refused, not solved
    as (2, 0) or as any other vector of two entries."""
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.solve([2, 3]) == (1, 1)
    for b in ([2], [2, 3, 0], []):
        with pytest.raises(ValueError, match=f"right-hand side has {len(b)} entries for 2 rows"):
            snf.solve(b)


def test_hnf_reduction_is_canonical():
    basis = hnf_rows([[2, 1], [0, 3]], 2)
    r1 = reduce_mod_lattice([5, 5], basis)
    r2 = reduce_mod_lattice([5 + 2, 5 + 1], basis)
    assert r1 == r2


@pytest.mark.parametrize("dim, rays, cones", [
    (2, [(1.5, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    (2, [(Fraction(3, 2), 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    (2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1.7, 2), (0, 2)]),
    (2.0, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
], ids=["float-ray", "fraction-ray", "float-cone-index", "float-dim"])
def test_make_fan_refuses_values_that_are_not_integers(dim, rays, cones):
    """int() once read the ray (1.5, 0) as (1, 0) and the cone index 1.7
    as 1, so each of these built the fan of P^2."""
    with pytest.raises(TypeError):
        make_fan(dim, rays, cones)


@pytest.mark.parametrize("call", [
    lambda: smith_normal_form([[1.5, 0], [0, 1]]),
    lambda: hnf_rows([(Fraction(1, 2), 1)], 2),
    lambda: reduce_mod_lattice((1.5, 0), [((1, 0), 0)]),
], ids=["smith", "hnf", "reduce"])
def test_integer_forms_refuse_entries_that_are_not_integers(call):
    with pytest.raises(TypeError):
        call()
