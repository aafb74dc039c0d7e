"""Release gate: one test per contract item, one printed verdict line each.

Every test prints exactly one line, PASS or FAIL, bypassing capture so the
verdicts are visible in a default pytest run.  A FAIL line is always followed
by the assertion error pytest reports for the same test.
"""

import itertools
import random
from fractions import Fraction

import pytest

from toricres import (
    DegreeClass,
    GroebnerBasis,
    InfiniteIntersection,
    MultiPoly,
    ResidueProblem,
    build_cayley,
    bundle_class,
    cayley_polytope_check,
    cone_determinant,
    critical_degree_lifted,
    degree_of,
    equal_degree_check,
    grevlex,
    irrelevant_ideal,
    parse_poly,
    sigma_independence_check,
    sum_local_residues,
    toric_jacobian,
    toric_residue,
    variable_annihilation_check,
    verify_gtl,
)
from toricres.cli import _random_admissible
from toricres.divisors import is_cartier, is_q_ample
from toricres.files import load_fan, load_problem
from toricres.grading import anticanonical_class, representative_divisor
from toricres.lattice import dot
from toricres.polytopes import intersection_number, monomial_basis

from conftest import FIXTURES
from oracles import power_system_residue


def fx(name):
    return str(FIXTURES / name)


def checked(capfd, number, detail):
    """Context that prints one verdict line for a criterion body."""

    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            with capfd.disabled():
                print(f"ACCEPTANCE {number:2d}: {status} - {detail}")
            return False

    return _Ctx()


def _powers_problem(fanfile, d):
    fan, grading = load_fan(fx(fanfile))
    polys = []
    for i, di in enumerate(d):
        e = [0] * fan.nvars
        e[i] = di
        polys.append(MultiPoly(fan.nvars, {tuple(e): Fraction(1)}))
    return ResidueProblem(fan, polys, grading=grading), fan, grading


def test_01_pentagon_pipeline_exact(capfd):
    with checked(capfd, 1, "pentagon pipeline: grading, ideal, degrees, "
                           "positivity, 22 monomials, one-monomial image"):
        lp = load_problem(fx("pentagon_main.json"))
        pb = lp.problem
        assert lp.grading.provenance == "user"
        gens = {tuple(g) for g in irrelevant_ideal(lp.fan)}
        assert gens == {(0, 0, 1, 1, 1), (1, 0, 0, 1, 1), (1, 1, 0, 0, 1),
                        (1, 1, 1, 0, 0), (0, 1, 1, 1, 0)}
        assert [d.free for d in pb.degrees] == [(2, 3, 1), (1, 3, 2), (1, 3, 2)]
        for d in pb.degrees:
            coeffs = representative_divisor(lp.grading, d)
            assert is_q_ample(lp.fan, coeffs).ok
            assert not is_cartier(lp.fan, coeffs).ok
        assert pb.zero_locus().ok
        assert pb.critical.free == (3, 6, 4)
        assert len(pb.monomials) == 22
        assert pb.order == grevlex(5)
        assert pb.codim.ok
        assert pb.codim.pivot == (3, 0, 0, 3, 7)
        gb = pb.groebner
        for m in pb.monomials:
            nf = gb.reduce(MultiPoly.monomial(m))
            assert set(nf.terms) <= {(3, 0, 0, 3, 7)}


def test_02_pentagon_low_degree_slice(capfd):
    with checked(capfd, 2, "pentagon low-degree inputs: 4 monomials, "
                           "membership without positivity, annihilation"):
        lp = load_problem(fx("pentagon_small.json"))
        pb = lp.problem
        assert pb.critical.free == (1, 2, 1)
        assert len(pb.monomials) == 4
        assert pb.membership_failures == ()
        for d in pb.degrees:
            coeffs = representative_divisor(lp.grading, d)
            assert not is_q_ample(lp.fan, coeffs).ok
        assert pb.codim.ok
        assert variable_annihilation_check(pb).ok


def test_03_surface_codim_failure(capfd):
    with checked(capfd, 3, "quadric surface failure: membership witness, "
                           "two-dimensional slice, products stay out"):
        lp = load_problem(fx("p1p1_not_codim1.json"))
        pb = lp.problem
        fails = pb.membership_failures
        assert fails and fails[0][0] == 0
        report = pb.codim
        assert not report.ok
        squares = {(2, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0)}
        assert set(report.witness) <= squares
        gb = pb.groebner
        cubic = monomial_basis(lp.fan, lp.grading, DegreeClass((3, 0), (), ()))
        assert cubic
        for m in cubic:
            assert not gb.reduce(MultiPoly.monomial(m)).is_zero()


def test_04_one_monomial_image_without_annihilation(capfd):
    with checked(capfd, 4, "pentagon variant: codim passes yet a variable "
                           "product escapes the ideal"):
        lp = load_problem(fx("pentagon_outside.json"))
        pb = lp.problem
        assert pb.codim.ok
        x_xyzu = MultiPoly.monomial((2, 1, 1, 1, 0))
        assert not pb.groebner.reduce(x_xyzu).is_zero()
        assert not variable_annihilation_check(pb).ok


def test_05_cone_determinant_normalization(capfd):
    with checked(capfd, 5, "res(Delta)=1 at every maximal cone on 4 fans "
                           "plus cross-cone consistency"):
        for name in ("p2_fermat.json", "p1p1_numeric.json",
                     "p112_fermat.json", "pentagon_main.json"):
            lp = load_problem(fx(name))
            pb = lp.problem
            for k in range(len(lp.fan.max_cones)):
                pk = ResidueProblem(lp.fan, pb.polys, order=pb.order,
                                    sigma=k, grading=lp.grading)
                assert toric_residue(pk, cone_determinant(pk)) == 1
            assert sigma_independence_check(pb)


def test_06_transformation_law(capfd):
    with checked(capfd, 6, "transformation law: identity, variable scaling, "
                           "20 random admissible matrices"):
        fan, grading = load_fan(fx("p1.fan.json"))
        X = parse_poly("x", fan.variables)
        Y = parse_poly("y", fan.variables)
        one = MultiPoly.constant(2, 1)
        pb = ResidueProblem(fan, [X, Y], grading=grading)
        # both sides equal 1 by the power-system reference values
        assert power_system_residue((0, 0), (1, 1)) == 1
        assert power_system_residue((1, 1), (2, 2)) == 1
        assert toric_residue(pb, one) == 1
        scaled = ResidueProblem(fan, [X * X, Y * Y], grading=grading)
        assert toric_residue(scaled, X * Y) == 1
        assert verify_gtl(pb, [[1, 0], [0, 1]], one)
        Z = MultiPoly.zero(2)
        assert verify_gtl(pb, [[X, Z], [Z, Y]], one)
        rng = random.Random(11)
        for name, trials in (("p1_numeric_b.json", 10), ("p2_fermat.json", 10)):
            lp = load_problem(fx(name))
            for _ in range(trials):
                A = _random_admissible(lp.problem, rng)
                assert verify_gtl(lp.problem, A, lp.inputs[0])


def test_07_power_system_reference_values(capfd):
    with checked(capfd, 7, "variable-power systems match partial-fraction "
                           "values for every admissible monomial"):
        cases = 0
        for fanfile, n in (("p1.fan.json", 1), ("p2.fan.json", 2)):
            fan, grading = load_fan(fx(fanfile))
            for d in itertools.product((1, 2, 3), repeat=n + 1):
                pb, _, _ = _powers_problem(fanfile, d)
                for a in pb.monomials:
                    want = power_system_residue(a, d)
                    assert toric_residue(pb, MultiPoly.monomial(a)) == want
                    cases += 1
        assert cases > 300


def test_08_numeric_agreement(capfd):
    with checked(capfd, 8, "local-sum totals equal the exact values "
                           "on 3 fixtures; degenerate layout refused"):
        expected = {"p1_numeric_a.json": Fraction(-1),
                    "p1_numeric_b.json": Fraction(1, 3),
                    "p1p1_numeric.json": Fraction(-3, 29)}
        admissible = {"p1_numeric_a.json": (0,),
                      "p1_numeric_b.json": (0, 1),
                      "p1p1_numeric.json": (0, 1, 2)}
        for name, want in expected.items():
            lp = load_problem(fx(name))
            assert toric_residue(lp.problem, lp.inputs[0]) == want
            sums = [sum_local_residues(lp.problem, lp.inputs[0], k)
                    for k in admissible[name]]
            assert sums == [want] * len(sums)
        lp = load_problem(fx("p1p1_infinite.json"))
        with pytest.raises(InfiniteIntersection):
            sum_local_residues(lp.problem, lp.inputs[0], 0)


def test_09_jacobian_counts_intersections(capfd):
    with checked(capfd, 9, "chart Jacobian residues hit the intersection "
                           "numbers 1, 4, 2, 3"):
        plans = [("p2.fan.json", (1, 1, 1), 1),
                 ("p2.fan.json", (2, 2, 2), 4),
                 ("p1.fan.json", (3, 3), 3)]
        for fanfile, d, want in plans:
            pb, fan, grading = _powers_problem(fanfile, d)
            value = toric_residue(pb, toric_jacobian(pb))
            assert abs(value) == want
            coeffs = representative_divisor(grading, pb.degrees[0])
            assert intersection_number(fan, coeffs) == want
        lp = load_problem(fx("p1p1_bilinear.json"))
        value = toric_residue(lp.problem, toric_jacobian(lp.problem))
        assert abs(value) == 2
        coeffs = representative_divisor(
            lp.grading, degree_of(lp.problem.polys[0], lp.grading))
        assert intersection_number(lp.fan, coeffs) == 2


def test_10_bundle_lift_checks(capfd):
    with checked(capfd, 10, "bundle lift: shared degree, polytope gluing, "
                            "critical-degree identity on 2 bases"):
        fan, grading = load_fan(fx("p1.fan.json"))
        cd = build_cayley(fan, grading, [(1, 0), (1, 0)])
        F = [parse_poly("x", fan.variables), parse_poly("y", fan.variables)]
        assert equal_degree_check(cd, F)
        assert cayley_polytope_check(cd)
        gamma = bundle_class(cd)
        beta = anticanonical_class(cd.grading)
        assert critical_degree_lifted(cd) == (cd.n + 1) * gamma - beta

        lp = load_problem(fx("p1p1_bilinear.json"))
        divs = [representative_divisor(lp.grading, degree_of(p, lp.grading))
                for p in lp.problem.polys]
        cdb = build_cayley(lp.fan, lp.grading, divs)
        assert equal_degree_check(cdb, lp.problem.polys)
        assert cayley_polytope_check(cdb)
        gamma = bundle_class(cdb)
        beta = anticanonical_class(cdb.grading)
        assert critical_degree_lifted(cdb) == (cdb.n + 1) * gamma - beta


def test_11_randomized_invariants(capfd):
    with checked(capfd, 11, "200 reduction invariance cases, 100 grading "
                            "kernel cases, sign flip under input swaps"):
        rng = random.Random(0)
        names = ("x", "y", "z")
        gens = [parse_poly("x^2 - y*z", names), parse_poly("y^2 - x*z", names)]
        gb = GroebnerBasis.of(gens, grevlex(3))

        def rand_poly():
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(rng.randint(0, 3) for _ in range(3))
                c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if c:
                    terms[e] = terms.get(e, Fraction(0)) + c
            return MultiPoly(3, {e: c for e, c in terms.items() if c})

        for _ in range(100):
            h = rand_poly()
            a0 = Fraction(rng.randint(-4, 4))
            a1 = Fraction(rng.randint(-4, 4))
            shifted = h + a0 * gens[0] + a1 * gens[1]
            assert gb.reduce(shifted) == gb.reduce(h)
        for _ in range(100):
            h1, h2 = rand_poly(), rand_poly()
            c1 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            c2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            left = gb.reduce(c1 * h1 + c2 * h2)
            assert left == c1 * gb.reduce(h1) + c2 * gb.reduce(h2)

        lp = load_problem(fx("pentagon_small.json"))
        for _ in range(100):
            m = tuple(rng.randint(-9, 9) for _ in range(lp.fan.dim))
            e = tuple(dot(m, ray) for ray in lp.fan.rays)
            deg = lp.grading.degree(e)
            assert all(x == 0 for x in deg.free)
            assert all(x == 0 for x in deg.torsion)

        lf = load_problem(fx("p2_fermat.json"))
        pb = lf.problem
        base = toric_residue(pb, lf.inputs[0])
        for i, j in ((0, 1), (0, 2), (1, 2)):
            polys = list(pb.polys)
            polys[i], polys[j] = polys[j], polys[i]
            swapped = ResidueProblem(pb.fan, polys, order=pb.order,
                                     sigma=pb.sigma, grading=pb.grading)
            assert toric_residue(swapped, lf.inputs[0]) == -base
