"""What the local sums keep on a problem (``ResidueProblem.memo``).

N_k is computed once for each multiset of the other n degrees, the
Q-ampleness of alpha_k once for each degree and the inputs on a chart once
for each (input, cone), so a second k or a second H reuses them; each call
builds its own chart quotients, and a build that raises keeps nothing.  A
k that is not an integer is refused before any of it is built.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from toricres import (GroebnerBasis, InfiniteIntersection, MultiPoly, ResidueProblem, load_fan,
                      parse_poly, sum_local_residues, toric_residue)
from toricres import localres

from conftest import FIXTURES
from test_chart_count import P1P1_DEGREES, message, problem_on


def counted(monkeypatch, module, name):
    """The arguments of each call to ``module.name``, which still runs."""
    calls = []
    real = getattr(module, name)

    def call(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, call)
    return calls


@pytest.fixture
def bases_built(monkeypatch):
    """The systems ``GroebnerBasis.of`` is asked for, in order."""
    built = []
    real = GroebnerBasis.of

    def of(polys, order, *args, **kwargs):
        built.append(list(polys))
        return real(polys, order, *args, **kwargs)

    monkeypatch.setattr(GroebnerBasis, "of", of)
    return built


def p2_cubics(seed=0):
    """Three dense cubics on P^2 with a critical-degree H: equal degrees."""
    fan, grading = load_fan(FIXTURES / "p2.fan.json")
    return problem_on(fan, grading, [(3, 0, 0)] * 3, random.Random(seed))


def p1p1_mixed(seed=0):
    """Forms of degrees (1, 0), (0, 1) and (1, 1) on P^1 x P^1."""
    fan, grading = load_fan(FIXTURES / "p1p1.fan.json")
    degrees = [P1P1_DEGREES[d] for d in ((1, 0), (0, 1), (1, 1))]
    return problem_on(fan, grading, degrees, random.Random(seed))


def all_sums(pb, H):
    """The sum, or its refusal, for every k."""
    return [message(lambda: sum_local_residues(pb, H, k)) for k in range(len(pb.polys))]


@pytest.mark.parametrize("k", [1.0, "1", Fraction(1), None])
def test_a_k_that_is_not_an_integer_is_refused_before_any_basis(k, bases_built):
    """1.0 passed the range check and failed in a slice only once the
    zero-locus pass had built its bases; "1" failed on a comparison."""
    pb, H = p2_cubics()
    with pytest.raises(TypeError, match="k must be an integer input index"):
        sum_local_residues(pb, H, k)
    assert bases_built == []


def test_an_integer_k_of_another_type_is_read_as_its_index():
    pb, H = p2_cubics()
    assert sum_local_residues(pb, H, np.int64(1)) == sum_local_residues(pb, H, 1) \
        == toric_residue(pb, H)


def test_equal_degrees_compute_n_k_and_q_ampleness_once(monkeypatch):
    counts = counted(monkeypatch, localres, "intersection_number")
    amples = counted(monkeypatch, localres, "is_q_ample")
    pb, H = p2_cubics()
    assert all_sums(pb, H) == [toric_residue(pb, H)] * 3
    assert len(counts) == 1 and len(amples) == 1
    all_sums(pb, H)
    assert len(counts) == 1 and len(amples) == 1


def test_unequal_degrees_compute_n_k_once_per_multiset(monkeypatch):
    """On P^1 x P^1 with degrees (1, 0), (0, 1) and (1, 1) each k leaves
    another pair of degrees, and each degree is tested for Q-ampleness
    once; a second pass over k computes neither again."""
    counts = counted(monkeypatch, localres, "intersection_number")
    amples = counted(monkeypatch, localres, "is_q_ample")
    pb, H = p1p1_mixed()
    assert pb.zero_locus().ok
    first = all_sums(pb, H)
    assert all(type(v) is Fraction for v in first)
    assert len(counts) == 3 and len({tuple(sorted(args[1:])) for args in counts}) == 3
    assert len(amples) == 3 and len({args[1] for args in amples}) == 3
    assert all_sums(pb, H) == first
    assert len(counts) == 3 and len(amples) == 3


@pytest.mark.parametrize("problem", [p2_cubics, p1p1_mixed])
def test_each_input_is_dehomogenized_once_per_cone(problem, monkeypatch):
    calls = counted(monkeypatch, localres, "dehomogenize")
    pb, H = problem()
    all_sums(pb, H)
    all_sums(pb, H)
    inputs = [(pb.polys.index(p), cone) for p, _, cone in calls if p in pb.polys]
    assert inputs and len(inputs) == len(set(inputs))
    assert len(calls) - len(inputs) == 2 * len(pb.polys)  # H once on each sum's chart


@pytest.mark.parametrize("problem", [p2_cubics, p1p1_mixed])
def test_a_second_h_sums_as_on_a_new_problem(problem):
    """What the sums of one H keep on a problem leaves the sums of a
    second H, and of the first again, as on the problem built again."""
    pb, H = problem()
    H2 = MultiPoly(pb.fan.nvars, {m: i + 2 for i, m in enumerate(pb.monomials)})
    want = all_sums(ResidueProblem(pb.fan, pb.polys, grading=pb.grading), H2)
    assert all(type(v) is Fraction for v in want)
    first = all_sums(pb, H)
    assert all_sums(pb, H2) == want
    assert all_sums(pb, H) == first


def test_an_infinite_chart_raises_again(bases_built):
    """x, x*y and y*(x + y) on P^1 x P^1 with x dropped meet in the curve
    y = 0: alpha_0 is not Q-ample, so the sum builds every chart, and the
    next call builds the infinite one again, last, and refuses it."""
    fan, grading = load_fan(FIXTURES / "p1p1.fan.json")
    pb = ResidueProblem(fan, [parse_poly(t, fan.variables) for t in ("x", "x*y", "y*(x + y)")],
                        grading=grading)
    refusal = ("InfiniteIntersection", "inputs excluding 0 meet in positive dimension in cone 2")
    assert message(lambda: sum_local_residues(pb, MultiPoly.zero(4), 0)) == refusal
    infinite = bases_built[-1]
    bases_built.clear()
    assert message(lambda: sum_local_residues(pb, MultiPoly.zero(4), 0)) == refusal
    assert bases_built[-1] == infinite
    with pytest.raises(InfiniteIntersection):
        localres._chart(pb, 0, 2)


def test_a_raising_build_keeps_nothing():
    fan, grading = load_fan(FIXTURES / "p2.fan.json")
    pb = ResidueProblem(fan, [parse_poly(t, fan.variables) for t in ("x0", "x1", "x2")],
                        grading=grading)
    calls = []

    def build(fail):
        calls.append(fail)
        if fail:
            raise ValueError("no value")
        return len(calls)

    with pytest.raises(ValueError):
        pb.memo("key", build, True)
    assert pb.memo("key", build, False) == 2
    assert pb.memo("key", build, True) == 2
    assert calls == [True, False]
