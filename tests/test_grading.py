from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import toricres.grading as grading_mod
from toricres import (
    DegreeClass,
    DegreeMismatch,
    MultiPoly,
    NotAGrading,
    NotSurjective,
    Unbounded,
    anticanonical_class,
    compute_grading,
    critical_degree,
    degree_of,
    representative_divisor,
    load_fan,
    make_fan,
    monomial_basis,
    validate_user_grading,
)

from conftest import FIXTURES, complete_polygon_fans
from oracles import onto_degree_basis, per_call_representative_divisor

FANS = sorted(p.name for p in FIXTURES.glob("*.fan.json"))

PENTAGON_TABLE = [[1, 1, -1, 0, 0]]  # placeholder row, replaced in tests


def test_degree_refuses_an_exponent_of_another_length(p2):
    """A degree reads one entry per variable: a shorter or longer exponent,
    or a polynomial of another ring, is refused, not truncated or padded."""
    g = p2[1]
    assert g.degree((1, 1, 0)).free == (2,)
    for e in [(1, 1), (1, 1, 0, 5), ()]:
        with pytest.raises(DegreeMismatch, match=f"exponent has {len(e)} entries for 3"):
            g.degree(e)
    with pytest.raises(DegreeMismatch):
        degree_of(MultiPoly(2, {(1, 1): 1}), g)


def test_a_degree_class_of_another_group_is_refused(p2, torsion_fan):
    """A class with another count of free entries, or other moduli, is not
    a degree of the grading, and is refused, not truncated or padded:
    (1, 2) or () on P^2, whose group is Z, and a class of Z + Z/5 or of Z
    alone on the torsion fan, whose group is Z + Z/3."""
    fan, g = p2
    tfan, tg = torsion_fan
    assert tg.rank == 1 and tg.moduli == (3,)
    for grading, degree in [(g, DegreeClass((1, 2))), (g, DegreeClass(())),
                            (g, DegreeClass((1,), (0,), (2,))), (tg, DegreeClass((1,))),
                            (tg, DegreeClass((1,), (1,), (5,)))]:
        with pytest.raises(DegreeMismatch, match="not of this grading's group"):
            representative_divisor(grading, degree)
    with pytest.raises(DegreeMismatch):
        monomial_basis(fan, g, DegreeClass((1, 2)))
    degree = DegreeClass((1,), (1,), (3,))
    assert tg.degree(representative_divisor(tg, degree)) == degree


def test_a_degree_class_refuses_a_modulus_below_one():
    """Z/0 and Z/-3 are no cyclic factors: modulus 0 once raised a bare
    ZeroDivisionError and -3 was kept with torsion -2; modulus 1 stays."""
    for moduli in [(0,), (-3,), (3, 0)]:
        with pytest.raises(ValueError, match="must be positive"):
            DegreeClass((1,), (1,) * len(moduli), moduli)
    assert DegreeClass((1,), (4,), (1,)).torsion == (0,)


def test_a_variable_index_outside_the_ring_is_refused(p2):
    """-1 is refused, not read as the last variable, and 3 as the index of
    no variable."""
    g = p2[1]
    for i in (-1, 3):
        with pytest.raises(ValueError, match=f"no variable with index {i}"):
            g.variable_degree(i)


def test_a_trivial_class_group_has_one_variable_per_ray():
    """Rays that form a lattice basis give no free and no torsion rows; the
    grading still has a variable per ray, every degree is the trivial class,
    and its only exponent vector lifts to an unbounded polytope."""
    fan = make_fan(2, [(1, 0), (0, 1)], [(0, 1)])
    g = compute_grading(fan)
    trivial = DegreeClass((), (), ())
    assert g.nvars == 2 and g.rank == 0 and g.moduli == ()
    assert g.degree((1, 0)) == anticanonical_class(g) == trivial
    assert representative_divisor(g, trivial) == (0, 0)
    with pytest.raises(Unbounded):
        monomial_basis(fan, g, trivial)


def test_p2_grading(p2):
    g = p2[1]
    assert g.rank == 1
    assert not g.moduli
    for i in range(3):
        assert g.variable_degree(i).free == (1,)
    assert anticanonical_class(g).free == (3,)


def test_p1p1_grading(p1p1):
    g = p1p1[1]
    assert g.rank == 2
    degs = [g.variable_degree(i).free for i in range(4)]
    # x,y span one ruling, z,t the other (up to the computed basis)
    assert degs[0] == degs[1]
    assert degs[2] == degs[3]
    assert degs[0] != degs[2]
    assert anticanonical_class(g).free == tuple(
        2 * a + 2 * b for a, b in zip(degs[0], degs[2]))


def test_pentagon_accepts_published_table(pentagon):
    fan, g = pentagon
    # the fixture already routes through user validation
    assert g.provenance == "user"
    table = {
        "x": (1, 1, -1), "y": (-1, 1, 1),
        "z": (1, 0, 0), "t": (0, 1, 0), "u": (0, 0, 1),
    }
    for i, name in enumerate(fan.variables):
        assert g.variable_degree(i).free == table[name]
    assert anticanonical_class(g).free == (1, 3, 1)
    # shuffled but equivalent free rows are accepted too
    alt = validate_user_grading(fan, [[1, 1, 0, 1, 0],
                                      [1, -1, 1, 0, 0],
                                      [-1, 1, 0, 0, 1]])
    assert alt.rank == 3


def test_user_rows_must_kill_ray_image(p1p1):
    fan, _ = p1p1
    with pytest.raises(NotAGrading):
        validate_user_grading(fan, [[1, 0, 0, 0], [0, 0, 1, 1]])


def test_user_rows_must_span(p1p1):
    fan, _ = p1p1
    # one valid row cannot span a rank-2 quotient
    with pytest.raises(NotSurjective):
        validate_user_grading(fan, [[1, 1, 0, 0]])
    # scaled rows hit a sublattice only
    with pytest.raises(NotSurjective):
        validate_user_grading(fan, [[2, 2, 0, 0], [0, 0, 1, 1]])


def test_computed_rows_validate(p2, p1p1, pentagon, p112):
    for fan, g in (p2, p1p1, pentagon, p112):
        again = validate_user_grading(fan, [list(r) for r in g.free_rows])
        assert again.rank == g.rank
        for i in range(fan.nvars):
            assert again.variable_degree(i) == g.variable_degree(i)


def test_torsion_grading(torsion_fan):
    fan, g = torsion_fan
    assert g.moduli == (3,)
    assert g.rank == 1
    total = g.degree((1, 1, 1))
    assert total.torsion == (0,)
    x = g.variable_degree(0)
    assert x.torsion != (0,) or g.variable_degree(1).torsion != (0,)


def test_degree_class_arithmetic(p1p1):
    g = p1p1[1]
    a = g.degree((1, 0, 1, 0))
    b = g.degree((0, 1, 0, 1))
    assert (a + b).free == tuple(x + y for x, y in zip(a.free, b.free))
    assert (a - a).is_zero()
    assert (2 * a).free == tuple(2 * x for x in a.free)


def test_critical_degrees(pentagon, p1p1):
    g = pentagon[1]
    degs = [DegreeClass((2, 3, 1), (), ()),
            DegreeClass((1, 3, 2), (), ()),
            DegreeClass((1, 3, 2), (), ())]
    assert critical_degree(g, degs).free == (3, 6, 4)
    degs = [DegreeClass((1, 1, 1), (), ()),
            DegreeClass((0, 2, 1), (), ()),
            DegreeClass((1, 2, 0), (), ())]
    assert critical_degree(g, degs).free == (1, 2, 1)
    g2 = p1p1[1]
    degs2 = [g2.degree((2, 0, 0, 0)), g2.degree((1, 0, 1, 0)),
             g2.degree((0, 1, 0, 1))]
    rho = critical_degree(g2, degs2)
    assert rho == g2.degree((2, 0, 0, 0))


def test_a_critical_degree_of_no_degrees_is_refused(p2):
    # degrees[0] of an empty list raised a bare IndexError
    with pytest.raises(DegreeMismatch, match="at least one input degree"):
        critical_degree(p2[1], [])


def test_representative_divisor_round_trip(pentagon, p2, torsion_fan):
    for fan, g in (pentagon, p2, torsion_fan):
        for e in ((1,) * fan.nvars, (2, 0) + (1,) * (fan.nvars - 2)):
            target = g.degree(e)
            a = representative_divisor(g, target)
            assert g.degree(a) == target


def test_representative_divisor_is_canonical(p1p1):
    g = p1p1[1]
    d1 = representative_divisor(g, g.degree((2, 0, 1, 0)))
    d2 = representative_divisor(g, g.degree((1, 1, 0, 1)))
    assert d1 == d2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(FANS), st.data())
def test_representative_divisor_matches_a_smith_form_per_call(name, data):
    fan, g = load_fan(FIXTURES / name)
    for _ in range(3):
        e = data.draw(st.lists(st.integers(-4, 6), min_size=fan.nvars, max_size=fan.nvars))
        target = g.degree(e)
        assert representative_divisor(g, target) == per_call_representative_divisor(g, target)


@pytest.mark.parametrize("name", FANS)
def test_one_grading_makes_one_smith_form(name, monkeypatch):
    fan, _ = load_fan(FIXTURES / name)
    g = compute_grading(fan)
    calls = []
    real = grading_mod.smith_normal_form
    monkeypatch.setattr(grading_mod, "smith_normal_form",
                        lambda A, *cols: calls.append(A) or real(A, *cols))
    for e in ((0,) * fan.nvars, (1,) * fan.nvars, (3,) + (0,) * (fan.nvars - 1)):
        target = g.degree(e)
        assert representative_divisor(g, target) == per_call_representative_divisor(g, target)
    assert len(calls) == 1


def test_torsion_fan_accepts_the_negated_basis(torsion_fan):
    fan, g = torsion_fan
    user = validate_user_grading(fan, [[-1, -1, -1]])
    for i in range(fan.nvars):
        d = g.variable_degree(i)
        assert user.variable_degree(i) == DegreeClass(tuple(-x for x in d.free),
                                                      d.torsion, d.moduli)


def test_torsion_fan_refuses_the_doubled_basis(torsion_fan):
    # with the torsion row and the ray image, [2, 2, 2] spans the lattice
    # that [1, 1, 1] spans, yet it maps the class group onto 2Z only
    fan, _ = torsion_fan
    with pytest.raises(NotSurjective, match="do not generate"):
        validate_user_grading(fan, [[2, 2, 2]])


TORSION_FAN = load_fan(FIXTURES / "torsion.fan.json")[0]


@st.composite
def changes_of_basis(draw):
    """A fixture fan or a random complete polygon fan, and a matrix T with
    rank - 1 to rank + 1 rows, rank rows half the time: with rank rows, half
    the time a product of elementary moves and sign flips, so unimodular,
    else any small entries."""
    fan = draw(st.one_of(st.sampled_from(FANS).map(lambda name: load_fan(FIXTURES / name)[0]),
                         complete_polygon_fans()))
    r = compute_grading(fan).rank
    k = draw(st.sampled_from([r, r, max(r - 1, 0), r + 1]))
    if k == r and draw(st.booleans()):
        T = [[int(i == j) for j in range(r)] for i in range(r)]
        for _ in range(draw(st.integers(0, 4))):
            i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            q = draw(st.integers(-2, 2))
            if i != j:
                T[i] = [a + q * b for a, b in zip(T[i], T[j])]
            elif q < 0:
                T[i] = [-a for a in T[i]]
    else:
        T = [draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)) for _ in range(k)]
    return fan, tuple(map(tuple, T))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(changes_of_basis())
@example((TORSION_FAN, ((2,),)))
@example((TORSION_FAN, ((-1,),)))
def test_user_rows_are_accepted_exactly_when_their_degree_map_is_onto(case):
    fan, T = case
    g = compute_grading(fan)
    rows = [[sum(t * row[j] for t, row in zip(trow, g.free_rows)) for j in range(fan.nvars)]
            for trow in T]
    onto = onto_degree_basis(fan, rows)
    try:
        user = validate_user_grading(fan, rows)
    except NotSurjective as exc:
        assert not onto
        assert "do not generate" in str(exc) or len(rows) != g.rank
        return
    assert onto
    for i in range(fan.nvars):
        d = g.variable_degree(i)
        assert user.variable_degree(i) == DegreeClass(
            tuple(sum(t * x for t, x in zip(trow, d.free)) for trow in T), d.torsion, d.moduli)


def test_degrees_refuse_values_that_are_not_integers(p2):
    """int() once read each of these as 1: the user row (1.7, 1, 1) was
    stored as (1, 1, 1), and the degrees of (1.5, 0, 0) and (1.9,) were
    those of 1."""
    fan, grading = p2
    with pytest.raises(TypeError):
        validate_user_grading(fan, [[1.7, 1, 1]])
    with pytest.raises(TypeError):
        grading.degree((1.5, 0, 0))
    with pytest.raises(TypeError):
        grading.degree((Fraction(3, 2), 0, 0))
    with pytest.raises(TypeError):
        DegreeClass((1.9,))
    with pytest.raises(TypeError):
        DegreeClass((1,), (Fraction(1, 2),), (2,))
    with pytest.raises(TypeError):
        DegreeClass((1,), (1,), (2.0,))
    assert grading.degree((1, 0, 0)) == DegreeClass((1,))
