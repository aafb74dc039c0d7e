"""The package's value classes behave as values.

Each one is equal to another of its class with equal fields and hashes
alike, differs when one field differs, is not its own field tuple, takes
its fields by position or by keyword with the same defaults, refuses
assignment and deletion of a field, survives a pickle round trip, and
keeps its repr, which names every field in constructor order.
"""

import pickle
from fractions import Fraction

import pytest

from toricres import (
    AnnihilationReport,
    CayleyData,
    CodimReport,
    CompletenessReport,
    DegreeClass,
    FanData,
    Grading,
    GroebnerBasis,
    HPolytope,
    LoadedProblem,
    MonomialOrder,
    PositivityReport,
    ResidueReport,
    SmithDecomposition,
    ZeroLocusReport,
    make_fan,
    parse_poly,
)

FAN = FanData(1, ((1,), (-1,)), ((0,), (1,)), ("x", "y"))
FAN_REPR = "FanData(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)), variables=('x', 'y'))"
GRADING = Grading(((1,), (-1,)), ((1, 1),))
GRADING_REPR = ("Grading(rays=((1,), (-1,)), free_rows=((1, 1),), torsion_rows=(), "
                "moduli=(), provenance='computed')")
ORDER = MonomialOrder("grevlex", (0, 1))
ORDER_REPR = "MonomialOrder(kind='grevlex', precedence=(0, 1))"

# (class, field names, field values whose last ``defaults`` are the
# class's defaults, defaults, (index, value) of one changed field, repr)
CASES = [
    (SmithDecomposition, ("U", "S", "V"), (((1,),), ((2,),), ((1,),)), 0,
     (1, ((3,),)), "SmithDecomposition(U=((1,),), S=((2,),), V=((1,),))"),
    (FanData, ("dim", "rays", "max_cones", "variables"),
     (1, ((1,), (-1,)), ((0,), (1,)), ("x", "y")), 0, (3, ("u", "v")), FAN_REPR),
    (CompletenessReport, ("ok", "witness"), (True, None), 1,
     (0, False), "CompletenessReport(ok=True, witness=None)"),
    (DegreeClass, ("free", "torsion", "moduli"), ((2, -1), (), ()), 2,
     (0, (2, 1)), "DegreeClass(free=(2, -1), torsion=(), moduli=())"),
    (Grading, ("rays", "free_rows", "torsion_rows", "moduli", "provenance"),
     (((1,), (-1,)), ((1, 1),), (), (), "computed"), 3, (4, "user"), GRADING_REPR),
    (MonomialOrder, ("kind", "precedence"), ("grevlex", (0, 1)), 0,
     (0, "lex"), ORDER_REPR),
    (GroebnerBasis, ("table", "order"), (((1, 1, ()),), ORDER), 0,
     (1, MonomialOrder("lex", (0, 1))), f"GroebnerBasis(table=((1, 1, ()),), order={ORDER_REPR})"),
    (HPolytope, ("dim", "normals", "offsets"),
     (1, ((1,), (-1,)), (Fraction(0), Fraction(2))), 0, (2, (Fraction(0), Fraction(3))),
     "HPolytope(dim=1, normals=((1,), (-1,)), offsets=(Fraction(0, 1), Fraction(2, 1)))"),
    (ZeroLocusReport, ("ok", "witness_cone", "witness_monomial"), (True, None, None), 2,
     (1, 0), "ZeroLocusReport(ok=True, witness_cone=None, witness_monomial=None)"),
    (CodimReport, ("ok", "pivot", "witness", "quotient_dim"), (True, (0, 1), None, 1), 0,
     (3, 2), "CodimReport(ok=True, pivot=(0, 1), witness=None, quotient_dim=1)"),
    (ResidueReport, ("critical", "monomials", "pivot", "delta", "c_sigma", "c_h", "residue"),
     (DegreeClass((2,)), ((0, 2), (1, 1)), (0, 2), parse_poly("x*y", ("x", "y")),
      Fraction(1), Fraction(-1, 2), Fraction(-1, 2)), 0, (5, Fraction(1, 2)),
     "ResidueReport(critical=DegreeClass(free=(2,), torsion=(), moduli=()), "
     "monomials=((0, 2), (1, 1)), pivot=(0, 2), delta=MultiPoly(x1*x2), "
     "c_sigma=Fraction(1, 1), c_h=Fraction(-1, 2), residue=Fraction(-1, 2))"),
    (AnnihilationReport, ("ok", "witness"), (True, None), 1,
     (1, (0, (1, 0))), "AnnihilationReport(ok=True, witness=None)"),
    (PositivityReport, ("ok", "cartier", "witnesses"), (False, True, ()), 1,
     (2, ((0, 1),)), "PositivityReport(ok=False, cartier=True, witnesses=())"),
    (CayleyData, ("fan", "divisors", "bundle", "grading", "base_grading", "variables"),
     (FAN, ((1, 0),), FAN, GRADING, GRADING, ("x", "y")), 0, (1, ((0, 1),)),
     f"CayleyData(fan={FAN_REPR}, divisors=((1, 0),), bundle={FAN_REPR}, "
     f"grading={GRADING_REPR}, base_grading={GRADING_REPR}, variables=('x', 'y'))"),
    (LoadedProblem, ("fan", "grading", "order", "problem", "inputs", "fan_path"),
     (FAN, GRADING, ORDER, None, (), "p1.fan.json"), 0, (5, "other.fan.json"),
     f"LoadedProblem(fan={FAN_REPR}, grading={GRADING_REPR}, order={ORDER_REPR}, "
     "problem=None, inputs=(), fan_path='p1.fan.json')"),
]


@pytest.mark.parametrize("cls, names, values, defaults, changed, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_classes_behave_as_values(cls, names, values, defaults, changed, text):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b and hash(a) == hash(b)
    assert tuple(getattr(a, name) for name in names) == values
    assert cls(*values[:len(values) - defaults]) == cls(**dict(zip(names, values))) == a
    index, value = changed
    other = cls(*values[:index], value, *values[index + 1:])
    assert other != a and not other == a
    assert (a == values) is False and (values == a) is False
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert pickle.loads(pickle.dumps(a)) == a
    assert repr(a) == text


def test_list_built_fans_and_gradings_are_frozen_values():
    """Lists are frozen as ``make_fan`` and ``lattice.freeze`` freeze them:
    a list-built fan equals and hashes as the ``make_fan`` one, and a
    list-built grading equals and hashes as the tuple-built one."""
    fan = FanData(1, [[1], [-1]], [[0], [1]], ["x", "y"])
    assert fan == make_fan(1, [[1], [-1]], [[0], [1]], ["x", "y"]) == FAN
    assert hash(fan) == hash(FAN) and repr(fan) == FAN_REPR
    grading = Grading([[1], [-1]], [[1, 1]], [], [])
    assert grading == GRADING and hash(grading) == hash(GRADING)
    assert repr(grading) == GRADING_REPR
