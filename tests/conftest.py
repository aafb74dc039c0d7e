import sys
from functools import cmp_to_key
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, strategies as st

from toricres import load_fan, load_problem, make_fan, parse_poly

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS.parent / "fixtures"

sys.path.insert(0, str(TESTS))


@pytest.fixture(scope="session")
def fixtures():
    return FIXTURES


@pytest.fixture(scope="session")
def p1():
    return load_fan(FIXTURES / "p1.fan.json")


@pytest.fixture(scope="session")
def p2():
    return load_fan(FIXTURES / "p2.fan.json")


@pytest.fixture(scope="session")
def p1p1():
    return load_fan(FIXTURES / "p1p1.fan.json")


@pytest.fixture(scope="session")
def p112():
    return load_fan(FIXTURES / "p112.fan.json")


@pytest.fixture(scope="session")
def pentagon():
    return load_fan(FIXTURES / "pentagon.fan.json")


@pytest.fixture(scope="session")
def torsion_fan():
    return load_fan(FIXTURES / "torsion.fan.json")


def load(name, **kw):
    return load_problem(FIXTURES / name, **kw)


def poly(text, fan):
    return parse_poly(text, fan.variables)


def polys(texts, fan):
    return [parse_poly(t, fan.variables) for t in texts]


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _angular_key(v):
    # half-plane first, then the exact cross product inside a half-plane
    def cmp(a, b):
        ha = a[1] < 0 or (a[1] == 0 and a[0] < 0)
        hb = b[1] < 0 or (b[1] == 0 and b[0] < 0)
        if ha != hb:
            return 1 if ha else -1
        c = _cross(a, b)
        return -1 if c > 0 else (1 if c < 0 else 0)
    return cmp_to_key(cmp)(v)


@st.composite
def complete_polygon_fans(draw):
    """Rays sorted by angle with every consecutive turn strictly under pi,
    so the consecutive pairs are the maximal cones of a complete fan."""
    raw = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4))
                        .filter(any), min_size=3, max_size=9))
    rays = sorted({(x // gcd(x, y), y // gcd(x, y)) for x, y in raw}, key=_angular_key)
    assume(len(rays) >= 3)
    assume(all(_cross(u, v) > 0 for u, v in zip(rays, rays[1:] + rays[:1])))
    k = len(rays)
    return make_fan(2, rays, [(i, (i + 1) % k) for i in range(k)])


# the Hirzebruch surface F1: D_1 is the exceptional curve E (E^2 = -1) and
# D_3 a line H (H^2 = 1, H.E = 0)
F1 = make_fan(2, [(1, 0), (1, 1), (0, 1), (-1, -1)],
              [(0, 1), (1, 2), (2, 3), (0, 3)])
# the cone {0, 1} of the P^2 fan alone: P_D is still a triangle for
# D = (0, 0, 1), but the one cone functional is one of its vertices
INCOMPLETE = make_fan(2, [(1, 0), (0, 1), (-1, -1)], [(0, 1)])
