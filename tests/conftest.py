import sys
from pathlib import Path

import pytest

from toricres import load_fan, load_problem, parse_poly

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
