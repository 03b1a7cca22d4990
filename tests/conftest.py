import pathlib

import pytest

from polydeflate import parse_system

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name):
    return parse_system((FIXTURES / name).read_text())


def is_graded(exponents):
    """Whether the exponent tuples come in graded lexicographic order, the
    order of every polynomial's terms: by total degree, then exponents."""
    exponents = list(exponents)
    return exponents == sorted(exponents, key=lambda e: (sum(e), e))


@pytest.fixture
def square():
    return load_fixture("square.ps")


@pytest.fixture
def axis_quartic():
    return load_fixture("axis_quartic.ps")


@pytest.fixture
def cubic_trio():
    return load_fixture("cubic_trio.ps")


@pytest.fixture
def cross_cubes():
    return load_fixture("cross_cubes.ps")
