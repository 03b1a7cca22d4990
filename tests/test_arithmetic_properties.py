"""Property tests: arithmetic results are what the checked constructor builds.

Sums, products, powers, derivatives, shifts, embeddings and matrix products
construct their results without the public constructor's input checks.
Each result here is rebuilt through ``Polynomial(nvars, terms)`` and must
come back with the same terms, the same order and the same coefficient bits
(so a negative zero part, which the checked path normalizes, would show),
with int exponents and Python ``complex`` coefficients. Every result, and
every checked construction from unsorted input, holds its terms in graded
lexicographic order. ``differentiate`` relies on that order instead of
sorting, and ``PolyMatrix.evaluate`` must give the bits of the reference
evaluator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polydeflate.polysys import DROP_TOL, Polynomial, PolyMatrix

import reference
from conftest import is_graded

checked = settings(max_examples=60, deadline=None, derandomize=True)

_REALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, DROP_TOL, 1e-301]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)
COEFFICIENTS = st.builds(complex, _REALS, _REALS)


@st.composite
def polynomials(draw, nvars, top=3):
    monomials = st.tuples(*[st.integers(0, top)] * nvars)
    return Polynomial(nvars, draw(st.dictionaries(monomials, COEFFICIENTS, max_size=6)))


@st.composite
def pairs(draw):
    nvars = draw(st.integers(1, 3))
    return draw(polynomials(nvars)), draw(polynomials(nvars))


def bits(p):
    return [(exps, c.real.hex(), c.imag.hex()) for exps, c in p.terms.items()]


def assert_as_if_checked(result):
    assert is_graded(result.terms)
    rebuilt = Polynomial(result.nvars, result.terms)
    assert rebuilt.terms == result.terms
    assert bits(rebuilt) == bits(result)
    assert type(result.nvars) is int
    for exps, c in result.terms.items():
        assert type(exps) is tuple and len(exps) == result.nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(c) is complex and abs(c) >= DROP_TOL


@checked
@given(pairs(), COEFFICIENTS)
def test_ring_operations(pair, scalar):
    a, b = pair
    for result in (a + b, a - b, -a, a * b, a * scalar, scalar * a,
                   a * np.complex128(scalar), a + scalar, scalar - a):
        assert_as_if_checked(result)


@checked
@given(pairs(), st.integers(0, 4))
def test_powers(pair, exponent):
    a, _ = pair
    assert_as_if_checked(a ** exponent)


@checked
@given(pairs(), st.data())
def test_differentiate_shift_embed(pair, data):
    a, _ = pair
    n = a.nvars
    assert_as_if_checked(a.differentiate(data.draw(st.integers(0, n - 1))))
    center = data.draw(st.lists(COEFFICIENTS, min_size=n, max_size=n))
    assert_as_if_checked(a.shift(center))
    assert_as_if_checked(a.shift(np.asarray(center)))
    extra = data.draw(st.integers(0, 2))
    assert_as_if_checked(a.embed(n + extra))
    with pytest.raises(ValueError, match="cannot embed"):
        a.embed(n - 1)


@checked
@given(pairs(), st.data())
def test_shift_recenters(pair, data):
    a, _ = pair
    n = a.nvars
    # centers with zero coordinates leave those variables alone
    center = np.array(data.draw(st.lists(st.sampled_from([0j, 1.5 - 0.5j, -2j]),
                                         min_size=n, max_size=n)))
    u = np.array(data.draw(st.lists(st.sampled_from([0.25, -1 + 1j, 0.5j]),
                                    min_size=n, max_size=n)))
    scale = 1.0 + sum(abs(c) for c in a.terms.values())
    assert (abs(reference.evaluate(a.shift(center), u, {}) - reference.evaluate(a, u + center, {}))
            <= 1e-9 * scale * 10 ** n)


@checked
@given(pairs(), st.data())
def test_right_multiply(pair, data):
    a, b = pair
    cols = data.draw(st.integers(1, 3))
    matrix = np.array(data.draw(st.lists(COEFFICIENTS, min_size=2 * cols,
                                         max_size=2 * cols))).reshape(2, cols)
    product = PolyMatrix([[a, b], [b * a, -a]]).right_multiply(matrix)
    for row in product.entries:
        for entry in row:
            assert_as_if_checked(entry)


@checked
@given(st.integers(1, 3).flatmap(
    lambda n: st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * n), COEFFICIENTS),
                       max_size=8)))
def test_checked_constructor_orders_and_sums(items):
    # unsorted input with repeated monomials: summed first, then cleaned
    nvars = len(items[0][0]) if items else 1
    p = Polynomial(nvars, items)
    assert is_graded(p.terms)
    summed = {}
    for exps, c in items:
        summed[exps] = summed.get(exps, 0j) + c
    assert p.terms == {e: c for e, c in summed.items() if abs(c) >= DROP_TOL}


def test_checked_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match="at least one variable"):
        Polynomial(0, {})
    with pytest.raises(ValueError, match="has 1 exponents, expected 2"):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(2, {(1, -1): 1.0})
    # exponents and coefficients from outside are converted, duplicates summed
    p = Polynomial(2, [((np.int64(1), 2.0), np.complex128(2.0)), ((1, 2), 1)])
    assert p.terms == {(1, 2): 3 + 0j}
    (exps, c), = p.terms.items()
    assert all(type(e) is int for e in exps) and type(c) is complex


@checked
@given(st.integers(1, 3).flatmap(lambda n: polynomials(n, top=6)))
def test_differentiate_keeps_graded_order(a):
    # lowering one exponent keeps the order and merges no two terms, so the
    # unsorted result has the terms and bits of one that is summed and sorted
    for var in range(a.nvars):
        result = a.differentiate(var)
        assert is_graded(result.terms)
        assert bits(result) == bits(reference.differentiate(a, var))


POINTS = st.builds(complex, st.floats(-4, 4), st.floats(-4, 4))


@checked
@given(pairs(), st.data())
def test_evaluate_has_reference_bits(pair, data):
    a, b = pair
    point = np.array(data.draw(st.lists(POINTS, min_size=a.nvars, max_size=a.nvars)))
    matrix = PolyMatrix([[a, b], [b * a, a.differentiate(0)]])
    expected = reference.matrix_value(matrix, point, {})
    assert matrix.evaluate(point).tobytes() == expected.tobytes()
