import time

import numpy as np
import pytest

from polydeflate import deflate, oracle
from polydeflate.deflate import DeflatedSystem, RegularPointError
from polydeflate.linalg import numerical_rank, svd
from polydeflate.polysys import Polynomial, PolySystem, parse_system

from conftest import is_graded, load_fixture
from reference import compose_system_linear, dual_nullity_at_order


def univariate_power(d):
    return PolySystem([Polynomial(1, {(d,): 1.0})], ["x"])


def test_multiplicity_of_pure_powers():
    for d in range(1, 7):
        assert oracle.multiplicity(univariate_power(d), [0.0]) == d


def test_multiplicity_simple_root():
    pair = parse_system("1\nx\n(x - 1)*(x - 2);")
    assert oracle.multiplicity(pair, [1.0]) == 1


def test_multiplicity_cubic_trio(cubic_trio):
    assert oracle.multiplicity(cubic_trio, [0.0, 0.0]) == 7


def test_multiplicity_cross_cubes(cross_cubes):
    # the fixture is accepted as the m = 11 benchmark system only because
    # this independent computation reports 11 with corank 3 at the origin
    assert oracle.multiplicity(cross_cubes, [0.0, 0.0, 0.0]) == 11
    jac = cross_cubes.jacobian_at([0.0, 0.0, 0.0])
    assert cross_cubes.nvars - numerical_rank(svd(jac).sigma, 1e-8) == 3


def test_multiplicity_axis_quartic(axis_quartic):
    assert oracle.multiplicity(axis_quartic, [0.0, 0.0]) == 4


def test_multiplicity_rejects_non_root(square):
    with pytest.raises(ValueError):
        oracle.multiplicity(square, [0.5])


def test_multiplicity_sentinel_when_not_stabilized():
    assert oracle.multiplicity(univariate_power(4), [0.0], max_order=2) is None


def test_dual_nullity_order_zero_is_evaluation(square, cubic_trio):
    assert dual_nullity_at_order(square, [0.0], 0) == 1
    assert dual_nullity_at_order(cubic_trio, [0.0, 0.0], 0) == 1


def test_dual_nullity_square_fixture(square):
    assert dual_nullity_at_order(square, [0.0], 1) == 2
    assert dual_nullity_at_order(square, [0.0], 3) == 2


def test_dual_nullity_monotone_until_stable(cubic_trio, cross_cubes):
    for system, point in ((cubic_trio, [0.0, 0.0]), (cross_cubes, [0.0, 0.0, 0.0])):
        values = [dual_nullity_at_order(system, point, d) for d in range(7)]
        assert values == sorted(values)
        m = oracle.multiplicity(system, point)
        assert values[-1] == m
        assert values[-2] == m


def test_column_cap_enforced(cross_cubes):
    with pytest.raises(ValueError):
        oracle.macaulay_matrix(cross_cubes, [0.0, 0.0, 0.0], 40)


def test_macaulay_column_count_is_binomial(cubic_trio):
    from math import comb

    for d in range(4):
        mac = oracle.macaulay_matrix(cubic_trio, [0.0, 0.0], d)
        n = cubic_trio.nvars
        assert mac.matrix.shape[1] == comb(n + d, d)


def test_multiplicity_one_iff_regular(square, cubic_trio):
    pair = parse_system("1\nx\n(x - 1)*(x - 2);")
    assert oracle.multiplicity(pair, [2.0]) == 1
    assert numerical_rank(svd(pair.jacobian_at([2.0])).sigma, 1e-8) == pair.nvars
    # and the converse: the singular fixtures all exceed one
    assert oracle.multiplicity(square, [0.0]) > 1
    assert oracle.multiplicity(cubic_trio, [0.0, 0.0]) > 1


def test_multiplicity_invariant_under_unitary_changes(
    square, axis_quartic, cubic_trio, cross_cubes
):
    rng = np.random.default_rng(424242)
    fixtures = [
        (square, 2),
        (axis_quartic, 4),
        (cubic_trio, 7),
        (cross_cubes, 11),
    ]
    for system, expected in fixtures:
        n = system.nvars
        origin = [0.0] * n
        for _ in range(5):
            raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            q, _ = np.linalg.qr(raw)
            rotated = compose_system_linear(system, q)
            assert oracle.multiplicity(rotated, origin) == expected


def reference_macaulay(system, x_star, order):
    """The loop without a degree cut: every term looked up, every row scaled
    alone, and a shifted coefficient dropped at or below 16 eps times the
    sum over the equation's terms of |c| max(1, |x*|_inf)^degree."""
    radius = max([1.0] + [abs(complex(v)) for v in x_star])
    floors = [16 * np.finfo(float).eps * sum(abs(c) * radius ** sum(gamma)
                                             for gamma, c in p.terms.items())
              for p in system.equations]
    shifted = [p.shift(x_star) for p in system.equations]
    cols = oracle._monomials_upto(system.nvars, order)
    col_index = {alpha: k for k, alpha in enumerate(cols)}
    multipliers = oracle._monomials_upto(system.nvars, order - 1) if order else []
    rows = [(i, beta) for i in range(system.neqs) for beta in multipliers]
    matrix = np.zeros((len(rows), len(cols)), dtype=complex)
    for r, (i, beta) in enumerate(rows):
        for gamma, coeff in shifted[i].terms.items():
            k = col_index.get(tuple(g + b for g, b in zip(gamma, beta)))
            if k is not None and abs(coeff) > floors[i]:
                matrix[r, k] = coeff
        norm = np.linalg.norm(matrix[r])
        if norm > 0:
            matrix[r] /= norm
    return matrix


def reference_nullity(matrix):
    """Nullity from the full SVD, with the relative rank rule written out."""
    if matrix.shape[0] == 0:
        return matrix.shape[1]
    sigma = svd(matrix).sigma
    if sigma[0] == 0.0:
        return matrix.shape[1]
    return matrix.shape[1] - int(np.count_nonzero(sigma > oracle.DEFAULT_TOL * sigma[0]))


def export_chain(name, seed):
    """The fixture and each expanded system of its deflation chain at the
    origin, with the point lifted by the multipliers."""
    current = DeflatedSystem(load_fixture(name))
    z = np.zeros(current.nvars, dtype=complex)
    rng = np.random.Generator(np.random.PCG64(seed))
    systems = [(current.base, z)]
    while True:
        try:
            current, multipliers = deflate.deflate_once(current, z, 1e-8, rng)
        except RegularPointError:
            return systems
        z = np.concatenate([z, multipliers])
        systems.append((current.expand(), z))


@pytest.mark.parametrize("name, chain", [
    ("square.ps", [2, 1]),
    ("axis_quartic.ps", [4, 3, 2, 1]),
    ("cubic_trio.ps", [7, 3, 1]),
    ("cross_cubes.ps", [11, 1]),
    ("bench9.ps", [4, 1]),
])
def test_nullities_match_the_unfiltered_full_svd_reference(name, chain):
    # every system of the deflation chain at the origin, every order up to
    # the one where the reference nullities repeat
    found = []
    for system, point in export_chain(name, 13):
        previous = None
        for order in range(13):
            reference = reference_macaulay(system, point, order)
            expected = reference_nullity(reference)
            mac = oracle.macaulay_matrix(system, point, order)
            # equal before row scaling; the scaling may differ by one rounding
            np.testing.assert_allclose(mac.matrix, reference, rtol=1e-14, atol=0)
            assert dual_nullity_at_order(system, point, order) == expected
            if expected == previous:
                break
            previous = expected
        assert oracle.multiplicity(system, point) == expected
        found.append(expected)
    assert found == chain


# ---------------------------------------------------------------------------
# the closedness recursion that multiplicity runs
# ---------------------------------------------------------------------------

FIXTURE_ROOTS = [("square.ps", 1), ("axis_quartic.ps", 2), ("cubic_trio.ps", 2),
                 ("cross_cubes.ps", 3), ("bench9.ps", 9)]


def recursion_matches_macaulay(system, point):
    """Assert the recursion's nullity equals ``dual_nullity_at_order`` at
    every order until the nullities repeat; return the repeated value."""
    nullities = oracle._nullities(oracle._recentered(system, point), system.nvars)
    previous = None
    for order, current in zip(range(13), nullities):
        assert current == dual_nullity_at_order(system, point, order), order
        if current == previous:
            return current
        previous = current
    raise AssertionError("the nullities did not repeat up to order 12")


@pytest.mark.parametrize("name, nvars", FIXTURE_ROOTS)
def test_recursion_matches_macaulay_on_fixtures_and_export_chains(name, nvars):
    assert recursion_matches_macaulay(load_fixture(name), np.zeros(nvars)) > 1
    for seed in range(4):
        for system, point in export_chain(name, seed):
            found = recursion_matches_macaulay(system, point)
            assert oracle.multiplicity(system, point) == found


@pytest.mark.parametrize("d", range(1, 9))
def test_recursion_matches_macaulay_on_powers_and_ladders(d):
    assert recursion_matches_macaulay(univariate_power(d), [0.0]) == d
    if d >= 2:
        ladder = parse_system(f"2\nx y\nx;\ny^{d};")
        assert recursion_matches_macaulay(ladder, [0.0, 0.0]) == d


@pytest.mark.parametrize("name, nvars", FIXTURE_ROOTS)
def test_recursion_matches_macaulay_off_the_root(name, nvars):
    system = load_fixture(name)
    rng = np.random.Generator(np.random.PCG64(17))
    for distance in 10.0 ** np.arange(-12, -6):
        for _ in range(3):
            direction = rng.normal(size=nvars) + 1j * rng.normal(size=nvars)
            point = distance * direction / np.linalg.norm(direction)
            recursion_matches_macaulay(system, point)


@pytest.mark.parametrize("name, point, expected", [
    ("cbms2.ps", [0.0] * 3, 8),
    ("dz2.ps", [0.0] * 3, 16),
    ("kss5.ps", [1.0] * 5, 16),
])
def test_literature_multiplicities(name, point, expected):
    system = load_fixture(name)
    assert oracle.multiplicity(system, point) == expected
    assert recursion_matches_macaulay(system, point) == expected


@pytest.mark.parametrize("name", ["square", "axis_quartic", "cubic_trio", "cross_cubes",
                                  "bench9", "cbms2", "dz1", "dz2", "kss5"])
def test_recentered_terms_keep_the_graded_order(name):
    system = load_fixture(f"{name}.ps")
    root = np.ones(system.nvars) if name == "kss5" else np.zeros(system.nvars)
    rng = np.random.default_rng(5)
    shifted = root + 0.25 * (rng.normal(size=system.nvars) + 1j * rng.normal(size=system.nvars))
    for point in (root, shifted):
        for terms in oracle._recentered(system, point):
            assert terms and all(degree == sum(gamma) for degree, gamma, _ in terms)
            assert is_graded(gamma for _, gamma, _ in terms)


def test_literature_multiplicity_dz1():
    # the Macaulay loop needs a 4004 x 1365 matrix at order 11, where it settles
    assert oracle.multiplicity(load_fixture("dz1.ps"), [0.0] * 4) == 131


def test_work_cap_refuses_an_order_before_building_it():
    # {x_i^2 : i < 40} at the origin: order 2 is an 820 x 1641 matrix
    n = 40
    squares = PolySystem(
        [Polynomial(n, {tuple(2 * (k == i) for k in range(n)): 1.0}) for i in range(n)],
        [f"x{i}" for i in range(n)])
    begin = time.perf_counter()
    with pytest.raises(ValueError, match="order 2 needs a 820 x 1641 matrix"):
        oracle.multiplicity(squares, np.zeros(n))
    assert time.perf_counter() - begin < 1.0
