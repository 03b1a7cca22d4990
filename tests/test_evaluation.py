"""The term-list evaluator against the evaluator before it, bit for bit.

``reference.reference_jet`` evaluates as the package did before
``PolySystem.jet`` read flat term lists: powers memoized by repeated
squaring, a loop over each term map, and each derivative of the Jacobian
built as a symbolic ``PolyMatrix`` and evaluated entry by entry. Reports
and the benchmark's output digests depend on every bit of these values, so
the value, the Jacobian and every derivative tensor below the degree cut
must have the reference's bits, not merely be close: a test here fails as
soon as an operation order changes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polydeflate import deflate
from polydeflate.polysys import PolySystem, parse_system

from conftest import load_fixture
from reference import derivative_matrix, every_parent_term_lists, reference_jet
from test_arithmetic_properties import POINTS, polynomials

FIXTURES = ["square.ps", "axis_quartic.ps", "cubic_trio.ps", "cross_cubes.ps", "bench9.ps",
            "cbms2.ps", "dz1.ps", "dz2.ps", "kss5.ps"]


def same_bits(ours, theirs) -> bool:
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    return (ours.dtype == theirs.dtype == complex and ours.shape == theirs.shape
            and np.array_equal(ours, theirs) and ours.tobytes() == theirs.tobytes())


def assert_jet_has_reference_bits(system, seed):
    """F, J and every D^m J with m below the degree at seeded random points
    near the origin, at unit scale and farther out."""
    cut = max(1, max(p.degree for p in system.equations))
    rng = np.random.default_rng(seed)
    matrices = {}
    for scale in (1e-3, 1.0, 7.0):
        point = scale * (rng.normal(size=system.nvars) + 1j * rng.normal(size=system.nvars))
        value, tensors = system.jet(point, cut)
        ref_value, ref_tensors = reference_jet(system, point, cut, matrices)
        assert same_bits(value, ref_value)
        assert len(tensors) == cut
        for ours, theirs in zip(tensors, ref_tensors):
            assert same_bits(ours, theirs)
        # the public entry points read the same lists and term maps
        assert same_bits(system.value_at(point), ref_value)
        assert same_bits(system.jacobian_at(point), ref_tensors[0])
        both = system.value_and_jacobian(point)
        assert same_bits(both[0], ref_value) and same_bits(both[1], ref_tensors[0])
    jacobian = derivative_matrix(system, (), matrices)
    assert system.coefficient_scale == max(
        (abs(c) for row in jacobian.entries for p in row for c in p.terms.values()),
        default=0.0)


@pytest.mark.parametrize("name", FIXTURES)
def test_jet_has_reference_bits_on_fixtures(name):
    assert_jet_has_reference_bits(load_fixture(name), seed=len(name))


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_jet_has_reference_bits_on_ladders(d):
    assert_jet_has_reference_bits(parse_system(f"2\nx y\nx;\ny^{d};\n"), seed=d)


def test_jet_has_reference_bits_on_expanded_bench9():
    # the many-variable shape of --emit-deflated output solved again
    base = load_fixture("bench9.ps")
    deflated, _ = deflate.deflate_once(base, np.zeros(base.nvars), rng_seed=deflate.DEFAULT_SEED)
    expanded = deflated.expand()
    assert (expanded.nvars, expanded.neqs) == (17, 19)
    assert sum(len(p.terms) for p in expanded.equations) == 457
    assert_jet_has_reference_bits(expanded, seed=17)


def test_jet_without_orders_builds_no_derivative_list():
    system = load_fixture("cubic_trio.ps")
    value, tensors = system.jet(np.array([0.5, 2j]), 0)
    assert tensors == [] and len(system._lists) == 1
    assert list_bits(system._lists) == list_bits(every_parent_term_lists(system, 1))[:1]
    assert same_bits(value, reference_jet(system, [0.5, 2j], 0)[0])


def list_bits(lists):
    """Each order's lists as (factors, coefficient bits) in their order, and
    the positions the order sums."""
    return [([[(factors, c.real.hex(), c.imag.hex()) for factors, c in terms.items()]
              for terms in order], [k for k, _ in nonempty]) for order, nonempty in lists]


def assert_term_lists_skip_only_empty_parents(system):
    top = max(1, system.degree + 1)
    reference = list_bits(every_parent_term_lists(system, top))
    for orders in range(top + 1):
        fresh = PolySystem(system.equations, system.var_names)
        assert list_bits(fresh._term_lists(orders)) == reference[:orders + 1]


@pytest.mark.parametrize("name", FIXTURES)
def test_term_lists_skip_only_empty_parents_on_fixtures(name):
    assert_term_lists_skip_only_empty_parents(load_fixture(name))


@st.composite
def systems(draw):
    nvars = draw(st.integers(1, 3))
    equations = draw(st.lists(polynomials(nvars), min_size=1, max_size=3))
    return PolySystem(equations, [f"x{j}" for j in range(nvars)])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(systems())
def test_term_lists_skip_only_empty_parents_on_drawn_systems(system):
    assert_term_lists_skip_only_empty_parents(system)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(systems(), st.data())
def test_a_value_alone_has_the_bits_of_the_value_beside_the_jacobian(system, data):
    point = data.draw(st.lists(POINTS, min_size=system.nvars, max_size=system.nvars))
    alone = system.value_at(point)   # the first evaluation: no derivative list yet
    assert len(system._lists) == 1
    assert alone.tobytes() == system.value_and_jacobian(point)[0].tobytes()
    assert alone.tobytes() == system.value_at(point).tobytes()
