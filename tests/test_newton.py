import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from polydeflate import linalg, newton
from polydeflate.polysys import parse_system

from conftest import load_fixture
from reference import (array_read_rank, array_scaled_inverse_condition, array_scaled_rank,
                       cumprod_trend, step_ratios)


@pytest.fixture
def unit_quadratic():
    return parse_system("1\nx\nx^2 - 1;")


def first_step(system, x0):
    """The first Gauss-Newton iterate of ``refine`` and the rank it judged."""
    _, _, trace = newton.refine(system, x0, newton.NewtonOptions(max_iterations=1))
    return trace.points[1], trace.ranks[0]


def test_newton_step_regular_quadratic(unit_quadratic):
    x_next, rank = first_step(unit_quadratic, [2.0])
    assert x_next[0] == pytest.approx(1.25)
    assert rank == 1


def test_newton_step_halves_at_double_root(square):
    x_next, _ = first_step(square, [0.1])
    assert x_next[0] == pytest.approx(0.05)


def test_newton_step_componentwise(axis_quartic):
    x_next, rank = first_step(axis_quartic, [0.1, 0.1])
    # diagonal Jacobian: full step on the linear axis, quarter step on x2^4
    assert np.allclose(x_next, [0.0, 0.075])
    assert rank == 2


def test_newton_step_shape_mismatch(square):
    class WrongJacobian:
        nvars = 1
        coefficient_scale = 1.0

        def value_and_jacobian(self, x):
            return square.value_at(x), np.eye(3)

    with pytest.raises(ValueError):
        newton.refine(WrongJacobian(), [0.1])


def test_newton_step_shape_mismatch_on_a_tall_jacobian():
    # a Jacobian wide enough for the QR path, and one value too few
    rng = np.random.default_rng(3)
    jac = rng.normal(size=(60, 30)) + 1j * rng.normal(size=(60, 30))
    assert jac.shape[1] >= linalg.QR_MIN_COLS

    class WrongValue:
        nvars = 30
        coefficient_scale = 1.0

        def value_and_jacobian(self, x):
            return np.ones(59, dtype=complex), jac

    with pytest.raises(ValueError, match="right-hand side has 59 coordinates, expected 60"):
        newton.refine(WrongValue(), np.zeros(30))


def test_refine_regular_root(unit_quadratic):
    x, status, trace = newton.refine(unit_quadratic, [1.1])
    assert status == newton.CONVERGED_REGULAR
    assert trace.ranks[-1] == unit_quadratic.nvars   # full column rank
    assert abs(x[0] - 1.0) <= 1e-12
    assert trace.residuals[-1] <= 1e-14
    assert len(trace.points) - 1 <= 5


def test_refine_stalls_on_double_root(square):
    x, status, trace = newton.refine(square, [0.1])
    assert status == newton.STALLED_SINGULAR
    ratios = step_ratios(trace.steps)
    window = [
        ratio
        for ratio, point in zip(ratios, trace.points[1:])
        if 1e-6 <= abs(point[0]) <= 1e-1
    ]
    assert window
    for ratio in window:
        assert ratio == pytest.approx(0.5, abs=1e-6)
    # the stall is detected with a stable corank of one
    assert square.nvars - trace.ranks[-1] == 1


@pytest.mark.parametrize("text, start, iterates", [
    # sigma = 2x halves from 0.2 to the ceiling sqrt(rank_tol) * scale = 2e-4
    # in 10 steps, and the stall rule needs the same reading on three iterates
    ("1\nx\nx^2;", [0.1], 13),                  # the square fixture
    ("2\nx y\nx;\ny^3;", [1e-3, 2e-3], 6),
])
def test_refine_reads_the_corank_from_the_trend(text, start, iterates):
    # with the scaled cut alone these stall only after 27 and 11 iterates
    system = parse_system(text)
    _, status, trace = newton.refine(system, start)
    assert status == newton.STALLED_SINGULAR
    assert len(trace.points) <= iterates
    assert system.nvars - trace.ranks[-1] == 1


def test_trend_reads_no_kernel_at_a_regular_root(unit_quadratic):
    _, status, trace = newton.refine(unit_quadratic, [1.1])
    assert status == newton.CONVERGED_REGULAR
    assert trace.ranks == [unit_quadratic.nvars] * len(trace.points)


def test_read_rank_is_the_scaled_cut_until_a_trend_shows():
    sigma = [2.0, 1e-3, 1e-9]
    cut = linalg.scaled_rank(sigma, 1e-8, 1.0)
    assert cut == 2
    for history in ([sigma], [sigma, sigma], [sigma] * 3):
        assert newton.read_rank(history, 1e-8, 1.0) == (cut, 0)
    # the second value halves per iterate: falling, but in the kernel only
    # once at or below the ceiling sqrt(1e-8) * scale
    assert newton.read_rank([[1.0, 4e-3], [1.0, 2e-3], [1.0, 1e-3]], 1e-8, 1.0) == (2, 1)
    assert newton.read_rank([[1.0, 4e-3], [1.0, 2e-3], [1.0, 1e-3]], 1e-8, 10.0) == (1, 1)


@pytest.mark.parametrize("coefficient_scale, scale", [(0.25, 1.0), (1.0, 1.0), (3.5, 3.5)])
def test_anchor_scale_clamps_at_one(coefficient_scale, scale):
    system = types.SimpleNamespace(coefficient_scale=coefficient_scale)
    assert newton.anchor_scale(system) == scale


CEILING = 1e-4   # sqrt(rank_tol) * scale at the defaults
# values that meet the trend's comparisons with equality: exact 0.8 ratios
# (computed as the scan computes them), the ceiling, ties and zeros
EDGES = [0.0, CEILING, newton._TREND_FALL * CEILING,
         newton._TREND_FALL * (newton._TREND_FALL * CEILING), 1.0,
         newton._TREND_FALL, newton._TREND_FALL * newton._TREND_FALL, 5e-324]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(0.0, 2.0))


@st.composite
def spectra(draw):
    """Three descending spectra of one size from 1 to 20."""
    size = draw(st.integers(1, 20))
    return [sorted(draw(st.lists(VALUES, min_size=size, max_size=size)), reverse=True)
            for _ in range(3)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spectra(), st.sampled_from([CEILING, 0.0, 2.0]))
@example([[1.0, CEILING],
          [newton._TREND_FALL, newton._TREND_FALL * CEILING],
          [newton._TREND_FALL * newton._TREND_FALL,
           newton._TREND_FALL * (newton._TREND_FALL * CEILING)]], CEILING)
@example([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], CEILING)
def test_trend_scan_matches_the_cumprod_counts(history, ceiling):
    assert newton._trend(history, ceiling) == cumprod_trend(history, ceiling)
    assert newton._trend(history[1:], ceiling) == (0, 0)


# subnormal singular values: the least, one mid-range and the greatest
SUBNORMALS = [5e-324, 1e-310, 2.225073858507201e-308]
SPECTRUM_VALUES = st.one_of(st.sampled_from(EDGES + SUBNORMALS + [1e-8, 2e-8]),
                            st.floats(0.0, 2.0), st.floats(0.0, 1e-300))


@st.composite
def histories(draw):
    """One to three descending spectra of one size from 1 to 20, as lists."""
    size = draw(st.integers(1, 20))
    return [sorted(draw(st.lists(SPECTRUM_VALUES, min_size=size, max_size=size)), reverse=True)
            for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(histories(), st.sampled_from([1e-8, 1e-2, 0.5]), st.sampled_from([1.0, 3.5, 1e8]))
@example([[0.0, 0.0, 0.0]], 1e-8, 1.0)
@example([[1.0, 1e-8, 1e-8, 5e-324]], 1e-8, 1.0)
def test_list_rank_readings_match_their_array_forms(history, tol, scale):
    # ties and zeros meet the cut's comparison with equality; the inverse
    # condition must match bit for bit, which hex() shows
    sigma = history[-1]
    assert linalg.scaled_rank(sigma, tol, scale) == array_scaled_rank(sigma, tol, scale)
    assert (linalg.scaled_inverse_condition(sigma, scale).hex()
            == array_scaled_inverse_condition(sigma, scale).hex())
    assert newton.read_rank(history, tol, scale) == array_read_rank(history, tol, scale)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=1,
                max_size=40))
@example([complex(1e300, -1e-320), 5e-324j])
def test_norm_has_numpy_bits(values):
    # subnormal, huge (whose squares overflow) and non-finite entries alike,
    # with the same warnings, since the same dot products are taken
    v = np.array(values, dtype=complex)

    def outcome(norm):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = float(norm(v)).hex()
        return value, [str(w.message) for w in caught]

    assert outcome(newton._norm) == outcome(np.linalg.norm)


@pytest.mark.parametrize("text, start, root", [
    ("1\nx\nx^2 - 1;", [10.0], [1.0]),
    ("1\nx\nx^2 - 1;", [100.0], [1.0]),
    ("1\nx\n(x - 1)*(x - 2);", [10.0], [2.0]),
    ("1\nx\nx^3 - 8;", [30.0], [2.0]),
    ("1\nx\nx^2 + 1;", [10.0 + 1.0j], [1.0j]),
    ("1\nx\nx^5 - 1;", [5.0 + 0.5j], [1.0]),
])
def test_far_start_at_a_regular_root_reads_no_kernel(text, start, root):
    # far from a regular root Newton shrinks the Jacobian as it would toward
    # a multiple root (x^2 - 1 from 10 looks like x^2), until it nears the
    # root and the singular values level off at the order of the scale
    system = parse_system(text)
    x, status, trace = newton.refine(system, start)
    assert status == newton.CONVERGED_REGULAR
    assert trace.ranks == [system.nvars] * len(trace.points)
    assert np.linalg.norm(x - np.asarray(root)) <= 1e-12


def test_refine_converges_to_nearest_simple_root():
    pair = parse_system("1\nx\n(x - 1)*(x - 2);")
    x, status, _ = newton.refine(pair, [0.9])
    assert status == newton.CONVERGED_REGULAR
    assert abs(x[0] - 1.0) <= 1e-12


def test_refine_rejects_wrong_length(square):
    with pytest.raises(ValueError):
        newton.refine(square, [0.1, 0.2])


def test_refine_trace_budget(square):
    opts = newton.NewtonOptions(max_iterations=5)
    _, status, trace = newton.refine(square, [0.1], opts)
    assert len(trace.points) <= opts.max_iterations + 1
    assert status == newton.MAX_ITER


@pytest.mark.parametrize("start, iterations", [(1e200, 1), (1e-160, 2)])
def test_refine_stops_when_values_overflow(unit_quadratic, start, iterations):
    # from 1e-160 the first step is about 5e159 long, and x^2 overflows there
    with np.errstate(over="ignore", invalid="ignore"):
        x, status, trace = newton.refine(unit_quadratic, [start])
    assert status == newton.DIVERGED
    assert len(trace.points) == iterations
    assert trace.ranks[-1] == 0 and np.isnan(trace.inverse_conditions[-1])
    assert not np.isfinite(trace.residuals[-1])
    assert trace.factored is None
    np.testing.assert_array_equal(x, trace.points[-1])


def test_refine_residual_never_blows_up(square, cubic_trio, cross_cubes):
    starts = {
        "square": ([0.1], square),
        "trio": ([1e-3, 1.3e-3], cubic_trio),
        "cubes": ([1e-3, 0.7e-3, 1.2e-3], cross_cubes),
    }
    for label, (x0, system) in starts.items():
        _, _, trace = newton.refine(system, x0)
        for before, after in zip(trace.residuals, trace.residuals[1:]):
            assert after <= 10 * before + 1e-300, label


def test_refine_quadratic_tail_at_regular_root(unit_quadratic):
    _, status, trace = newton.refine(unit_quadratic, [1.3])
    assert status == newton.CONVERGED_REGULAR
    small = [s for s in trace.steps if s <= 1e-4]
    assert small, "iteration never entered the quadratic regime"
    for prev, cur in zip(trace.steps, trace.steps[1:]):
        if prev <= 1e-4:
            assert cur <= 1e3 * prev ** 2


def test_correct_digits_examples():
    ref = np.array([0.25, 0.5])
    assert newton.correct_digits(ref, ref) == 16.0
    off = ref + np.array([1e-5, 0.0])
    assert newton.correct_digits(off, ref) == pytest.approx(5.0, abs=1e-6)
    off = ref + np.array([0.0, 1e-9])
    assert newton.correct_digits(off, ref) == pytest.approx(9.0, abs=1e-6)


def test_correct_digits_relative_for_large_reference():
    ref = np.array([100.0])
    assert newton.correct_digits(np.array([100.1]), ref) == pytest.approx(3.0)


def test_correct_digits_shape_mismatch():
    with pytest.raises(ValueError):
        newton.correct_digits(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("x,x_ref,message", [
    (np.zeros(2), np.zeros(3), "reference has 3 coordinates, expected 2"),
    (np.zeros((2, 1)), np.zeros(2), r"point has shape \(2, 1\), expected \(2,\)"),
    (np.zeros(2), np.zeros((1, 2)), r"reference has shape \(1, 2\), expected \(2,\)"),
    (0.0, np.zeros(1), "point has 0 coordinates, expected 1"),
])
def test_correct_digits_names_the_mismatch(x, x_ref, message):
    with pytest.raises(ValueError, match=message):
        newton.correct_digits(x, x_ref)


def test_options_validate():
    with pytest.raises(ValueError):
        newton.NewtonOptions(max_iterations=0)
    with pytest.raises(ValueError):
        newton.NewtonOptions(residual_tol=0.0)
    with pytest.raises(ValueError):
        newton.NewtonOptions(rank_tol=1.5)


@pytest.mark.parametrize("name", ["residual_tol", "rank_tol"])
@pytest.mark.parametrize("value", [0.0, 1.0, -1e-3, float("nan")])
def test_options_name_the_tolerance_out_of_range(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\)$"):
        newton.NewtonOptions(**{name: value})


# every fixture with its singular root
FIXTURE_ROOTS = {name: 1.0 if name == "kss5.ps" else 0.0 for name in (
    "axis_quartic.ps", "bench9.ps", "cbms2.ps", "cross_cubes.ps", "cubic_trio.ps",
    "dz1.ps", "dz2.ps", "kss5.ps", "square.ps")}


@pytest.mark.parametrize("iterations", [1, 5, 50])
@pytest.mark.parametrize("name", FIXTURE_ROOTS)
def test_a_singular_stall_has_a_corank(name, iterations):
    # deflate_loop stops on any other status than stalled_singular and relies
    # on this: refine gives that status at a corank above 0 only
    system = load_fixture(name)
    opts = newton.NewtonOptions(max_iterations=iterations)
    statuses = []
    for seed in range(4):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=system.nvars) + 1j * rng.normal(size=system.nvars)
        start = FIXTURE_ROOTS[name] + 1e-3 * u / np.linalg.norm(u)
        _, status, trace = newton.refine(system, start, opts)
        statuses.append(status)
        if status == newton.STALLED_SINGULAR:
            assert trace.ranks[-1] < system.nvars
    if iterations == 50:   # the rule is not vacuous: every fixture stalls
        assert set(statuses) == {newton.STALLED_SINGULAR}
