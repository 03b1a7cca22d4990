"""Tests for the deflation machinery.

Covers the stage data type, the single-step and looped deflation
operations, the structured evaluator against the naively expanded
system, and the multiplicity drop checked through the dual-space
counter in :mod:`polydeflate.oracle`.
"""

import hashlib

import numpy as np
import pytest

from polydeflate import deflate, linalg, newton, oracle, polysys
from polydeflate.deflate import DeflatedSystem, DeflationStage, RegularPointError
from polydeflate.polysys import PolySystem, format_system, parse_system

from conftest import load_fixture
from reference import (compose_system_linear, concatenated_value, evaluate, recursive_jacobians,
                       recursive_value, symbolic_deflation, two_call_draws, unique_layout)

FIXTURE_ROOTS = [
    ("square.ps", 1, 2),
    ("axis_quartic.ps", 2, 4),
    ("cubic_trio.ps", 2, 7),
    ("cross_cubes.ps", 3, 11),
]


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def ladder(d):
    """{x, y^d}: corank 1 at the origin, d - 1 stages, 2^d variables."""
    return parse_system(f"2\nx y\nx;\ny^{d};\n")


def random_point(rng, size):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


def chain_at_origin(system, max_stages, seed=13):
    """Deflate repeatedly at the exact origin, lifting with the multipliers."""
    current = DeflatedSystem(system)
    z = np.zeros(system.nvars, dtype=complex)
    rng = rng_for(seed)
    for _ in range(max_stages):
        try:
            current, multipliers = deflate.deflate_once(current, z, 1e-8, rng)
        except RegularPointError:
            break
        z = np.concatenate([z, multipliers])
    return current, z


# ---------------------------------------------------------------------------
# random draws and stage bookkeeping
# ---------------------------------------------------------------------------

def test_unit_circle_matrix_has_unit_modulus():
    m = deflate.unit_circle_matrix(rng_for(7), 4, 6)
    assert m.shape == (4, 6)
    assert np.max(np.abs(np.abs(m) - 1.0)) < 1e-15


def test_unit_circle_matrix_is_seed_deterministic():
    a = deflate.unit_circle_matrix(rng_for(21), 3, 3)
    b = deflate.unit_circle_matrix(rng_for(21), 3, 3)
    c = deflate.unit_circle_matrix(rng_for(22), 3, 3)
    assert a.tobytes() == b.tobytes()
    assert not np.allclose(a, c)


def test_unit_circle_matrix_rejects_empty():
    with pytest.raises(ValueError):
        deflate.unit_circle_matrix(rng_for(0), 0, 2)


def test_stage_validates_rank_range():
    # rank 2 in 2 variables, then rank -1
    mix = deflate.unit_circle_matrix(rng_for(1), 2, 3)
    anchor = deflate.unit_circle_matrix(rng_for(2), 1, 3)[0]
    with pytest.raises(ValueError):
        DeflationStage(mix, anchor)
    with pytest.raises(ValueError):
        DeflationStage(np.ones((2, 0), dtype=complex), np.ones(0, dtype=complex))


def test_stage_validates_shapes_and_modulus():
    anchor = deflate.unit_circle_matrix(rng_for(3), 1, 2)[0]
    with pytest.raises(ValueError, match="shape"):   # more columns than rows
        DeflationStage(np.ones((1, 2), dtype=complex), anchor)
    with pytest.raises(ValueError, match="anchor has 2 coordinates, expected 3"):
        DeflationStage(np.ones((3, 3), dtype=complex), anchor)
    with pytest.raises(ValueError, match="modulus"):
        DeflationStage(2.0 * np.ones((2, 2), dtype=complex), anchor)
    with pytest.raises(ValueError, match="modulus"):
        DeflationStage(np.full((2, 2), np.nan, dtype=complex), anchor)


def as_lists(array):
    return array.tolist()


def as_tuples(array):
    return tuple(map(tuple, array.tolist())) if array.ndim == 2 else tuple(array.tolist())


STAGE_DRAWS = {
    "drawn": (deflate.unit_circle_matrix(rng_for(8), 4, 3),
              deflate.unit_circle_matrix(rng_for(9), 1, 3)[0]),
    "signs": (np.array([[1, -1], [-1, 1], [1, 1]]), np.array([1, -1])),   # integer arrays
}


@pytest.mark.parametrize("form", [as_lists, as_tuples, np.asarray])
@pytest.mark.parametrize("draws", STAGE_DRAWS.values(), ids=STAGE_DRAWS)
def test_stage_converts_its_draws_to_complex_arrays(draws, form):
    mix, anchor = draws
    reference = DeflationStage(mix.astype(complex), anchor.astype(complex))
    stage = DeflationStage(form(mix), form(anchor))
    assert (stage.mix.dtype, stage.anchor.dtype) == (complex, complex)
    assert stage.mix.tobytes() == reference.mix.tobytes()
    assert stage.anchor.tobytes() == reference.anchor.tobytes()
    assert (stage.rank, stage.nvars_prev, stage.nvars_out) == (
        reference.rank, reference.nvars_prev, reference.nvars_out)


def test_stage_stores_read_only_copies_of_its_draws():
    mix, anchor = (arr.copy() for arr in STAGE_DRAWS["drawn"])
    stage = DeflationStage(mix, anchor)
    assert stage.mix.tobytes() == mix.tobytes() and stage.anchor.tobytes() == anchor.tobytes()
    for stored, given in [(stage.mix, mix), (stage.anchor, anchor)]:
        assert not np.shares_memory(stored, given)
        assert given.flags.writeable and not stored.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        stage.mix[0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        stage.anchor[0] = 5
    # the caller's arrays stay writeable, and writing to them leaves the stage as it was
    mix[0, 0] = anchor[0] = 5
    assert stage.mix.tobytes() == STAGE_DRAWS["drawn"][0].tobytes()
    assert stage.anchor.tobytes() == STAGE_DRAWS["drawn"][1].tobytes()


def test_stage_of_deflate_once_holds_no_view_of_its_draw(square):
    extended, _ = deflate.deflate_once(square, [0.0], rng_seed=3)
    stage = extended.stages[0]
    assert stage.mix.base is None and stage.anchor.base is None
    with pytest.raises(ValueError, match="read-only"):
        stage.mix[0, 0] = 5
    # the system's Jacobian is unchanged by the refused write
    z = np.array([0.5, *np.ones(stage.rank + 1)], dtype=complex)
    assert extended.jacobian_at(z).tobytes() == DeflatedSystem(
        square, [DeflationStage(stage.mix, stage.anchor)]).jacobian_at(z).tobytes()


@pytest.mark.parametrize("where", ["mix", "anchor"])
def test_a_nan_draw_fails_the_modulus_check(where):
    mix, anchor = (arr.copy() for arr in STAGE_DRAWS["drawn"])
    (mix[1] if where == "mix" else anchor)[0] = complex(np.nan, 0.0)
    with pytest.raises(ValueError, match="modulus one"):
        DeflationStage(mix, anchor)


@pytest.mark.parametrize("mix, anchor", [
    ([[1, 1], [1]], [1, 1]),
    ([[1, 1], [1, 1]], [1, [1, 1]]),
])
def test_ragged_draws_are_one_value_error(mix, anchor):
    with pytest.raises(ValueError) as error:
        DeflationStage(mix, anchor)
    assert type(error.value) is ValueError and "\n" not in str(error.value)


def test_stages_and_reports_compare_and_hash_by_identity(axis_quartic):
    mix, anchor = STAGE_DRAWS["drawn"]
    stage, twin = DeflationStage(mix, anchor), DeflationStage(mix.copy(), anchor.copy())
    assert stage == stage and stage != twin
    assert len({stage, twin, stage}) == 2
    # two solves of one two-variable system, each with one stage report or more
    first, second = (deflate.deflate_loop(axis_quartic, [1e-3, 2e-3]) for _ in range(2))
    assert first.stages and second.stages
    for a, b in [(first, second), (first.stages[0], second.stages[0]),
                 (first.deflated.stages[0], second.deflated.stages[0])]:
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_stage_size_recurrences():
    mix = deflate.unit_circle_matrix(rng_for(4), 5, 3)
    anchor = deflate.unit_circle_matrix(rng_for(5), 1, 3)[0]
    stage = DeflationStage(mix, anchor)
    assert (stage.rank, stage.nvars_prev) == (2, 5)
    assert stage.nvars_out == 5 + 2 + 1
    base = parse_system("4\nv w x y z\nv;\nw;\nx;\ny;\n")
    assert DeflatedSystem(base, (stage,)).levels == ((5, 4), (5 + 2 + 1, 2 * 4 + 1))


def test_mismatched_stage_chain_is_rejected(cubic_trio):
    mix = deflate.unit_circle_matrix(rng_for(6), 3, 2)
    anchor = deflate.unit_circle_matrix(rng_for(7), 1, 2)[0]
    stage = DeflationStage(mix, anchor)
    with pytest.raises(ValueError):
        DeflatedSystem(cubic_trio, (stage,))


@pytest.mark.parametrize("nvars, rank", [(1, 0), (2, 0), (2, 1), (3, 2), (5, 1), (9, 4), (17, 0)])
@pytest.mark.parametrize("seed", [0, 11, 0x5EED])
def test_one_draw_is_the_two_draws_bit_for_bit(nvars, rank, seed):
    mix, anchor = two_call_draws(rng_for(seed), nvars, rank)
    draws = deflate.unit_circle_matrix(rng_for(seed), nvars + 1, rank + 1)
    assert draws[:-1].tobytes() == mix.tobytes()
    assert draws[-1].tobytes() == anchor.tobytes()


# ---------------------------------------------------------------------------
# one deflation step
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, point, rank_tol", [
    ("square.ps", [1e-3], 1e-2),
    ("axis_quartic.ps", [0.0, 0.0], 1e-8),
    ("cubic_trio.ps", [1e-4, -2e-4j], 1e-2),
    ("cross_cubes.ps", [0.0, 0.0, 0.0], 1e-8),
    ("bench9.ps", [0.0] * 9, 1e-8),
])
@pytest.mark.parametrize("seed", [3, 0x5EED])
def test_deflate_once_is_the_checked_stage_of_two_draws(name, point, rank_tol, seed):
    # the stage built from one draw has the draws and the multipliers that
    # the two draws give through the constructor
    system = load_fixture(name)
    extended, multipliers = deflate.deflate_once(system, point, rank_tol, seed)
    stage = extended.stages[-1]
    jacobian = system.jacobian_at(point)
    mix, anchor = two_call_draws(rng_for(seed), system.nvars, stage.rank)
    checked = DeflationStage(mix, anchor)
    assert stage.mix.tobytes() == checked.mix.tobytes()
    assert stage.anchor.tobytes() == checked.anchor.tobytes()
    assert (stage.rank, stage.nvars_prev, stage.nvars_out) == (
        checked.rank, checked.nvars_prev, checked.nvars_out)
    stacked = np.vstack([jacobian @ checked.mix, checked.anchor[np.newaxis, :]])
    rhs = np.zeros(system.neqs + 1, dtype=complex)
    rhs[-1] = 1.0
    expected = linalg.least_squares(stacked, rhs, rank_tol)
    assert multipliers.tobytes() == expected.tobytes()
    assert extended.levels == DeflatedSystem(system, (checked,)).levels


def test_deflate_once_on_double_root(square):
    # at 1e-3 the 1x1 Jacobian is 2e-3; a coarse tolerance treats it as rank 0
    extended, multipliers = deflate.deflate_once(square, [1e-3],
                                                 rank_tol=1e-2, rng_seed=11)
    assert extended.nvars == 2
    assert extended.neqs == 3
    assert multipliers.shape == (1,)
    stage = extended.stages[0]
    assert stage.rank == 0
    # the anchor equation forces lam close to 1/h (the least-squares
    # correction from the 2e-3 Jacobian entry is of order 4e-6)
    assert abs(multipliers[0] - 1.0 / stage.anchor[0]) < 1e-4


def test_double_root_deflation_kills_the_root(square):
    extended, _ = deflate.deflate_once(square, [1e-3], rank_tol=1e-2, rng_seed=11)
    stage = extended.stages[0]
    exact = np.array([0.0, 1.0 / stage.anchor[0]])
    # (x, lam) = (0, 1/h) solves x^2 = 0, 2x b lam = 0, h lam - 1 = 0 exactly
    assert np.array_equal(extended.value_at(exact), np.zeros(3))
    assert linalg.numerical_rank(linalg.svd(extended.jacobian_at(exact)).sigma, 1e-8) == 2


def test_deflate_once_regular_point_raises():
    system = parse_system("1\nx\nx^2 - 1;")
    with pytest.raises(RegularPointError):
        deflate.deflate_once(system, [1.0], rank_tol=1e-8, rng_seed=0)


def test_deflate_once_at_a_non_finite_jacobian_raises():
    # x^4 at 1e200 overflows: the class the multiplier solve raises for the same hazard
    system = parse_system("1\nx\nx^4;")
    with pytest.raises(linalg.SvdConvergenceError, match="^Jacobian is not finite"):
        deflate.deflate_once(system, [1e200])


def test_deflate_once_input_validation(square):
    with pytest.raises(ValueError):
        deflate.deflate_once(square, [0.0], rank_tol=0.0)
    with pytest.raises(ValueError):
        deflate.deflate_once(square, [0.0, 0.0])


def test_deflate_once_corank_three(cross_cubes):
    extended, multipliers = deflate.deflate_once(
        cross_cubes, np.zeros(3), rank_tol=1e-8, rng_seed=3)
    # the Jacobian vanishes at the origin, so the kernel is everything
    assert extended.stages[0].rank == 0
    assert extended.nvars == 4
    assert extended.neqs == 7
    assert multipliers.shape == (1,)


@pytest.mark.parametrize("name,nvars,m", FIXTURE_ROOTS)
def test_multiplier_consistency_at_exact_roots(name, nvars, m):
    system = load_fixture(name)
    current = DeflatedSystem(system)
    z = np.zeros(nvars, dtype=complex)
    rng = rng_for(13)
    for _ in range(4):
        jac = current.jacobian_at(z)
        try:
            current, multipliers = deflate.deflate_once(current, z, 1e-8, rng)
        except RegularPointError:
            break
        stage = current.stages[-1]
        residual = np.linalg.norm(jac @ stage.mix @ multipliers)
        assert residual <= 1e-8 * (1 + np.linalg.norm(jac))
        assert abs(stage.anchor @ multipliers - 1.0) <= 1e-10
        z = np.concatenate([z, multipliers])
    assert len(current.stages) >= 1


@pytest.mark.parametrize("name,nvars,m", FIXTURE_ROOTS)
def test_multiplier_consistency_near_roots(name, nvars, m):
    system = load_fixture(name)
    for seed in range(3):
        rng = rng_for(seed)
        current = DeflatedSystem(system)
        z = np.zeros(nvars, dtype=complex)
        for _ in range(4):
            noise = rng.normal(size=z.size) + 1j * rng.normal(size=z.size)
            x0 = z + 1e-10 * noise / np.linalg.norm(noise)
            jac = current.jacobian_at(x0)
            try:
                current, multipliers = deflate.deflate_once(current, x0, 1e-8, rng)
            except RegularPointError:
                break
            stage = current.stages[-1]
            residual = np.linalg.norm(jac @ stage.mix @ multipliers)
            assert residual <= 1e-8 * (1 + np.linalg.norm(jac))
            assert abs(stage.anchor @ multipliers - 1.0) <= 1e-10
            z = np.concatenate([z, multipliers])


@pytest.mark.parametrize("name,nvars,m", FIXTURE_ROOTS)
def test_stacked_system_regular_for_almost_all_seeds(name, nvars, m):
    """The random draws leave the multiplier system solvable."""
    system = load_fixture(name)
    jac = system.jacobian_at(np.zeros(nvars))
    decomp = linalg.svd(jac)
    rank = linalg.scaled_rank(decomp.sigma.tolist(), 1e-8, max(1.0, system.coefficient_scale))
    full = 0
    for seed in range(100):
        rng = rng_for(seed)
        mix = deflate.unit_circle_matrix(rng, nvars, rank + 1)
        anchor = deflate.unit_circle_matrix(rng, 1, rank + 1)[0]
        stacked = np.vstack([jac @ mix, anchor[np.newaxis, :]])
        full += linalg.numerical_rank(linalg.svd(stacked).sigma, 1e-8) == rank + 1
    assert full >= 99


# ---------------------------------------------------------------------------
# structured evaluation against the expanded polynomials
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,nvars,m", FIXTURE_ROOTS)
def test_structured_matches_expanded(name, nvars, m):
    current, z = chain_at_origin(load_fixture(name), max_stages=2)
    expanded = current.expand()
    assert expanded.neqs == current.neqs
    assert expanded.nvars == current.nvars
    rng = rng_for(29)
    for _ in range(20):
        point = rng.normal(size=current.nvars) + 1j * rng.normal(size=current.nvars)
        fast_value = current.value_at(point)
        slow_value = expanded.value_at(point)
        scale = 1.0 + np.linalg.norm(slow_value)
        assert np.linalg.norm(fast_value - slow_value) <= 1e-10 * scale
        fast_jac = current.jacobian_at(point)
        slow_jac = expanded.jacobian_at(point)
        jscale = 1.0 + np.linalg.norm(slow_jac)
        assert np.linalg.norm(fast_jac - slow_jac) <= 1e-10 * jscale


def test_leading_block_is_the_base_system(cubic_trio):
    current, z = chain_at_origin(load_fixture("cubic_trio.ps"), max_stages=2)
    rng = rng_for(31)
    point = rng.normal(size=current.nvars) + 1j * rng.normal(size=current.nvars)
    value = current.value_at(point)
    # the first equations of the deflated system are the base equations,
    # reproduced bit for bit, not merely to rounding
    assert np.array_equal(value[:cubic_trio.neqs], cubic_trio.value_at(point[:2]))


def test_structured_jacobian_matches_finite_differences():
    current, _ = chain_at_origin(load_fixture("cubic_trio.ps"), max_stages=2)
    rng = rng_for(37)
    step = 1e-7
    for _ in range(5):
        point = rng.normal(size=current.nvars) + 1j * rng.normal(size=current.nvars)
        jac = current.jacobian_at(point)
        for j in range(current.nvars):
            offset = np.zeros(current.nvars, dtype=complex)
            offset[j] = step
            column = (current.value_at(point + offset)
                      - current.value_at(point - offset)) / (2 * step)
            denom = 1.0 + np.linalg.norm(column)
            assert np.linalg.norm(jac[:, j] - column) <= 1e-5 * denom


def test_expand_names_multiplier_variables():
    current, _ = chain_at_origin(load_fixture("cubic_trio.ps"), max_stages=2)
    assert current.expand().var_names == ("x1", "x2", "l_1_1", "l_2_1", "l_2_2")


@pytest.mark.parametrize("names, multipliers", [
    ("l_1_1 y", ("ll_1_1",)),
    ("l_1_2 y", ("l_1_1",)),          # no multiplier is named l_1_2
    ("l_1_1 ll_1_1", ("lll_1_1",)),
    ("x ll_1_1", ("l_1_1",)),
])
def test_multipliers_never_take_a_base_name(names, multipliers):
    base = parse_system(f"2\n{names}\n{names.split()[0]}^2;\n{names.split()[1]}^2;\n")
    current, _ = chain_at_origin(base, max_stages=1)
    assert current.var_names == base.var_names + multipliers
    assert current.expand().var_names == current.var_names


@pytest.mark.parametrize("name", ["square", "axis_quartic", "cubic_trio", "cross_cubes",
                                  "bench9"])
def test_expand_refuses_what_could_exceed_the_term_cap(name, monkeypatch):
    # the bound checked before each stage is an upper bound: a cap one
    # below the size of the expanded system refuses it, and the default
    # cap builds it
    current, _ = chain_at_origin(load_fixture(f"{name}.ps"), max_stages=deflate.STAGE_CAP)
    terms = sum(len(p.terms) for p in current.expand().equations)
    monkeypatch.setattr(deflate, "EXPAND_TERM_CAP", terms - 1)
    with pytest.raises(deflate.ExpansionTooLargeError, match=f"above the cap of {terms - 1}$"):
        current.expand()


def test_value_and_jacobian_equals_single_outputs(square):
    extended, _ = deflate.deflate_once(square, [1e-3], rank_tol=1e-2, rng_seed=11)
    deep, _ = chain_at_origin(load_fixture("cubic_trio.ps"), max_stages=2)
    rng = rng_for(43)
    for system in (extended, deep):
        point = random_point(rng, system.nvars)
        value, jac = system.value_and_jacobian(point)
        assert np.array_equal(value, system.value_at(point))
        assert np.array_equal(jac, system.jacobian_at(point))


AGREEMENT_CASES = {
    # name: (system, stages it takes at the origin)
    "ladder_d3": (lambda: ladder(3), 2),
    "ladder_d4": (lambda: ladder(4), 3),
    "ladder_d5": (lambda: ladder(5), 4),
    "cubic_trio": (lambda: load_fixture("cubic_trio.ps"), 2),
    "bench9": (lambda: load_fixture("bench9.ps"), 1),
}


@pytest.mark.parametrize("name", sorted(AGREEMENT_CASES))
def test_recursion_matches_expanded_relative(name):
    make, stages = AGREEMENT_CASES[name]
    current, _ = chain_at_origin(make(), max_stages=stages + 1)
    assert len(current.stages) == stages
    expanded = current.expand()
    rng = rng_for(47)
    for _ in range(3):
        point = random_point(rng, current.nvars)
        value, jac = current.value_and_jacobian(point)
        for fast, slow in ((value, expanded.value_at(point)),
                           (jac, expanded.jacobian_at(point))):
            assert np.linalg.norm(fast - slow) <= 1e-10 * np.linalg.norm(slow)


def test_deep_ladder_levels_match_their_definition():
    """{x, y^6}, whose five-stage expansion is too slow to build in a test.

    Level by level: the value is [F_(k-1); J_(k-1) B mu; a . mu - 1] with the
    level below's Jacobian, and the Jacobian times a direction equals the
    derivative of the value along it. Each coordinate of F_k is a
    polynomial of degree at most 6 along any line, so the 16-point Cauchy
    rule below gives that derivative exactly up to rounding.
    """
    current, _ = chain_at_origin(ladder(6), max_stages=6)
    assert len(current.stages) == 5
    nodes = np.exp(2j * np.pi * np.arange(16) / 16)
    rng = rng_for(53)
    for k, stage in enumerate(current.stages, start=1):
        below = DeflatedSystem(current.base, current.stages[:k - 1])
        level = DeflatedSystem(current.base, current.stages[:k])
        for _ in range(3):
            point = random_point(rng, level.nvars)
            y, mu = point[:stage.nvars_prev], point[stage.nvars_prev:]
            value, jac = level.value_and_jacobian(point)
            definition = np.concatenate([below.value_at(y),
                                         below.jacobian_at(y) @ (stage.mix @ mu),
                                         [stage.anchor @ mu - 1.0]])
            assert (np.linalg.norm(value - definition)
                    <= 1e-10 * np.linalg.norm(definition))
            direction = random_point(rng, level.nvars)
            samples = [level.value_at(point + t * direction) for t in nodes]
            derivative = sum(f / t for f, t in zip(samples, nodes)) / len(nodes)
            assert (np.linalg.norm(jac @ direction - derivative)
                    <= 1e-10 * np.linalg.norm(derivative))


@pytest.mark.parametrize("name", ["square.ps", "cross_cubes.ps", "bench9.ps"])
def test_stageless_system_is_bitwise_its_base(name):
    system = load_fixture(name)
    wrapped = DeflatedSystem(system)
    point = random_point(rng_for(59), system.nvars)
    pairs = [(wrapped.value_at(point), system.value_at(point)),
             (wrapped.jacobian_at(point), system.jacobian_at(point))]
    pairs += zip(wrapped.value_and_jacobian(point), system.value_and_jacobian(point))
    for ours, theirs in pairs:
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


# ---------------------------------------------------------------------------
# the batched sweeps against the per-call recursion
# ---------------------------------------------------------------------------

FIXTURES = ["square.ps", "axis_quartic.ps", "cubic_trio.ps", "cross_cubes.ps", "bench9.ps"]


# The stage ranks that deflate_once reaches on the chains these tests stand
# for: at the exact origin with rank tolerance 1e-8, and from a start 1e-3
# from the origin with rank tolerance 1e-2 or 0.5. The stages are drawn with
# these ranks directly, so a wrong evaluator cannot lengthen or widen a chain
# and the tests fail at once instead of running on ever larger systems.
LADDER_RANKS = {d: [2 ** k - 1 for k in range(1, d)] for d in range(3, 8)}
ORIGIN_RANKS = {
    "square.ps": [0],
    "axis_quartic.ps": [1, 3, 7],
    "cubic_trio.ps": [0, 1],
    "cross_cubes.ps": [0],
    "bench9.ps": [7],
}
NEAR_ORIGIN_RANKS = {
    ("square.ps", 1e-2): [0],
    ("square.ps", 0.5): [0, 1, 2, 3],
    ("axis_quartic.ps", 1e-2): [1, 3, 7, 14],
    ("axis_quartic.ps", 0.5): [0, 0, 1, 3],
    ("cubic_trio.ps", 1e-2): [0, 1],
    ("cubic_trio.ps", 0.5): [0, 0, 2, 1],
    ("cross_cubes.ps", 1e-2): [0],
    ("cross_cubes.ps", 0.5): [0, 1, 1, 2],
    ("bench9.ps", 1e-2): [7, 14, 23, 30],
    ("bench9.ps", 0.5): [2, 3, 4, 2],
}


def random_stages(system, ranks, seed=23):
    """Stages with the given ranks and random draws, whatever the Jacobian."""
    current = DeflatedSystem(system)
    rng = rng_for(seed)
    for rank in ranks:
        current = current.with_stage(DeflationStage(
            deflate.unit_circle_matrix(rng, current.nvars, rank + 1),
            deflate.unit_circle_matrix(rng, 1, rank + 1)[0]))
    return current


def assert_matches_recursion(system, seed=61):
    """Every level J_0 .. J_K and the value agree with the recursion to 1e-12."""
    rng = rng_for(seed)
    levels = len(system.stages) + 1
    matrices = {}
    for _ in range(3):
        point = random_point(rng, system.nvars)
        value, jac = system.value_and_jacobian(point)
        swept_value, swept = system._pass(point, levels)
        assert np.array_equal(swept_value, value) and np.array_equal(swept[-1], jac)
        recursed = recursive_jacobians(system, point, levels, matrices)
        assert len(swept) == len(recursed) == levels
        for ours, theirs in zip(swept, recursed):
            assert ours.shape == theirs.shape
            assert np.linalg.norm(ours - theirs) <= 1e-12 * np.linalg.norm(theirs)
        reference = recursive_value(system, point, matrices)
        for ours in (value, system.value_at(point)):
            assert np.linalg.norm(ours - reference) <= 1e-12 * np.linalg.norm(reference)


def assert_no_vanishing_tensors(system):
    """The base builds the term lists of no D^m J with m >= the base degree:
    its lists hold F, J, D J, .., so the last is D^m J with m = length - 2."""
    cut = max(1, max(p.degree for p in system.base.equations))
    assert len(system.base._lists) - 2 < cut


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_sweeps_match_recursion_on_ladders(d):
    current = random_stages(ladder(d), LADDER_RANKS[d])
    assert len(current.stages) == d - 1
    assert_matches_recursion(current)


@pytest.mark.parametrize("name", FIXTURES)
def test_sweeps_match_recursion_at_the_origin(name):
    assert_matches_recursion(random_stages(load_fixture(name), ORIGIN_RANKS[name]))


@pytest.mark.parametrize("rank_tol", [1e-2, 0.5])
@pytest.mark.parametrize("name", FIXTURES)
def test_sweeps_match_recursion_near_the_origin(name, rank_tol):
    ranks = NEAR_ORIGIN_RANKS[name, rank_tol]
    assert_matches_recursion(random_stages(load_fixture(name), ranks))


def assert_value_is_the_concatenation(system, seed=67):
    """The value F_K written in place has the bytes of the concatenated
    pieces from the same pass, for the system and for each shorter stack on
    its base. ``value_at`` passes over K levels and ``value_and_jacobian``
    over K + 1, whose lower Jacobians may differ in the last bits."""
    rng = rng_for(seed)
    for k in range(len(system.stages) + 1):
        prefix = DeflatedSystem(system.base, system.stages[:k])
        for _ in range(3):
            point = random_point(rng, prefix.nvars)
            assert (prefix.value_at(point).tobytes()
                    == concatenated_value(prefix, point, k).tobytes())
            assert (prefix.value_and_jacobian(point)[0].tobytes()
                    == concatenated_value(prefix, point, k + 1).tobytes())


@pytest.mark.parametrize("rank_tol", [1e-2, 0.5])
@pytest.mark.parametrize("name", FIXTURES)
def test_value_in_place_is_the_concatenation_on_fixtures(name, rank_tol):
    assert_value_is_the_concatenation(
        random_stages(load_fixture(name), NEAR_ORIGIN_RANKS[name, rank_tol]))


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
def test_value_in_place_is_the_concatenation_on_ladders(d):
    assert_value_is_the_concatenation(random_stages(ladder(d), LADDER_RANKS[d]))


@pytest.mark.parametrize("levels", range(1, 10))
def test_request_count_is_the_recursions_call_count(levels):
    """With no degree cut, a pass over ``levels`` systems makes S(levels, m + 1)
    base requests of order m (Stirling numbers of the second kind), Bell(levels)
    in all; {x, y^7} at six stages makes Bell(7) = 877."""
    stirling = [1]   # S(n, 0) .. S(n, n), from S(n, k) = k S(n-1, k) + S(n-1, k-1)
    for n in range(1, levels + 1):
        stirling = [k * a + b for k, a, b in zip(range(n + 1), stirling + [0], [0] + stirling)]
    groups, links = deflate._sweep_plan(levels, levels)
    assert [len(dirs) for dirs in groups] == stirling[1:]
    assert len(links) == levels - 1
    if levels == 7:
        current = random_stages(ladder(7), LADDER_RANKS[7])
        groups, _ = deflate._sweep_plan(len(current.stages) + 1, current._cut)
        assert [len(dirs) for dirs in groups] == [1, 63, 301, 350, 140, 21, 1]


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_layout_matches_unique(nvars, order):
    alphas, index = polysys._derivative_layout(nvars, order)
    expected_alphas, expected_index = unique_layout(nvars, order)
    assert list(alphas) == expected_alphas
    assert index.shape == expected_index.shape
    assert np.array_equal(index, expected_index)
    with pytest.raises(ValueError, match="read-only"):
        index[(0,) * order] = 1


def test_derivative_layouts_are_built_once_per_process():
    def solve(system):
        report = deflate.deflate_loop(system, [1e-3, -2e-3j], max_stages=3)
        assert report.status == newton.CONVERGED_REGULAR
        return report

    polysys._derivative_layout.cache_clear()
    system = load_fixture("cubic_trio.ps")
    solve(system)
    first = polysys._derivative_layout.cache_info()
    assert first.misses == 3   # orders 0, 1 and 2 of the two base variables
    # the base's term lists: F, J, D J and D^2 J, below cubic_trio's degree 3
    lists = list(system._lists)
    assert len(lists) == 4
    solve(load_fixture("cubic_trio.ps"))
    second = polysys._derivative_layout.cache_info()
    assert second.misses == first.misses
    assert second.hits > first.hits
    # a second solve on the same system builds no list again
    solve(system)
    assert len(system._lists) == len(lists)
    assert all(new is old for new, old in zip(system._lists, lists))


@pytest.mark.parametrize("text,ranks", [
    ("2\nx y\nx + 2*y;\n3*x - y + 1;\n", [1, 2]),            # degree 1
    ("1\nx\n0;\n", [0, 0, 0]),                               # degree -1
    ("2\nx y\n1;\n2 - 3i;\n", [0, 1, 1]),                    # degree 0
    ("2\nx y\nx^2 - y;\n0;\n", [1, 1, 2]),                   # a zero equation
])
def test_degree_cut_keeps_the_order_zero_jacobian(text, ranks):
    current = random_stages(parse_system(text), ranks)
    assert_matches_recursion(current)
    assert_no_vanishing_tensors(current)


def test_degree_cut_on_bench9_at_four_stages():
    current = random_stages(load_fixture("bench9.ps"), NEAR_ORIGIN_RANKS["bench9.ps", 1e-2])
    current.value_and_jacobian(random_point(rng_for(67), current.nvars))
    assert_no_vanishing_tensors(current)
    # bench9 is quadratic: only orders 0 and 1 reach the base
    groups, _ = deflate._sweep_plan(5, current._cut)
    assert len(groups) == 2
    assert_matches_recursion(current)


def test_wrong_length_point_messages(square):
    # the CLI prints these texts as its one-line errors
    deflated = DeflatedSystem(square)
    two = "point has 2 coordinates, expected 1"
    calls = [
        (lambda: square.value_and_jacobian([0.1, 0.2]), two),
        (lambda: deflated.value_and_jacobian([0.1, 0.2]), two),
        (lambda: deflated.value_and_jacobian(0.1), "point has 0 coordinates, expected 1"),
        (lambda: deflate.deflate_once(square, [0.0, 0.0]), two),
        (lambda: newton.refine(square, [0.1, 0.2]), "start " + two),
        (lambda: deflate.deflate_loop(square, [0.1, 0.2]), "start " + two),
    ]
    for call, message in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# kernel-direction deflation used for cross-validation
# ---------------------------------------------------------------------------

def test_symbolic_deflation_double_root(square):
    sym = symbolic_deflation(square, [0.0])
    assert sym.nvars == 1
    assert sym.neqs == 2
    appended = sym.equations[1]
    # the appended equation is the derivative 2x up to a unit phase
    assert abs(evaluate(appended, [1.0], {})) == pytest.approx(2.0)
    assert oracle.multiplicity(sym, [0.0]) == 1


def test_symbolic_deflation_drops_multiplicity(axis_quartic, cubic_trio):
    sym_axis = symbolic_deflation(axis_quartic, [0.0, 0.0])
    assert sym_axis.neqs == 4
    assert oracle.multiplicity(sym_axis, [0.0, 0.0]) == 3

    sym_trio = symbolic_deflation(cubic_trio, [0.0, 0.0])
    assert sym_trio.neqs == 6
    assert oracle.multiplicity(sym_trio, [0.0, 0.0]) == 3


def test_symbolic_deflation_regular_point_raises():
    system = parse_system("1\nx\nx^2 - 1;")
    with pytest.raises(RegularPointError):
        symbolic_deflation(system, [1.0])


# ---------------------------------------------------------------------------
# multiplicity strictly decreases along randomized stages
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,nvars,m", FIXTURE_ROOTS)
def test_multiplicity_decreases_every_stage(name, nvars, m):
    system = load_fixture(name)
    current = DeflatedSystem(system)
    z = np.zeros(nvars, dtype=complex)
    rng = rng_for(13)
    chain = [oracle.multiplicity(system, z)]
    for _ in range(4):
        try:
            current, multipliers = deflate.deflate_once(current, z, 1e-8, rng)
        except RegularPointError:
            break
        z = np.concatenate([z, multipliers])
        chain.append(oracle.multiplicity(current.expand(), z))
    assert chain[0] == m
    assert chain[-1] == 1
    assert all(a > b for a, b in zip(chain, chain[1:]))


# ---------------------------------------------------------------------------
# the refinement/deflation loop
# ---------------------------------------------------------------------------

def test_loop_double_root(square):
    report = deflate.deflate_loop(square, [0.1], system_name="square")
    assert report.status == newton.CONVERGED_REGULAR
    assert report.deflations == 1
    assert report.corank_sequence == [1, 0]
    assert report.residual_final <= 1e-12
    assert abs(report.solution[0]) <= 1e-12
    assert report.corank_arrow == "1 -> 0"


def test_loop_quadruple_root(axis_quartic):
    report = deflate.deflate_loop(axis_quartic, [1e-3, 1e-2])
    assert report.status == newton.CONVERGED_REGULAR
    assert report.deflations == 3
    assert report.corank_sequence == [1, 1, 1, 0]
    assert np.linalg.norm(report.solution[:2]) <= 1e-12
    # the stage count stays below the multiplicity
    assert report.deflations <= 4 - 1


def test_loop_seven_fold_root(cubic_trio):
    report = deflate.deflate_loop(cubic_trio, [1e-3, 1.3e-3])
    assert report.status == newton.CONVERGED_REGULAR
    assert report.deflations == 2
    assert report.corank_sequence == [2, 2, 0]
    assert report.residual_final <= 1e-12
    assert np.linalg.norm(report.solution[:2]) <= 1e-12
    assert report.deflations <= 7 - 1


def test_loop_corank_three_in_one_stage(cross_cubes):
    report = deflate.deflate_loop(cross_cubes, [1e-3, 0.7e-3, 1.2e-3])
    assert report.status == newton.CONVERGED_REGULAR
    assert report.deflations == 1
    assert report.corank_sequence == [3, 0]
    assert report.residual_final <= 1e-10
    assert np.linalg.norm(report.solution[:3]) <= 1e-12
    assert report.deflations <= 11 - 1


def test_loop_regular_root_needs_no_deflation():
    system = parse_system("1\nx\nx^2 - 1;")
    report = deflate.deflate_loop(system, [1.2])
    assert report.status == newton.CONVERGED_REGULAR
    assert report.deflations == 0
    assert report.corank_sequence == [0]
    assert report.stages == []
    assert abs(report.solution[0] - 1.0) <= 1e-12


def test_loop_stage_reports(cross_cubes):
    report = deflate.deflate_loop(cross_cubes, [1e-3, 0.7e-3, 1.2e-3],
                                  reference=np.zeros(3))
    assert len(report.stages) == 1
    stage = report.stages[0]
    assert stage.corank_before == 3
    assert stage.corank_after == 0
    assert stage.inverse_condition_after > stage.inverse_condition_before
    assert stage.multiplier_values.shape == (1,)
    assert report.correct_digits_final >= 12
    assert report.correct_digits_initial <= 4
    assert report.wall_time_seconds > 0


def test_loop_conditioning_recovers(cubic_trio):
    report = deflate.deflate_loop(cubic_trio, [1e-3, 1.3e-3])
    assert report.inverse_condition_final >= 1e-6
    assert report.inverse_condition_final >= 1e3 * report.inverse_condition_original


def test_loop_is_seed_deterministic(cubic_trio):
    first = deflate.deflate_loop(cubic_trio, [1e-3, 1.3e-3], seed=5)
    second = deflate.deflate_loop(cubic_trio, [1e-3, 1.3e-3], seed=5)
    other = deflate.deflate_loop(cubic_trio, [1e-3, 1.3e-3], seed=6)
    assert first.solution.tobytes() == second.solution.tobytes()
    assert first.corank_sequence == second.corank_sequence
    assert other.solution.tobytes() != first.solution.tobytes()


def test_loop_respects_stage_cap(axis_quartic):
    report = deflate.deflate_loop(axis_quartic, [1e-3, 1e-2], max_stages=1)
    assert report.deflations == 1
    assert report.status == newton.STALLED_SINGULAR
    assert report.corank_sequence == [1, 1]
    assert report.stages[0].corank_after == 1


def test_loop_on_a_deflated_system_reports_only_the_stages_it_adds():
    start = (1e-3, 1e-3)
    current, multipliers = deflate.deflate_once(ladder(4), start, rng_seed=1)
    assert current.nvars == 4
    z = np.concatenate([start, multipliers])
    report = deflate.deflate_loop(current, z)
    assert report.status == newton.CONVERGED_REGULAR
    assert len(report.deflated.stages) == 3
    assert report.deflations == len(report.stages) == 2
    assert report.corank_sequence == [1, 1, 0]
    # the multipliers of the two new stages, not those of the one passed in
    assert [stage.multiplier_values.size for stage in report.stages] == [4, 8]
    assert np.array_equal(report.stages[0].multiplier_values, report.solution[4:8])
    assert np.array_equal(report.stages[1].multiplier_values, report.solution[8:16])
    # the stage cap counts the added stages too
    capped = deflate.deflate_loop(current, z, max_stages=1)
    assert capped.deflations == 1
    assert len(capped.deflated.stages) == 2
    assert capped.status == newton.STALLED_SINGULAR


# Two starts 1e-3 from the origin per degree, with their solver seeds and the
# outcome each had when pinned. The second d = 7 start ends at the stage cap
# (d - 1 stages, as in a solve that knows the multiplicity) with the
# Jacobian still singular; it is pinned as it is.
LADDER_SOLVES = [
    (3, [0.0006100061839757499+0.0001249647177800732j,
         -0.000763857546796929-0.00016969950802187995j], 84608903,
     "converged_regular", [1, 1, 0]),
    (4, [8.613459752748801e-06-0.0009074587638791897j,
         -0.00025027608992131206+0.00033735186227978707j], 1814323242,
     "converged_regular", [1, 1, 1, 0]),
    (5, [0.00011291106037914293-0.0005186419014041317j,
         -0.0008474670779250302-7.824473475928295e-06j], 1410761597,
     "converged_regular", [1, 1, 1, 1, 0]),
    (6, [-0.0006708427470829134-0.00035543137518397234j,
         0.00020792912120343646-0.0006167690222252145j], 1159198267,
     "converged_regular", [1, 1, 1, 1, 1, 0]),
    (7, [-0.00011570134940840374+0.0008646081479925146j,
         0.0004671649475615086-0.00014430128183727712j], 667965978,
     "converged_regular", [1, 1, 1, 1, 1, 1, 0]),
    (3, [2.5824927721610764e-05+3.8743199060088086e-05j,
         -0.00042057120353826-0.000906063960429474j], 780912693,
     "converged_regular", [1, 1, 0]),
    (4, [-0.0002999569204698947-0.0009195507435000761j,
         0.00023942712870675986-8.442112312633253e-05j], 2053765852,
     "converged_regular", [1, 1, 1, 0]),
    (5, [-0.0006425172318764094+0.0005366762552012623j,
         -2.8994057653885098e-05-0.0005461772134259991j], 1094054055,
     "converged_regular", [1, 1, 1, 1, 0]),
    (6, [-0.0007654681703880155-7.510884030006564e-05j,
         0.00037882397750174304-0.0005146936334377588j], 346957906,
     "converged_regular", [1, 1, 1, 1, 1, 0]),
    (7, [-0.0006645967323146686-3.0991435222868556e-05j,
         -0.0006469878673889941-0.00037250156213220506j], 434039328,
     "stalled_singular", [1, 1, 1, 1, 1, 1, 1]),
]


@pytest.mark.parametrize("d,start,seed,status,coranks", LADDER_SOLVES)
def test_ladder_solve_outcomes_are_pinned(d, start, seed, status, coranks):
    report = deflate.deflate_loop(ladder(d), start, seed=seed, max_stages=d - 1)
    assert report.status == status
    assert report.deflations == d - 1
    assert report.corank_sequence == coranks


# Two entries of the near-root benchmark pool (NearRoot.inputs(i) in
# perfbench/workloads.py) with their solver seeds and the pool's stage cap
# of 4. With the corank read from the scaled cut alone, entry 175 reached
# the cap with coranks 1, 2, 2, 2, 3 and entry 169 ended converged_regular
# after one stage, 4.8e-5 from the root.
NEAR_ROOT_SOLVES = [
    (175, "cross_cubes.ps",
     [-0.00017279465628032009-0.0021964359634046153j,
      0.0031610526628039256-0.0037768779855153305j,
      -6.428841555462561e-05+0.0006378392494270356j], 1467131140, [3, 0]),
    (169, "axis_quartic.ps",
     [-0.0005771133538367507+0.00019272788115957894j,
      2.097265113149417e-05-0.00016153372873173782j], 1833890789, [1, 1, 1, 0]),
]


@pytest.mark.parametrize("entry,name,start,seed,coranks", NEAR_ROOT_SOLVES)
def test_near_root_pool_entries_converge(entry, name, start, seed, coranks):
    report = deflate.deflate_loop(load_fixture(name), start, seed=seed, max_stages=4)
    assert report.status == newton.CONVERGED_REGULAR
    assert report.corank_sequence == coranks
    assert np.linalg.norm(report.solution[:len(start)]) <= 1e-8


def test_near_root_pool_entry_25_ends_off_the_root():
    # The one near-root pool entry the benchmark fails (false_convergence),
    # pinned as it is: after one stage a step from residual 3.2e-12 to
    # 9.5e-13, below the absolute residual_tol, ends the solve 3.04e-5 from
    # the root. ROADMAP item 1 (accept only quadratic convergence) will flip
    # this test to convergence at the root.
    start = [9.939016102164573e-05+5.711961495762446e-05j,
             3.2823226511316906e-05-3.1633906571474487e-05j]
    report = deflate.deflate_loop(load_fixture("axis_quartic.ps"), start, seed=2047249838,
                                  max_stages=4)
    assert report.status == newton.CONVERGED_REGULAR
    assert report.corank_sequence == [1, 0]
    assert 3.03e-5 <= np.linalg.norm(report.solution[:2]) <= 3.05e-5


def test_deep_ladder_pool_entry_19_stalls_at_the_cap():
    # The one deep-ladder pool entry the benchmark fails (cap_hit), pinned
    # as it is: {x, y^7} from 1e-3 off the root ends stalled_singular after
    # its six stages, at 128 variables with corank 1 before and after every
    # stage, while its base coordinates already lie within 1e-40 of the
    # root; the solve takes about 0.1 s. A kernel value that falls from
    # above a steady one (ROADMAP item 1b) keeps the 64-variable stage
    # crawling. Item 1 will flip this test to convergence.
    start = [-6.645967323146686e-04-3.0991435222868556e-05j,
             -6.469878673889941e-04-3.7250156213220506e-04j]
    report = deflate.deflate_loop(ladder(7), start, seed=434039328, max_stages=6)
    assert report.status == newton.STALLED_SINGULAR
    assert report.deflations == 6
    assert report.corank_sequence == [1] * 7
    assert report.deflated.nvars == 128
    assert np.linalg.norm(report.solution[:2]) <= 1e-40


# The d = 6 and d = 7 entries of the deep-ladder benchmark pool, as
# (entry, d, start, solver seed), solved with the pool's cap of d - 1
# stages. Their deflated Jacobians reach 64 and 128 columns, so their steps
# take the structured path of ``linalg.truncated_least_squares``. Every one
# but entry 19 converges after d - 1 stages with corank 1 before each;
# entry 19 stalls at the cap (test above). Recorded with the dense step.
LADDER_POOL_DEEP = [
    (3, 6, [-0.0006708427470829134-0.00035543137518397234j,
            0.00020792912120343646-0.0006167690222252145j], 1159198267),
    (4, 7, [-0.00011570134940840374+0.0008646081479925146j,
            0.0004671649475615086-0.00014430128183727712j], 667965978),
    (8, 6, [-0.000395125312250154-0.0005467206859519052j,
            -0.0004655076927015124-0.0005729529362933842j], 964629239),
    (9, 7, [0.0006347237836737655-0.0006470944688023382j,
            8.890196271969178e-05+0.00041290544669314464j], 1486081788),
    (13, 6, [-0.000920988275055206-0.00015548618062601467j,
             -0.00028986026509719346-0.00020877181697479064j], 49338134),
    (14, 7, [0.0006063239018271706-0.0006267253401192413j,
             -0.00015749195729409523-0.00046344682274579446j], 1295014821),
    (18, 6, [-0.0007654681703880155-7.510884030006564e-05j,
             0.00037882397750174304-0.0005146936334377588j], 346957906),
    (19, 7, [-0.0006645967323146686-3.0991435222868556e-05j,
             -0.0006469878673889941-0.00037250156213220506j], 434039328),
    (23, 6, [-0.00034159328314543614+0.00015813248214630065j,
             -0.0009164421434999304+0.00013580112156173335j], 303280828),
    (24, 7, [-0.00013233685563617895+0.0004771575953476702j,
             -0.0008265373080339532-0.00026766334128965855j], 1088058676),
    (28, 6, [0.0004581801804466644-0.0006277357050778331j,
             0.00038062710277174297+0.0005011405146781557j], 1916421390),
    (29, 7, [0.0004889571574569421-0.0001166395065010679j,
             0.0005801390991516612+0.0006409015129724016j], 1820517705),
    (33, 6, [0.000656188752873052+0.0005285833902045815j,
             8.23674614494923e-05+0.000532195003262062j], 2124596793),
    (34, 7, [0.00046927080367695873-0.00016736438800401854j,
             -0.00028585080556271374+0.0008185739987341215j], 1000401962),
    (38, 6, [-0.0003115419570260743-0.00016237098496615958j,
             0.0009262696865984313-0.00013638819575874887j], 1294385179),
    (39, 7, [-0.000595446790902692+0.00044900909647673605j,
             -0.0002310380970229-0.0006248642638276476j], 1505380310),
]


@pytest.mark.parametrize("entry,d,start,seed", LADDER_POOL_DEEP,
                         ids=[f"entry{row[0]}" for row in LADDER_POOL_DEEP])
def test_ladder_pin_deep_pool_outcomes(entry, d, start, seed):
    report = deflate.deflate_loop(ladder(d), start, seed=seed, max_stages=d - 1)
    assert report.deflations == d - 1
    if entry == 19:
        assert report.status == newton.STALLED_SINGULAR
        assert report.corank_sequence == [1] * d
    else:
        assert report.status == newton.CONVERGED_REGULAR
        assert report.corank_sequence == [1] * (d - 1) + [0]
        assert np.linalg.norm(report.solution[:2]) <= 1e-8


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name,multiplicity", [
    ("square.ps", 2), ("axis_quartic.ps", 4), ("cubic_trio.ps", 7),
    ("cross_cubes.ps", 11), ("bench9.ps", 4)])
def test_planted_root_under_a_unitary_change_and_a_shift(name, multiplicity, seed):
    # the fixture's root moved from the origin to c by y = U^H x + c, U unitary
    base = load_fixture(name)
    n = base.nvars
    rng = rng_for(seed)
    u, _ = np.linalg.qr(random_point(rng, (n, n)))
    rotated = compose_system_linear(base, u)
    c = random_point(rng, n)
    planted = PolySystem([p.shift(-c) for p in rotated.equations], base.var_names)
    direction = random_point(rng, n)
    start = c + 1e-3 * direction / np.linalg.norm(direction)
    # both shifts leave rounding noise in terms of low degree; the oracle
    # drops it when it recenters, so it counts the same at either root
    assert oracle.multiplicity(rotated, np.zeros(n)) == multiplicity
    assert oracle.multiplicity(planted, c) == multiplicity
    report = deflate.deflate_loop(planted, start, seed=seed, max_stages=4)
    assert report.status == newton.CONVERGED_REGULAR
    assert report.deflations < multiplicity
    assert np.linalg.norm(report.solution[:n] - c) <= 1e-8


@pytest.mark.parametrize("half_gap", [1e-2, 5e-3, 1e-3])
def test_close_pair_of_regular_roots_is_not_deflated(half_gap):
    # roots at x = +-half_gap, approached from x = 1: far from the pair the
    # Jacobian halves per step as at the double root of x^2, but it levels
    # off at 2 half_gap, above the trend's ceiling sqrt(rank_tol) * scale
    system = parse_system(f"2\nx y\nx^2 - {half_gap ** 2!r};\ny - 1;")
    report = deflate.deflate_loop(system, [1.0, 1.0])
    assert report.status == newton.CONVERGED_REGULAR
    assert report.deflations == 0
    # a residual of 1e-12 over the slope 2 half_gap
    assert np.linalg.norm(report.solution - [half_gap, 1.0]) <= 1e-12 / half_gap


@pytest.mark.parametrize("start", [[100.0, 1e-5], [1e3, 1e-6]])
def test_far_regular_coordinate_is_not_read_as_kernel(start):
    # x's singular value halves per step on its way to x = 1 while y's falls
    # toward the double root y = 0: only y's counts as kernel, and the stall
    # waits until x's has levelled off, so one stage deflates at the root
    system = parse_system("2\nx y\nx^2 - 1;\ny^2;")
    report = deflate.deflate_loop(system, start)
    assert report.status == newton.CONVERGED_REGULAR
    assert report.corank_sequence == [1, 0]
    assert np.linalg.norm(report.solution[:2] - [1.0, 0.0]) <= 1e-8


def test_loop_ends_diverged_when_a_stage_cannot_be_formed():
    # the second stage's stack [J mix; anchor] overflows at 1e308: the
    # stage is not added, and the solve ends as a step that cannot be taken
    with np.errstate(over="ignore", invalid="ignore"):   # as the command line runs it
        report = deflate.deflate_loop(parse_system("2\nx y\n1e308*y;\nx;"), [0.0, 0.0])
    assert report.status == newton.DIVERGED
    assert report.deflations == 1 and len(report.deflated.stages) == 1
    assert report.corank_sequence == [1, 2]
    assert report.solution.shape == (report.deflated.nvars,)


def test_loop_rejects_wrong_point_length(square):
    with pytest.raises(ValueError):
        deflate.deflate_loop(square, [0.1, 0.2])


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_format_deflated_round_trips(square):
    extended, _ = deflate.deflate_once(square, [1e-3], rank_tol=1e-2, rng_seed=11)
    text = deflate.format_deflated(extended)
    assert "# deflation stages: 1" in text
    assert "# stage 1 rank: 0" in text
    assert "# stage 1 anchor:" in text
    reparsed = parse_system(text)
    assert reparsed == extended.expand()
    rng = rng_for(41)
    point = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.linalg.norm(reparsed.value_at(point)
                          - extended.value_at(point)) <= 1e-12


@pytest.mark.parametrize("seed", [6, 8])
def test_format_deflated_refuses_a_modulus_that_overflows(seed):
    # the stage's coefficients are sums of two near 1e308; with these seeds
    # the modulus of one is beyond the float range, and ``expand`` overflows
    system = parse_system("1\nx y\n1e308*x + 1e308*y;")
    extended, _ = deflate.deflate_once(system, [0.0, 0.0], rng_seed=seed)
    with pytest.raises(OverflowError):
        extended.expand()
    with pytest.raises(deflate.ExpansionTooLargeError, match="^expanded system has a "
                                                             "coefficient out of range$"):
        deflate.format_deflated(extended)


def test_format_deflated_refuses_a_coefficient_that_is_not_finite():
    # two stages at 1e308 build an infinite coefficient without overflowing
    # a modulus; written out, it would read back as the variable "infi"
    system = parse_system("2\nx y z\n(1e308+1e308i)*z^1*x^1 + (0-1i)*y^2;\n"
                          "(1e308+1e308i) + (0-1i)*z^1*x^2;")
    with np.errstate(over="ignore", invalid="ignore"):
        report = deflate.deflate_loop(system, [0.5, 1e-3, 1e-3], max_stages=2)
    assert report.deflations == 2
    coefficients = [c for p in report.deflated.expand().equations for c in p.terms.values()]
    assert not all(map(np.isfinite, coefficients))
    with pytest.raises(deflate.ExpansionTooLargeError, match="coefficient out of range$"):
        deflate.format_deflated(report.deflated)


# SHA-256 of the format_deflated texts of every stage, deflating at the
# origin until regular with one generator seeded 13: the export bytes.
EXPORT_DIGESTS = {
    "square.ps": (1, "394431f776d87e22bde2b7820b5f237054ccf9afef0cdacac1ab38fb88d31fa8"),
    "axis_quartic.ps": (3, "3a5fc37aa8972f8569c5cd9985fd5bc0a8a598b75873c9009184ed868437e1ef"),
    "cubic_trio.ps": (2, "172fa761efa0a0c1c05a752df4ba0030fa24b45639ac13664d24d9c1646a51ec"),
    "cross_cubes.ps": (1, "333eeb4e050a382aeeae3ef068ef890ee0d65dc8354c4cce810520134d2c4f3e"),
    "bench9.ps": (1, "f3e877e4f0694992645908e20fe9d48fc5f575ab6292a14ff211c58ad81d0d5b"),
    "ladder4": (3, "fd7ad0f6b6dc72b13d46712de7a0e36f3d315b925776b6cc36b17a6270ce83e0"),
    "ladder5": (4, "0bb06d9d29e794047df4f07200c369ce8728d077369408be1494aae2079357dd"),
}


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_bytes_are_pinned(name):
    system = ladder(int(name[-1])) if name.startswith("ladder") else load_fixture(name)
    current = DeflatedSystem(system)
    z = np.zeros(system.nvars, dtype=complex)
    rng = rng_for(13)
    digest = hashlib.sha256()
    stages = 0
    while True:
        try:
            current, multipliers = deflate.deflate_once(current, z, 1e-8, rng)
        except RegularPointError:
            break
        z = np.concatenate([z, multipliers])
        stages += 1
        digest.update(deflate.format_deflated(current).encode())
        expanded = current.expand()
        assert parse_system(format_system(expanded)) == expanded
    assert (stages, digest.hexdigest()) == EXPORT_DIGESTS[name]
