"""Acceptance suite for the deflation solver.

Each test covers one advertised guarantee end to end and prints a
single ``criterion N PASS`` line with the measured numbers once its
assertions hold. Run with ``pytest -v tests/test_acceptance.py`` to
get one line per criterion, or ``-s`` to see the measurements too.
"""

import time

import numpy as np
import pytest

from polydeflate import cli, deflate, linalg, newton, oracle
from polydeflate.deflate import DeflatedSystem
from polydeflate.polysys import parse_system

from conftest import load_fixture
from reference import step_ratios, symbolic_deflation

SINGULAR_FIXTURES = [
    # fixture file, start point near the singular root at the origin
    ("square.ps", [1e-3]),
    ("axis_quartic.ps", [1e-3, 1e-2]),
    ("cubic_trio.ps", [1e-3, 1.3e-3]),
    ("cross_cubes.ps", [0.5e-3, 0.35e-3, 0.6e-3]),
]


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def solve_fixture(name, start, **kwargs):
    system = load_fixture(name)
    return system, deflate.deflate_loop(system, np.asarray(start, dtype=complex),
                                        system_name=name, **kwargs)


def longest_ratio_run(ratios, floor):
    best = run = 0
    for ratio in ratios:
        run = run + 1 if ratio >= floor else 0
        best = max(best, run)
    return best


def test_criterion_1_stage_count_below_multiplicity():
    begin = time.perf_counter()
    stage_counts, multiplicities = [], []
    for name, start in SINGULAR_FIXTURES:
        system, report = solve_fixture(name, start)
        m = oracle.multiplicity(system, np.zeros(system.nvars))
        assert report.status == newton.CONVERGED_REGULAR
        assert report.deflations <= m - 1
        stage_counts.append(report.deflations)
        multiplicities.append(m)
    elapsed = time.perf_counter() - begin
    assert elapsed < 5.0
    assert multiplicities == [2, 4, 7, 11]
    print(f"criterion 1 PASS: stages {stage_counts} vs multiplicities "
          f"{multiplicities}, all solves in {elapsed:.2f} s")


def test_criterion_2_corank_three_collapses_in_one_stage():
    start = [0.5e-3, 0.35e-3, 0.6e-3]
    assert np.linalg.norm(start) <= 1e-3
    system, report = solve_fixture("cross_cubes.ps", start)
    assert report.deflations == 1
    assert report.corank_sequence == [3, 0]
    assert report.corank_arrow == "3 -> 0"
    assert report.residual_final <= 1e-10
    assert oracle.multiplicity(system, np.zeros(3)) == 11
    print(f"criterion 2 PASS: corank {report.corank_arrow}, one stage, "
          f"residual {report.residual_final:.1e}, multiplicity 11")


def test_criterion_3_deflation_restores_quadratic_convergence():
    summaries = []
    for name, start in SINGULAR_FIXTURES:
        system = load_fixture(name)
        x0 = np.asarray(start, dtype=complex)

        # before any deflation: a sustained linear regime at the root
        _, status, trace = newton.refine(system, x0, newton.NewtonOptions())
        assert status == newton.STALLED_SINGULAR
        run = longest_ratio_run(step_ratios(trace.steps), 0.2)
        assert run >= 3

        # after the final stage: one Newton step squares the error
        report = deflate.deflate_loop(system, x0, system_name=name)
        assert report.status == newton.CONVERGED_REGULAR
        noise = rng_for(777).normal(size=report.solution.size) \
            + 1j * rng_for(778).normal(size=report.solution.size)
        probe = report.solution + 1e-5 * noise / np.linalg.norm(noise)
        _, probe_status, probe_trace = newton.refine(
            report.deflated, probe, newton.NewtonOptions())
        assert probe_status == newton.CONVERGED_REGULAR
        steps = probe_trace.steps
        quadratic_pairs = [
            (a, b) for a, b in zip(steps, steps[1:])
            if a <= 1e-4 and b <= 1e3 * a * a
        ]
        assert quadratic_pairs

        # and the root coordinates come out far beyond the start accuracy
        prefix_error = np.linalg.norm(report.solution[:system.nvars])
        assert prefix_error <= 1e-12
        first = quadratic_pairs[0]
        summaries.append(f"{name.removesuffix('.ps')} linear run {run}, "
                         f"pair {first[0]:.0e}->{first[1]:.0e}, "
                         f"error {prefix_error:.0e}")
    print("criterion 3 PASS: " + "; ".join(summaries))


def test_criterion_4_inverse_condition_recovers_across_seeds():
    for name, start in [("cross_cubes.ps", [0.5e-3, 0.35e-3, 0.6e-3]),
                        ("cubic_trio.ps", [1e-3, 1.3e-3])]:
        good = 0
        for seed in range(100):
            _, report = solve_fixture(name, start, seed=seed)
            improved = (report.inverse_condition_final
                        >= 1e3 * report.inverse_condition_original)
            healthy = report.inverse_condition_final >= 1e-6
            good += improved and healthy
        assert good >= 95, f"{name}: only {good}/100 seeds recovered"
        print(f"criterion 4 PASS: {name.removesuffix('.ps')} "
              f"{good}/100 seeds improved >= 1e3x and reached >= 1e-6")


def test_criterion_5_structured_evaluation_speed_and_agreement():
    system = load_fixture("bench9.ps")
    assert system.nvars >= 8
    current, _ = deflate.deflate_once(system, np.zeros(9),
                                      rng_seed=deflate.DEFAULT_SEED)
    expanded = current.expand()

    rng = rng_for(2024)
    points = [rng.normal(size=current.nvars) + 1j * rng.normal(size=current.nvars)
              for _ in range(1000)]
    for point in points[:20]:
        slow_value = expanded.value_at(point)
        fast_value = current.value_at(point)
        assert (np.linalg.norm(fast_value - slow_value)
                <= 1e-10 * (1 + np.linalg.norm(slow_value)))
        slow_jac = expanded.jacobian_at(point)
        fast_jac = current.jacobian_at(point)
        assert (np.linalg.norm(fast_jac - slow_jac)
                <= 1e-10 * (1 + np.linalg.norm(slow_jac)))

    def clock(value_at, jacobian_at):
        begin = time.perf_counter()
        for point in points:
            value_at(point)
            jacobian_at(point)
        return time.perf_counter() - begin

    structured = clock(current.value_at, current.jacobian_at)
    naive = clock(expanded.value_at, expanded.jacobian_at)
    assert structured <= 0.8 * naive, f"ratio {structured / naive:.2f}"
    print(f"criterion 5 PASS: structured {structured:.3f} s vs expanded "
          f"{naive:.3f} s (ratio {structured / naive:.2f}), agreement 1e-10")


def test_criterion_6_linear_algebra_suite():
    rng = rng_for(1234)
    for trial in range(200):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        matrix = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        decomp = linalg.svd(matrix)
        rebuilt = decomp.U[:, :len(decomp.sigma)] @ np.diag(decomp.sigma) \
            @ decomp.V[:, :len(decomp.sigma)].conj().T
        assert np.linalg.norm(rebuilt - matrix) <= 1e-12 * (1 + np.linalg.norm(matrix))
        assert np.linalg.norm(decomp.U.conj().T @ decomp.U
                              - np.eye(rows)) <= 1e-12 * rows
        assert np.linalg.norm(decomp.V.conj().T @ decomp.V
                              - np.eye(cols)) <= 1e-12 * cols

    # rank-deficient products have their rank detected exactly
    for trial in range(40):
        size = int(rng.integers(2, 10))
        rank = int(rng.integers(1, size))
        left = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
        right = rng.normal(size=(rank, size)) + 1j * rng.normal(size=(rank, size))
        decomp = linalg.svd(left @ right)
        assert linalg.numerical_rank(decomp.sigma, 1e-8) == rank

    # least-squares optimality against random competitors, and minimum norm
    for trial in range(20):
        matrix = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        matrix[:, -1] = matrix[:, 0]  # force rank deficiency
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        solution = linalg.least_squares(matrix, b, 1e-8)
        best = np.linalg.norm(matrix @ solution - b)
        for _ in range(100):
            other = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert best <= np.linalg.norm(matrix @ other - b) + 1e-10
    singular = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(linalg.least_squares(singular, np.array([1.0, 1.0]), 1e-8),
                       [1.0, 0.0])
    print("criterion 6 PASS: 200 SVD reconstructions, 40 exact ranks, "
          "least-squares optimality and minimum norm")


def test_criterion_7_multiplicity_oracle_cross_checks():
    # powers of a single variable
    for degree in range(1, 7):
        system = parse_system(f"1\nx\nx^{degree};")
        assert oracle.multiplicity(system, [0.0]) == degree

    # every randomized stage strictly lowers the multiplicity
    drops = []
    for name, start in SINGULAR_FIXTURES:
        system = load_fixture(name)
        current = DeflatedSystem(system)
        z = np.zeros(system.nvars, dtype=complex)
        rng = rng_for(13)
        chain = [oracle.multiplicity(system, z)]
        while True:
            try:
                current, multipliers = deflate.deflate_once(current, z, 1e-8, rng)
            except deflate.RegularPointError:
                break
            z = np.concatenate([z, multipliers])
            chain.append(oracle.multiplicity(current.expand(), z))
        assert all(a > b for a, b in zip(chain, chain[1:]))
        assert chain[-1] == 1
        drops.append(f"{name.removesuffix('.ps')} {chain}")

    # the kernel-direction variant lowers it too
    for name in ("axis_quartic.ps", "cubic_trio.ps"):
        system = load_fixture(name)
        origin = np.zeros(system.nvars)
        before = oracle.multiplicity(system, origin)
        after = oracle.multiplicity(symbolic_deflation(system, origin), origin)
        assert after < before
    print("criterion 7 PASS: x^d for d=1..6; chains " + "; ".join(drops)
          + "; kernel-direction deflation drops 4 and 7")


def test_criterion_8_reports_are_deterministic():
    def render(seed):
        _, report = solve_fixture("cubic_trio.ps", [1e-3, 1.3e-3], seed=seed)
        return [line for line in cli.render_report(report).splitlines()
                if "wall_time_seconds" not in line]

    assert render(42) == render(42)
    assert render(42) != render(43)
    print("criterion 8 PASS: byte-identical reports modulo wall time")
