import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from polydeflate import linalg, oracle

from reference import derivative_matrix, kernel_vector


def reconstruct(decomp):
    smat = np.zeros((decomp.rows, decomp.cols))
    np.fill_diagonal(smat, decomp.sigma)
    return decomp.U @ smat @ decomp.V.conj().T


def check_invariants(a, decomp):
    rows, cols = a.shape
    assert decomp.U.shape == (rows, rows)
    assert decomp.V.shape == (cols, cols)
    assert decomp.sigma.shape == (min(rows, cols),)
    assert np.all(np.diff(decomp.sigma) <= 0)
    assert np.all(decomp.sigma >= 0)
    scale = max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(reconstruct(decomp) - a) <= 1e-12 * scale
    assert np.linalg.norm(decomp.U.conj().T @ decomp.U - np.eye(rows)) <= 1e-12
    assert np.linalg.norm(decomp.V.conj().T @ decomp.V - np.eye(cols)) <= 1e-12


def test_svd_identity():
    decomp = linalg.svd(np.eye(3))
    assert np.allclose(decomp.sigma, [1, 1, 1])
    check_invariants(np.eye(3, dtype=complex), decomp)


def test_svd_diagonal_with_zero():
    a = np.diag([3.0, 0.0]).astype(complex)
    decomp = linalg.svd(a)
    assert np.allclose(decomp.sigma, [3.0, 0.0])
    check_invariants(a, decomp)


def test_svd_nilpotent():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    decomp = linalg.svd(a)
    # A^H A has eigenvalues 1 and 0
    assert np.allclose(decomp.sigma, [1.0, 0.0])
    check_invariants(a, decomp)


def test_svd_rejects_empty():
    with pytest.raises(ValueError):
        linalg.svd(np.zeros((0, 2)))


def test_singular_values_match_full_svd(cross_cubes):
    rng = np.random.default_rng(31)
    shapes = [(1, 1), (1, 7), (3, 8), (8, 3), (12, 12), (40, 15), (6, 30)]
    matrices = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    # fixture-derived: a Jacobian off the root and the Macaulay matrices of
    # orders 1 (fewer rows than columns) and 3 (more rows than columns)
    matrices.append(cross_cubes.jacobian_at([0.3, -0.2j, 0.1]))
    matrices += [oracle.macaulay_matrix(cross_cubes, [0.0, 0.0, 0.0], d).matrix
                 for d in (1, 3)]
    assert matrices[-2].shape[0] < matrices[-2].shape[1]
    for a in matrices:
        sigma = linalg.singular_values(a)
        expected = linalg.svd(a).sigma
        assert sigma.shape == expected.shape
        assert np.all(np.abs(sigma - expected) <= 1e-13 * expected[0])


def test_singular_values_errors():
    with pytest.raises(ValueError):
        linalg.singular_values(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        linalg.singular_values(np.zeros((3, 0)))
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(linalg.SvdConvergenceError):
        linalg.singular_values(bad)


def test_svd_random_suite():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        a = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        check_invariants(a, linalg.svd(a))


def test_svd_rank_deficient_constructions():
    rng = np.random.default_rng(99)
    for _ in range(40):
        rows = int(rng.integers(2, 13))
        cols = int(rng.integers(2, 13))
        r = int(rng.integers(0, min(rows, cols)))
        left = rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))
        right = rng.normal(size=(r, cols)) + 1j * rng.normal(size=(r, cols))
        a = left @ right if r else np.zeros((rows, cols), dtype=complex)
        decomp = linalg.svd(a)
        check_invariants(a, decomp)
        assert linalg.numerical_rank(decomp.sigma, 1e-8) == r


def test_numerical_rank_thresholding():
    decomp = linalg.SvdResult(
        U=np.eye(2), sigma=np.array([1.0, 1e-12]), V=np.eye(2), rows=2, cols=2
    )
    assert linalg.numerical_rank(decomp.sigma, 1e-8) == 1


def test_numerical_rank_zero_matrix(cubic_trio):
    jac_at_origin = derivative_matrix(cubic_trio, (), {}).evaluate([0.0, 0.0])
    decomp = linalg.svd(jac_at_origin)
    rank = linalg.numerical_rank(decomp.sigma, 1e-8)
    assert rank == 0
    assert linalg.scaled_inverse_condition(decomp.sigma, 1.0) == 0.0
    corank = decomp.cols - rank
    assert corank == 2


def test_numerical_rank_tolerance_domain():
    decomp = linalg.svd(np.eye(2))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            linalg.numerical_rank(decomp.sigma, bad)


def test_least_squares_identity():
    x = linalg.least_squares(np.eye(2), np.array([1.0, 2.0j]))
    assert np.allclose(x, [1.0, 2.0j])


def test_least_squares_averages_tall_column():
    x = linalg.least_squares(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert np.allclose(x, [2.0])


def test_least_squares_minimum_norm():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    x = linalg.least_squares(a, np.array([1.0, 1.0]), 1e-8)
    assert np.allclose(x, [1.0, 0.0])


def test_least_squares_dimension_mismatch():
    with pytest.raises(ValueError):
        linalg.least_squares(np.eye(2), np.array([1.0, 2.0, 3.0]))


def test_least_squares_optimality_against_random_competitors():
    rng = np.random.default_rng(31337)
    a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    x = linalg.least_squares(a, b)
    best = np.linalg.norm(a @ x - b)
    for _ in range(100):
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert best <= np.linalg.norm(a @ y - b) + 1e-10


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows = int(rng.integers(3, 9))
        cols = int(rng.integers(1, rows + 1))
        a = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        b = rng.normal(size=rows) + 1j * rng.normal(size=rows)
        x = linalg.least_squares(a, b)
        bound = 1e-10 * (1 + np.linalg.norm(a) * np.linalg.norm(b))
        assert np.linalg.norm(a.conj().T @ (a @ x - b)) <= bound


# Shapes on both sides of linalg.QR_MIN_COLS (24): small, wide and square
# ones take gelsd, tall ones with 24 or more columns the QR path. Every
# shape also runs with deficient spectra, wide and square ones included.
AGREEMENT_SHAPES = [(5, 4), (11, 8), (15, 11), (8, 20), (12, 30), (16, 16),
                    (24, 24), (23, 12), (23, 16), (31, 16), (31, 20), (31, 23),
                    (37, 24), (31, 24), (47, 32), (95, 64), (191, 128)]
SPECTRA = ["random", "rank_minus_3", "ratio_1e-7", "ratio_1e-9"]


def planted(rng, rows, cols, sigma):
    """rows x cols matrix U diag(sigma) V^H with random orthonormal U and V."""
    k = min(rows, cols)
    u, _ = np.linalg.qr(rng.normal(size=(rows, k)) + 1j * rng.normal(size=(rows, k)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, k)) + 1j * rng.normal(size=(cols, k)))
    return (u * sigma) @ v.conj().T


@pytest.mark.parametrize("spectrum", SPECTRA)
@pytest.mark.parametrize("rows,cols", AGREEMENT_SHAPES)
def test_truncated_least_squares_matches_full_svd(rows, cols, spectrum):
    rng = np.random.default_rng([rows, cols, SPECTRA.index(spectrum)])
    k = min(rows, cols)
    if spectrum == "random":
        a = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    else:
        # the kept singular values span [1e-2, 1]; the last ones are planted
        # zeros, or one value at 1e-7 (kept at tol 1e-8) or 1e-9 (dropped)
        sigma = np.geomspace(1.0, 1e-2, k)
        if spectrum == "rank_minus_3":
            sigma[-3:] = 0.0
        else:
            sigma[-1] = float(spectrum.split("_")[1])
        a = planted(rng, rows, cols, sigma)
    b = rng.normal(size=rows) + 1j * rng.normal(size=rows)

    sigma, x = linalg.truncated_least_squares(a, b, 1e-8)
    reference = linalg.svd(a)
    rank = linalg.numerical_rank(reference.sigma, 1e-8)
    x_ref = linalg.pseudo_solve(reference, b, rank)

    assert sigma.shape == reference.sigma.shape
    assert np.all(np.abs(sigma - reference.sigma) <= 1e-13 * reference.sigma[0])
    assert linalg.numerical_rank(sigma, 1e-8) == rank
    assert rank == {"rank_minus_3": k - 3, "ratio_1e-9": k - 1}.get(spectrum, k)
    # Each method is backward stable, so each solution is within about
    # eps * kappa * |x| of the exact truncated one, kappa = sigma_1 / sigma_rank
    # (b is not in the range of A, but x is dominated by the sigma_rank
    # component, which turns the kappa^2 residual term into kappa as well).
    # The tolerance allows a growth factor of 10 * cols on top of that bound.
    kappa = reference.sigma[0] / reference.sigma[rank - 1]
    eps = np.finfo(float).eps
    tol = 10 * cols * eps * kappa * np.linalg.norm(x_ref)
    assert np.linalg.norm(x - x_ref) <= tol


def test_kernel_vector_zero_matrix():
    decomp = linalg.svd(np.zeros((2, 2)))
    v = kernel_vector(decomp, 0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(np.zeros((2, 2)) @ v) <= 1e-12


def test_kernel_vector_axis():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    decomp = linalg.svd(a)
    v = kernel_vector(decomp, linalg.numerical_rank(decomp.sigma, 1e-8))
    # (0, 1) up to a unit complex phase
    assert abs(v[0]) <= 1e-12
    assert abs(abs(v[1]) - 1.0) <= 1e-12


def test_kernel_vector_rejects_full_rank():
    decomp = linalg.svd(np.eye(3))
    with pytest.raises(ValueError):
        kernel_vector(decomp, 3)


def test_kernel_vector_residual_bound():
    rng = np.random.default_rng(12)
    for _ in range(20):
        rows = int(rng.integers(2, 9))
        cols = int(rng.integers(2, rows + 1))
        r = int(rng.integers(0, cols))
        left = rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r))
        right = rng.normal(size=(r, cols)) + 1j * rng.normal(size=(r, cols))
        a = left @ right if r else np.zeros((rows, cols), dtype=complex)
        decomp = linalg.svd(a)
        v = kernel_vector(decomp, r)
        tail = decomp.sigma[r] if r < decomp.sigma.size else 0.0
        assert np.linalg.norm(a @ v) <= 10 * tail + 1e-12
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_rank_matches_exact_on_integer_matrices():
    cases = [
        (np.array([[1, 2], [2, 4]], dtype=complex), 1),
        (np.array([[1, 0, 1], [0, 1, 1], [1, 1, 2]], dtype=complex), 2),
        (np.eye(5, dtype=complex), 5),
        (np.array([[2, 0], [0, 3], [2, 3]], dtype=complex), 2),
        (np.zeros((4, 3), dtype=complex), 0),
    ]
    for a, expected in cases:
        assert linalg.numerical_rank(linalg.svd(a).sigma, 1e-8) == expected


def test_scaled_rank_sees_through_a_vanishing_jacobian():
    # both singular values shrink toward the root; the relative rule keeps
    # saying full rank while the anchored rule reports the limit corank
    sigma = np.array([2e-9, 1.3e-9])
    assert linalg.scaled_rank(sigma, 1e-8, 1.0) == 0
    assert linalg.numerical_rank(
        linalg.SvdResult(np.eye(2), sigma, np.eye(2), 2, 2).sigma, 1e-8
    ) == 2
    mixed = np.array([2.0, 3e-9])
    assert linalg.scaled_rank(mixed, 1e-8, 1.0) == 1


def test_scaled_inverse_condition_floor():
    assert linalg.scaled_inverse_condition(np.array([0.5, 1e-12]), 1.0) \
        == pytest.approx(1e-12)
    assert linalg.scaled_inverse_condition(np.array([4.0, 2.0]), 1.0) \
        == pytest.approx(0.5)


def test_agreement_shapes_straddle_the_qr_cut():
    tall = [(rows, cols) for rows, cols in AGREEMENT_SHAPES if rows > cols]
    assert {cols >= linalg.QR_MIN_COLS for _, cols in tall} == {True, False}
    assert any(cols == linalg.QR_MIN_COLS - 1 for _, cols in tall)
    assert any(cols == linalg.QR_MIN_COLS for _, cols in tall)


# one shape per path: gelsd on A (small and wide) and the QR path, whose
# deficient triangle goes to gelsd as well
PATH_SHAPES = [(3, 3), (4, 7), (60, 30)]


def deficient(rows, cols):
    rng = np.random.default_rng([rows, cols])
    sigma = np.geomspace(1.0, 1e-2, min(rows, cols))
    sigma[-1] = 0.0
    return planted(rng, rows, cols, sigma), np.ones(rows, dtype=complex)


@pytest.mark.parametrize("rows,cols", PATH_SHAPES)
def test_least_squares_lapack_failure_is_an_svd_error(monkeypatch, rows, cols):
    a, b = deficient(rows, cols)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", fail)
    with pytest.raises(linalg.SvdConvergenceError, match="did not converge"):
        linalg.truncated_least_squares(a, b)


@pytest.mark.parametrize("rows,cols", PATH_SHAPES)
def test_least_squares_tolerance_domain(rows, cols):
    a, b = deficient(rows, cols)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="rank tolerance"):
            linalg.truncated_least_squares(a, b, bad)
        with pytest.raises(ValueError, match="rank tolerance"):
            linalg.least_squares(a, b, bad)


NON_FINITE_SCRIPT = """
import time
import numpy as np
from polydeflate import linalg

for rows, cols in {shapes}:
    for solve in (linalg.truncated_least_squares, linalg.least_squares):
        for bad in (np.nan, np.inf, -np.inf, complex(0, np.nan)):
            for where in ("matrix", "rhs"):
                a = np.ones((rows, cols), dtype=complex) + np.eye(rows, cols)
                b = np.ones(rows, dtype=complex)
                (a if where == "matrix" else b)[-1] = bad
                begin = time.perf_counter()
                try:
                    solve(a, b)
                except linalg.SvdConvergenceError:
                    pass
                else:
                    raise SystemExit(f"no error: {{rows}}x{{cols}} {{bad}} in {{where}}")
                elapsed = time.perf_counter() - begin
                if elapsed > 1.0:
                    raise SystemExit(f"{{elapsed:.1f}} s: {{rows}}x{{cols}} {{bad}} in {{where}}")
print("ok")
"""


def test_non_finite_least_squares_input_raises_without_hanging():
    # LAPACK's gelsd can hang on an inf or NaN entry instead of returning,
    # so the check runs in a child process with a timeout
    src = str(pathlib.Path(linalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", NON_FINITE_SCRIPT.format(shapes=PATH_SHAPES)],
        capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "ok"
