"""Dense complex linear algebra: SVD, numerical rank and least squares.

The decompositions are delegated to LAPACK through numpy; this module fixes
the conventions the rest of the package relies on. ``svd`` returns the
factors in full (U square of size rows, V square of size cols) with
``A = U diag(sigma) V^H``; ``pseudo_solve`` applies its rank-truncated
pseudoinverse. ``singular_values`` is for callers that read only sigma,
and skips forming U and V. ``truncated_least_squares`` gives sigma and the
rank-truncated minimum-norm solution of A x ~ b together, which is all a
Gauss-Newton step needs; on a tall matrix with enough columns it reduces A
to the triangle of one QR first, and forms no singular vectors at full
rank. Rank decisions compare singular values against ``tol * sigma_1``
(``numerical_rank``); the solver layer additionally uses the scale-anchored
variants at the bottom of this module, which judge near-singular Jacobians
against the coefficient scale of the system instead of against a leading
singular value that itself vanishes toward the root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SvdConvergenceError(RuntimeError):
    """The iterative SVD kernel failed to converge on this input."""


@dataclass(frozen=True)
class SvdResult:
    """Full SVD of a rows x cols complex matrix: A = U diag(sigma) V^H."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rows: int
    cols: int


def _nonempty(matrix) -> np.ndarray:
    a = np.atleast_2d(np.asarray(matrix, dtype=complex))
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError("svd needs a nonempty matrix")
    return a


def svd(matrix) -> SvdResult:
    """Full singular value decomposition of a complex matrix."""
    a = _nonempty(matrix)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc
    return SvdResult(U=u, sigma=s, V=vh.conj().T, rows=a.shape[0], cols=a.shape[1])


def singular_values(matrix) -> np.ndarray:
    """Singular values of a complex matrix, descending, without U and V."""
    a = _nonempty(matrix)
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc


def numerical_rank(sigma, tol: float) -> int:
    """Count the singular values ``sigma`` (descending) above ``tol * sigma_1``."""
    if not 0 < tol < 1:
        raise ValueError("rank tolerance must lie in (0, 1)")
    return int(np.count_nonzero(sigma > tol * float(sigma[0])))


def pseudo_solve(decomp: SvdResult, b, rank: int) -> np.ndarray:
    """Apply the rank-truncated pseudoinverse to ``b``."""
    b = np.asarray(b, dtype=complex)
    if b.shape != (decomp.rows,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({decomp.rows},)")
    if rank == 0:
        return np.zeros(decomp.cols, dtype=complex)
    coeffs = decomp.U[:, :rank].conj().T @ b
    return decomp.V[:, :rank] @ (coeffs / decomp.sigma[:rank])


# A tall matrix with at least this many columns is reduced by one QR before
# its singular values are taken. Measured with one BLAS thread at full rank,
# the QR path costs 1.5x the full SVD at 5 x 4, 1.2x at 11 x 8, 1.0x at
# 15 x 11, 0.8x at 23 x 12 and 0.5-0.6x from 63 x 41 to 191 x 128. At
# deficient rank it costs 1.1-1.7x from 23 x 12 up, since R is decomposed
# again with its singular vectors (table in CHANGES.md).
QR_MIN_COLS = 12


def truncated_least_squares(matrix, b, tol: float = 1e-8):
    """Singular values of A and the minimum-norm least-squares solution of A x ~ b.

    Returns (sigma, x); x is the rank-truncated solution at
    ``numerical_rank(sigma, tol)``. A tall A with at least ``QR_MIN_COLS``
    columns is first reduced by one Householder QR of [A b], which gives the
    cols x cols triangle R and c = Q^H b without forming Q (Chan's R-SVD). A
    and R share singular values and truncated solutions, so sigma is that of
    R, and x solves R x = c at full rank or is the truncated pseudoinverse
    of R applied to c otherwise. Other matrices take the full ``svd``.
    """
    a = _nonempty(matrix)
    rows, cols = a.shape
    if rows <= cols or cols < QR_MIN_COLS:
        decomp = svd(a)
        return decomp.sigma, pseudo_solve(decomp, b, numerical_rank(decomp.sigma, tol))
    b = np.asarray(b, dtype=complex)
    if b.shape != (rows,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({rows},)")
    r = np.linalg.qr(np.column_stack([a, b]), mode="r")
    r, c = r[:cols, :cols], r[:cols, cols]
    sigma = singular_values(r)
    rank = numerical_rank(sigma, tol)
    if rank == cols:
        # LU needs no row exchanges on a triangle: this is back substitution
        return sigma, np.linalg.solve(r, c)
    return sigma, pseudo_solve(svd(r), c, rank)


def least_squares(matrix, b, tol: float = 1e-8) -> np.ndarray:
    """Minimum-norm least-squares solution, truncated at the numerical rank."""
    return truncated_least_squares(matrix, b, tol)[1]


# ---------------------------------------------------------------------------
# scale-anchored rank decisions for the solver layer
# ---------------------------------------------------------------------------

def scaled_rank(sigma, tol: float, scale: float) -> int:
    """Rank with the threshold anchored at ``tol * max(sigma_1, scale)``.

    Near a singular root every singular value of the Jacobian may shrink
    together, so a purely relative test keeps reporting full rank. Anchoring
    the threshold at the coefficient scale of the system separates singular
    values that vanish in the limit from those that stay of order one.
    """
    sigma = np.asarray(sigma, dtype=float)
    leading = float(sigma[0]) if sigma.size else 0.0
    return int(np.count_nonzero(sigma > tol * max(leading, scale)))


def scaled_inverse_condition(sigma, scale: float) -> float:
    """sigma_min over max(sigma_1, scale); near 0 at a singular point."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        return 0.0
    return float(sigma[-1] / max(float(sigma[0]), scale))
