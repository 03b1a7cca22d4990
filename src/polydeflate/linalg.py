"""Dense complex linear algebra: SVD, numerical rank and least squares.

The decomposition itself is delegated to LAPACK through numpy; this module
fixes the conventions the rest of the package relies on. ``svd`` is for
callers that use the factors: it always returns them in full (U square of
size rows, V square of size cols) with ``A = U diag(sigma) V^H``.
``singular_values`` is for callers that read only sigma, and skips forming
U and V. Rank decisions compare singular values against ``tol * sigma_1``
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


def least_squares(matrix, b, tol: float = 1e-8) -> np.ndarray:
    """Minimum-norm least-squares solution via truncated SVD."""
    decomp = svd(matrix)
    return pseudo_solve(decomp, b, numerical_rank(decomp.sigma, tol))


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
