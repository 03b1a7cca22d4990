"""Dense complex linear algebra: SVD, numerical rank and least squares.

The decompositions are delegated to LAPACK through numpy; this module fixes
the conventions the rest of the package relies on. ``truncated_least_squares``
gives sigma and the rank-truncated minimum-norm solution of A x ~ b
together, which is all a Gauss-Newton step needs. It takes one LAPACK call
(gelsd, through ``np.linalg.lstsq``) on small, square and wide matrices; a
tall matrix with enough columns is first reduced to the triangle of one QR,
and forms no singular vectors at full rank. ``singular_values`` is for
callers that read only sigma. ``svd`` returns the factors in full (U square
of size rows, V square of size cols) with ``A = U diag(sigma) V^H``, and
``pseudo_solve`` applies its rank-truncated pseudoinverse; the package's own
steps no longer call either, they serve the tests as the reference and
perfbench's tracer, which wraps them by name. Rank decisions compare
singular values against ``tol * sigma_1`` (``numerical_rank``, the rule
gelsd applies through its ``rcond``); the solver layer additionally uses the
scale-anchored variants at the bottom of this module, which judge
near-singular Jacobians against the coefficient scale of the system instead
of against a leading singular value that itself vanishes toward the root.
They read a spectrum as a Python list of floats, the one list a Newton
iterate makes of it, not as an array.

Each check of an input (its shape, the tolerance, finiteness) runs once per
call; a matrix that is already a complex 2-D array is used as it is, and
the QR path reads the full rank of its triangle without checking the
tolerance again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SvdConvergenceError(RuntimeError):
    """The SVD kernel failed on this input: it did not converge, or an entry
    of the input is not finite."""


@dataclass(frozen=True)
class SvdResult:
    """Full SVD of a rows x cols complex matrix: A = U diag(sigma) V^H."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray
    rows: int
    cols: int


def _nonempty(matrix) -> np.ndarray:
    """``matrix`` as a complex array, a ValueError unless it is a nonempty
    matrix; a complex array is returned as it is, not copied or re-wrapped."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or not a.size:
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
    try:
        return np.linalg.svd(_nonempty(matrix), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc


def check_tol(tol: float) -> None:
    """A ValueError unless the rank tolerance ``tol`` lies in (0, 1)."""
    if not 0 < tol < 1:
        raise ValueError("rank tolerance must lie in (0, 1)")


def numerical_rank(sigma, tol: float) -> int:
    """Count the singular values ``sigma`` (descending) above ``tol * sigma_1``."""
    check_tol(tol)
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
# its singular values are taken; other matrices take one gelsd call. Measured
# with one BLAS thread at full rank, the QR path costs 1.4x gelsd at 13 x 12,
# 1.2x at 17 x 12 and 23 x 16, 1.0-1.2x at 31 x 16 and 31 x 20, 0.96x at
# 37 x 24, 0.7-0.85x from 47 x 24 to 95 x 64 and 0.8x at 191 x 128. At
# deficient rank it costs 1.4-2.1x at every one of these sizes, since R is
# decomposed a second time by gelsd (table in CHANGES.md).
QR_MIN_COLS = 24


def _gelsd(a: np.ndarray, b: np.ndarray, tol: float):
    """(sigma, x) of A x ~ b from one LAPACK gelsd call; finite input only.

    gelsd treats the singular values at or below ``tol * sigma_1`` as zero,
    the rule of ``numerical_rank``, and returns the minimum-norm solution of
    the truncated problem.
    """
    try:
        x, _, _, sigma = np.linalg.lstsq(a, b, rcond=tol)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(str(exc)) from exc
    return sigma, x


def truncated_least_squares(matrix, b, tol: float = 1e-8):
    """Singular values of A and the minimum-norm least-squares solution of A x ~ b.

    Returns (sigma, x); x is the rank-truncated solution at
    ``numerical_rank(sigma, tol)``. A tall A with at least ``QR_MIN_COLS``
    columns is first reduced by one Householder QR of [A b], which gives the
    cols x cols triangle R and c = Q^H b without forming Q (Chan's R-SVD). A
    and R share singular values and truncated solutions, so sigma is that of
    R, and x solves R x = c at full rank or comes from gelsd on (R, c)
    otherwise. Other matrices take gelsd on (A, b) alone. A NaN or infinite
    entry raises ``SvdConvergenceError`` before LAPACK sees it: gelsd's
    scaling step neither returns nor raises on one.
    """
    a = _nonempty(matrix)
    rows, cols = a.shape
    b = np.asarray(b, dtype=complex)
    if b.shape != (rows,):
        raise ValueError(f"right-hand side has shape {b.shape}, expected ({rows},)")
    check_tol(tol)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise SvdConvergenceError("least-squares input has a NaN or infinite entry")
    if rows <= cols or cols < QR_MIN_COLS:
        return _gelsd(a, b, tol)
    r = np.linalg.qr(np.column_stack([a, b]), mode="r")
    r, c = r[:cols, :cols], r[:cols, cols]
    sigma = singular_values(r)
    # full rank by ``numerical_rank``: the least value lies above the cut
    if sigma[-1] > tol * sigma[0]:
        # LU needs no row exchanges on a triangle: this is back substitution
        return sigma, np.linalg.solve(r, c)
    return sigma, _gelsd(r, c, tol)[1]


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
    ``sigma`` is a nonempty descending list of floats, a spectrum's
    ``tolist()``: on a handful of values Python's comparisons cost less than
    a trip through numpy, and they compare the same doubles.
    """
    cut = tol * max(sigma[0], scale)
    return len([s for s in sigma if s > cut])


def scaled_inverse_condition(sigma, scale: float) -> float:
    """sigma_min over max(sigma_1, scale); near 0 at a singular point.
    ``sigma`` is a nonempty descending list, as for ``scaled_rank``."""
    return sigma[-1] / max(sigma[0], scale)
