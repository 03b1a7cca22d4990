"""Dense complex linear algebra: SVD, numerical rank and least squares.

The decompositions are delegated to LAPACK through numpy; this module fixes
the conventions the rest of the package relies on. ``truncated_least_squares``
gives sigma and the rank-truncated minimum-norm solution of A x ~ b
together, which is all a Gauss-Newton step needs. It takes one LAPACK call
(gelsd, through ``np.linalg.lstsq``) on small, square and wide matrices; a
tall matrix with enough columns is first reduced to the triangle of one QR,
and forms no singular vectors at full rank. On that path a deflated
Jacobian, whose top stage its caller names, takes a structured step
(``_deflated_step``): one QR peels off the multiplier block, and the rest
is the same solve on the columns of the old variables alone. Its singular
values are those of the block's triangle merged with those of the reduced
matrix, one descending list of one value per column; that list, not the
whole matrix's spectrum, is what the rank rule then reads. An iterate
whose multiplier block is deficient takes the dense step, and so does
every matrix under ``QR_MIN_COLS`` columns. ``singular_values`` is for
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

Each check of an input runs once per call, and each kind of input has one
check: ``polysys.check_point`` checks every vector (a right-hand side here,
a point, a stage's anchor) and ``check_tol`` every tolerance (the solver's
options and the command line's call it too). A matrix that is already a
complex 2-D array is used as it is, and the QR path reads the full rank of
its triangle without checking the tolerance again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .polysys import check_point


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


def check_tol(tol: float, what: str = "rank tolerance") -> None:
    """A ValueError, naming ``what``, unless the tolerance ``tol`` lies in (0, 1)."""
    if not 0 < tol < 1:
        raise ValueError(f"{what} must lie in (0, 1)")


def numerical_rank(sigma, tol: float) -> int:
    """Count the singular values ``sigma`` (descending) above ``tol * sigma_1``."""
    check_tol(tol)
    return int(np.count_nonzero(sigma > tol * float(sigma[0])))


def pseudo_solve(decomp: SvdResult, b, rank: int) -> np.ndarray:
    """Apply the rank-truncated pseudoinverse to ``b``."""
    b = check_point(b, decomp.rows, "right-hand side")
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


def truncated_least_squares(matrix, b, tol: float = 1e-8, split=None):
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

    ``split`` = (n0, neq0) says that A is a deflated Jacobian whose top stage
    extends a level of n0 variables and neq0 equations (``_deflated_step``);
    on the QR path such a matrix takes the structured step.
    """
    a = _nonempty(matrix)
    rows, cols = a.shape
    b = check_point(b, rows, "right-hand side")
    check_tol(tol)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise SvdConvergenceError("least-squares input has a NaN or infinite entry")
    if split is not None and rows > cols >= QR_MIN_COLS:
        step = _deflated_step(a, b, tol, *split)
        if step is not None:
            return step
    return _step(a, b, tol)


def _step(a: np.ndarray, b: np.ndarray, tol: float):
    """(sigma, x) of ``truncated_least_squares`` on checked, finite input."""
    rows, cols = a.shape
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


def _deflated_step(a: np.ndarray, b: np.ndarray, tol: float, n0: int, neq0: int):
    """(sigma, x) for a deflated Jacobian A, or None when its multiplier block
    is deficient and the caller takes the dense step.

    A deflation stage over a level of n0 variables and neq0 equations gives
    A = [[J, 0], [H, C]] in (old variables, multipliers), with the
    multiplier block C = [J B; a] of m = cols - n0 columns in the last
    neq0 + 1 rows. One Householder QR of those rows, [C | H | b_low], gives
    the m x m triangle R_M, the coupling rows T with their right-hand side
    b_T, and the reduced rows S with b_S. While R_M has full rank by the
    relative rule, the least-squares problem splits: the old variables' part
    of x is ``_step`` on [J; S] against [b_top; b_S] (127 x 64 in place of
    191 x 128 on {x, y^7}), and the multipliers' part u solves
    R_M u = b_T - T x. sigma is sigma(R_M) merged with sigma([J; S]), one
    descending list of cols values. In exact arithmetic it has as many zeros
    as the whole matrix's (rank A = m + rank [J; S] while R_M is
    nonsingular), but not the same values. With [J; S] deficient, x is
    truncated in the old variables alone, so it is not the whole matrix's
    minimum-norm solution.
    """
    cols = a.shape[1]
    m = cols - n0
    low = np.empty((a.shape[0] - neq0, cols + 1), dtype=complex)
    low[:, :m] = a[neq0:, n0:]
    low[:, m:cols] = a[neq0:, :n0]
    low[:, cols] = b[neq0:]
    r = np.linalg.qr(low, mode="r")
    r_m = r[:m, :m]
    sigma_m = singular_values(r_m)
    if not sigma_m[-1] > tol * sigma_m[0]:
        return None
    # S is R's rows m .. cols - 1; a row below them holds only the residual of b_low
    sigma_x, x = _step(np.concatenate([a[:neq0, :n0], r[m:cols, m:cols]]),
                       np.concatenate([b[:neq0], r[m:cols, cols]]), tol)
    u = np.linalg.solve(r_m, r[:m, cols] - r[:m, m:cols] @ x)
    sigma = np.concatenate([sigma_m, sigma_x])
    sigma[::-1].sort()   # descending, in place
    return sigma, np.concatenate([x, u])


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
