"""Multiplicity of an isolated root via truncated dual spaces.

Diagnostic-only module: the solver never consults it. The multiplicity of an
isolated root is the dimension of the functionals c, c(f) = sum_alpha
c_alpha [u^alpha] f over the system recentered at the root, that annihilate
the ideal. Truncated at order d (|alpha| <= d, c(u^beta f_i) = 0 for |beta|
<= d - 1) it grows with d and is stationary exactly at the multiplicity; the
first repeat is returned. ``macaulay_matrix`` holds one order's conditions,
rows (i, beta) scaled to unit norm over C(n + d, d) columns; its nullity is
the definition the tests check the recursion against.

``multiplicity`` runs the closedness recursion (Mourrain, J. Pure Appl.
Algebra 117-118, 1997; Zeng, Contemp. Math. 496, 2009): c is of order d iff
every c(f_i) = 0 and every shift (Phi_j c)_alpha = c_(alpha + e_j) is of
order d - 1. With B an orthonormal basis of order d - 1, c is c_0 and y_j
with Phi_j c = B y_j: 1 + n nu_(d-1) columns, C(n, 2) C(n + d - 2, d - 2)
commutation rows (B y_j and B y_l agree at alpha + e_j + e_l, |alpha| <=
d - 2) and one annihilation row c(f_i) per equation. Only the annihilation
rows are scaled to unit norm: the commutation rows hold rows of the
orthonormal B, and scaling them would lift rounding noise to full rank. A
QR of a tall matrix and an SVD of its triangle give the null vectors, the
next B once mapped to c and orthonormalized. An order costs that QR and SVD
instead of an SVD with C(n + d, d) columns (bench9's order 3: 369 x 37, not
495 x 220); one above ``WORK_CAP`` flops raises ValueError.

Both read nullities with ``linalg.numerical_rank`` at ``DEFAULT_TOL`` after
``_recentered``, which drops the rounding of the shift to the point. A
point whose residual is above ``ROOT_RESIDUAL_TOL``, or not finite, is
rejected as not a root.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, count, takewhile
from math import comb
from operator import add, sub

import numpy as np

from . import linalg
from .polysys import PolySystem, check_point

COLUMN_CAP = 5000
WORK_CAP = 2e9   # max(rows, cols) cols^2 of one order; DZ1 needs 1.2e9
DEFAULT_TOL = 1e-6
ROOT_RESIDUAL_TOL = 1e-6
SHIFT_ROUNDING = 16   # in units of eps; see _recentered
MAX_ORDER = 12   # the highest order ``multiplicity`` tries by default


@dataclass(frozen=True)
class MacaulayMatrix:
    """Order-d annihilation matrix, rows scaled to unit norm."""

    matrix: np.ndarray


def _monomials_upto(nvars: int, degree: int):
    """All exponent tuples with total degree <= degree, graded order."""
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            exps = [0] * nvars
            for j in combo:
                exps[j] += 1
            out.append(tuple(exps))
    return out


def _recentered(system: PolySystem, x_star):
    """Each equation about ``x_star`` as (degree, exponents, coefficient)
    triples in its terms' graded order, less the shift's rounding:
    coefficients at or below SHIFT_ROUNDING eps sum_t |c_t|
    max(1, |x*|_inf)^deg(t) over its terms t."""
    center = check_point(x_star, system.nvars)
    radius = max(1.0, *np.abs(center))
    graded = []
    for p in system.equations:
        floor = SHIFT_ROUNDING * np.finfo(float).eps * sum(
            abs(c) * radius ** sum(gamma) for gamma, c in p.terms.items())
        graded.append([(sum(gamma), gamma, c)
                       for gamma, c in p.shift(center).terms.items() if abs(c) > floor])
    return graded


def macaulay_matrix(system: PolySystem, x_star, order: int) -> MacaulayMatrix:
    """Assemble the order-d matrix whose nullity truncates the dual space."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    n = system.nvars
    cols = _monomials_upto(n, order)
    if len(cols) > COLUMN_CAP:
        raise ValueError(
            f"order {order} needs {len(cols)} columns, above the cap {COLUMN_CAP}"
        )
    # row (i, beta) reaches a column only with terms of degree <= order -
    # |beta|, so it stops at the first term above that, and every term
    # before it lands in a column
    graded = _recentered(system, x_star)
    multipliers = _monomials_upto(n, order - 1) if order > 0 else []
    rows = [(i, beta) for i in range(system.neqs) for beta in multipliers]
    col_index = {alpha: k for k, alpha in enumerate(cols)}
    matrix = np.zeros((len(rows), len(cols)), dtype=complex)
    for r, (i, beta) in enumerate(rows):
        room = order - sum(beta)
        for degree, gamma, coeff in graded[i]:
            if degree > room:
                break
            matrix[r, col_index[tuple(map(add, gamma, beta))]] = coeff
    norms = np.linalg.norm(matrix, axis=1)
    norms[norms == 0] = 1.0
    matrix /= norms[:, None]
    return MacaulayMatrix(matrix=matrix)


@functools.lru_cache(maxsize=32)
def _closedness_layout(nvars: int, order: int):
    """Read-only index arrays of order >= 1: ``index`` places the exponents of
    ``_monomials_upto``, B's rows being its order d - 1 prefix; monomial k >= 1
    is B y_var[k-1] at row parent[k-1]; and a commutation row (j, l, a, b) of
    ``pairs`` sets B y_j at row a equal to B y_l at row b."""
    monomials = _monomials_upto(nvars, order)
    index = {alpha: k for k, alpha in enumerate(monomials)}
    e = monomials[1:nvars + 1]   # the unit vectors
    var = [max(i for i, k in enumerate(alpha) if k) for alpha in monomials[1:]]
    parent = [index[tuple(map(sub, alpha, e[j]))] for alpha, j in zip(monomials[1:], var)]
    pairs = [(j, l, index[tuple(map(add, alpha, e[l]))], index[tuple(map(add, alpha, e[j]))])
             for j, l in combinations(range(nvars), 2)
             for alpha in monomials[:comb(nvars + order - 2, nvars)]]
    arrays = [np.array(var), np.array(parent), np.array(pairs, dtype=int).reshape(-1, 4).T]
    for array in arrays:
        array.flags.writeable = False
    return (index, *arrays)


def _nullities(graded, nvars: int):
    """Yield nu_0, nu_1, .. of the recentered system ``graded``."""
    basis = np.ones((1, 1), dtype=complex)
    yield 1
    for order in count(1):
        nu = basis.shape[1]
        ncomm = comb(nvars, 2) * comb(nvars + order - 2, nvars)
        nrows, ncols = ncomm + len(graded), 1 + nvars * nu
        if max(nrows, ncols) * ncols ** 2 > WORK_CAP:
            raise ValueError(f"order {order} needs a {nrows} x {ncols} matrix, above the work cap")
        index, var, parent, (j, l, a, b) = _closedness_layout(nvars, order)
        block = 1 + np.arange(nu)   # y_k sits in the columns block + k nu
        lift = np.zeros((len(index), ncols), dtype=complex)   # (c_0, y) -> c
        lift[0, 0] = 1.0
        lift[np.arange(1, len(index))[:, None], block + nu * var[:, None]] = basis[parent]
        coeffs = np.zeros((len(graded), len(index)), dtype=complex)
        for i, terms in enumerate(graded):
            for _, gamma, c in takewhile(lambda t: t[0] <= order, terms):
                coeffs[i, index[gamma]] = c
        annihilation = coeffs @ lift
        norms = np.linalg.norm(annihilation, axis=1, keepdims=True)
        matrix = np.zeros((nrows, ncols), dtype=complex)
        commutation = matrix[:ncomm, 1:].reshape(ncomm, nvars, nu)   # a view: y_k is [:, k]
        rows = np.arange(ncomm)
        commutation[rows, j] = basis[a]
        commutation[rows, l] = -basis[b]
        matrix[ncomm:] = annihilation / np.where(norms > 0, norms, 1.0)
        if nrows > ncols >= linalg.QR_MIN_COLS:   # below that one SVD call is cheaper
            matrix = np.linalg.qr(matrix, mode="r")
        # V is square unless the matrix is wide, so U can stay thin
        _, sigma, vh = np.linalg.svd(matrix, full_matrices=nrows < ncols)
        null = vh[linalg.numerical_rank(sigma, DEFAULT_TOL):].conj().T
        yield null.shape[1]
        basis = np.linalg.qr(lift @ null)[0]


def multiplicity(system: PolySystem, x_star, max_order: int = MAX_ORDER):
    """Multiplicity of the root ``x_star``, or None if it does not settle.

    Raises ValueError when ``x_star`` is not an approximate root, or when an
    order's matrix exceeds ``WORK_CAP``. Increases the truncation order
    until two consecutive nullities agree; a return of None means
    stabilization was not reached by ``max_order``.
    """
    residual = float(np.linalg.norm(system.value_at(x_star)))
    if not residual <= ROOT_RESIDUAL_TOL:  # NaN included
        raise ValueError(
            f"point is not an approximate root (residual {residual:.3e})"
        )
    nullities = _nullities(_recentered(system, x_star), system.nvars)
    previous = next(nullities)
    for _, current in zip(range(max_order), nullities):
        if current == previous:
            return current
        previous = current
    return None
