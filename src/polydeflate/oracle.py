"""Multiplicity of an isolated root via truncated dual spaces.

Diagnostic-only module: the solver never consults it. The multiplicity of an
isolated root equals the dimension of the space of differential functionals
(taken at the root) that annihilate every element of the ideal. Truncating
at differential order d turns that into the nullity of a finite matrix:

    row (i, beta):  the equation f_i multiplied by the monomial u^beta,
                    |beta| <= d - 1, after recentering the root to 0
    column alpha:   the normalized functional reading off the u^alpha
                    Taylor coefficient, |alpha| <= d
    entry:          Taylor coefficient of f_i at exponent alpha - beta

The nullity is nondecreasing in d and becomes stationary exactly at the
multiplicity, so the first repeat of consecutive nullities is returned.
Rows are scaled to unit norm because the raw rows mix widely different
coefficient magnitudes. The nullity is read from the singular values alone
(``linalg.singular_values``) with the package's relative rank rule
(``linalg.numerical_rank``) at the fixed tolerance ``DEFAULT_TOL``; no
singular vectors are formed. A point whose residual is above
``ROOT_RESIDUAL_TOL``, or not finite, is rejected as not a root.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from operator import add

import numpy as np

from . import linalg
from .polysys import PolySystem

COLUMN_CAP = 5000
DEFAULT_TOL = 1e-6
ROOT_RESIDUAL_TOL = 1e-6


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
    # each equation's terms by total degree: row (i, beta) reaches a column
    # only with terms of degree <= order - |beta|, so it stops at the first
    # term above that, and every term before it lands in a column. The
    # (degree, exponents) keys are unique, so coefficients are never compared.
    graded = [sorted((sum(gamma), gamma, coeff)
                     for gamma, coeff in p.shift(x_star).terms.items())
              for p in system.equations]
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


def dual_nullity_at_order(system: PolySystem, x_star, order: int) -> int:
    """Dimension of the order-d truncation of the annihilating dual space."""
    mac = macaulay_matrix(system, x_star, order)
    ncols = mac.matrix.shape[1]
    if mac.matrix.shape[0] == 0:
        return ncols
    sigma = linalg.singular_values(mac.matrix)
    return ncols - linalg.numerical_rank(sigma, DEFAULT_TOL)


def multiplicity(system: PolySystem, x_star, max_order: int = 12):
    """Multiplicity of the root ``x_star``, or None if it does not settle.

    Raises ValueError when ``x_star`` is not an approximate root. Increases
    the truncation order until two consecutive nullities agree; a return of
    None means stabilization was not reached by ``max_order``.
    """
    residual = float(np.linalg.norm(system.value_at(x_star)))
    if not residual <= ROOT_RESIDUAL_TOL:  # NaN included
        raise ValueError(
            f"point is not an approximate root (residual {residual:.3e})"
        )
    # recenter once; shifting by the origin is free, so every order reuses it
    recentered = PolySystem([p.shift(x_star) for p in system.equations],
                            system.var_names)
    origin = np.zeros(system.nvars, dtype=complex)
    previous = dual_nullity_at_order(recentered, origin, 0)
    for order in range(1, max_order + 1):
        current = dual_nullity_at_order(recentered, origin, order)
        if current == previous:
            return current
        previous = current
    return None
