"""Reference constructions that only the tests use.

* ``compose_linear`` and ``compose_system_linear``: substitute a linear
  change of variables into a polynomial or a system, to plant a known
  root under a unitary change of coordinates.
* ``kernel_vector``: the right singular vector of the most nearly null
  direction.
* ``symbolic_deflation``: the kernel-direction deflation, which appends
  directional derivatives and adds no multiplier variables. It is a
  second route to a lower multiplicity, next to the randomized stages.
"""

import numpy as np

from polydeflate import linalg
from polydeflate.deflate import RegularPointError
from polydeflate.polysys import Polynomial, PolySystem


def compose_linear(poly: Polynomial, matrix) -> Polynomial:
    """Substitute x_j = sum_l matrix[j, l] * y_l (matrix is nvars x m)."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[0] != poly.nvars:
        raise ValueError("substitution matrix row count must equal nvars")
    m = matrix.shape[1]
    forms = [
        Polynomial(m, {tuple(int(l == k) for k in range(m)): matrix[j, l]
                       for l in range(m) if matrix[j, l] != 0})
        for j in range(poly.nvars)
    ]
    total = Polynomial.zero(m)
    for exps, coeff in poly.terms.items():
        term = Polynomial.constant(m, coeff)
        for j, e in enumerate(exps):
            if e:
                term = term * forms[j] ** e
        total = total + term
    return total


def compose_system_linear(system: PolySystem, matrix) -> PolySystem:
    """``compose_linear`` on every equation; a square matrix keeps the names."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape[1] != system.nvars:
        raise ValueError("square substitution required to reuse names")
    return PolySystem([compose_linear(p, matrix) for p in system.equations],
                      system.var_names)


def kernel_vector(decomp: linalg.SvdResult, rank: int) -> np.ndarray:
    """Unit right singular vector for the smallest singular value.

    With V full (cols x cols), the column at index ``rank`` spans the most
    nearly null direction once ``rank`` columns are deemed independent.
    """
    if rank >= decomp.cols:
        raise ValueError("matrix has full numerical column rank, no kernel vector")
    return decomp.V[:, rank].copy()


def symbolic_deflation(system: PolySystem, x0, rank_tol: float = 1e-8) -> PolySystem:
    """Append directional derivatives along a kernel vector of the Jacobian.

    No multiplier variables are added; the result has the same variables and
    twice the equations, and a strictly smaller multiplicity at the root.
    """
    x0 = np.asarray(x0, dtype=complex)
    decomp = linalg.svd(system.jacobian_at(x0))
    scale = max(1.0, system.coefficient_scale)
    rank = linalg.scaled_rank(decomp.sigma, rank_tol, scale)
    if rank >= system.nvars:
        raise RegularPointError("Jacobian has full column rank at the given point")
    direction = kernel_vector(decomp, rank)
    appended = []
    for poly in system.equations:
        acc = Polynomial.zero(system.nvars)
        for j in range(system.nvars):
            if direction[j] != 0:
                acc = acc + poly.differentiate(j) * complex(direction[j])
        appended.append(acc)
    return PolySystem(list(system.equations) + appended, system.var_names)
