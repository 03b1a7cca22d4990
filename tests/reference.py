"""Reference constructions that only the tests use.

* ``compose_linear`` and ``compose_system_linear``: substitute a linear
  change of variables into a polynomial or a system, to plant a known
  root under a unitary change of coordinates.
* ``kernel_vector``: the right singular vector of the most nearly null
  direction.
* ``symbolic_deflation``: the kernel-direction deflation, which appends
  directional derivatives and adds no multiplier variables. It is a
  second route to a lower multiplicity, next to the randomized stages.
* ``recursive_jacobians`` and ``recursive_value``: the per-call recursion
  over the block formula of ``polydeflate.deflate``, one call per
  derivative request and no degree cut, against which the batched sweeps
  of ``DeflatedSystem`` are checked.
* ``unique_layout``: the multi-index layout of a base derivative tensor
  built with ``np.unique``, against which ``deflate._derivative_layout``
  is checked.
* ``cumprod_trend``: the corank trend of ``newton`` as array operations,
  against which the scan of ``newton._trend`` is checked.
"""

from itertools import product

import numpy as np

from polydeflate import linalg
from polydeflate.deflate import RegularPointError
from polydeflate.newton import _TREND_FALL
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


def _derivative_matrix(base, alpha, matrices):
    """The base Jacobian differentiated by the sorted multi-index ``alpha``."""
    if not alpha:
        return base.jacobian_matrix
    if alpha not in matrices:
        matrices[alpha] = _derivative_matrix(base, alpha[:-1], matrices).differentiate(alpha[-1])
    return matrices[alpha]


def _derivative(base, order, y, powers, matrices):
    """D^order J_0(y), shape (neqs, nvars) plus one nvars axis per order.

    ``matrices`` caches the symbolic derivative of the base Jacobian by
    sorted multi-index; each is evaluated and gathered into every ordering.
    """
    out = np.empty((base.neqs, base.nvars) + (base.nvars,) * order, dtype=complex)
    values = {}
    for tup in product(range(base.nvars), repeat=order):
        alpha = tuple(sorted(tup))
        if alpha not in values:
            values[alpha] = _derivative_matrix(base, alpha, matrices).evaluate(y, powers)
        out[(slice(None), slice(None)) + tup] = values[alpha]
    return out


def recursive_jacobians(system, z, levels: int, matrices=None):
    """J_0 .. J_{levels-1} of a ``DeflatedSystem`` at ``z``, one call per request.

    G(k, [u_1..u_m]) = D^m J_k[u_1, .., u_m] is built from level k - 1 as
    [[G(p), 0], [G([B mu]+p) + sum_i G([B q_i]+p_-i), G(p) B], [0, a if m = 0]]
    with u_i = (p_i, q_i); level 0 contracts the base derivative tensors.
    ``matrices`` may carry the symbolic derivative matrices from call to call.
    """
    y = z[:system.base.nvars]
    powers = {}
    derivatives = {}
    matrices = {} if matrices is None else matrices
    mixed = [stage.mix @ z[stage.nvars_prev:stage.nvars_out] for stage in system.stages]
    jacobians = []

    def grad(level, vecs):
        if level == 0:
            out = derivatives.get(len(vecs))
            if out is None:
                out = derivatives[len(vecs)] = _derivative(system.base, len(vecs), y,
                                                           powers, matrices)
            for vec in vecs:
                out = out @ vec
        else:
            stage = system.stages[level - 1]
            n0, neq0 = stage.nvars_prev, stage.neqs_prev
            lower = [u[:n0] for u in vecs]
            top = grad(level - 1, lower)
            mid = grad(level - 1, [mixed[level - 1]] + lower)
            for i, u in enumerate(vecs):
                others = lower[:i] + lower[i + 1:]
                mid += grad(level - 1, [stage.mix @ u[n0:]] + others)
            out = np.zeros((stage.neqs_out, stage.nvars_out), dtype=complex)
            out[:neq0, :n0] = top
            out[neq0:-1, :n0] = mid
            out[neq0:-1, n0:] = top @ stage.mix
            if not vecs:
                out[-1, n0:] = stage.anchor
        if not vecs:
            jacobians.append(out)
        return out

    if levels:
        grad(levels - 1, [])
    return jacobians


def recursive_value(system, z, matrices=None):
    """``value_at`` of a ``DeflatedSystem``: [F_(k-1); J_(k-1) B mu; a . mu - 1]
    stage by stage, with the Jacobians from ``recursive_jacobians``."""
    z = np.asarray(z, dtype=complex)
    jacobians = recursive_jacobians(system, z, len(system.stages), matrices)
    pieces = [system.base.value_at(z[:system.base.nvars])]
    for stage, jac in zip(system.stages, jacobians):
        mu = z[stage.nvars_prev:stage.nvars_out]
        pieces.append(jac @ (stage.mix @ mu))
        pieces.append([stage.anchor @ mu - 1.0])
    return np.concatenate(pieces)


def unique_layout(nvars: int, order: int):
    """(sorted multi-indices, gather index) of order ``order`` over ``nvars``
    variables, from ``np.unique`` over every ordered multi-index."""
    tuples = np.sort(list(product(range(nvars), repeat=order)), axis=1)
    alphas, index = np.unique(tuples, axis=0, return_inverse=True)
    return [tuple(a) for a in alphas.tolist()], index.reshape((nvars,) * order)


def cumprod_trend(history, ceiling: float):
    """(falling, kernel) of three descending spectra, as ``newton._trend``
    counts them: the leading runs, from the smallest value up, of values
    that fell by ``_TREND_FALL`` twice, and of those at or below ``ceiling``."""
    if len(history) < 3:
        return 0, 0
    older, old, new = (np.asarray(s, dtype=float) for s in history)
    falling = ((new <= _TREND_FALL * old) & (old <= _TREND_FALL * older))[::-1]
    kernel = falling & (new[::-1] <= ceiling)
    return int(np.cumprod(falling).sum()), int(np.cumprod(kernel).sum())
