"""Reference constructions that only the tests use.

* ``zero`` and ``variable``: the zero polynomial and the polynomial x_k.
* ``compose_linear`` and ``compose_system_linear``: substitute a linear
  change of variables into a polynomial or a system, to plant a known
  root under a unitary change of coordinates.
* ``kernel_vector``: the right singular vector of the most nearly null
  direction.
* ``symbolic_deflation``: the kernel-direction deflation, which appends
  directional derivatives and adds no multiplier variables. It is a
  second route to a lower multiplicity, next to the randomized stages.
* ``power``, ``evaluate``, ``differentiate``, ``derivative_matrix``,
  ``matrix_value`` and ``reference_jet``: the evaluator that came before
  ``PolySystem.jet``'s term lists: powers memoized per call by repeated
  squaring, a loop over each polynomial's term map, and each derivative of
  the Jacobian built as a symbolic ``PolyMatrix`` (sorted, not trusted to
  come in graded order) and evaluated entry by entry. The term lists must
  give its values bit for bit.
* ``recursive_jacobians`` and ``recursive_value``: the per-call recursion
  over the block formula of ``polydeflate.deflate``, one call per
  derivative request and no degree cut, against which the batched sweeps
  of ``DeflatedSystem`` are checked.
* ``unique_layout``: the multi-index layout of a base derivative tensor
  built with ``np.unique``, against which ``polysys._derivative_layout``
  is checked.
* ``cumprod_trend``: the corank trend of ``newton`` as array operations,
  against which the scan of ``newton._trend`` is checked.
* ``array_scaled_rank``, ``array_scaled_inverse_condition`` and
  ``array_read_rank``: the rank readings as numpy array operations, the form
  they had before they read the Python list a Newton iterate makes of its
  spectrum; the list forms must give the same results.
* ``concatenated_value``: F_K of a ``DeflatedSystem`` as its pass built it
  before writing it in place, one ``np.concatenate`` of the base value and
  each stage's pieces; the in-place value must have its bytes.
* ``two_call_draws``: a deflation stage's ``mix`` and ``anchor`` drawn by
  two ``unit_circle_matrix`` calls, as ``deflate_once`` drew them before
  taking both from one draw; the one draw must give their bits.
* ``every_parent_term_lists``: ``PolySystem._term_lists`` as it was before
  it skipped the empty parents, differentiating every list of the order
  below; keys, order and coefficient bits must be the same.
* ``report_tree`` and ``emit``: a solver report as a tree of dicts and
  lists with pre-formatted leaves, and the recursive renderer of that
  tree, the form the command line's reports took before ``cli`` rendered
  their fixed layout in one pass; the bytes must be the same.
* ``step_ratios``: the ratios of consecutive Newton step lengths, in which
  linear and quadratic convergence show.
* ``dual_nullity_at_order``: the nullity of one order's Macaulay matrix,
  the definition against which the closedness recursion of
  ``oracle.multiplicity`` is checked.
"""

import math
from itertools import product

import numpy as np

from polydeflate import linalg, oracle
from polydeflate.cli import _num, _pair, _string
from polydeflate.deflate import RegularPointError, unit_circle_matrix
from polydeflate.newton import _TREND_FALL
from polydeflate.polysys import (Polynomial, PolyMatrix, PolySystem, _derivative_layout,
                                 _differentiated, _order)


def zero(nvars: int) -> Polynomial:
    return Polynomial(nvars)


def variable(nvars: int, index: int) -> Polynomial:
    if not 0 <= index < nvars:
        raise IndexError(f"variable index {index} out of range for {nvars} variables")
    exps = [0] * nvars
    exps[index] = 1
    return Polynomial(nvars, {tuple(exps): 1.0})


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
    total = zero(m)
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
    rank = linalg.scaled_rank(decomp.sigma.tolist(), rank_tol, scale)
    if rank >= system.nvars:
        raise RegularPointError("Jacobian has full column rank at the given point")
    direction = kernel_vector(decomp, rank)
    appended = []
    for poly in system.equations:
        acc = zero(system.nvars)
        for j in range(system.nvars):
            if direction[j] != 0:
                acc = acc + poly.differentiate(j) * complex(direction[j])
        appended.append(acc)
    return PolySystem(list(system.equations) + appended, system.var_names)


def power(point, j, e, cache):
    """x_j**e by repeated squaring, memoized in ``cache`` for this call."""
    if e == 0:
        return 1.0
    if e == 1:
        return point[j]
    key = (j, e)
    v = cache.get(key)
    if v is None:
        half = power(point, j, e >> 1, cache)
        v = half * half
        if e & 1:
            v = v * point[j]
        cache[key] = v
    return v


def evaluate(poly: Polynomial, point, cache) -> complex:
    """``poly`` at ``point`` (a complex array), its powers taken from ``cache``."""
    total = 0j
    for exps, c in poly.terms.items():
        v = c
        for j, e in enumerate(exps):
            if e:
                v = v * power(point, j, e, cache)
        total += v
    return total


def differentiate(poly: Polynomial, var: int) -> Polynomial:
    """The partial derivative summed and then sorted by the checked constructor."""
    out = {}
    for exps, c in poly.terms.items():
        e = exps[var]
        if e:
            key = exps[:var] + (e - 1,) + exps[var + 1:]
            out[key] = out.get(key, 0j) + c * e
    return Polynomial(poly.nvars, out)


def derivative_matrix(system: PolySystem, alpha, matrices) -> PolyMatrix:
    """The symbolic Jacobian differentiated by each variable of the sorted
    multi-index ``alpha`` in turn, built once per ``matrices`` cache."""
    if alpha not in matrices:
        if alpha:
            prefix = derivative_matrix(system, alpha[:-1], matrices)
            matrices[alpha] = PolyMatrix([[differentiate(p, alpha[-1]) for p in row]
                                          for row in prefix.entries])
        else:
            matrices[alpha] = PolyMatrix([[differentiate(p, j) for j in range(system.nvars)]
                                          for p in system.equations])
    return matrices[alpha]


def matrix_value(matrix: PolyMatrix, point, cache) -> np.ndarray:
    """The entries of ``matrix`` at ``point``, one at a time."""
    out = np.empty((matrix.rows, matrix.cols), dtype=complex)
    for i, row in enumerate(matrix.entries):
        for j, p in enumerate(row):
            out[i, j] = evaluate(p, point, cache)
    return out


def reference_jet(system: PolySystem, point, orders: int, matrices=None):
    """``PolySystem.jet(point, orders)`` by the reference evaluator,
    with one power cache for the whole call; ``matrices`` may carry the
    symbolic matrices from call to call."""
    point = np.asarray(point, dtype=complex)
    cache, matrices = {}, {} if matrices is None else matrices
    value = np.array([evaluate(p, point, cache) for p in system.equations], dtype=complex)
    tensors = []
    for m in range(orders):
        if m:
            alphas, index = unique_layout(system.nvars, m)
        else:
            alphas, index = [()], 0
        tensors.append(np.array([matrix_value(derivative_matrix(system, tuple(alpha), matrices),
                                              point, cache) for alpha in alphas])[index])
    return value, tensors


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
            values[alpha] = matrix_value(derivative_matrix(base, alpha, matrices), y, powers)
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
            (n0, neq0), (n1, neq1) = system.levels[level - 1:level + 1]
            lower = [u[:n0] for u in vecs]
            top = grad(level - 1, lower)
            mid = grad(level - 1, [mixed[level - 1]] + lower)
            for i, u in enumerate(vecs):
                others = lower[:i] + lower[i + 1:]
                mid += grad(level - 1, [stage.mix @ u[n0:]] + others)
            out = np.zeros((neq1, n1), dtype=complex)
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


def array_scaled_rank(sigma, tol: float, scale: float) -> int:
    """``linalg.scaled_rank`` by numpy: the values above ``tol * max(sigma_1, scale)``."""
    sigma = np.asarray(sigma, dtype=float)
    leading = float(sigma[0]) if sigma.size else 0.0
    return int(np.count_nonzero(sigma > tol * max(leading, scale)))


def array_scaled_inverse_condition(sigma, scale: float) -> float:
    """``linalg.scaled_inverse_condition`` by numpy: sigma_min over max(sigma_1, scale)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0:
        return 0.0
    return float(sigma[-1] / max(float(sigma[0]), scale))


def array_read_rank(history, tol: float, scale: float):
    """``newton.read_rank`` by numpy: the smaller of the scaled cut and the size
    less the trend's kernel, with the trend's fall count."""
    falling, kernel = cumprod_trend(history, math.sqrt(tol) * scale)
    sigma = history[-1]
    return min(array_scaled_rank(sigma, tol, scale), len(sigma) - kernel), falling


def concatenated_value(system, z, levels: int):
    """F_K of a ``DeflatedSystem`` at ``z`` from a pass over ``levels`` levels
    (``DeflatedSystem._pass``): the base value, then per stage J_k B mu and
    [a . mu - 1], joined by one ``np.concatenate``."""
    z = np.asarray(z, dtype=complex)
    if not system.stages:
        return system.base.jet(z, levels)[0]
    value, tensors = system.base.jet(z[:system.base.nvars], min(levels, system._cut))
    mixed = [stage.mix @ z[stage.nvars_prev:stage.nvars_out] for stage in system.stages]
    jacobians = system._jacobians(tensors, mixed, levels)
    pieces = [value]
    for stage, jac, bmu in zip(system.stages, jacobians, mixed):
        pieces.append(jac @ bmu)
        pieces.append([stage.anchor @ z[stage.nvars_prev:stage.nvars_out] - 1.0])
    return np.concatenate(pieces)


def two_call_draws(rng, nvars: int, rank: int):
    """``(mix, anchor)`` of a stage of ``rank`` on ``nvars`` variables: an
    nvars x (rank + 1) draw, then a 1 x (rank + 1) draw whose row is the anchor."""
    mix = unit_circle_matrix(rng, nvars, rank + 1)
    return mix, unit_circle_matrix(rng, 1, rank + 1)[0]


def every_parent_term_lists(system: PolySystem, orders: int) -> list:
    """The term lists of ``system`` of orders 0 .. ``orders`` in the layout of
    ``PolySystem._term_lists``, each list of an order above 1 differentiated
    from its parent whether that parent is empty or not."""
    values = tuple({tuple((j, e) for j, e in enumerate(exps) if e): c
                    for exps, c in p.terms.items()} for p in system.equations)
    lists = [_order(values), _order(tuple(_differentiated(terms, j) for terms in values
                                          for j in range(system.nvars)))]
    size = system.neqs * system.nvars
    while len(lists) <= orders:
        order, below = len(lists) - 1, lists[-1][0]
        first = {alpha: k * size for k, alpha in
                 enumerate(_derivative_layout(system.nvars, order - 1)[0])}
        lists.append(_order(tuple(_differentiated(below[first[alpha[:-1]] + k], alpha[-1])
                                  for alpha in _derivative_layout(system.nvars, order)[0]
                                  for k in range(size))))
    return lists


def report_tree(report) -> dict:
    """Fixed-order tree for one solver report; wall time stays last."""
    stages = []
    for stage in report.stages:
        stages.append({
            "corank_before": str(stage.corank_before),
            "corank_after": str(stage.corank_after),
            "inverse_condition_before": _num(stage.inverse_condition_before),
            "inverse_condition_after": _num(stage.inverse_condition_after),
            "multipliers": [_pair(z) for z in stage.multiplier_values],
        })
    return {
        "system": _string(report.system_name),
        "nvars": str(report.nvars),
        "neqs": str(report.neqs),
        "status": _string(report.status),
        "seed": str(report.seed),
        "deflations": str(report.deflations),
        "corank_sequence": [str(c) for c in report.corank_sequence],
        "corank_arrow": _string(report.corank_arrow),
        "residual_initial": _num(report.residual_initial),
        "residual_final": _num(report.residual_final),
        "inverse_condition_original": _num(report.inverse_condition_original),
        "inverse_condition_final": _num(report.inverse_condition_final),
        "correct_digits_initial": _num(report.correct_digits_initial),
        "correct_digits_final": _num(report.correct_digits_final),
        "solution": [_pair(z) for z in report.solution],
        "stages": stages,
        "wall_time_seconds": _num(report.wall_time_seconds),
    }


def emit(node, pad="") -> str:
    """Render a tree of dicts/lists whose leaves are pre-formatted strings."""
    inner = pad + "  "
    if isinstance(node, dict):
        if not node:
            return "{}"
        parts = [f"{inner}{_string(key)}: {emit(value, inner)}"
                 for key, value in node.items()]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(node, list):
        if not node:
            return "[]"
        parts = [inner + emit(value, inner) for value in node]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    return node


def step_ratios(steps):
    """step_(k+1) / step_k for each pair of consecutive steps, skipping a zero step."""
    return [b / a for a, b in zip(steps, steps[1:]) if a > 0]


def dual_nullity_at_order(system: PolySystem, x_star, order: int) -> int:
    """Dimension of the order-d truncation of the annihilating dual space."""
    mac = oracle.macaulay_matrix(system, x_star, order)
    ncols = mac.matrix.shape[1]
    if mac.matrix.shape[0] == 0:
        return ncols
    sigma = linalg.singular_values(mac.matrix)
    return ncols - linalg.numerical_rank(sigma, oracle.DEFAULT_TOL)
