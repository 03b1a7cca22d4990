"""Gauss-Newton iteration with truncated least-squares steps and rank monitoring.

``refine`` drives the iteration on any system object exposing ``nvars``,
``value_and_jacobian`` and ``coefficient_scale`` (both ``PolySystem`` and
the deflated systems do). Its exit statuses:

``converged_regular``
    residual at or below ``residual_tol`` at corank 0, and the recent step
    history does not look like the geometric decay of a singular root.
``stalled_singular``
    the same corank above 0 on the last three iterates while the step
    lengths refuse to contract by the factor a healthy Newton tail shows,
    and no singular value above the kernel still falls as the kernel's do.
    This is the signal that deflation is needed. It is also the verdict
    when the budget runs out on a corank above 0 read on the last three
    iterates, or when a step below ``_STEP_TOL`` leaves a corank above 0.
``max_iter``
    the iteration budget ran out without either verdict.
``diverged``
    no step can be taken from an iterate: its value or its Jacobian is not
    finite, or LAPACK failed to converge on the step (both raise
    ``linalg.SvdConvergenceError`` in the least-squares solve). No rank is
    read then: the iterate is recorded with rank 0 and a NaN inverse
    condition, and ``factored`` stays None.

At a multiple root plain Newton contracts linearly (ratios such as 1/2 on a
double root), so the stall pattern is defined as: the last three step ratios
all above 0.25. Convergence additionally requires that pattern to be absent,
which keeps a shrinking-but-singular iteration from being misread as a
regular solution just because the residual crossed the tolerance.

Each iterate turns its singular values into one Python list and reads
its rank, its inverse condition and the trend's history from that list;
on a handful of values Python's float comparisons cost less than numpy's
per-call overhead, and they compare the same doubles. The residual and
step norms are taken by ``_norm``, which has ``np.linalg.norm``'s bits.

Each iterate reads its corank once, through ``read_rank``; the stall rule,
the convergence test, ``NewtonTrace.ranks`` and the rank handed on to
deflation all use that one reading, and ``deflate.deflate_once`` reads a
rank it is not handed through the same function. The corank is the larger
of two counts:

* the scale-anchored cut, the singular values at or below
  ``rank_tol * max(sigma_1, scale)`` (``linalg.scaled_rank``);
* the trend, the trailing singular values that fell by ``_TREND_FALL`` on
  each of the last two iterates and lie at or below
  ``sqrt(rank_tol) * scale``.

``scale`` is the system's coefficient scale, clamped at 1 (``anchor_scale``).

Toward a singular root the kernel's singular values shrink with the
distance, and where J vanishes at the root (x^2 at 0) sigma_1 shrinks too,
so the trend reads the corank long before the cut does. A regular root's
singular values level off instead, but only once the iteration is near it:
from far away a regular root, or a cluster of them, shrinks the Jacobian as
a multiple root does (x^2 - a from x >> sqrt(a) halves it per step, as x^2
does). The ceiling is what tells them apart. At the roots +-sqrt(a) of
x^2 - a the Jacobian is 2 sqrt(a), the gap between them, and the system
lies a away from x^2. So a pair whose Jacobian levels off above
sqrt(rank_tol) * scale is read as regular, and only a cluster within the
order of rank_tol (relative to the scale) of a multiple root can be read
as one.

While a larger singular value is still falling with the kernel's, the
corank is still growing (at cross_cubes all three values shrink together
and cross the ceiling one after the other), so the stall waits for it.
The step itself is truncated by the relative rule of
``linalg.numerical_rank`` alone.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .polysys import check_point

CONVERGED_REGULAR = "converged_regular"
STALLED_SINGULAR = "stalled_singular"
MAX_ITER = "max_iter"
DIVERGED = "diverged"

_STALL_RATIO = 0.25
_STALL_WINDOW = 3
_STEP_TOL = 1e-14
# a singular value belongs to the kernel once it fell by this factor on each
# of the last two iterates (a double root halves its kernel value per step)
# and lies at or below sqrt(rank_tol) * scale (module docstring)
_TREND_FALL = 0.8


@dataclass(frozen=True)
class NewtonOptions:
    max_iterations: int = 50
    residual_tol: float = 1e-12
    rank_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        for name in ("residual_tol", "rank_tol"):
            linalg.check_tol(getattr(self, name), name)


@dataclass
class NewtonTrace:
    """Per-iterate log: points, residual and step norms, rank diagnostics.

    ``ranks`` holds the rank each iterate read, the smaller of the scaled
    cut and the trend (module docstring); its corank is what the stall rule
    and the convergence test saw. ``factored`` is the Jacobian of the last
    iterate, which is the point ``refine`` returns; ``deflate_loop`` hands it
    to ``deflate_once`` with ``ranks[-1]``. It is None when the iteration
    diverged.
    """

    points: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    ranks: list = field(default_factory=list)
    inverse_conditions: list = field(default_factory=list)
    factored: np.ndarray | None = None

    def record(self, point, residual, rank, inverse_condition):
        self.points.append(np.array(point, dtype=complex))
        self.residuals.append(float(residual))
        self.ranks.append(int(rank))
        self.inverse_conditions.append(float(inverse_condition))


def correct_digits(x, x_ref) -> float:
    """Agreement with a reference point in decimal digits, clamped to [0, 16].

    Uses the absolute error when the reference is small (norm below 1) and
    the relative error otherwise. Both must be vectors of one length
    (``check_point``).
    """
    x_ref = check_point(x_ref, np.size(x), "reference")
    x = check_point(x, x_ref.size)
    err = float(np.linalg.norm(x - x_ref))
    ref_norm = float(np.linalg.norm(x_ref))
    if ref_norm > 1.0:
        err /= ref_norm
    digits = -math.log10(max(err, 1e-300))
    return min(16.0, max(0.0, digits))


def _norm(v) -> float:
    """The 2-norm of the complex vector ``v`` by ``np.linalg.norm``'s own
    formula, sqrt(re . re + im . im), so with its bits but not its dispatch."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _stall_pattern(steps) -> bool:
    if len(steps) < _STALL_WINDOW + 1:
        return False
    recent = steps[-(_STALL_WINDOW + 1):]
    return all(
        prev > 0 and cur > _STALL_RATIO * prev
        for prev, cur in zip(recent, recent[1:])
    )


def _trend(history, ceiling: float):
    """Count the smallest singular values that are falling toward zero.

    ``history`` holds the singular values of the last three iterates, each
    a descending list. A value falls when it shrank by ``_TREND_FALL`` on
    each of the last two; the scan runs up from the smallest value and stops
    at the first that does not fall. Returns (falling, kernel): how many
    fall, and how many of the smallest ones in a row also lie at or below
    ``ceiling``.
    """
    if len(history) < 3:
        return 0, 0
    older, old, new = history
    falling = kernel = 0
    for i in range(len(new) - 1, -1, -1):
        if not (new[i] <= _TREND_FALL * old[i] and old[i] <= _TREND_FALL * older[i]):
            break
        falling += 1
        if kernel + 1 == falling and new[i] <= ceiling:
            kernel = falling
    return falling, kernel


def anchor_scale(system) -> float:
    """The scale the rank decisions are anchored at: the system's coefficient
    scale, but never below 1."""
    return max(1.0, float(system.coefficient_scale))


def read_rank(history, tol: float, scale: float):
    """The rank of the last spectrum in ``history``, and the trend's fall count.

    ``history`` holds the descending singular values of up to the last three
    iterates, oldest first, each as a Python list. The rank is the smaller
    of the scaled cut (``linalg.scaled_rank``) and the size less the trend's
    kernel (module docstring); with fewer than three spectra there is no
    trend, and it is the scaled cut alone. Returns (rank, falling), ``falling`` counting the
    trailing values that fall, in the kernel or not.
    """
    falling, kernel = _trend(history, math.sqrt(tol) * scale)
    sigma = history[-1]
    return min(linalg.scaled_rank(sigma, tol, scale), len(sigma) - kernel), falling


def refine(system, x0, opts: NewtonOptions | None = None):
    """Iterate Gauss-Newton from ``x0``; returns (x_final, status, trace)."""
    if opts is None:
        opts = NewtonOptions()
    x = check_point(x0, system.nvars, "start point")
    scale = anchor_scale(system)
    ncols = system.nvars
    trace = NewtonTrace()
    history = collections.deque(maxlen=3)
    exhausted = False

    for iteration in range(opts.max_iterations + 1):
        fx, jac = system.value_and_jacobian(x)
        residual = _norm(fx)
        try:
            sigma, dx = linalg.truncated_least_squares(jac, fx, opts.rank_tol)
        except linalg.SvdConvergenceError:
            trace.record(x, residual, 0, math.nan)
            return x, DIVERGED, trace
        history.append(sigma.tolist())
        rank, falling = read_rank(history, opts.rank_tol, scale)
        corank = ncols - rank
        trace.record(x, residual, rank, linalg.scaled_inverse_condition(history[-1], scale))

        stall = _stall_pattern(trace.steps)
        corank_stable = (
            corank > 0
            and trace.ranks[-_STALL_WINDOW:] == [rank] * _STALL_WINDOW
        )
        if residual <= opts.residual_tol and corank == 0 and (not stall or exhausted):
            status = CONVERGED_REGULAR
            break
        if corank_stable and stall and falling <= corank:
            status = STALLED_SINGULAR
            break
        if exhausted or iteration == opts.max_iterations:
            # out of steps or of budget: a corank read on the whole window,
            # or on an iterate that cannot move, still asks for deflation
            singular = corank_stable or (corank > 0 and exhausted)
            status = STALLED_SINGULAR if singular else MAX_ITER
            break

        step = _norm(dx)
        x = x - dx
        trace.steps.append(step)
        if step <= _STEP_TOL:
            exhausted = True

    trace.factored = jac
    return x, status, trace
