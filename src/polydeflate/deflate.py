"""Randomized deflation of singular polynomial roots.

One deflation stage takes a system with Jacobian of numerical rank r at the
current point, draws a random unit-modulus matrix ``mix`` with r + 1 columns
and a unit-modulus row ``anchor``, and extends the system with

    A(x) (mix @ multipliers) = 0        (one equation per old equation)
    anchor . multipliers     = 1

so the equation count doubles plus one and r + 1 multiplier variables are
adjoined. The extended root is regular more often than not; when it is not,
deflation is applied again, and the total number of stages stays below the
multiplicity of the root.

Deflated systems are never expanded into polynomials on the evaluation path.
Stage k gives F_k(y, mu) = [F_{k-1}(y); J_{k-1}(y) B mu; a . mu - 1] (B its
``mix``, a its ``anchor``). With G(k, [u_1..u_m]) = D^m J_k[u_1, .., u_m] and
u_i = (p_i, q_i) split into old and multiplier coordinates,

    G(k, u) = [[G(k-1, p),                                     0          ],
               [G(k-1, [B mu]+p) + sum_i G(k-1, [B q_i]+p_-i), G(k-1, p) B],
               [0,                                             a if m = 0 ]]

Terms with two or more multiplier directions vanish and are never formed.
Level 0 contracts the cached symbolic derivative tensors of the base Jacobian.
One pass gives J_0 .. J_K, hence ``value_and_jacobian``; ``value_at`` stops
below the top Jacobian.

``DeflatedSystem.expand`` produces the naive fully-expanded polynomial
system. It exists for file export and as a cross-check in the tests; it is
deliberately not used by ``value_at``/``jacobian_at``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg, newton
from .polysys import (Polynomial, PolyMatrix, PolySystem, check_point,
                      format_system, _fmt_coeff)

DEFAULT_SEED = 0x5EED
STAGE_CAP = 10
_UNIT_TOL = 1e-15


class RegularPointError(ValueError):
    """Deflation was requested at a point with full-column-rank Jacobian."""


@dataclass(frozen=True)
class DeflationStage:
    """Random data and sizes of one deflation step."""

    rank: int
    mix: np.ndarray
    anchor: np.ndarray
    nvars_prev: int
    neqs_prev: int

    def __post_init__(self):
        if not 0 <= self.rank < self.nvars_prev:
            raise ValueError(
                f"stage rank {self.rank} incompatible with {self.nvars_prev} variables"
            )
        if self.mix.shape != (self.nvars_prev, self.rank + 1):
            raise ValueError(f"mix has shape {self.mix.shape}, "
                             f"expected ({self.nvars_prev}, {self.rank + 1})")
        if self.anchor.shape != (self.rank + 1,):
            raise ValueError(f"anchor has shape {self.anchor.shape}, "
                             f"expected ({self.rank + 1},)")
        for arr in (self.mix, self.anchor):
            if np.max(np.abs(np.abs(arr) - 1.0)) > _UNIT_TOL:
                raise ValueError("mix and anchor entries must have modulus one")

    @property
    def nvars_out(self) -> int:
        return self.nvars_prev + self.rank + 1

    @property
    def neqs_out(self) -> int:
        return 2 * self.neqs_prev + 1


class _BaseTensors:
    """Symbolic derivative tensors of the base Jacobian, cached by multi-index."""

    def __init__(self, base: PolySystem):
        self.nvars = base.nvars
        self.cache = {(): base.jacobian_matrix}
        self.layouts = {}   # order -> sorted multi-indices, gather index

    def get(self, alpha) -> PolyMatrix:
        found = self.cache.get(alpha)
        if found is None:
            found = self.get(alpha[:-1]).differentiate(alpha[-1])
            self.cache[alpha] = found
        return found

    def derivative(self, order: int, y, powers) -> np.ndarray:
        """D^order J_0(y), shape (neqs, nvars) plus one nvars axis per order.

        Each sorted multi-index is evaluated once and gathered into place.
        """
        if order == 0:
            return self.cache[()].evaluate(y, powers)
        if order not in self.layouts:
            tuples = np.sort(list(product(range(self.nvars), repeat=order)), axis=1)
            alphas, index = np.unique(tuples, axis=0, return_inverse=True)
            self.layouts[order] = ([tuple(a) for a in alphas.tolist()],
                                   index.reshape((self.nvars,) * order))
        alphas, index = self.layouts[order]
        stacked = np.array([self.get(alpha).evaluate(y, powers) for alpha in alphas])
        return stacked.transpose(1, 2, 0)[..., index]


class DeflatedSystem:
    """A base system plus an ordered stack of deflation stages.

    Instances are immutable; ``with_stage`` returns a new system sharing the
    base and its tensor cache. With no stages the object behaves exactly
    like the base system, which lets the solver treat both uniformly.
    """

    def __init__(self, base: PolySystem, stages=(), _tensors=None):
        self.base = base
        self.stages = tuple(stages)
        nvars, neqs = base.nvars, base.neqs
        for k, stage in enumerate(self.stages):
            if stage.nvars_prev != nvars or stage.neqs_prev != neqs:
                raise ValueError(f"stage {k} does not chain onto the system below it")
            nvars, neqs = stage.nvars_out, stage.neqs_out
        self._nvars = nvars
        self._neqs = neqs
        self._tensors = _tensors if _tensors is not None else _BaseTensors(base)

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def neqs(self) -> int:
        return self._neqs

    @property
    def coefficient_scale(self) -> float:
        return self.base.coefficient_scale

    def with_stage(self, stage: DeflationStage) -> "DeflatedSystem":
        return DeflatedSystem(self.base, self.stages + (stage,),
                              _tensors=self._tensors)

    def multiplier_slice(self, stage_index: int) -> slice:
        stage = self.stages[stage_index]
        return slice(stage.nvars_prev, stage.nvars_out)

    @property
    def var_names(self):
        names = list(self.base.var_names)
        for k, stage in enumerate(self.stages, start=1):
            names.extend(f"l_{k}_{j}" for j in range(1, stage.rank + 2))
        return tuple(names)

    # -- structured evaluation ----------------------------------------------

    def _jacobians(self, z, levels: int):
        """Jacobians J_0 .. J_{levels-1} of the first ``levels`` systems at ``z``."""
        y = z[:self.base.nvars]
        powers = {}
        derivatives = {}
        mixed = [stage.mix @ z[stage.nvars_prev:stage.nvars_out] for stage in self.stages]
        jacobians = []

        def grad(level, vecs):
            """D^m J_level[vecs], an neqs x nvars matrix of that level."""
            if level == 0:
                out = derivatives.get(len(vecs))
                if out is None:
                    out = derivatives[len(vecs)] = self._tensors.derivative(
                        len(vecs), y, powers)
                for vec in vecs:
                    out = out @ vec
            else:
                stage = self.stages[level - 1]
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
        del grad  # a recursive closure is a reference cycle: free the pass now
        return jacobians

    def _value(self, z, jacobians) -> np.ndarray:
        pieces = [self.base.value_at(z[:self.base.nvars])]
        for stage, jac in zip(self.stages, jacobians):
            mu = z[stage.nvars_prev:stage.nvars_out]
            pieces.append(jac @ (stage.mix @ mu))
            pieces.append([stage.anchor @ mu - 1.0])
        return np.concatenate(pieces)

    def value_at(self, z) -> np.ndarray:
        z = check_point(z, self.nvars)
        return self._value(z, self._jacobians(z, len(self.stages)))

    def jacobian_at(self, z) -> np.ndarray:
        z = check_point(z, self.nvars)
        return self._jacobians(z, len(self.stages) + 1)[-1]

    def value_and_jacobian(self, z):
        """``(value_at(z), jacobian_at(z))`` from one pass of the recursion."""
        z = check_point(z, self.nvars)
        jacobians = self._jacobians(z, len(self.stages) + 1)
        return self._value(z, jacobians), jacobians[-1]

    # -- naive route (export and cross-checks only) --------------------------

    def expand(self) -> PolySystem:
        """Fully expanded polynomial system in base plus multiplier variables."""
        equations = list(self.base.equations)
        names = self.var_names
        for stage in self.stages:
            n_prev = stage.nvars_prev
            n_out = stage.nvars_out
            prefix = list(range(n_prev))
            lifted = [p.embed(n_out, prefix) for p in equations]
            level = PolySystem(equations, names[:n_prev])
            combined = level.jacobian_matrix.right_multiply(stage.mix)
            # exponents of multiplier t over the rank + 1 new variables
            units = [tuple(int(i == t) for i in range(stage.rank + 1))
                     for t in range(stage.rank + 1)]
            # row i is sum_t combined[i, t] * multiplier t; no two terms share
            # a monomial, so every coefficient is copied, never summed
            mid = [Polynomial._trusted(n_out, {exps + unit: c
                                               for entry, unit in zip(row, units)
                                               for exps, c in entry.terms.items()})
                   for row in combined.entries]
            last = {(0,) * n_out: -1.0 + 0j}
            for t, unit in enumerate(units):
                last[(0,) * n_prev + unit] = complex(stage.anchor[t])
            equations = lifted + mid + [Polynomial._trusted(n_out, last)]
        return PolySystem(equations, names)


def _as_deflated(system) -> DeflatedSystem:
    if isinstance(system, DeflatedSystem):
        return system
    return DeflatedSystem(system)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def unit_circle_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Matrix of e^(i theta) entries, theta uniform from the given generator."""
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    angles = 2.0 * np.pi * rng.random((rows, cols))
    return np.exp(1j * angles)


def _make_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.Generator(np.random.PCG64(seed_or_rng))


def deflate_once(system, x0, rank_tol: float = 1e-8, rng_seed=0, *, factored=None):
    """Apply one deflation stage at ``x0``; returns (extended, multipliers).

    The multipliers are initialized as the minimum-norm least-squares
    solution of the stacked linear system [A(x0) mix; anchor] lam = e_last,
    which pins them near the kernel direction with anchor . lam = 1.
    ``rng_seed`` may be an integer seed or an existing numpy Generator (the
    deflation loop threads one generator through all its stages).
    ``factored`` is (Jacobian at ``x0``, its ``linalg.svd``) when the caller
    has them, as the loop does from the last Newton iterate.
    """
    if not 0 < rank_tol < 1:
        raise ValueError("rank tolerance must lie in (0, 1)")
    current = _as_deflated(system)
    x0 = check_point(x0, current.nvars)
    if factored is None:
        jac = current.jacobian_at(x0)
        factored = jac, linalg.svd(jac)
    jac, decomp = factored
    scale = max(1.0, current.coefficient_scale)
    rank = linalg.scaled_rank(decomp.sigma, rank_tol, scale)
    if rank >= current.nvars:
        raise RegularPointError("Jacobian has full column rank at the given point")
    rng = _make_rng(rng_seed)
    mix = unit_circle_matrix(rng, current.nvars, rank + 1)
    anchor = unit_circle_matrix(rng, 1, rank + 1)[0]
    stage = DeflationStage(rank=rank, mix=mix, anchor=anchor,
                           nvars_prev=current.nvars, neqs_prev=current.neqs)
    stacked = np.vstack([jac @ mix, anchor[np.newaxis, :]])
    rhs = np.zeros(current.neqs + 1, dtype=complex)
    rhs[-1] = 1.0
    multipliers = linalg.least_squares(stacked, rhs, rank_tol)
    return current.with_stage(stage), multipliers


# ---------------------------------------------------------------------------
# the top-level loop and its report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeflationReport:
    """Corank and conditioning on both sides of one deflation stage."""

    corank_before: int
    corank_after: int
    inverse_condition_before: float
    inverse_condition_after: float
    multiplier_values: np.ndarray


@dataclass
class SolverReport:
    """Everything the CLI prints about one solve."""

    system_name: str
    nvars: int
    neqs: int
    status: str
    deflations: int
    corank_sequence: list
    solution: np.ndarray
    residual_initial: float
    residual_final: float
    inverse_condition_original: float
    inverse_condition_final: float
    correct_digits_initial: float | None
    correct_digits_final: float | None
    stages: list
    seed: int
    wall_time_seconds: float
    deflated: "DeflatedSystem | None" = None

    @property
    def corank_arrow(self) -> str:
        return " -> ".join(str(c) for c in self.corank_sequence)


def deflate_loop(system, x0, opts: newton.NewtonOptions | None = None, *,
                 seed: int = DEFAULT_SEED, max_stages: int = STAGE_CAP,
                 reference=None, system_name: str = "system") -> SolverReport:
    """Alternate refinement and deflation until the Jacobian is regular.

    Runs ``newton.refine`` on the current system; on a singular stall it
    applies ``deflate_once`` (drawing from one generator seeded once per
    solve), lifts the point with the initial multipliers, and repeats. Stops
    on regular convergence, on a refinement that gives up (max_iter) or
    diverges, or at the stage cap; the cap is reported through the status,
    not an exception.
    """
    start = time.perf_counter()
    if opts is None:
        opts = newton.NewtonOptions()
    current = _as_deflated(system)
    base = current.base
    x0 = check_point(x0, current.nvars, "start point")
    scale = max(1.0, base.coefficient_scale)
    digits_initial = None
    if reference is not None:
        digits_initial = newton.correct_digits(x0[:base.nvars], reference)

    rng = np.random.Generator(np.random.PCG64(seed))
    z = x0
    corank_sequence = []
    pending = []
    status = newton.MAX_ITER
    while True:
        z, status, trace = newton.refine(current, z, opts)
        if not corank_sequence:   # the first refinement's first iterate is x0
            residual_initial = trace.residuals[0]
        corank = current.nvars - trace.ranks[-1]
        invcond = trace.inverse_conditions[-1]
        corank_sequence.append(corank)
        if pending:
            pending[-1]["corank_after"] = corank
            pending[-1]["invcond_after"] = invcond
        if status != newton.STALLED_SINGULAR or corank == 0:
            break
        if len(current.stages) >= max_stages:
            break
        pending.append({"corank_before": corank, "invcond_before": invcond})
        current, multipliers = deflate_once(current, z, opts.rank_tol, rng,
                                            factored=trace.factored)
        z = np.concatenate([z, multipliers])

    stage_reports = []
    for index, entry in enumerate(pending):
        window = current.multiplier_slice(index)
        stage_reports.append(DeflationReport(
            corank_before=entry["corank_before"],
            corank_after=entry["corank_after"],
            inverse_condition_before=entry["invcond_before"],
            inverse_condition_after=entry["invcond_after"],
            multiplier_values=z[window].copy(),
        ))

    prefix = z[:base.nvars]
    original_jac = base.jacobian_at(prefix)
    inverse_condition_original = math.nan  # no rank to judge after divergence
    if np.isfinite(original_jac).all():
        inverse_condition_original = linalg.scaled_inverse_condition(
            linalg.svd(original_jac).sigma, scale)
    digits_final = None
    if reference is not None:
        digits_final = newton.correct_digits(prefix, reference)

    return SolverReport(
        system_name=system_name,
        nvars=base.nvars,
        neqs=base.neqs,
        status=status,
        deflations=len(current.stages),
        corank_sequence=corank_sequence,
        solution=z,
        residual_initial=residual_initial,
        residual_final=trace.residuals[-1],
        inverse_condition_original=inverse_condition_original,
        inverse_condition_final=trace.inverse_conditions[-1],
        correct_digits_initial=digits_initial,
        correct_digits_final=digits_final,
        stages=stage_reports,
        seed=seed,
        wall_time_seconds=time.perf_counter() - start,
        deflated=current,
    )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def format_deflated(deflated: DeflatedSystem) -> str:
    """Expanded system text plus a comment block with each stage's draws."""
    text = format_system(deflated.expand())
    lines = [text.rstrip("\n")]
    lines.append(f"# deflation stages: {len(deflated.stages)}")
    for k, stage in enumerate(deflated.stages, start=1):
        lines.append(f"# stage {k} rank: {stage.rank}")
        for i in range(stage.nvars_prev):
            row = " ".join(_fmt_coeff(c) for c in stage.mix[i])
            lines.append(f"# stage {k} mix row {i + 1}: {row}")
        anchor_row = " ".join(_fmt_coeff(c) for c in stage.anchor)
        lines.append(f"# stage {k} anchor: {anchor_row}")
    return "\n".join(lines) + "\n"
