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
A pass evaluates every request G(k, u) the formula needs in two sweeps over
the levels, not one call per request. The top-down sweep starts from
G(K, []) = J_K and gives each request its children one level down: the top
child on p, the child with B mu prepended, and the m children with slot i
replaced by B q_i. Requests are grouped by their order m. Their directions
are rows of a pool of vectors that takes three array operations per level
to form. Which rows each request uses, and where its children sit, depend
on the level count and the degree cut only, so they are planned once for
all systems that share the two. A request of order m at or above the base
system's total degree is dropped, since D^m J_0 = 0 there (order 0 is
always kept). At the base, each tensor D^m J_0 is evaluated once and
contracted with all requests of order m together; the bottom-up sweep then
builds each level's blocks for all its requests at once, adding the mid
terms in the formula's order (B mu first, then slot 1, 2, ...). One pass
gives J_0 .. J_K, hence ``value_and_jacobian``; ``value_at`` stops below
the top Jacobian. A system without stages runs no sweep and evaluates as
its base system does.

``DeflatedSystem.expand`` produces the naive fully-expanded polynomial
system. It exists for file export and as a cross-check in the tests; it is
deliberately not used by ``value_at``/``jacobian_at``.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

import numpy as np

from . import linalg, newton
from .polysys import (Polynomial, PolyMatrix, PolySystem, check_point,
                      format_system, _fmt_coeff)

DEFAULT_SEED = 0x5EED
STAGE_CAP = 10
_UNIT_TOL = 1e-15


class RegularPointError(ValueError):
    """Deflation was requested at a point with full-column-rank Jacobian."""


class NonFiniteJacobianError(ValueError):
    """Deflation was requested at a point where the Jacobian is not finite."""


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
    """Symbolic derivative tensors of the base Jacobian, cached by multi-index.

    Orders from ``cut`` on are never asked for: J_0 has entries of degree
    below the base degree, so D^m J_0 = 0 for every m >= that degree.
    """

    def __init__(self, base: PolySystem):
        self.nvars = base.nvars
        self.neqs = base.neqs
        self.cut = max(1, max(p.degree for p in base.equations))
        self.cache = {(): base.jacobian_matrix}
        self.layouts = {}   # order -> _derivative_layout(nvars, order), as requested

    def get(self, alpha) -> PolyMatrix:
        found = self.cache.get(alpha)
        if found is None:
            found = self.get(alpha[:-1]).differentiate(alpha[-1])
            self.cache[alpha] = found
        return found

    def derivative(self, order: int, y, powers) -> np.ndarray:
        """D^order J_0(y), shape (nvars,) * order + (neqs, nvars).

        Each sorted multi-index is evaluated once and gathered into place.
        """
        if order == 0:
            return self.cache[()].evaluate(y, powers)
        if order not in self.layouts:
            self.layouts[order] = _derivative_layout(self.nvars, order)
        alphas, index = self.layouts[order]
        return np.array([self.get(alpha).evaluate(y, powers) for alpha in alphas])[index]

    def contract(self, dirs, y, powers) -> np.ndarray:
        """D^m J_0(y)[u_1, .., u_m] for each row of ``dirs`` (count, m, nvars), m > 0."""
        count, order, n = dirs.shape
        out = dirs[:, 0].dot(self.derivative(order, y, powers).reshape(n, -1))
        for j in range(1, order):
            out = dirs[:, j, np.newaxis] @ out.reshape(count, n, -1)
        return out.reshape(count, self.neqs, n)


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

    def _jacobians(self, z, levels: int, mixed, powers):
        """Jacobians J_0 .. J_{levels-1} of the first ``levels`` systems at ``z``.

        ``mixed`` holds each stage's B mu at ``z``; ``powers`` caches the
        powers of the base coordinates for this pass.
        """
        groups, links = _sweep_plan(levels, self._tensors.cut)
        stages = self.stages[:levels - 1]
        # top-down: the directions of every request at a level are rows of
        # that level's pool
        pool = None
        for stage, bmu in zip(reversed(stages), reversed(mixed[:len(stages)])):
            n0 = stage.nvars_prev
            pool = bmu[np.newaxis] if pool is None else np.concatenate(
                [pool[:, :n0], pool[:, n0:].dot(stage.mix.T), bmu[np.newaxis]])

        # bottom-up: contract each base tensor with all requests of its
        # order at once, then build each level's blocks for all its requests
        y = z[:self.base.nvars]
        results = np.concatenate(
            [self._tensors.derivative(0, y, powers)[np.newaxis]]
            + [self._tensors.contract(pool[index], y, powers) for index in groups[1:]])
        jacobians = [results[0]]
        for stage, (tops, mus, by_slot) in zip(stages, links):
            n0, neq0 = stage.nvars_prev, stage.neqs_prev
            top = results[tops]
            out = np.zeros((len(top), stage.neqs_out, stage.nvars_out), dtype=complex)
            out[:, :neq0, :n0] = top
            mid = out[:, neq0:-1, :n0]
            lifted = results[mus]
            mid[:len(lifted)] = lifted
            for first, slot in by_slot:
                mid[first:] += results[slot]
            out[:, neq0:-1, n0:] = top.reshape(-1, n0).dot(stage.mix).reshape(len(top), neq0, -1)
            out[0, -1, n0:] = stage.anchor
            results = out
            jacobians.append(results[0])
        return jacobians

    def _pass(self, z, levels: int, with_value: bool):
        """J_0 .. J_{levels-1} at ``z``, and the value F_K(z) if asked (else None).

        The value shares the pass's powers of the base coordinates and each
        stage's B mu with the Jacobians.
        """
        powers = {}
        if not self.stages:   # the base system's own evaluation, without the sweeps' fixed cost
            value = self.base._value(z, powers) if with_value else None
            return value, [self.base.jacobian_matrix.evaluate(z, powers)] if levels else []
        mixed = [stage.mix @ z[stage.nvars_prev:stage.nvars_out] for stage in self.stages]
        jacobians = self._jacobians(z, levels, mixed, powers)
        if not with_value:
            return None, jacobians
        pieces = [self.base._value(z[:self.base.nvars], powers)]
        for stage, jac, bmu in zip(self.stages, jacobians, mixed):
            pieces.append(jac @ bmu)
            pieces.append([stage.anchor @ z[stage.nvars_prev:stage.nvars_out] - 1.0])
        return np.concatenate(pieces), jacobians

    def value_at(self, z) -> np.ndarray:
        z = check_point(z, self.nvars)
        return self._pass(z, len(self.stages), True)[0]

    def jacobian_at(self, z) -> np.ndarray:
        z = check_point(z, self.nvars)
        return self._pass(z, len(self.stages) + 1, False)[1][-1]

    def value_and_jacobian(self, z):
        """``(value_at(z), jacobian_at(z))`` from one pass of the sweeps."""
        z = check_point(z, self.nvars)
        value, jacobians = self._pass(z, len(self.stages) + 1, True)
        return value, jacobians[-1]

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


@functools.lru_cache(maxsize=32)
def _derivative_layout(nvars: int, order: int):
    """The sorted multi-indices of ``order`` over ``nvars`` variables, and where
    each ordered one lies among them.

    Returns ``(alphas, index)``: ``alphas`` lists the sorted multi-indices
    in lexicographic order, and ``index[i_1, .., i_order]`` is the position
    of ``sorted((i_1, .., i_order))`` in it. The layout depends on the two
    sizes only, so one serves every system with them; ``index`` is
    read-only.
    """
    alphas = tuple(combinations_with_replacement(range(nvars), order))
    position = {alpha: k for k, alpha in enumerate(alphas)}
    index = np.array([position[tuple(sorted(tup))]
                      for tup in product(range(nvars), repeat=order)],
                     dtype=np.intp).reshape((nvars,) * order)
    index.flags.writeable = False
    return alphas, index


@functools.lru_cache(maxsize=32)
def _sweep_plan(levels: int, cut: int):
    """The derivative requests of a pass over ``levels`` systems.

    Returns ``(groups, links)``. ``groups[m]`` is an integer array
    (count, m): the directions of the base-level requests of order m, as
    rows of the direction pool (see ``DeflatedSystem._jacobians``).
    ``links`` holds, per stage from the bottom up, where the children of the
    requests at the stage's output level lie one level down. The plan
    depends on the level count and the degree cut only, not on the stage
    sizes, so one plan serves every system with those two; its arrays are
    read-only.
    """
    # Top-down. At each level the requests are ordered by their order m.
    # One level down, order m holds the B mu children of the order m - 1
    # requests, then the top child of each order m request, then its m
    # children with slot i set to B q_i. If the upper level's pool has P
    # rows, row i of the lower pool is the low part of row i, row P + i
    # the B q of it and row 2P the stage's B mu.
    groups = [np.empty((1, 0), dtype=np.intp)]
    links = []
    size = 0
    for _ in range(levels - 1):
        counts = [len(dirs) for dirs in groups] + [0]   # counts[-1]: none
        below, tops, mus, slots = [], [], [], []
        at = 0
        for m in range(min(len(groups) + 1, cut)):
            before, count = counts[m - 1], counts[m]
            block = np.empty((before + (m + 1) * count, m), dtype=np.intp)
            if before:
                block[:before, 0] = 2 * size
                block[:before, 1:] = groups[m - 1]
                mus.append(at + np.arange(before))
            if count:
                dirs = groups[m]
                block[before:before + count] = dirs
                replaced = block[before + count:].reshape(count, m, m)
                replaced[:] = dirs[:, np.newaxis]
                replaced.reshape(count, m * m)[:, ::m + 1] = dirs + size
                tops.append(at + before + np.arange(count))
                # row j, column i: the child of request j with slot i set
                slots.append(at + before + count + np.arange(count * m).reshape(count, m))
            below.append(block)
            at += len(block)
        # requests with a slot i are those of order above i, a suffix
        by_slot = [(sum(counts[:i + 1]), _index([part[:, i] for part in slots[i + 1:]]))
                   for i in range(len(groups) - 1)]
        links.append((_index(tops), _index(mus), by_slot))
        groups = below
        size = 2 * size + 1
    for dirs in groups:
        dirs.flags.writeable = False
    return tuple(groups), tuple(reversed(links))


def _index(parts):
    """The concatenated index arrays ``parts``: a slice when contiguous, else
    a read-only array."""
    index = np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
    if len(index) and np.array_equal(index, np.arange(index[0], index[0] + len(index))):
        return slice(int(index[0]), int(index[0]) + len(index))
    index.flags.writeable = False
    return index


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


def deflate_once(system, x0, rank_tol: float = 1e-8, rng_seed=0, *,
                 jacobian=None, rank=None):
    """Apply one deflation stage at ``x0``; returns (extended, multipliers).

    The multipliers are initialized as the minimum-norm least-squares
    solution of the stacked linear system [A(x0) mix; anchor] lam = e_last,
    which pins them near the kernel direction with anchor . lam = 1.
    ``rng_seed`` may be an integer seed or an existing numpy Generator (the
    deflation loop threads one generator through all its stages).
    ``jacobian`` and ``rank`` are the Jacobian at ``x0`` and its rank when
    the caller has them, as the loop does from the last iterate of
    ``newton.refine``, whose rank the singular-value trend may have lowered
    below the scaled cut. Without them the Jacobian is evaluated here, and
    one that is not finite (an overflowing point) raises
    ``NonFiniteJacobianError``; the rank is then the scaled cut
    ``linalg.scaled_rank`` at ``rank_tol``.
    """
    if not 0 < rank_tol < 1:
        raise ValueError("rank tolerance must lie in (0, 1)")
    current = _as_deflated(system)
    x0 = check_point(x0, current.nvars)
    if jacobian is None:
        jacobian = current.jacobian_at(x0)
        if not np.isfinite(jacobian).all():
            raise NonFiniteJacobianError("Jacobian is not finite at the given point")
    if rank is None:
        scale = max(1.0, current.coefficient_scale)
        rank = linalg.scaled_rank(linalg.singular_values(jacobian), rank_tol, scale)
    if rank >= current.nvars:
        raise RegularPointError("Jacobian has full column rank at the given point")
    rng = _make_rng(rng_seed)
    mix = unit_circle_matrix(rng, current.nvars, rank + 1)
    anchor = unit_circle_matrix(rng, 1, rank + 1)[0]
    stage = DeflationStage(rank=rank, mix=mix, anchor=anchor,
                           nvars_prev=current.nvars, neqs_prev=current.neqs)
    stacked = np.vstack([jacobian @ mix, anchor[np.newaxis, :]])
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
                                            jacobian=trace.factored,
                                            rank=trace.ranks[-1])
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
            linalg.singular_values(original_jac), scale)
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
