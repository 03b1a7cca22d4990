"""Randomized deflation of singular polynomial roots.

One deflation stage takes a system with Jacobian of numerical rank r at the
current point (as ``newton.read_rank`` reads it, the one rank rule of the
package), draws a random unit-modulus matrix ``mix`` with r + 1 columns
and a unit-modulus row ``anchor``, and extends the system with

    A(x) (mix @ multipliers) = 0        (one equation per old equation)
    anchor . multipliers     = 1

so the equation count doubles plus one and r + 1 multiplier variables are
adjoined. The extended root is regular more often than not; when it is not,
deflation is applied again, and the total number of stages stays below the
multiplicity of the root.

A ``DeflationStage`` is its two draws: its rank and variable counts are
read from the shape of ``mix``. ``deflate_once`` takes both from one
``unit_circle_matrix`` draw of n + 1 rows, the rows of ``mix`` and then the
anchor, which is the random stream (and so the bits) of drawing them one
after the other. ``DeflationStage(mix, anchor)`` is the one constructor: it
checks shapes and moduli for every caller, ``deflate_once`` included.
``DeflatedSystem.levels`` is the one table of (nvars, neqs) per level. The
base ``PolySystem`` evaluates D^m J_0 (``jet``) from term lists that serve
every system on that base. Multiplier j of stage k is named ``l_k_j``
unless a base variable has one of those names; then all of them take a
longer prefix of l's (``ll_k_j``, ..).

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
to form, and the plan lists each request as the tuple of its rows. Which
rows each request uses, and where its children sit, depend on the level
count and the degree cut only, so they are planned once for all systems
that share the two. A request of order m at or above the base system's
total degree is dropped, since D^m J_0 = 0 there (order 0 is always
kept). At the base, one ``jet`` gives F_0 and each tensor D^m J_0,
contracted with all requests of order m together; the bottom-up sweep then
builds each level's blocks for all its requests at once, adding the mid
terms in the formula's order (B mu first, then slot 1, 2, ...). A pass,
``_pass(z, levels)``, returns F_K with J_0 .. J_(levels-1), writing F_K
into one preallocated vector (F_0 first, then each stage's J_k B mu, by
``np.matmul`` into its rows, and a . mu - 1 below the rows of the level it
extends): one over all K + 1 levels gives ``jacobian_at`` and
``value_and_jacobian``, and ``value_at`` stops below the top Jacobian. A
system without stages runs no sweep and evaluates as its base system does.

``DeflatedSystem.expand`` produces the naive fully-expanded polynomial
system. It exists for file export and as a cross-check in the tests; it is
deliberately not used by ``value_at``/``jacobian_at``.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
import numpy as np

from . import linalg, newton
from .polysys import Polynomial, PolyMatrix, PolySystem, check_point, format_system, _fmt_coeff

DEFAULT_SEED = 0x5EED
STAGE_CAP = 10
EXPAND_TERM_CAP = 1_000_000   # terms ``expand`` builds; one in 150 variables takes 1.3 kB
_UNIT_TOL = 1e-15


class RegularPointError(ValueError):
    """Deflation was requested at a point with full-column-rank Jacobian."""


class NonFiniteJacobianError(ValueError):
    """Deflation was requested at a point where the Jacobian is not finite."""


class ExpansionTooLargeError(ValueError):
    """The expanded system could exceed ``EXPAND_TERM_CAP`` terms."""


@dataclass(frozen=True, eq=False)
class DeflationStage:
    """The random draws of one deflation step: ``mix`` is n x (r + 1) for a
    system in n variables whose Jacobian has rank r, ``anchor`` has r + 1
    entries. The rank and the sizes follow from the shape of ``mix``. Both
    are stored as read-only complex copies, once the shapes and the unit
    moduli are checked, so the checked draws cannot change and the caller's
    arrays stay theirs. Stages compare and hash by identity, as the reports
    do."""

    mix: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        mix = np.array(self.mix, dtype=complex)
        if mix.ndim != 2 or not 0 < mix.shape[1] <= mix.shape[0]:
            raise ValueError(f"mix has shape {mix.shape}, expected (n, r + 1) "
                             f"with rank 0 <= r < n")
        anchor = np.array(check_point(self.anchor, mix.shape[1], "anchor"))
        for arr in (mix, anchor):
            # written so that NaN fails it too
            if not abs(abs(arr) - 1.0).max() <= _UNIT_TOL:
                raise ValueError("mix and anchor entries must have modulus one")
            arr.flags.writeable = False
        object.__setattr__(self, "mix", mix)
        object.__setattr__(self, "anchor", anchor)

    @property
    def rank(self) -> int:
        return self.mix.shape[1] - 1

    @property
    def nvars_prev(self) -> int:
        return self.mix.shape[0]

    @property
    def nvars_out(self) -> int:
        return self.mix.shape[0] + self.mix.shape[1]


class DeflatedSystem:
    """A base system plus an ordered stack of deflation stages.

    Instances are immutable; ``with_stage`` returns a new system on the same
    base. ``levels`` holds (nvars, neqs) of the base and of each stage's
    output. With no stages the object behaves exactly like the base system,
    which lets the solver treat both uniformly.
    """

    def __init__(self, base: PolySystem, stages=()):
        self.base = base
        self.stages = tuple(stages)
        levels = [(base.nvars, base.neqs)]
        for k, stage in enumerate(self.stages):
            nvars, neqs = levels[-1]
            if stage.nvars_prev != nvars:
                raise ValueError(f"stage {k} does not chain onto the system below it")
            levels.append((stage.nvars_out, 2 * neqs + 1))
        self.levels = tuple(levels)
        # D^m J_0 = 0 from this order on: J_0's entries have lower degree
        self._cut = max(1, base.degree)

    @property
    def nvars(self) -> int:
        return self.levels[-1][0]

    @property
    def neqs(self) -> int:
        return self.levels[-1][1]

    @property
    def coefficient_scale(self) -> float:
        return self.base.coefficient_scale

    def with_stage(self, stage: DeflationStage) -> "DeflatedSystem":
        return DeflatedSystem(self.base, self.stages + (stage,))

    @property
    def var_names(self):
        """The base names, then multiplier j of stage k as ``l_k_j``. When a
        base name is among those, every multiplier takes the shortest prefix
        of more l's (``ll_k_j``, ..) whose names all differ from the base's."""
        base = self.base.var_names
        prefix = "l"
        while True:
            names = tuple(f"{prefix}_{k}_{j}" for k, stage in enumerate(self.stages, start=1)
                          for j in range(1, stage.rank + 2))
            if set(base).isdisjoint(names):
                return base + names
            prefix += "l"

    # -- structured evaluation ----------------------------------------------

    def _jacobians(self, tensors, mixed, levels: int):
        """J_0 .. J_{levels-1} of the first ``levels`` systems at a point, from the base
        tensors J_0, D J_0, .. there (one per order of the plan) and each B mu, ``mixed``."""
        groups, links = _sweep_plan(levels, self._cut)
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
        results = np.concatenate([tensors[0][np.newaxis]] + [
            _contract(tensor, pool[index]) for tensor, index in zip(tensors[1:], groups[1:])])
        jacobians = [results[0]]
        for stage, (n0, neq0), (n1, neq1), (tops, mus, by_slot) in zip(
                stages, self.levels, self.levels[1:], links):
            top = results[tops]
            out = np.zeros((len(top), neq1, n1), dtype=complex)
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

    def _pass(self, z, levels: int):
        """The value F_K(z) and J_0 .. J_{levels-1} at ``z``, from one ``jet`` of
        the base system and each stage's B mu."""
        if not self.stages:   # the base system's own evaluation, without the sweeps' fixed cost
            return self.base.jet(z, levels)
        value, tensors = self.base.jet(z[:self.base.nvars], min(levels, self._cut))
        mixed = [stage.mix @ z[stage.nvars_prev:stage.nvars_out] for stage in self.stages]
        jacobians = self._jacobians(tensors, mixed, levels)
        # F_k fills the first neq_k rows of F_K; stage k + 1 writes the next neq_k + 1
        out = np.empty(self.neqs, dtype=complex)
        out[:len(value)] = value
        for stage, jac, bmu, (_, neq) in zip(self.stages, jacobians, mixed, self.levels):
            np.matmul(jac, bmu, out=out[neq:2 * neq])
            out[2 * neq] = stage.anchor @ z[stage.nvars_prev:stage.nvars_out] - 1.0
        return out, jacobians

    def value_at(self, z) -> np.ndarray:
        """F_K at ``z`` from a pass that stops below the top Jacobian. The
        pass batches the lower Jacobians' contractions otherwise than the
        one of ``value_and_jacobian``, so the two values may differ in the
        last bits (up to 5.3e-16 relative seen on {x, y^d})."""
        return self._pass(check_point(z, self.nvars), len(self.stages))[0]

    def jacobian_at(self, z) -> np.ndarray:
        return self.value_and_jacobian(z)[1]

    def value_and_jacobian(self, z):
        """``(value_at(z), jacobian_at(z))`` from one pass of the sweeps."""
        value, jacobians = self._pass(check_point(z, self.nvars), len(self.stages) + 1)
        return value, jacobians[-1]

    # -- naive route (export and cross-checks only) --------------------------

    def expand(self) -> PolySystem:
        """Fully expanded polynomial system in base plus multiplier variables.

        Refuses a stage that could exceed ``EXPAND_TERM_CAP`` terms before building
        it: a term of degree d in n variables has at most min(n, d) partials."""
        equations = list(self.base.equations)
        for k, stage in enumerate(self.stages, start=1):
            n_prev = stage.nvars_prev
            bound = stage.rank + 2 + sum(len(p.terms) * (
                1 + (stage.rank + 1) * min(n_prev, p.degree)) for p in equations)
            if bound > EXPAND_TERM_CAP:
                raise ExpansionTooLargeError(f"expanding stage {k} could give {bound} terms, "
                                             f"above the cap of {EXPAND_TERM_CAP}")
            n_out = stage.nvars_out
            lifted = [p.embed(n_out) for p in equations]
            # the level's symbolic Jacobian, from its own equations, times B
            combined = PolyMatrix([[p.differentiate(j) for j in range(n_prev)]
                                   for p in equations]).right_multiply(stage.mix)
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
        return PolySystem(equations, self.var_names)


def _contract(tensor, dirs) -> np.ndarray:
    """``tensor``, D^m J_0 at a point (see ``PolySystem.jet``), applied to
    [u_1, .., u_m] for each row of ``dirs`` (count, m, nvars), m > 0."""
    count, order, n = dirs.shape
    out = dirs[:, 0].dot(tensor.reshape(n, -1))
    for j in range(1, order):
        out = dirs[:, j, np.newaxis] @ out.reshape(count, n, -1)
    return out.reshape(count, *tensor.shape[-2:])


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
    # Top-down. A request is the tuple of its directions' pool rows, and at
    # each level the requests are ordered by their order m. One level down,
    # order m holds the B mu children of the order m - 1 requests, then the
    # top child of each order m request, then its m children with slot i set
    # to B q_i. If the upper level's pool has P rows, row i of the lower
    # pool is the low part of row i, row P + i the B q of it and row 2P the
    # stage's B mu.
    groups = [[()]]
    links = []
    size = 0
    for _ in range(levels - 1):
        below, tops, mus = [], [], []
        slots = [[] for _ in groups[1:]]   # slots[i]: the slot-i children, in request order
        at = 0
        for m in range(min(len(groups) + 1, cut)):
            block = [(2 * size,) + dirs for dirs in groups[m - 1]] if m else []
            mus += range(at, at + len(block))
            kept = groups[m] if m < len(groups) else []
            tops += range(at + len(block), at + len(block) + len(kept))
            block += kept
            for dirs in kept:
                for i in range(m):
                    slots[i].append(at + len(block))
                    block.append(dirs[:i] + (dirs[i] + size,) + dirs[i + 1:])
            below.append(block)
            at += len(block)
        # requests with a slot i are those of order above i, a suffix
        by_slot = [(sum(map(len, groups[:i + 1])), _index(part)) for i, part in enumerate(slots)]
        links.append((_index(tops), _index(mus), by_slot))
        groups = below
        size = 2 * size + 1
    arrays = tuple(np.array(dirs, dtype=np.intp) for dirs in groups)
    for dirs in arrays:
        dirs.flags.writeable = False
    return arrays, tuple(reversed(links))


def _index(positions):
    """The list ``positions`` as a slice when contiguous, else a read-only array."""
    if positions and positions == list(range(positions[0], positions[0] + len(positions))):
        return slice(positions[0], positions[0] + len(positions))
    index = np.array(positions, dtype=np.intp)
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


def deflate_once(system, x0, rank_tol: float = newton.NewtonOptions.rank_tol,
                 rng_seed=0, *, jacobian=None, rank=None):
    """Apply one deflation stage at ``x0``; returns (extended, multipliers).

    The multipliers are initialized as the minimum-norm least-squares
    solution of the stacked linear system [A(x0) mix; anchor] lam = e_last,
    which pins them near the kernel direction with anchor . lam = 1; the
    stack is written into one preallocated array. ``mix`` and ``anchor``
    come from one draw (module docstring).
    ``rng_seed`` may be an integer seed or an existing numpy Generator (the
    deflation loop threads one generator through all its stages).
    ``jacobian`` and ``rank`` are the Jacobian at ``x0`` and its rank when
    the caller has them, as the loop does from the last iterate of
    ``newton.refine``, whose rank the singular-value trend may have lowered
    below the scaled cut. Without them the Jacobian is evaluated here, and
    one that is not finite (an overflowing point) raises
    ``NonFiniteJacobianError``; the rank is then ``newton.read_rank`` of
    this one spectrum at ``rank_tol``, which with no trend to read is the
    scaled cut.
    """
    linalg.check_tol(rank_tol)
    current = _as_deflated(system)
    x0 = check_point(x0, current.nvars)
    if jacobian is None:
        jacobian = current.jacobian_at(x0)
        if not np.isfinite(jacobian).all():
            raise NonFiniteJacobianError("Jacobian is not finite at the given point")
    if rank is None:
        rank, _ = newton.read_rank([linalg.singular_values(jacobian).tolist()], rank_tol,
                                   newton.anchor_scale(current))
    if rank >= current.nvars:
        raise RegularPointError("Jacobian has full column rank at the given point")
    # the rows of mix, then the anchor: the stream, and so the bits, of two draws
    draws = unit_circle_matrix(np.random.default_rng(rng_seed), current.nvars + 1, rank + 1)
    mix, anchor = draws[:-1], draws[-1]
    stacked = np.empty((current.neqs + 1, rank + 1), dtype=complex)
    np.matmul(jacobian, mix, out=stacked[:-1])
    stacked[-1] = anchor
    rhs = np.zeros(current.neqs + 1, dtype=complex)
    rhs[-1] = 1.0
    multipliers = linalg.least_squares(stacked, rhs, rank_tol)
    return current.with_stage(DeflationStage(mix, anchor)), multipliers


# ---------------------------------------------------------------------------
# the top-level loop and its report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DeflationReport:
    """Corank and conditioning on both sides of one deflation stage. It holds
    an array, so reports compare and hash by identity."""

    corank_before: int
    corank_after: int
    inverse_condition_before: float
    inverse_condition_after: float
    multiplier_values: np.ndarray


@dataclass(eq=False)
class SolverReport:
    """Everything the CLI prints about one solve; compared by identity, as
    ``DeflationReport`` is."""

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
    not an exception. ``system`` may already carry stages, with ``x0`` in
    its variables; the cap, ``deflations`` and the stage reports then count
    only the stages this call adds.

    Each refinement leaves one corank and one inverse condition, those of
    its last iterate; stage k added here is reported from entries k and
    k + 1, with its multipliers read from the final point.
    """
    start = time.perf_counter()
    if opts is None:
        opts = newton.NewtonOptions()
    current = _as_deflated(system)
    base = current.base
    given = len(current.stages)   # stages the caller's system already has
    x0 = check_point(x0, current.nvars, "start point")
    digits_initial = None
    if reference is not None:
        digits_initial = newton.correct_digits(x0[:base.nvars], reference)

    rng = np.random.default_rng(seed)
    z = x0
    corank_sequence = []
    inverse_conditions = []
    while True:
        z, status, trace = newton.refine(current, z, opts)
        if not corank_sequence:   # the first refinement's first iterate is x0
            residual_initial = trace.residuals[0]
        corank_sequence.append(current.nvars - trace.ranks[-1])
        inverse_conditions.append(trace.inverse_conditions[-1])
        if status != newton.STALLED_SINGULAR:   # which ``refine`` gives at a corank above 0 only
            break
        if len(current.stages) - given >= max_stages:
            break
        current, multipliers = deflate_once(current, z, opts.rank_tol, rng,
                                            jacobian=trace.factored,
                                            rank=trace.ranks[-1])
        z = np.concatenate([z, multipliers])

    stage_reports = [
        DeflationReport(
            corank_before=corank_sequence[k],
            corank_after=corank_sequence[k + 1],
            inverse_condition_before=inverse_conditions[k],
            inverse_condition_after=inverse_conditions[k + 1],
            multiplier_values=z[stage.nvars_prev:stage.nvars_out].copy(),
        )
        for k, stage in enumerate(current.stages[given:])
    ]

    prefix = z[:base.nvars]
    original_jac = base.jacobian_at(prefix)
    inverse_condition_original = math.nan  # no rank to judge after divergence
    if np.isfinite(original_jac).all():
        inverse_condition_original = linalg.scaled_inverse_condition(
            linalg.singular_values(original_jac).tolist(), newton.anchor_scale(base))
    digits_final = None
    if reference is not None:
        digits_final = newton.correct_digits(prefix, reference)

    return SolverReport(
        system_name=system_name,
        nvars=base.nvars,
        neqs=base.neqs,
        status=status,
        deflations=len(stage_reports),
        corank_sequence=corank_sequence,
        solution=z,
        residual_initial=residual_initial,
        residual_final=trace.residuals[-1],
        inverse_condition_original=inverse_condition_original,
        inverse_condition_final=inverse_conditions[-1],
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
