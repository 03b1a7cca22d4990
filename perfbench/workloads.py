"""The three workloads: a fixed pool of inputs, one job, and its check.

All three are closed loops with one client: the benchmark issues a job,
waits for it, checks its output, and only then issues the next. Each
workload has a fixed pool of ``round_size`` inputs, the same for every
seed; ``--seed`` sets the order in which a run goes through the pool.
Job ``k`` is pool entry ``order[k % round_size]``, so the first round runs
every input once and later rounds run them again in the same order. That
makes the failures of a run, counted once per input, the same in every
run of the same code, while the timed loop still sees every input.

``job(k)`` is the timed part and calls only polydeflate's public entry
points; ``check`` is not timed. A job whose output fails a
check, or that raises, is a failed job with a short reason; it never
stops the run.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import pathlib
import time
from dataclasses import dataclass

import numpy as np

from polydeflate import cli, deflate, oracle, polysys

FIXTURE_DIR = pathlib.Path("tests") / "fixtures"
MULTIPLICITY = {"square": 2, "axis_quartic": 4, "cubic_trio": 7,
                "cross_cubes": 11, "bench9": 4}
ROOT_TOL = 1e-8          # base coordinates of a solve against the known root
AGREE_TOL = 1e-10        # reparsed export against structured evaluation
RANK_TOL = 1e-8
NEAR_ROOT_FIXTURES = ("square", "axis_quartic", "cubic_trio", "cross_cubes")
NEAR_ROOT_CAP = 4        # one above the most stages any of these fixtures needs
DISTANCE_STRATA = 16
NEAR_ROOT_BLOCKS = 4     # stratified blocks per fixture in the pool
LADDER_STARTS = 8        # pool starts per degree
EXPORT_REPEATS = 4       # pool jobs per fixture
LADDER_DEGREES = tuple(range(3, 8))
LADDER_DISTANCE = 1e-3
EXPORT_FIXTURES = ("square", "axis_quartic", "cubic_trio", "cross_cubes", "bench9")
EXPORT_CHECK_POINTS = 2


@dataclass
class Outcome:
    """What the benchmark keeps of one job."""

    label: str
    ms: float
    reason: str | None       # None when every check passed
    digits: float | None
    useful_stages: int
    fingerprint: tuple       # deterministic summary, compared across passes


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(list(key))


class _Pool:
    """Job ``k`` runs pool entry ``order[k % round_size]``; the seed sets the order."""

    round_size = 1

    def __init__(self, seed: int):
        self.order = [int(i) for i in _rng(seed, 0).permutation(self.round_size)]

    def entry(self, k: int) -> int:
        return self.order[k % self.round_size]


def _unit_direction(rng, n) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def _digits(err: float) -> float:
    """Correct decimal digits for an absolute error, clamped to [0, 16]."""
    return min(16.0, max(0.0, -math.log10(max(err, 1e-300))))


def _useful(coranks) -> int:
    """Stages after which the corank dropped or reached 0."""
    return sum(1 for a, b in zip(coranks, coranks[1:]) if b < a or b == 0)


class _Sink(io.TextIOBase):
    """Swallows the program's console output."""

    def write(self, text):
        return len(text)


class _SolveWorkload(_Pool):
    """Jobs that each run ``cli.main(["solve", ...])`` in this process."""

    def stage_cap(self, multiplicity: int) -> int:
        raise NotImplementedError

    def __init__(self, root: pathlib.Path, seed: int, workdir: pathlib.Path):
        super().__init__(seed)
        self.point_path = workdir / "start.json"
        self.report_path = workdir / "report.json"
        self.sink = _Sink()

    def inputs(self, i):
        """(label, system file, start point, solver seed, multiplicity) of entry i."""
        raise NotImplementedError

    def job(self, k: int):
        label, system_path, start, job_seed, multiplicity = self.inputs(self.entry(k))
        self.point_path.write_text(json.dumps([[z.real, z.imag] for z in start]))
        self.report_path.unlink(missing_ok=True)
        argv = ["solve", "--system", str(system_path), "--point", str(self.point_path),
                "--out", str(self.report_path), "--seed", str(job_seed),
                "--max-deflations", str(self.stage_cap(multiplicity))]
        code = error = None
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(self.sink):
            begin = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a traceback from the program is a failed job
                error = type(exc).__name__
            ms = 1e3 * (time.perf_counter() - begin)
        return label, ms, (code, error, len(start), multiplicity)

    def check(self, k, label, ms, result) -> Outcome:
        code, error, nvars, multiplicity = result
        if error is not None:
            return Outcome(label, ms, f"exception:{error}", None, 0, ("raised", error))
        if not self.report_path.exists():
            return Outcome(label, ms, f"exit_{code}_no_report", None, 0, ("exit", code))
        try:
            report = json.loads(self.report_path.read_text())
        except json.JSONDecodeError:
            return Outcome(label, ms, "unreadable_report", None, 0, ("unreadable", code))
        status = report["status"]
        deflations = int(report["deflations"])
        coranks = [int(c) for c in report["corank_sequence"]]
        base = np.array([complex(*pair) for pair in report["solution"][:nvars]])
        err = float(np.linalg.norm(base))      # every known root is the origin
        reason = None
        if code != 0 or status != "converged_regular":
            capped = (status == "stalled_singular"
                      and deflations >= self.stage_cap(multiplicity))
            reason = "cap_hit" if capped else f"{status}_exit_{code}"
        elif err > ROOT_TOL:
            reason = "false_convergence"
        elif deflations >= multiplicity:
            reason = "too_many_deflations"
        fingerprint = (code, status, deflations, tuple(map(tuple, report["solution"])))
        return Outcome(label, ms, reason, _digits(err), _useful(coranks), fingerprint)


class NearRoot(_SolveWorkload):
    """Short solves of the four singular fixtures from starts near the root.

    Start distances are log-uniform in [1e-4, 1e-2]. They are stratified:
    each block of ``DISTANCE_STRATA`` pool entries on one fixture draws
    one distance from each of that many equal slices of the log range.
    """

    round_size = len(NEAR_ROOT_FIXTURES) * DISTANCE_STRATA * NEAR_ROOT_BLOCKS

    def stage_cap(self, multiplicity):
        return NEAR_ROOT_CAP

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.systems = [root / FIXTURE_DIR / f"{name}.ps" for name in NEAR_ROOT_FIXTURES]
        self.nvars = [polysys.parse_system(path.read_text()).nvars for path in self.systems]

    def inputs(self, i):
        fixture = i % len(NEAR_ROOT_FIXTURES)
        block, slot = divmod(i // len(NEAR_ROOT_FIXTURES), DISTANCE_STRATA)
        stratum = _rng(1, fixture, block).permutation(DISTANCE_STRATA)[slot]
        rng = _rng(2, i)
        log_distance = -4.0 + 2.0 * (stratum + rng.random()) / DISTANCE_STRATA
        start = 10.0 ** log_distance * _unit_direction(rng, self.nvars[fixture])
        name = NEAR_ROOT_FIXTURES[fixture]
        return (f"{name} at 1e{log_distance:.2f}", self.systems[fixture], start,
                int(rng.integers(2 ** 31)), MULTIPLICITY[name])


class DeepLadder(_SolveWorkload):
    """Solves of {x, y^d} for d = 3..7, whose deflated size doubles per stage."""

    round_size = len(LADDER_DEGREES) * LADDER_STARTS

    def stage_cap(self, multiplicity):
        return multiplicity - 1

    def __init__(self, root, seed, workdir):
        super().__init__(root, seed, workdir)
        self.systems = {}
        for d in LADDER_DEGREES:
            path = workdir / f"ladder{d}.ps"
            path.write_text(f"# {{x, y^{d}}}: multiplicity {d} at the origin\n"
                            f"2\nx y\nx;\ny^{d};\n")
            self.systems[d] = path

    def inputs(self, i):
        d = LADDER_DEGREES[i % len(LADDER_DEGREES)]
        rng = _rng(3, i)
        start = LADDER_DISTANCE * _unit_direction(rng, 2)
        return f"ladder d={d}", self.systems[d], start, int(rng.integers(2 ** 31)), d


class Export(_Pool):
    """Build, export, reparse and count: deflation stages at the origin.

    One job takes one fixture through ``deflate_once`` at the origin until
    the point is regular. Each stage is expanded, formatted, parsed back and
    handed to the multiplicity oracle; the base system goes to the oracle
    too. Checks: the base multiplicity is the known one, the chain of
    multiplicities falls strictly to 1, and the reparsed export agrees with
    structured evaluation at seeded random points.
    """

    round_size = len(EXPORT_FIXTURES) * EXPORT_REPEATS

    def __init__(self, root: pathlib.Path, seed: int, workdir=None):
        super().__init__(seed)
        self.texts = {name: (root / FIXTURE_DIR / f"{name}.ps").read_text()
                      for name in EXPORT_FIXTURES}

    def chain(self, name, rng):
        """Deflate at the origin until regular; returns per-stage data."""
        base = polysys.parse_system(self.texts[name])
        z = np.zeros(base.nvars, dtype=complex)
        multiplicities = [oracle.multiplicity(base, z)]
        coranks = []
        stages = []
        current = base
        while len(stages) < deflate.STAGE_CAP:
            try:
                current, multipliers = deflate.deflate_once(current, z, RANK_TOL, rng)
            except deflate.RegularPointError:
                coranks.append(0)
                break
            stage = current.stages[-1]
            coranks.append(stage.nvars_prev - stage.rank)
            z = np.concatenate([z, multipliers])
            reparsed = polysys.parse_system(polysys.format_system(current.expand()))
            multiplicities.append(oracle.multiplicity(reparsed, z))
            stages.append((current, reparsed))
        return multiplicities, coranks, stages

    def job(self, k: int):
        i = self.entry(k)
        name = EXPORT_FIXTURES[i % len(EXPORT_FIXTURES)]
        begin = time.perf_counter()
        try:
            result = self.chain(name, _rng(4, i))
        except Exception as exc:  # a traceback from the program is a failed job
            result = type(exc).__name__
        return name, 1e3 * (time.perf_counter() - begin), result

    def check(self, k, label, ms, result) -> Outcome:
        if isinstance(result, str):
            return Outcome(label, ms, f"exception:{result}", None, 0, ("raised", result))
        multiplicities, coranks, stages = result
        worst = _worst_disagreement(stages, _rng(5, self.entry(k)))
        reason = None
        if multiplicities[0] != MULTIPLICITY[label]:
            reason = "base_multiplicity"
        elif None in multiplicities:
            reason = "oracle_unstable"
        elif any(a <= b for a, b in zip(multiplicities, multiplicities[1:])):
            reason = "multiplicity_not_decreasing"
        elif multiplicities[-1] != 1 or coranks[-1] != 0:
            reason = "not_regular_at_end"
        elif worst > AGREE_TOL:
            reason = "export_mismatch"
        fingerprint = (tuple(multiplicities), tuple(coranks), worst)
        return Outcome(label, ms, reason, _digits(worst), _useful(coranks), fingerprint)


def _relative(a, b) -> float:
    return float(np.linalg.norm(a - b) / (1.0 + np.linalg.norm(b)))


def _random_point(rng, n) -> np.ndarray:
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _worst_disagreement(stages, rng) -> float:
    """Largest relative gap between reparsed export and structured evaluation."""
    worst = 0.0
    for structured, reparsed in stages:
        for _ in range(EXPORT_CHECK_POINTS):
            z = _random_point(rng, structured.nvars)
            worst = max(worst,
                        _relative(structured.value_at(z), reparsed.value_at(z)),
                        _relative(structured.jacobian_at(z), reparsed.jacobian_at(z)))
    return worst


def structured_eval_ratio(root: pathlib.Path, seed: int, points: int) -> dict:
    """Structured over expanded evaluation time per fixture, over all stages.

    This is the quantity acceptance criterion 5 gates: value plus Jacobian
    of each deflated stage at the origin, structured against the expanded
    polynomials, at the same seeded points, alternating the two per point.
    """
    export = Export(root, seed)
    ratios = {}
    for index, name in enumerate(EXPORT_FIXTURES):
        _, _, stages = export.chain(name, _rng(seed, 6, index))
        rng = _rng(seed, 7, index)
        fast = slow = 0.0
        for structured, _ in stages:
            expanded = structured.expand()
            for _ in range(points):
                z = _random_point(rng, structured.nvars)
                begin = time.perf_counter()
                structured.value_at(z)
                structured.jacobian_at(z)
                middle = time.perf_counter()
                expanded.value_at(z)
                expanded.jacobian_at(z)
                fast += middle - begin
                slow += time.perf_counter() - middle
        ratios[name] = fast / slow
    return ratios


WORKLOADS = {"near-root": NearRoot, "deep-ladder": DeepLadder, "export": Export}
