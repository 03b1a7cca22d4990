"""polydeflate benchmark: three closed-loop workloads, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload near-root --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced pass. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Result files, failure logs and
spans go to ``.perfbench/`` in the repository root. See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("near-root", "deep-ladder", "export")
REQUIRED = [pathlib.Path("src/polydeflate/__init__.py")] + [
    pathlib.Path("tests/fixtures") / f"{name}.ps"
    for name in ("square", "axis_quartic", "cubic_trio", "cross_cubes", "bench9")]
BLAS_THREADS = "1"
SETUP_REPEATS = 7
SETUP_CAL_SAMPLES = 9
TAIL_BEYOND = 10
UNTRACED_SHARE = 0.4     # of --seconds, for the untraced half of a traced run
TRACED_LIMIT = 3.0       # the traced pass stops after this many --seconds
EVAL_RATIO_POINTS = 100
CAL_REF_MS = 0.6         # calibration kernel time that defines reference speed
CAL_WINDOW = 33          # calibration samples averaged around one job
# A runaway solve doubles its size at every stage; this address-space cap
# turns one into a failed job (MemoryError) instead of a machine-wide
# memory shortage.
MEMORY_LIMIT = 4 << 30


class BenchError(Exception):
    """The benchmark cannot run here; exit without a result."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)   # one timed set-up, in a fresh process
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _load_program():
    """Import polydeflate from this checkout's ``src``, and the workloads."""
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        raise BenchError("not a polydeflate checkout, missing: " + ", ".join(missing))
    # BLAS threads are fixed before numpy loads; one thread keeps runs steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY or soft > MEMORY_LIMIT:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, hard))
    sys.path.insert(0, str(ROOT / "src"))
    import polydeflate
    if pathlib.Path(polydeflate.__file__).resolve().parent != ROOT / "src" / "polydeflate":
        raise BenchError(f"imported polydeflate from {polydeflate.__file__}")
    import workloads
    return workloads


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polydeflate").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _environment() -> dict:
    import numpy as np
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def _do_job(workload, k, tracer=None):
    if tracer is not None:
        tracer.job = k
    try:
        label, ms, result = workload.job(k)
    finally:
        if tracer is not None:
            tracer.job = None
    return workload.check(k, label, ms, result)


def _interquartile_mean(values) -> float:
    ordered = sorted(values)
    quarter = len(ordered) // 4
    middle = ordered[quarter:len(ordered) - quarter]
    return sum(middle) / len(middle)


class _Gauge:
    """Machine speed next to each job, from a fixed calibration kernel.

    The cores this benchmark runs on may be shared: on a shared 2-core
    x86_64 machine, the same code ran up to 20% slower for seconds at a
    time. A fixed kernel (a Python loop and small complex SVDs, the two
    kinds of work the program does) runs before every job. A job's time is
    scaled by ``CAL_REF_MS`` over the interquartile mean of the
    ``CAL_WINDOW`` kernel times around it, which gives milliseconds at
    reference speed; unscaled times are reported next to them.

    The same machine also switched between two speeds, about 1.5x apart,
    within a second. A window of long jobs straddles both, and its median
    jumps from one speed to the other while its interquartile mean follows
    the mix.
    """

    def __init__(self):
        import numpy as np
        self.svd = np.linalg.svd
        rng = np.random.default_rng(0)
        self.matrix = rng.normal(size=(24, 16)) + 1j * rng.normal(size=(24, 16))
        self.cal_ms = []
        self.loop_ms = []

    def sample(self):
        begin = time.perf_counter()
        total = 0
        for i in range(3000):
            total += i * i
        for _ in range(3):
            self.svd(self.matrix)
        self.cal_ms.append(1e3 * (time.perf_counter() - begin))

    def factors(self) -> list:
        """Reference over local speed, one factor per job."""
        n = len(self.cal_ms)
        width = min(CAL_WINDOW, n)
        out = []
        for k in range(n):
            low = min(max(0, k - width // 2), n - width)
            out.append(CAL_REF_MS / _interquartile_mean(self.cal_ms[low:low + width]))
        return out


def _run_for(workload, seconds, min_jobs, max_jobs=None, tracer=None, gauge=None):
    """Closed loop from job 0 until ``seconds`` pass and ``min_jobs`` are done."""
    outcomes = []
    begin = time.perf_counter()
    while max_jobs is None or len(outcomes) < max_jobs:
        if len(outcomes) >= min_jobs and time.perf_counter() - begin >= seconds:
            break
        if gauge is not None:
            gauge.sample()
        start = time.perf_counter()
        outcomes.append(_do_job(workload, len(outcomes), tracer))
        if gauge is not None:
            gauge.loop_ms.append(1e3 * (time.perf_counter() - start))
    return outcomes, time.perf_counter() - begin


def _make_workload(workloads, name, seed):
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workloads.WORKLOADS[name](ROOT, seed, workdir), workdir


def _warm_up_job(workload) -> int:
    """The job that runs pool entry 0, so that every seed warms up alike."""
    return workload.order.index(0)


def _setup_probe(args) -> None:
    """Import, generate inputs and run one warm-up job; print the time."""
    begin = time.perf_counter()
    workloads = _load_program()
    workload, workdir = _make_workload(workloads, args.workload, args.seed)
    try:
        _do_job(workload, _warm_up_job(workload))
        print(json.dumps({"setup_s": time.perf_counter() - begin}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _setup_times(args):
    """Set-up times of fresh processes run one after another.

    Returns them at reference speed and unscaled; each is scaled by the
    calibration samples taken just before its process starts.
    """
    gauge = _Gauge()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_CAL_SAMPLES):
            gauge.sample()
        done = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise BenchError("set-up probe failed: " + done.stderr.strip()[-500:])
        seconds = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
        raw.append(seconds)
        speed = statistics.median(gauge.cal_ms[-SETUP_CAL_SAMPLES:])
        scaled.append(seconds * CAL_REF_MS / speed)
    return scaled, raw


# ---------------------------------------------------------------------------
# statistics and output
# ---------------------------------------------------------------------------

def _tail_percentile(values):
    """Highest percentile with at least ``TAIL_BEYOND`` samples above it.

    Returns (value, percentile, sample count); with too few samples the
    maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def _round_seconds(loop_ms, factors, size):
    """Scaled and unscaled loop time of each complete round of jobs."""
    scaled, raw = [], []
    for low in range(0, len(loop_ms) - size + 1, size):
        chunk = range(low, low + size)
        scaled.append(sum(loop_ms[k] * factors[k] for k in chunk) / 1e3)
        raw.append(sum(loop_ms[k] for k in chunk) / 1e3)
    return scaled, raw


def _failures(outcomes) -> dict:
    counts = {}
    for outcome in outcomes:
        if outcome.reason is not None:
            counts[outcome.reason] = counts.get(outcome.reason, 0) + 1
    return dict(sorted(counts.items()))


def _fingerprint_digest(outcomes) -> str:
    return hashlib.sha256(repr([o.fingerprint for o in outcomes]).encode()).hexdigest()


def _compare_with_earlier(key: str, record: dict) -> list:
    """A record must repeat across runs of the same source and seed."""
    path = OUT / "counts" / f"{key}.json"
    if path.is_file():
        earlier = json.loads(path.read_text())
        return [f"{name}: {earlier.get(name)} earlier, {value} now"
                for name, value in record.items() if earlier.get(name) != value]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return []


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_table(title, metrics, notes=None):
    print(title)
    notes = notes or {}
    for name, entry in metrics.items():
        note = f"   {notes[name]}" if name in notes else ""
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}{note}")


def _write_result(args, payload: dict, workload, first_round) -> pathlib.Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(payload, indent=1) + "\n")
    with open(results / f"{stem}-failures.log", "w") as log:
        for k, outcome in enumerate(first_round):
            if outcome.reason is not None:
                log.write(f"pool entry {workload.entry(k)} ({outcome.label}): "
                          f"{outcome.reason}\n")
    return results / stem


def _repeat_problems(outcomes, size) -> list:
    """Every later run of a pool entry must give its first run's outputs."""
    changed = sum(1 for k in range(size, len(outcomes))
                  if outcomes[k].fingerprint != outcomes[k % size].fingerprint)
    return [f"{changed} repeated jobs gave different outputs from their first run"
            ] if changed else []


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def _untraced(args, workloads, env):
    setup_times, raw_setup_times = _setup_times(args)
    workload, workdir = _make_workload(workloads, args.workload, args.seed)
    gauge = _Gauge()
    try:
        warm_k = _warm_up_job(workload)
        warm = _do_job(workload, warm_k)
        min_jobs = max(workload.round_size, TAIL_BEYOND + 1)
        outcomes, wall = _run_for(workload, args.seconds, min_jobs, gauge=gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    n = len(outcomes)
    size = workload.round_size
    first_round = outcomes[:size]
    factors = gauge.factors()
    raw_ms = [o.ms for o in outcomes]
    # Job times from whole rounds only, so that every pool entry counts
    # equally; which entries the last, partial round reaches depends on
    # the seed's order.
    whole = n - n % size
    times = [ms * f for ms, f in zip(raw_ms[:whole], factors)]
    rounds, raw_rounds = _round_seconds(gauge.loop_ms, factors, size)
    # Failures count once per pool entry, from the first round; later
    # rounds must repeat its outputs exactly (checked below).
    failures = _failures(first_round)
    failed = sum(failures.values())
    digits = [o.digits for o in first_round if o.digits is not None]
    tail, tail_level, _ = _tail_percentile(times)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "jobs_per_s": _metric(workload.round_size / statistics.median(rounds), "1/s"),
        "job_ms_p50": _metric(statistics.median(times), "ms"),
        "job_ms_tail": _metric(tail, "ms"),
        "pass_ratio": _metric(1.0 - failed / size, "ratio"),
        "digits_p50": _metric(statistics.median(digits) if digits else 0.0, "digits"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    unscaled = {"setup_s": statistics.median(raw_setup_times),
                "jobs_per_s": workload.round_size / statistics.median(raw_rounds),
                "job_ms_p50": statistics.median(raw_ms[:whole]),
                "job_ms_tail": _tail_percentile(raw_ms[:whole])[0]}
    digits_note = ("reparsed export against structured evaluation"
                   if args.workload == "export" else "base coordinates against the root")
    notes = {name: f"(unscaled {value:.6g})" for name, value in unscaled.items()}
    notes["setup_s"] += f" median of {SETUP_REPEATS} fresh processes"
    notes["jobs_per_s"] += (f" median of {len(rounds)} rounds of {workload.round_size};"
                            f" mean {n / (sum(gauge.loop_ms) / 1e3):.6g} unscaled")
    notes["job_ms_tail"] += f" p{tail_level:.2f} of {whole} jobs in whole rounds"
    notes["pass_ratio"] = (f"(fail_ratio {failed / size:.6g}: {failed} of {size} pool"
                           f" entries; {n} jobs run)")
    notes["digits_p50"] = f"({digits_note})"
    _print_table(f"end-to-end, {args.workload}, seed {args.seed}: {wall:.1f} s closed "
                 f"loop, 1 client; times at reference speed, machine speed factor "
                 f"{statistics.median(factors):.3f}", metrics, notes)
    print("failures by reason, once per pool entry: "
          + (", ".join(f"{r} {c}" for r, c in failures.items()) or "none"))

    problems = _repeat_problems(outcomes, size)
    if warm.fingerprint != outcomes[warm_k].fingerprint:
        problems.append("the warm-up job gave different outputs in the measured loop")
    key = f"{env['source_sha256']}-{args.workload}-seed{args.seed}"
    problems += _compare_with_earlier(key, {
        "first_round_jobs": len(first_round),
        "first_round_outputs_sha256": _fingerprint_digest(first_round),
        "first_round_failures": _failures(first_round),
    })
    payload = {"env": env, "metrics": metrics, "unscaled": unscaled,
               "speed_factor_median": statistics.median(factors),
               "failures": failures, "tail_percentile": tail_level, "jobs": n,
               "setup_times_s": setup_times, "unscaled_setup_times_s": raw_setup_times,
               "calibration_ms": gauge.cal_ms, "unscaled_job_ms": raw_ms,
               "unscaled_loop_ms": gauge.loop_ms,
               "problems": problems}
    stem = _write_result(args, payload, workload, first_round)
    return metrics, size, failed, problems, stem


def _exact_counts(tracer, outcomes) -> dict:
    """Counts of one pass that must repeat bit for bit at a given seed."""
    calls = tracer.outer_calls
    counts = {
        "linalg.svd_calls": calls["linalg.svd"],
        "linalg.svd_flops": tracer.counts["linalg.svd_flops"],
        "linalg.svd_max_dim": tracer.maxima["linalg.svd_max_dim"],
        "newton.refines": calls["newton.refine"],
        "newton.iterations": tracer.counts["newton.iterations"],
        "deflate.stages": tracer.counts["deflate.stages"],
        "deflate.useful_stages": sum(o.useful_stages for o in outcomes),
        "deflate.max_nvars": tracer.maxima["deflate.max_nvars"],
        "deflate.jacobian_calls": calls["deflate.jacobian"],
        "polysys.eval_calls": calls["polysys.eval"],
        "oracle.calls": calls["oracle.multiplicity"],
        "oracle.max_cols": tracer.maxima["oracle.max_cols"],
    }
    counts.update({f"failures.{reason}": n for reason, n in _failures(outcomes).items()})
    return counts


def _layer_metrics(modules, tracer, traced, counts, ratios, overhead):
    """Per-layer metrics, and each module's share of job time as notes."""
    jobs = len(traced)
    job_seconds = sum(o.ms for o in traced) / 1e3
    self_time, outer_time = tracer.self_time, tracer.outer_time

    def per_job(seconds):
        return _metric(seconds / jobs, "s/job")

    def count(name, unit="count"):
        return _metric(counts[name], unit)

    stages = counts["deflate.stages"]
    metrics = {
        "cli.main_self_s": per_job(self_time["cli.main"]),
        "cli.render_s": per_job(outer_time["cli.render"]),
        "polysys.eval_s": per_job(outer_time["polysys.eval"]),
        "polysys.eval_calls": count("polysys.eval_calls"),
        "polysys.parse_s": per_job(outer_time["polysys.parse"]),
        "polysys.format_s": per_job(outer_time["polysys.format"]),
        "polysys.build_self_s": per_job(self_time["polysys.build"]),
        "linalg.svd_s": per_job(outer_time["linalg.svd"]),
        "linalg.svd_calls": count("linalg.svd_calls"),
        "linalg.svd_flops": count("linalg.svd_flops", "flop"),
        "linalg.svd_max_dim": count("linalg.svd_max_dim"),
        "newton.refine_self_s": per_job(self_time["newton.refine"]),
        "newton.refines": count("newton.refines"),
        "newton.iterations": count("newton.iterations"),
        "deflate.jacobian_self_s": per_job(self_time["deflate.jacobian"]),
        "deflate.jacobian_calls": count("deflate.jacobian_calls"),
        "deflate.value_self_s": per_job(self_time["deflate.value"]),
        "deflate.max_nvars": count("deflate.max_nvars"),
        "deflate.once_s": per_job(outer_time["deflate.once"]),
        "deflate.stages": count("deflate.stages"),
        "deflate.useful_stage_ratio": _metric(
            counts["deflate.useful_stages"] / stages if stages else 1.0, "ratio"),
        "deflate.expand_s": per_job(outer_time["deflate.expand"]),
        "oracle.multiplicity_s": per_job(outer_time["oracle.multiplicity"]),
        "oracle.macaulay_s": per_job(outer_time["oracle.macaulay"]),
        "oracle.calls": count("oracle.calls"),
        "oracle.max_cols": count("oracle.max_cols"),
    }
    for name, ratio in ratios.items():
        metrics[f"deflate.structured_eval_ratio.{name}"] = _metric(ratio, "ratio")
    shares = {}
    for module in modules:
        spent = sum(t for name, t in self_time.items() if name.split(".")[0] == module)
        metrics[f"{module}.self_s"] = per_job(spent)
        shares[f"{module}.self_s"] = f"(share {spent / job_seconds:.1%} of job time)"
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    return metrics, shares


def _traced(args, workloads, env):
    import tracing

    workload, workdir = _make_workload(workloads, args.workload, args.seed)
    round_size = workload.round_size
    problems = []
    try:
        _do_job(workload, _warm_up_job(workload))
        # An untraced pass, then the same jobs traced: the difference is
        # the tracing overhead, and the outputs must not differ.
        plain_gauge, traced_gauge = _Gauge(), _Gauge()
        plain, _ = _run_for(workload, UNTRACED_SHARE * args.seconds, round_size,
                            gauge=plain_gauge)
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced, _ = _run_for(workload, TRACED_LIMIT * args.seconds, round_size,
                                 max_jobs=len(plain), tracer=tracer, gauge=traced_gauge)
        # Exact counts: the first round twice, each on a fresh tracer.
        count_passes = []
        for _ in range(2):
            counter = tracing.Tracer()
            with tracing.install(counter):
                first, _ = _run_for(workload, 0.0, round_size, max_jobs=round_size,
                                    tracer=counter)
            count_passes.append(_exact_counts(counter, first))
            problems += _repeat_problems(plain[:round_size] + first, round_size)
        ratios = workloads.structured_eval_ratio(ROOT, args.seed, EVAL_RATIO_POINTS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counts, again = count_passes
    problems += [f"count {name}: {value} then {again.get(name)} in one run"
                 for name, value in counts.items() if again.get(name) != value]
    n = len(traced)
    if [o.fingerprint for o in traced] != [o.fingerprint for o in plain[:n]]:
        problems.append("traced jobs gave different outputs from untraced ones")
    # Both passes at reference speed, so that a change in machine speed
    # between them does not read as tracing overhead.
    plain_ms = sum(o.ms * f for o, f in zip(plain[:n], plain_gauge.factors()))
    traced_ms = sum(o.ms * f for o, f in zip(traced, traced_gauge.factors()))
    metrics, shares = _layer_metrics(tracing.MODULES, tracer, traced, counts, ratios,
                                     traced_ms / plain_ms - 1.0)
    _print_table(f"per layer, {args.workload}, seed {args.seed}: times per job over "
                 f"{n} traced jobs; counts over the first {round_size} jobs",
                 metrics, shares)
    print(f"tracing overhead: {traced_ms / n:.4g} ms per job traced, "
          f"{plain_ms / n:.4g} ms untraced, same {n} jobs, at reference speed")
    print("exact counts: " + json.dumps(counts))
    key = f"{env['source_sha256']}-{args.workload}-seed{args.seed}-counts"
    problems += _compare_with_earlier(key, counts)
    failures = _failures(plain[:round_size])
    payload = {"env": env, "metrics": metrics, "shares": shares, "exact_counts": counts,
               "failures": failures, "jobs": n, "problems": problems}
    stem = _write_result(args, payload, workload, plain[:round_size])
    tracing.write_spans(tracer, stem.with_name(stem.name + "-spans.jsonl"))
    return metrics, round_size, sum(failures.values()), problems, stem


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        if args.setup_probe:
            _setup_probe(args)
            return 0
        workloads = _load_program()
        env = _environment()
        print("env: " + json.dumps(env))
        run = _traced if args.trace else _untraced
        metrics, attempted, failed, problems, stem = run(args, workloads, env)
    except (BenchError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for problem in problems:
        print("PROBLEM: " + problem)
    print(f"results: {stem}.json")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
