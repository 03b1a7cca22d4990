"""Spans around polydeflate's public functions, installed from outside.

``install`` replaces each function listed in ``WRAPS`` by a wrapper at
the place its callers look it up (a module attribute, or a method on a
class), and restores the originals on exit. Nothing in ``src/`` changes.

Each wrapper opens a span (name, start, end, parent span, job id). A
span's self time is its duration minus the time its child spans cover;
self time is added to the span's module, so the six module totals plus
the benchmark's own code add up to the job time. Spans are kept in
memory and written out by ``write_spans`` when the run ends.

Polynomial arithmetic runs millions of times per run, so those wrappers
are *light*: they count calls and time, and they subtract from their
parent's self time, but they keep no span record.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

from polydeflate import cli, deflate, linalg, newton, oracle, polysys
from polydeflate.deflate import DeflatedSystem
from polydeflate.polysys import Polynomial, PolyMatrix, PolySystem

MODULES = ("cli", "polysys", "linalg", "newton", "deflate", "oracle")


def _svd_hook(tracer, args, result):
    rows, cols = result.rows, result.cols
    m, n = max(rows, cols), min(rows, cols)
    # Golub and Van Loan's count for a full SVD with U and V (real
    # arithmetic), times 4 for complex arithmetic; computed from the
    # shape, not measured.
    tracer.counts["linalg.svd_flops"] += 4 * (4 * m * m * n + 8 * m * n * n + 9 * n ** 3)
    tracer.maxima["linalg.svd_max_dim"] = max(tracer.maxima["linalg.svd_max_dim"], m)


def _refine_hook(tracer, args, result):
    tracer.counts["newton.iterations"] += len(result[2].steps)


def _note_nvars(tracer, nvars):
    tracer.maxima["deflate.max_nvars"] = max(tracer.maxima["deflate.max_nvars"], nvars)


def _jacobian_hook(tracer, args, result):
    _note_nvars(tracer, args[0].nvars)


def _once_hook(tracer, args, result):
    tracer.counts["deflate.stages"] += 1
    _note_nvars(tracer, result[0].nvars)


def _macaulay_hook(tracer, args, result):
    cols = result.matrix.shape[1]
    tracer.maxima["oracle.max_cols"] = max(tracer.maxima["oracle.max_cols"], cols)


# (owner, attribute, span name, light, hook). The span name's prefix is
# the module the time is charged to. Names that several callers look up
# separately are patched once per caller, under one span name.
WRAPS = (
    (cli, "main", "cli.main", False, None),
    (cli, "render_report", "cli.render", False, None),
    (cli, "render_reports", "cli.render", False, None),
    (cli, "parse_system", "polysys.parse", False, None),
    (polysys, "parse_system", "polysys.parse", False, None),
    (polysys, "format_system", "polysys.format", False, None),
    (deflate, "format_system", "polysys.format", False, None),
    (PolySystem, "value_at", "polysys.eval", False, None),
    (PolySystem, "jacobian_at", "polysys.eval", False, None),
    (PolyMatrix, "evaluate", "polysys.eval", False, None),
    (PolyMatrix, "differentiate", "polysys.build", False, None),
    (PolyMatrix, "right_multiply", "polysys.build", False, None),
    (Polynomial, "__init__", "polysys.build", True, None),
    (Polynomial, "__add__", "polysys.build", True, None),
    (Polynomial, "__radd__", "polysys.build", True, None),
    (Polynomial, "__mul__", "polysys.build", True, None),
    (Polynomial, "__rmul__", "polysys.build", True, None),
    (Polynomial, "differentiate", "polysys.build", True, None),
    (Polynomial, "shift", "polysys.build", True, None),
    (Polynomial, "embed", "polysys.build", True, None),
    (linalg, "svd", "linalg.svd", False, _svd_hook),
    (linalg, "numerical_rank", "linalg.rank", True, None),
    (linalg, "scaled_rank", "linalg.rank", True, None),
    (linalg, "scaled_inverse_condition", "linalg.rank", True, None),
    (linalg, "pseudo_solve", "linalg.solve", True, None),
    (linalg, "least_squares", "linalg.solve", False, None),
    (newton, "refine", "newton.refine", False, _refine_hook),
    (deflate, "deflate_loop", "deflate.loop", False, None),
    (deflate, "deflate_once", "deflate.once", False, _once_hook),
    (DeflatedSystem, "value_at", "deflate.value", False, None),
    (DeflatedSystem, "jacobian_at", "deflate.jacobian", False, _jacobian_hook),
    (DeflatedSystem, "expand", "deflate.expand", False, None),
    (oracle, "multiplicity", "oracle.multiplicity", False, None),
    (oracle, "macaulay_matrix", "oracle.macaulay", False, _macaulay_hook),
)


class Tracer:
    """Open-span stack, finished spans, and per-name totals for one pass.

    ``job`` is the id stamped on new spans; while it is None the wrappers
    call straight through, which is how the benchmark keeps its own
    output checks out of the trace.
    """

    def __init__(self):
        self.job = None
        self.stack = []               # open spans: [span id, time covered by children]
        self.spans = []               # (id, name, start, end, parent id, job)
        self.next_id = 0
        self.self_time = defaultdict(float)
        self.outer_time = defaultdict(float)   # inclusive, outermost span of a name only
        self.outer_calls = Counter()
        self.depth = Counter()
        self.counts = Counter()
        self.maxima = Counter()


def _make_wrapper(tracer, fn, name, light, hook):
    def wrapper(*args, **kwargs):
        if tracer.job is None:
            return fn(*args, **kwargs)
        stack = tracer.stack
        parent = stack[-1] if stack else None
        span_id = tracer.next_id
        tracer.next_id += 1
        frame = [span_id, 0.0]
        stack.append(frame)
        tracer.depth[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            tracer.self_time[name] += duration - frame[1]
            tracer.depth[name] -= 1
            if not tracer.depth[name]:
                tracer.outer_time[name] += duration
                tracer.outer_calls[name] += 1
            if parent is not None:
                parent[1] += duration
            if not light:
                tracer.spans.append((span_id, name, start, end,
                                     parent[0] if parent else None, tracer.job))
        if hook is not None:
            hook(tracer, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def install(tracer: Tracer):
    """Patch every entry of ``WRAPS`` to report to ``tracer``, for the block."""
    saved = []
    try:
        for owner, attr, name, light, hook in WRAPS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _make_wrapper(tracer, original, name, light, hook))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def write_spans(tracer: Tracer, path) -> None:
    """One JSON array per span: id, name, start, end, parent id, job id."""
    with open(path, "w") as out:
        for span in tracer.spans:
            out.write(json.dumps(span) + "\n")
