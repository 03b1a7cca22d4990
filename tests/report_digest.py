"""One sha256 over the command line's outputs on the fixtures, to show that a
change keeps every report byte for byte.

Run from the repository root::

    PYTHONPATH=src python tests/report_digest.py

It calls ``polydeflate.cli.main`` in-process, with relative file names in a
temporary directory, on every fixture but DZ1 (DZ2 at ``--max-deflations
3``), each with a root r (the origin, or (1, .., 1) for KSS5):

* three ``solve --point`` runs from r + 1e-3 u_k, k = 0, 1, 2, where u_k is
  the unit complex Gaussian vector drawn from ``np.random.default_rng(k)``;
  the second adds ``--reference`` r, the third ``--emit-deflated``;
* one ``solve --points`` run from r + 1e-3 u_k, k = 3 .. 8, with
  ``--reference`` r and ``--seed 7``;
* one ``deflate`` at r;

then eight error cases on ``square``. The digest covers, run by run, the
exit code, standard output and error, the report without its
``wall_time_seconds`` lines and every file written. It uses only the public
command line, so the same script runs on an older checkout. It prints the
run count and the digest, and exits 1 if a run raised, with the run's
name and traceback. pytest does not collect it.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
import traceback

import numpy as np

from polydeflate import cli

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

# fixture: (nvars, root coordinate, extra solve options)
SYSTEMS = {
    "square": (1, 0.0, []),
    "axis_quartic": (2, 0.0, []),
    "cubic_trio": (2, 0.0, []),
    "cross_cubes": (3, 0.0, []),
    "bench9": (9, 0.0, []),
    "cbms2": (3, 0.0, []),
    "dz2": (3, 0.0, ["--max-deflations", "3"]),
    "kss5": (5, 1.0, []),
}

# (label, point files to write, argv); each error run is on square
ERRORS = [
    ("points entry of the wrong length", {"p.json": [[[0.1, 0.0]], [[0.1, 0.0], [0.2, 0.0]]]},
     ["solve", "--points", "p.json"]),
    ("malformed points entry", {"p.json": [[[0.1, 0.0]], [[0.1]]]}, ["solve", "--points", "p.json"]),
    ("overflowing start", {"p.json": [[1e300, 0.0]]}, ["solve", "--point", "p.json"]),
    ("empty points file", {"p.json": []}, ["solve", "--points", "p.json"]),
    ("points file that is not a list", {"p.json": {"start": 0.1}},
     ["solve", "--points", "p.json"]),
    ("emit-deflated with points", {"p.json": [[[0.1, 0.0]]]},
     ["solve", "--points", "p.json", "--emit-deflated", "e.ps"]),
    ("point of the wrong length", {"p.json": [[0.1, 0.0], [0.2, 0.0]]},
     ["solve", "--point", "p.json"]),
    ("malformed point", {"p.json": "[[0.1, 0"}, ["solve", "--point", "p.json"]),
]


def start(root, k):
    """root + 1e-3 u, u the unit complex Gaussian vector of ``default_rng(k)``."""
    rng = np.random.default_rng(k)
    u = rng.normal(size=len(root)) + 1j * rng.normal(size=len(root))
    return root + 1e-3 * u / np.linalg.norm(u)


def pairs(point):
    return [[float(z.real), float(z.imag)] for z in point]


def runs():
    """(label, files to write, argv, files the run may write) of every run."""
    for name, (nvars, coordinate, options) in SYSTEMS.items():
        root = np.full(nvars, coordinate, dtype=complex)
        system = str(FIXTURES / f"{name}.ps")
        solve = ["solve", "--system", system, "--out", "r.json", *options]
        files = {"root.json": pairs(root)}
        for k, extra in enumerate([[], ["--reference", "root.json"], ["--emit-deflated", "e.ps"]]):
            yield (f"{name} point {k}", {**files, "p.json": pairs(start(root, k))},
                   [*solve, "--point", "p.json", *extra], ["r.json", "e.ps"])
        yield (f"{name} points", {**files, "p.json": [pairs(start(root, k)) for k in range(3, 9)]},
               [*solve, "--points", "p.json", "--reference", "root.json", "--seed", "7"],
               ["r.json"])
        yield (f"{name} deflate", files,
               ["deflate", "--system", system, "--point", "root.json", "--out", "d.ps"], ["d.ps"])
    for label, files, argv in ERRORS:
        argv = [argv[0], "--system", str(FIXTURES / "square.ps"), *argv[1:]]
        if argv[0] == "solve":
            argv += ["--out", "r.json"]
        yield f"error: {label}", files, argv, ["r.json", "e.ps"]


def without_wall_time(data: bytes) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True)
                    if b'"wall_time_seconds"' not in line)


def main() -> int:
    digest, count, raised = hashlib.sha256(), 0, []
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for label, files, argv, outputs in runs():
                for path in os.listdir(work):
                    os.remove(path)
                for path, data in files.items():
                    text = data if isinstance(data, str) else json.dumps(data)
                    pathlib.Path(path).write_text(text)
                out, err = io.StringIO(), io.StringIO()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                except Exception:   # the command line let an error escape
                    raised.append(f"{label}\n{traceback.format_exc()}")
                    code = "raised"
                pieces = [s.encode() for s in (label, str(code), out.getvalue(), err.getvalue())]
                for path in outputs:
                    written = pathlib.Path(path)
                    data = written.read_bytes() if written.exists() else b""
                    pieces.append(without_wall_time(data) if path == "r.json" else data)
                for data in pieces:
                    digest.update(len(data).to_bytes(8, "little") + data)
                count += 1
        finally:
            os.chdir(home)
    for line in raised:
        print(f"raised: {line}", file=sys.stderr)
    print(f"{count} runs, sha256 {digest.hexdigest()}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
