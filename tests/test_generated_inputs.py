"""A seeded campaign of generated inputs through the command line.

Example k draws, from ``random.Random(k)``, a system of 1-3 variables and
1-3 equations of 1-3 terms, each term of degree at most 3 in each
variable, with coefficients near the ends of the float range among them,
and a start point from a fixed set of coordinates. It runs one of four
commands in turn through ``cli.main`` in-process. Every run must end in a
documented exit code with at most one ``error:`` line on stderr, and every
file it exports must parse back. The solves stop at two deflations: without
a work budget, some generated systems take far longer at the default cap.
This is the robustness half of ROADMAP item 14, on a first set of inputs.
"""

import json
import random

from polydeflate import cli
from polydeflate.polysys import parse_system

EXAMPLES = 800
NAMES = ("x", "y", "z")
COEFFICIENTS = ("1", "3", "0.5", "(0-1i)", "1e-320", "1e-300", "1e-150", "1e150",
                "1e200", "1e308", "1.7e308", "(1e308+1e308i)", "(1e-300-1e-300i)")
COORDINATES = (0.0, -1e-300, 1e-160, 1e-3, 0.5, 1.0, 1e100, 1e150, 1e300)


def generated_input(k):
    """The system text and the start point ([re, im] pairs) of example ``k``."""
    rng = random.Random(k)
    names = NAMES[:rng.randint(1, 3)]
    equations = []
    for _ in range(rng.randint(1, 3)):
        terms = []
        for _ in range(rng.randint(1, 3)):
            factors = [rng.choice(COEFFICIENTS)]
            factors += [f"{name}^{e}" for name in names if (e := rng.randint(0, 3))]
            terms.append("*".join(factors))
        equations.append(" + ".join(terms) + ";")
    text = "\n".join([str(len(equations)), " ".join(names), *equations]) + "\n"
    point = [[rng.choice(COORDINATES), rng.choice((0.0, 1e-3))] for _ in names]
    return text, point


def generated_command(k, system, point, tmp_path):
    """The argv of example ``k`` and the file it exports, if any."""
    common = ["--system", str(system), "--point", str(point)]
    report = str(tmp_path / "report.json")
    exported = tmp_path / "exported.ps"
    kind = k % 4
    if kind == 0:
        return ["solve", *common, "--max-deflations", "2", "--out", report], None
    if kind == 1:
        return ["solve", *common, "--max-deflations", "2", "--out", report,
                "--emit-deflated", str(exported)], exported
    if kind == 2:
        return ["deflate", *common, "--seed", str(k % 10), "--out", str(exported)], exported
    return ["multiplicity", *common, "--max-order", "4"], None


def test_generated_inputs_end_in_a_status_or_one_error_line(tmp_path, capsys):
    system, point = tmp_path / "system.ps", tmp_path / "point.json"
    failures = []
    for k in range(EXAMPLES):
        text, start = generated_input(k)
        system.write_text(text)
        point.write_text(json.dumps(start))
        argv, exported = generated_command(k, system, point, tmp_path)
        if exported is not None:
            exported.unlink(missing_ok=True)
        try:
            rc = cli.main(argv)
        except Exception as err:   # a traceback on the command line
            capsys.readouterr()
            failures.append((k, argv[0], f"{type(err).__name__}: {err}"))
            continue
        err = capsys.readouterr().err
        if rc not in (0, 1, 2, 3):
            failures.append((k, argv[0], f"exit code {rc}"))
        if err and not (err.startswith("error: ") and err.count("\n") == 1
                        and err.endswith("\n")):
            failures.append((k, argv[0], f"stderr {err!r}"))
        if exported is not None and exported.exists():
            try:
                parse_system(exported.read_text())
            except Exception as err:
                failures.append((k, argv[0], f"export does not parse: {err}"))
    assert failures == []
