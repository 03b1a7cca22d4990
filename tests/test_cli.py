"""End-to-end tests of the command line interface.

Every test but one drives ``cli.main`` in-process with explicit argv lists
and checks exit codes, report contents, and the error channel. The one that
runs out of memory runs ``python -m polydeflate.cli`` in a child process,
so that only the child's address space is capped.
"""

import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from polydeflate import cli, deflate
from polydeflate.polysys import parse_system

import reference
from conftest import FIXTURES, load_fixture


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def point_file(tmp_path, name, values):
    pairs = [[z.real, z.imag] for z in map(complex, values)]
    return write_json(tmp_path / name, pairs)


def fixture(name):
    return str(FIXTURES / name)


def strip_wall_time(path):
    return [line for line in path.read_text().splitlines()
            if "wall_time_seconds" not in line]


def test_solve_double_root(tmp_path, capsys):
    start = point_file(tmp_path, "p.json", [0.1])
    out = tmp_path / "report.json"
    rc = cli.main(["solve", "--system", fixture("square.ps"),
                   "--point", start, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["status"] == "converged_regular"
    assert report["deflations"] == 1
    assert report["corank_sequence"] == [1, 0]
    assert report["corank_arrow"] == "1 -> 0"
    assert report["residual_final"] <= 1e-12
    assert abs(complex(*report["solution"][0])) <= 1e-12
    assert len(report["stages"]) == 1
    assert report["stages"][0]["corank_before"] == 1
    assert list(report)[-1] == "wall_time_seconds"
    assert "square: converged_regular" in capsys.readouterr().out


def test_solve_regular_root_no_deflation(tmp_path):
    system = tmp_path / "reg.ps"
    system.write_text("1\nx\nx^2 - 1;\n")
    start = point_file(tmp_path, "p.json", [1.2])
    out = tmp_path / "report.json"
    rc = cli.main(["solve", "--system", str(system),
                   "--point", start, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["deflations"] == 0
    assert report["corank_sequence"] == [0]
    assert report["stages"] == []


@pytest.mark.parametrize("name", ["a\tb", os.fsdecode(b"c\xff")])
def test_system_name_is_escaped_in_the_report(tmp_path, capsys, name):
    # a control character, and a byte that is not UTF-8 (a lone surrogate once decoded)
    system = tmp_path / f"{name}.ps"
    system.write_text("1\nx\nx^2;\n")
    start = point_file(tmp_path, "p.json", [0.1])
    out = tmp_path / "report.json"
    rc = cli.main(["solve", "--system", str(system), "--point", start, "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert text.isascii()
    assert json.loads(text)["system"] == name
    assert ": converged_regular, deflations 1" in capsys.readouterr().out


def test_solve_with_reference_digits(tmp_path):
    start = point_file(tmp_path, "p.json", [1e-3, 0.7e-3, 1.2e-3])
    root = point_file(tmp_path, "root.json", [0.0, 0.0, 0.0])
    out = tmp_path / "report.json"
    rc = cli.main(["solve", "--system", fixture("cross_cubes.ps"),
                   "--point", start, "--reference", root, "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["correct_digits_final"] >= 12
    assert report["correct_digits_initial"] <= 4


def test_solve_nonconvergent_exits_two(tmp_path):
    # from a real start Newton on x^2 + 1 stays real and never converges
    system = tmp_path / "noroot.ps"
    system.write_text("1\nx\nx^2 + 1;\n")
    start = point_file(tmp_path, "p.json", [100.0])
    out = tmp_path / "report.json"
    rc = cli.main(["solve", "--system", str(system),
                   "--point", start, "--out", str(out)])
    assert rc == 2
    report = json.loads(out.read_text())
    assert report["status"] == "max_iter"


def test_solve_stage_cap_exits_two(tmp_path):
    start = point_file(tmp_path, "p.json", [1e-3, 1e-2])
    out = tmp_path / "report.json"
    rc = cli.main(["solve", "--system", fixture("axis_quartic.ps"),
                   "--point", start, "--max-deflations", "1",
                   "--out", str(out)])
    assert rc == 2
    report = json.loads(out.read_text())
    assert report["deflations"] == 1
    assert report["status"] == "stalled_singular"


def test_solve_emits_deflated_system(tmp_path):
    start = point_file(tmp_path, "p.json", [0.1])
    out = tmp_path / "report.json"
    emitted = tmp_path / "deflated.ps"
    rc = cli.main(["solve", "--system", fixture("square.ps"),
                   "--point", start, "--out", str(out),
                   "--emit-deflated", str(emitted)])
    assert rc == 0
    text = emitted.read_text()
    assert "# deflation stages: 1" in text
    reparsed = parse_system(text)
    assert reparsed.neqs == 3
    assert reparsed.nvars == 2


def test_solve_fan_out(tmp_path, capsys):
    starts = write_json(tmp_path / "starts.json",
                        [[[0.1, 0.0]], [[0.2, 0.0]], [[-0.15, 0.05]]])
    out = tmp_path / "reports.json"
    rc = cli.main(["solve", "--system", fixture("square.ps"),
                   "--points", starts, "--seed", "7", "--out", str(out)])
    assert rc == 0
    reports = json.loads(out.read_text())
    assert [r["seed"] for r in reports] == [7, 8, 9]
    assert all(r["status"] == "converged_regular" for r in reports)
    assert capsys.readouterr().out.count("converged_regular") == 3


def test_fan_out_rejects_emit_deflated(tmp_path, capsys):
    starts = write_json(tmp_path / "starts.json", [[[0.1, 0.0]]])
    rc = cli.main(["solve", "--system", fixture("square.ps"),
                   "--points", starts, "--out", str(tmp_path / "r.json"),
                   "--emit-deflated", str(tmp_path / "g.ps")])
    assert rc == 1
    assert "--emit-deflated" in capsys.readouterr().err


def test_solve_reports_are_deterministic(tmp_path):
    start = point_file(tmp_path, "p.json", [1e-3, 1.3e-3])
    first, second, other = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
    argv = ["solve", "--system", fixture("cubic_trio.ps"), "--point", start]
    assert cli.main(argv + ["--out", str(first)]) == 0
    assert cli.main(argv + ["--out", str(second)]) == 0
    assert cli.main(argv + ["--seed", "99", "--out", str(other)]) == 0
    assert strip_wall_time(first) == strip_wall_time(second)
    assert strip_wall_time(first) != strip_wall_time(other)


def test_parse_error_location_and_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.ps"
    bad.write_text("1\nx\nx^2 + ;\n")
    start = point_file(tmp_path, "p.json", [0.1])
    rc = cli.main(["solve", "--system", str(bad),
                   "--point", start, "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "column 7" in err


def test_missing_system_file_exits_one(tmp_path, capsys):
    start = point_file(tmp_path, "p.json", [0.1])
    rc = cli.main(["solve", "--system", str(tmp_path / "absent.ps"),
                   "--point", start, "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "absent.ps" in capsys.readouterr().err


def test_malformed_point_file_exits_one(tmp_path, capsys):
    bad_point = write_json(tmp_path / "p.json", [[1.0]])
    rc = cli.main(["solve", "--system", fixture("square.ps"),
                   "--point", bad_point, "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "[re, im]" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--system", "--point"])
def test_files_that_are_not_utf8_exit_one(tmp_path, capsys, flag):
    files = {"--system": tmp_path / "square.ps", "--point": tmp_path / "p.json"}
    files["--system"].write_bytes((FIXTURES / "square.ps").read_bytes())
    files["--point"].write_bytes(b"[[0.1, 0]]\n")
    bad = files[flag]
    offset = len(bad.read_bytes())
    bad.write_bytes(bad.read_bytes() + b"\xff\n")
    out = tmp_path / "r.json"
    rc = cli.main(["solve", "--system", str(files["--system"]),
                   "--point", str(files["--point"]), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: cannot read {bad}: not UTF-8 text (byte 0xff at offset {offset})\n")
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--system", "--point", "--points", "--reference"])
def test_a_byte_order_mark_is_read_past(tmp_path, capsys, flag):
    files = {"--system": tmp_path / "cubic_trio.ps", "--point": tmp_path / "p.json",
             "--points": tmp_path / "ps.json", "--reference": tmp_path / "root.json"}
    files["--system"].write_bytes((FIXTURES / "cubic_trio.ps").read_bytes())
    point_file(tmp_path, "p.json", [1e-3, -2e-3j])
    write_json(files["--points"], [[[1e-3, 0.0], [0.0, -2e-3]], [[2e-3, 1e-3], [-1e-3, 0.0]]])
    point_file(tmp_path, "root.json", [0.0, 0.0])
    start = "--points" if flag == "--points" else "--point"
    out = tmp_path / "r.json"
    argv = ["solve", "--system", str(files["--system"]), start, str(files[start]),
            "--reference", str(files["--reference"]), "--out", str(out)]
    runs = []
    for mark in (b"", b"\xef\xbb\xbf"):
        files[flag].write_bytes(mark + files[flag].read_bytes())
        rc = cli.main(argv)
        runs.append((rc, capsys.readouterr(), strip_wall_time(out)))
    assert runs[0][0] == 0 and runs[0][1].err == ""
    assert runs[1] == runs[0]


def test_wrong_point_length_exits_one(tmp_path, capsys):
    start = point_file(tmp_path, "p.json", [0.1, 0.2])
    rc = cli.main(["solve", "--system", fixture("square.ps"),
                   "--point", start, "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "expected 1" in capsys.readouterr().err


def test_wrong_point_length_messages_are_one_line(tmp_path, capsys):
    start = point_file(tmp_path, "p.json", [0.1, 0.2])
    starts = write_json(tmp_path / "starts.json", [[[0.1, 0.0]], [[0.1, 0.0], [0.2, 0.0]]])
    for flag, path, origin in (("--point", start, start),
                               ("--points", starts, f"{starts}[1]")):
        rc = cli.main(["solve", "--system", fixture("square.ps"),
                       flag, path, "--out", str(tmp_path / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {origin}: point has 2 coordinates, expected 1\n")


def test_points_are_all_checked_before_any_solve(tmp_path, capsys, monkeypatch):
    starts = write_json(tmp_path / "starts.json",
                        [[[0.1, 0.0]], [[0.2, 0.0]], [[0.1, 0.0], [0.2, 0.0]]])
    solved = []
    monkeypatch.setattr(deflate, "deflate_loop", lambda *args, **kwargs: solved.append(args))
    rc = cli.main(["solve", "--system", fixture("square.ps"),
                   "--points", starts, "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert solved == []
    assert capsys.readouterr().err == (
        f"error: {starts}[2]: point has 2 coordinates, expected 1\n")


def test_usage_error_exits_one(capsys):
    rc = cli.main(["solve", "--system", "whatever.ps"])
    assert rc == 1
    assert "required" in capsys.readouterr().err


def test_deflate_writes_expanded_system(tmp_path, capsys):
    start = point_file(tmp_path, "p.json", [1e-3])
    out = tmp_path / "deflated.ps"
    rc = cli.main(["deflate", "--system", fixture("square.ps"),
                   "--point", start, "--rank-tol", "1e-2",
                   "--seed", "11", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "# deflation stages: 1" in text
    assert "# stage 1 rank: 0" in text
    reparsed = parse_system(text)
    assert reparsed.neqs == 3
    assert reparsed.nvars == 2
    assert "3 equations" in capsys.readouterr().out


@pytest.mark.parametrize("values", [[0.0, 0.0], [1e-3, 2e-3]])
def test_a_base_variable_with_a_multipliers_name(tmp_path, capsys, values):
    # l_1_1 is the name the first multiplier takes when no base name has it
    system = tmp_path / "named.ps"
    system.write_text("2\nl_1_1 y\nl_1_1^2;\ny^2;\n")
    start = point_file(tmp_path, "p.json", values)
    deflated = tmp_path / "deflated.ps"
    rc = cli.main(["deflate", "--system", str(system), "--point", start,
                   "--rank-tol", "1e-2", "--out", str(deflated)])
    assert rc == 0
    emitted = tmp_path / "emitted.ps"
    rc = cli.main(["solve", "--system", str(system), "--point", start,
                   "--out", str(tmp_path / "r.json"), "--emit-deflated", str(emitted)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    for path in (deflated, emitted):
        names = parse_system(path.read_text()).var_names
        assert names[:2] == ("l_1_1", "y") and len(set(names)) == len(names)
        assert "ll_1_1" in names


def test_deflate_regular_point_exits_two(tmp_path, capsys):
    system = tmp_path / "reg.ps"
    system.write_text("1\nx\nx^2 - 1;\n")
    start = point_file(tmp_path, "p.json", [1.0])
    rc = cli.main(["deflate", "--system", str(system),
                   "--point", start, "--out", str(tmp_path / "g.ps")])
    assert rc == 2
    assert "full column rank" in capsys.readouterr().err


def test_deflate_overflowing_point_exits_two(tmp_path, capsys):
    # x2^4 at 1e200 overflows, so the Jacobian there is not finite
    point = write_json(tmp_path / "p.json", [[1e200, 0], [1e200, 0]])
    out = tmp_path / "g.ps"
    rc = cli.main(["deflate", "--system", fixture("axis_quartic.ps"),
                   "--point", point, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not finite" in err
    assert not out.exists()


def test_multiplicity_double_root(tmp_path, capsys):
    point = point_file(tmp_path, "p.json", [0.0])
    rc = cli.main(["multiplicity", "--system", fixture("square.ps"),
                   "--point", point])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_multiplicity_regular_root(tmp_path, capsys):
    system = tmp_path / "reg.ps"
    system.write_text("1\nx\nx^2 - 1;\n")
    point = point_file(tmp_path, "p.json", [1.0])
    rc = cli.main(["multiplicity", "--system", str(system), "--point", point])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1"


def test_multiplicity_order_cap_exits_three(tmp_path, capsys):
    point = point_file(tmp_path, "p.json", [0.0, 0.0])
    rc = cli.main(["multiplicity", "--system", fixture("cubic_trio.ps"),
                   "--point", point, "--max-order", "2"])
    assert rc == 3
    assert "did not stabilize" in capsys.readouterr().err


def test_multiplicity_rejects_non_root(tmp_path, capsys):
    point = point_file(tmp_path, "p.json", [1.0])
    rc = cli.main(["multiplicity", "--system", fixture("square.ps"),
                   "--point", point])
    assert rc == 1
    assert "not an approximate root" in capsys.readouterr().err


def test_multiplicity_rejects_overflowing_point(tmp_path, capsys):
    # x^2 at 1e200 evaluates to inf+nanj, whose residual is NaN
    point = write_json(tmp_path / "p.json", [[1e200, 0]])
    rc = cli.main(["multiplicity", "--system", fixture("square.ps"),
                   "--point", point])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not an approximate root" in err


def test_multiplicity_work_cap_exits_one(tmp_path, capsys):
    # {x_i^2 : i < 40} at the origin: order 2 of the recursion is above the cap
    names = [f"x{i}" for i in range(40)]
    system = tmp_path / "squares.ps"
    system.write_text(f"40\n{' '.join(names)}\n" + "".join(f"{v}^2;\n" for v in names))
    point = point_file(tmp_path, "p.json", [0.0] * 40)
    rc = cli.main(["multiplicity", "--system", str(system), "--point", point])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "above the work cap" in err


def test_bench_is_not_a_subcommand(capsys):
    rc = cli.main(["bench", "--system", fixture("bench9.ps")])
    assert rc == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("usage: polydeflate")
    assert len(lines) == 2 and lines[1].startswith("error: ")
    assert "bench" in lines[1]


@pytest.mark.parametrize("argv, message", [
    (["solve", "--rank-tol", "2"], "--rank-tol must lie in (0, 1), got 2.0"),
    (["solve", "--residual-tol", "0"], "--residual-tol must lie in (0, 1), got 0.0"),
    (["solve", "--max-deflations", "-1"], "--max-deflations must be nonnegative, got -1"),
    (["deflate", "--rank-tol", "2"], "--rank-tol must lie in (0, 1), got 2.0"),
    (["multiplicity", "--max-order", "0"], "--max-order must be at least 1, got 0"),
    (["solve", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["deflate", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["solve", "--rank-tol", "nan"], "--rank-tol must lie in (0, 1), got nan"),
    (["solve", "--residual-tol", "NaN"], "--residual-tol must lie in (0, 1), got nan"),
    (["solve", "--rank-tol", "1"], "--rank-tol must lie in (0, 1), got 1.0"),
    (["solve", "--residual-tol", "1.0"], "--residual-tol must lie in (0, 1), got 1.0"),
    (["deflate", "--rank-tol", "nan"], "--rank-tol must lie in (0, 1), got nan"),
    (["deflate", "--rank-tol", "1"], "--rank-tol must lie in (0, 1), got 1.0"),
], ids=["solve-rank-tol", "solve-residual-tol", "solve-max-deflations",
        "deflate-rank-tol", "multiplicity-max-order", "solve-seed", "deflate-seed",
        "solve-rank-tol-nan", "solve-residual-tol-nan", "solve-rank-tol-one",
        "solve-residual-tol-one", "deflate-rank-tol-nan", "deflate-rank-tol-one"])
def test_out_of_range_options_are_one_line_errors(tmp_path, capsys, argv, message):
    start = point_file(tmp_path, "p.json", [0.1])
    command, *options = argv
    required = {"solve": ["--point", start, "--out", str(tmp_path / "r.json")],
                "deflate": ["--point", start, "--out", str(tmp_path / "d.ps")],
                "multiplicity": ["--point", start]}[command]
    rc = cli.main([command, "--system", fixture("square.ps"), *options, *required])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "r.json").exists() and not (tmp_path / "d.ps").exists()


@pytest.mark.parametrize("flag", ["--point", "--points", "--reference"])
@pytest.mark.parametrize("value", [
    "NaN", "Infinity", "-Infinity",
    # integers beyond the float range, and beyond Python's 4300-digit int limit
    pytest.param("1" + "0" * 400, id="401-digit-integer"),
    pytest.param("1" + "0" * 4999, id="5000-digit-integer")])
def test_non_finite_points_are_one_line_errors(tmp_path, capsys, flag, value):
    bad = tmp_path / "bad.json"
    if flag == "--points":
        bad.write_text(f"[[[0.1, 0.0]], [[{value}, 0.0]]]")
        origin = f"{bad}[1]"
    else:
        bad.write_text(f"[[0.1, {value}]]")
        origin = str(bad)
    good = point_file(tmp_path, "p.json", [0.1])
    argv = ["solve", "--system", fixture("square.ps"), "--out", str(tmp_path / "r.json")]
    argv += [flag, str(bad)] if flag != "--reference" else ["--point", good, flag, str(bad)]
    rc = cli.main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {origin}: coordinate 1 is not finite\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("flag", ["--point", "--points", "--reference"])
def test_boolean_coordinates_are_one_line_errors(tmp_path, capsys, flag):
    bad = tmp_path / "bad.json"
    if flag == "--points":
        bad.write_text("[[[0.1, 0.0]], [[true, 0.0]]]")
        origin = f"{bad}[1]"
    else:
        bad.write_text("[[true, 0]]")
        origin = str(bad)
    good = point_file(tmp_path, "p.json", [0.1])
    argv = ["solve", "--system", fixture("square.ps"), "--out", str(tmp_path / "r.json")]
    argv += [flag, str(bad)] if flag != "--reference" else ["--point", good, flag, str(bad)]
    rc = cli.main(argv)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {origin}: expected a JSON array of [re, im] pairs\n"
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("body", ["1e400*x^2;", "(1e200*x)^2;", "1e400*x - 1e400*x;"])
@pytest.mark.parametrize("command", ["solve", "multiplicity"])
def test_values_out_of_range_are_one_line_errors(tmp_path, capsys, body, command):
    system = tmp_path / "big.ps"
    system.write_text(f"1\nx\n{body}\n")
    start = point_file(tmp_path, "p.json", [0.0])
    argv = [command, "--system", str(system), "--point", start]
    if command == "solve":
        argv += ["--out", str(tmp_path / "r.json")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {system}: line 3, column 1: ")
    assert err.endswith(" out of range\n") and err.count("\n") == 1


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("flag", ["--point", "--points"])
def test_overflowing_iterate_is_diverged_exit_two(tmp_path, capsys, flag):
    if flag == "--point":
        start = write_json(tmp_path / "p.json", [[1e200, 0]])
    else:
        start = write_json(tmp_path / "p.json", [[[1e200, 0]], [[0.1, 0]], [[-1e300, 1e300]]])
    out = tmp_path / "r.json"
    rc = cli.main(["solve", "--system", fixture("square.ps"), flag, start,
                   "--out", str(out)])
    assert rc == 2
    text = out.read_text()
    assert "inf" not in text and "nan" not in text.lower()
    reports = _strict_json(text)
    if flag == "--point":
        reports = [reports]
    statuses = [r["status"] for r in reports]
    assert statuses == (["diverged"] if flag == "--point"
                        else ["diverged", "converged_regular", "diverged"])
    first = reports[0]
    assert first["residual_initial"] is None and first["residual_final"] is None
    assert first["inverse_condition_final"] is None
    assert first["solution"] == [[1e200, 0]]
    assert capsys.readouterr().err == ""


def test_lapack_failure_is_diverged_exit_two(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    monkeypatch.setattr(np.linalg, "lstsq", fail)
    out = tmp_path / "r.json"
    rc = cli.main(["solve", "--system", fixture("square.ps"),
                   "--point", point_file(tmp_path, "p.json", [0.1]), "--out", str(out)])
    assert rc == 2
    report = _strict_json(out.read_text())
    assert report["status"] == "diverged"
    assert report["solution"] == [[0.1, 0]]
    assert report["inverse_condition_final"] is None
    assert capsys.readouterr().err == ""


def test_emitting_an_oversized_deflated_system_exits_two(tmp_path, capsys):
    # DZ2 from 1e-3 off its root ends with six stages and 152 variables;
    # expanding them could give millions of terms, so --emit-deflated stops
    # at the cap with one error line instead of exhausting memory
    rng = np.random.default_rng(2)
    u = rng.normal(size=3) + 1j * rng.normal(size=3)
    start = write_json(tmp_path / "p.json",
                       [[z.real, z.imag] for z in 1e-3 * u / np.linalg.norm(u)])
    emitted = tmp_path / "deflated.ps"
    rc = cli.main(["solve", "--system", fixture("dz2.ps"), "--point", start,
                   "--max-deflations", "6", "--out", str(tmp_path / "r.json"),
                   "--emit-deflated", str(emitted)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expanding stage ") and err.count("\n") == 1
    assert f"above the cap of {deflate.EXPAND_TERM_CAP}" in err
    assert not emitted.exists()


def test_deflate_above_the_term_cap_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(deflate, "EXPAND_TERM_CAP", 3)
    start = point_file(tmp_path, "p.json", [1e-3])
    out = tmp_path / "deflated.ps"
    rc = cli.main(["deflate", "--system", fixture("square.ps"), "--point", start,
                   "--rank-tol", "1e-2", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "error: expanding stage 1 could give 4 terms, above the cap of 3\n"
    assert not out.exists()


# enough address space to start Python and import numpy, too little for the
# table of every power of x up to 10^9, which the child meets in a few seconds
MEMORY_CAP = 512 * 2 ** 20


def test_running_out_of_memory_is_a_one_line_error_exit_two(tmp_path):
    resource = pytest.importorskip("resource")
    if not sys.platform.startswith("linux") or not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("capping a child's address space needs Linux's RLIMIT_AS")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    if hard != resource.RLIM_INFINITY and hard < MEMORY_CAP:
        pytest.skip("the address space is already capped below the test's cap")
    system = tmp_path / "huge.ps"
    system.write_text("1\nx\nx^1000000000 - 1;\n")
    start = point_file(tmp_path, "p.json", [0.9])
    out = tmp_path / "r.json"
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap():   # runs in the child only, before it starts Python
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    done = subprocess.run(
        [sys.executable, "-m", "polydeflate.cli", "solve", "--system", str(system),
         "--point", start, "--out", str(out)],
        capture_output=True, text=True, timeout=120, env=env, preexec_fn=cap)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# the one-pass report renderer against the tree it replaced
# ---------------------------------------------------------------------------

# fixture: the coordinate of its root in every variable
RENDERED = {"square": 0.0, "axis_quartic": 0.0, "cubic_trio": 0.0, "cross_cubes": 0.0,
            "bench9": 0.0, "cbms2": 0.0, "dz1": 0.0, "dz2": 0.0, "kss5": 1.0}


def assert_renders_as_the_tree(reports):
    for report in reports:
        assert cli.render_report(report) == reference.emit(reference.report_tree(report)) + "\n"
    assert cli.render_reports(reports) == reference.emit(
        [reference.report_tree(r) for r in reports]) + "\n"


@pytest.mark.parametrize("name", sorted(RENDERED))
def test_reports_render_as_the_tree_on_every_fixture(name):
    system = load_fixture(f"{name}.ps")
    root = np.full(system.nvars, RENDERED[name], dtype=complex)
    rng = np.random.default_rng(len(name))
    reports = []
    for k, reference_point in enumerate([None, root]):
        start = root + 1e-3 * (rng.normal(size=system.nvars) + 1j * rng.normal(size=system.nvars))
        reports.append(deflate.deflate_loop(system, start, seed=k, max_stages=2,
                                            reference=reference_point, system_name=name))
    assert reports[1].correct_digits_final is not None
    assert_renders_as_the_tree(reports)


def test_reports_render_as_the_tree_without_a_stage():
    system = parse_system("2\nx y\nx^2 - 1;\ny - 2;\n")
    report = deflate.deflate_loop(system, [0.9, 2.1], reference=[1.0, 2.0])
    assert report.stages == [] and report.deflations == 0
    assert_renders_as_the_tree([report])


def test_reports_render_as_the_tree_with_fields_that_are_not_finite():
    report = deflate.deflate_loop(load_fixture("square.ps"), [1e-3], seed=5)
    assert report.stages
    stage = dataclasses.replace(report.stages[0], inverse_condition_before=math.nan,
                                inverse_condition_after=math.inf,
                                multiplier_values=np.array([complex(math.nan, -math.inf)]))
    broken = dataclasses.replace(
        report, residual_initial=math.inf, residual_final=math.nan,
        inverse_condition_original=-math.inf, correct_digits_final=math.nan,
        solution=np.array([complex(math.inf, math.nan)]), stages=[stage])
    text = cli.render_report(broken)
    assert "null" in text and "nan" not in text.lower() and "inf" not in text.lower()
    assert json.loads(text)["residual_final"] is None
    assert_renders_as_the_tree([broken, report])


@pytest.mark.parametrize("name", ["näive_Ω", "日本語", "tab\there", "quote\"mark"])
def test_reports_render_as_the_tree_with_any_system_name(name):
    report = deflate.deflate_loop(load_fixture("square.ps"), [1e-3], system_name=name)
    assert json.loads(cli.render_report(report))["system"] == name
    assert cli.render_report(report).isascii()
    assert_renders_as_the_tree([report])
