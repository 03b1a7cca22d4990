"""The names the benchmark reaches into the package by.

``perfbench/tracing.py`` patches each ``WRAPS`` entry by name, and
``perfbench/workloads.py`` reads each stage's rank and input size, so a
rename or deletion in ``src/`` breaks the benchmark. This test catches it
without running the benchmark; it reads ``perfbench/`` and changes nothing.
"""

import importlib.util
import pathlib

import numpy as np

from polydeflate.deflate import DeflationStage

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def test_every_name_the_benchmark_uses_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPS
    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in tracing.WRAPS
               if attr not in owner.__dict__]
    stage = DeflationStage(np.ones((3, 2), dtype=complex), np.ones(2, dtype=complex))
    missing += [f"DeflationStage.{attr}" for attr in ("rank", "nvars_prev")
                if not hasattr(stage, attr)]
    assert missing == []
