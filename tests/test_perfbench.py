"""The benchmark's contract with the package, checked from the test suite.

perfbench/run.py drives the package through its public API and, traced,
patches stage functions by name (tracing.py).  Each workload runs traced on
a copy of src/ and perfbench/, so a stage the tracer can no longer patch,
or a count that moves, fails here instead of silently reading 0.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# exact counts of the traced pass at seed 1, and spans that must take time
EXPECTED = {
    "linear-valid": (
        {"code.encode.calls": 2048, "decoder.total_ops": 8004, "decoder.search_ops": 160,
         "decoder.path.closed_form": 2048, "field.CubicField.inv.calls": 2048,
         "field.CubicField.mul.calls": 8192},
        ("decoder.compute_beta", "decoder.extract_coefficients", "decoder.solve_deltas",
         "code.interpolate", "code.encode", "decoder.decode_linear"),
    ),
    "linear-mixed": (
        {"code.encode.calls": 290, "decoder.total_ops": 1163.5, "decoder.search_ops": 150,
         "decoder.path.closed_form": 280, "decoder.path.constant": 10,
         "decoder.rejected.unrecognized": 20, "decoder.rejected.inconsistent": 10,
         "field.CubicField.inv.calls": 280, "field.CubicField.mul.calls": 1140},
        ("decoder.compute_beta", "decoder.extract_coefficients", "decoder.solve_deltas",
         "code.interpolate", "code.encode", "decoder.decode_linear"),
    ),
    "cubic-scan": (
        {"decoder.search.scans": 96, "decoder.search.useful_frac": 1,
         "decoder.path.fallback": 96, "code.encode.calls": 96,
         "decoder.search_ops": 5700173.875, "decoder.total_ops": 5704897.875,
         "field.CubicField.inv.calls": 96, "field.CubicField.mul.calls": 384},
        ("decoder.compute_beta", "code.interpolate", "code.encode",
         "decoder.decode_cubic.packed", "decoder.decode_cubic.pyscan"),
    ),
    "certify": (
        # no seeded pair shares a symbol: audit_code answers each from its
        # sorted keys and never calls lcs_length
        {"verify.check_injectivity.triples": 551300, "verify.lcs_length.calls": 0,
         "decoder.total_ops": 0},
        ("verify.check_injectivity", "verify.audit_code"),
    ),
}


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    root = tmp_path_factory.mktemp("checkout")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, root / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    return root


@pytest.mark.parametrize("workload", EXPECTED)
def test_traced_workload_counts(checkout, workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=checkout, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = {name: m["value"]
               for name, m in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}
    counts, timed = EXPECTED[workload]
    assert {name: metrics[name] for name in counts} == counts
    assert all(metrics[name + ".self_s"] > 0 for name in timed), metrics
