"""Smoke test of the benchmark in ``benchmarks/`` at tiny sizes.

The benchmark attributes time to layers by wrapping the package's public
callables by name; a rename in the package would silently zero a layer's
metrics, so this checks that the closed-form layer and the count table are
still seen.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import jobs  # noqa: E402
import run  # noqa: E402


def test_traced_expand_attributes_the_kernel_context():
    result = run.run_workload("expand", 3, 0.0, 1, sizes=jobs.TINY)
    assert result["correct"]
    assert result["metrics"]["closedform.kernel_context.calls"] > 0
    # the closed forms take s from its ODE's recurrence, not a series sqrt
    assert result["metrics"]["series.sqrt.calls"] == 0


def test_traced_check_builds_one_table_per_model():
    result = run.run_workload("check", 3, 0.0, 1, sizes=jobs.TINY)
    assert result["correct"]
    check_all = sum(r["argv"][:3] == ["check", "--what", "all"] for r in result["jobs"])
    assert check_all > 0
    assert result["metrics"]["paths.dp_table.calls"] == 2 * check_all
