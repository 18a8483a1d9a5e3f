"""Smoke test of the benchmark in ``benchmarks/`` at tiny sizes.

The benchmark attributes time to layers by wrapping the package's public
callables by name; a rename in the package would silently zero a layer's
metrics, so this checks that the closed-form layer is still seen.
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
