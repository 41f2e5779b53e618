"""The engine's columns stay bitwise the reference's under other CPU kernels.

Each case reruns tests/test_engine.py's engine-against-reference comparison
in a child process whose environment switches one CPU dispatch: OpenBLAS's
kernel (the reference's dense cascade runs through BLAS) or numpy's SIMD
level (the engine's elementwise kernels run through numpy's ufunc loops).
A case first confirms that its switch took effect, from the ``Core:`` line
OpenBLAS prints under ``OPENBLAS_VERBOSE=2`` or from numpy's CPU-feature
table, and skips with the reason where it cannot.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# numpy's dispatch targets above its x86-64 baseline.
SIMD_ABOVE_BASELINE = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")

# improved/derived at n = 2, 5 and 8 and bich3/table1, each at a generic
# interior target and at both poles.
CHILD = """
import json
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
print(json.dumps(__cpu_features__), flush=True)

from conftest import generic_run_args
from jrsp import TargetState, generic_shares
from test_engine import TWO_PI, _assert_bitwise

for variant, rule, n in [("improved", "derived", 2), ("improved", "derived", 5),
                         ("improved", "derived", 8), ("bich3", "table1", 3)]:
    rng = np.random.default_rng(70 + n)
    runs = [generic_run_args(rng, n)]
    pole_shares = generic_shares(n - 1, rng)
    runs += [(TargetState(a, b, sum(pole_shares) % TWO_PI), pole_shares)
             for a, b in ((1.0, 0.0), (0.0, 1.0))]
    for t, shares in runs:
        _assert_bitwise(variant, t, shares, rule)
print("compared", flush=True)
"""


def _run_child(env_update: dict[str, str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.update(env_update)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    return subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)


def _features(child: subprocess.CompletedProcess) -> dict | None:
    first = child.stdout.partition("\n")[0]
    return json.loads(first) if first.startswith("{") else None


def _assert_compared(child: subprocess.CompletedProcess) -> None:
    assert child.returncode == 0 and child.stdout.endswith("compared\n"), child.stderr


def test_columns_match_the_reference_under_the_haswell_blas_kernel():
    child = _run_child({"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_VERBOSE": "2"})
    core = re.search(r"^Core: (\S+)", child.stderr, re.MULTILINE)
    if core is None:
        pytest.skip("numpy's BLAS printed no OpenBLAS 'Core:' line, so "
                    "OPENBLAS_CORETYPE cannot be confirmed")
    if core.group(1) != "Haswell":
        pytest.skip(f"OpenBLAS ran its {core.group(1)} kernel, not Haswell, on this CPU")
    _assert_compared(child)


def test_columns_match_the_reference_at_numpys_baseline_simd_level():
    supported = [name for name in SIMD_ABOVE_BASELINE if __cpu_features__.get(name)]
    if not supported:
        pytest.skip(f"numpy reports none of {SIMD_ABOVE_BASELINE} on this CPU, so "
                    "disabling them would change no dispatch")
    child = _run_child({"NPY_DISABLE_CPU_FEATURES": " ".join(SIMD_ABOVE_BASELINE)})
    features = _features(child)
    if features is None:
        pytest.skip(f"numpy did not start with those features disabled: {child.stderr[-300:]}")
    still_on = [name for name in supported if features.get(name)]
    if still_on:
        pytest.skip(f"numpy still dispatches {still_on} under NPY_DISABLE_CPU_FEATURES")
    _assert_compared(child)
