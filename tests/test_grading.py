"""The grading kernel shared by the engine, the Pauli oracle and the reference.

The reference engine grades through the same kernel, so the kernel is
checked here on its own: against the textbook Pauli matrices, and against
the BLAS kernel it replaced, whose rounding depends on the CPU.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jrsp
from jrsp import RecoveryOp, TargetState, generic_shares, oracle_branches, run_exact
from jrsp.protocol import _overlaps

TWO_PI = 2.0 * math.pi

# Every amplitude has modulus at most 1, so each part of an overlap is a sum
# of two products of at most that size; 4 ulp of 1 bounds its rounding.
_OVERLAP_ULPS = 4 * np.spacing(1.0)


def _rows(rng: np.random.Generator) -> np.ndarray:
    """Receiver states with signed zeros, pole states and generic states."""
    zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
    rows = [[z, w] for z in zeros for w in (1.0, -1.0, 1j, complex(-0.0, -1.0))]
    rows += [[w, z] for z, w in rows]
    theta = rng.uniform(0.0, math.pi / 2.0, size=16)
    phase = np.exp(1j * rng.uniform(0.0, TWO_PI, size=(16, 2)))
    rows += (np.stack((np.cos(theta), np.sin(theta)), axis=1) * phase).tolist()
    return np.array(rows, dtype=np.complex128)


_TARGETS = [
    TargetState(1.0, 0.0),
    TargetState(0.0, 1.0, 2.5),
    TargetState(0.6, 0.8, 1.1),
    TargetState(math.cos(0.83), math.sin(0.83), 4.53),
]


@pytest.mark.parametrize("t", _TARGETS, ids=lambda t: f"{t.a:.3f},{t.b:.3f},{t.phi:.2f}")
def test_kernel_matches_the_textbook_matrices(t):
    rng = np.random.default_rng(7)
    pre = _rows(rng)
    amps = t.state().amplitudes
    codes = rng.integers(0, 4, size=len(pre)).astype(np.int8)
    mixed_post, mixed_overlaps = _overlaps(pre, codes, amps)
    for code in range(4):
        post, overlaps = _overlaps(pre, code, amps)
        assert np.array_equal(post, pre @ RecoveryOp.from_code(code).matrix.T)
        # No -0.0 survives the + 0.0.
        parts = np.concatenate((post.real.ravel(), post.imag.ravel()))
        assert not np.signbit(parts[parts == 0.0]).any()
        want = post @ amps.conj()
        assert np.abs(overlaps.real - want.real).max() <= _OVERLAP_ULPS
        assert np.abs(overlaps.imag - want.imag).max() <= _OVERLAP_ULPS
        # A row's grade depends on its own code only, bit for bit.
        rows = codes == code
        assert mixed_post[rows].tobytes() == post[rows].tobytes()
        assert mixed_overlaps[rows].tobytes() == overlaps[rows].tobytes()
        one_post, one_overlap = _overlaps(pre[:1], code, amps)
        assert one_post.tobytes() == post[:1].tobytes()
        assert one_overlap.tobytes() == overlaps[:1].tobytes()


@pytest.mark.parametrize("t", _TARGETS, ids=lambda t: f"{t.a:.3f},{t.b:.3f},{t.phi:.2f}")
def test_one_call_over_the_word_grid_is_four_single_word_calls(t):
    pre = _rows(np.random.default_rng(7))
    amps = t.state().amplitudes
    grid_post, grid_overlaps = _overlaps(pre, np.arange(4)[:, None], amps)
    assert grid_post is None
    assert grid_overlaps.shape == (4, len(pre))
    for code in range(4):
        _, overlaps = _overlaps(pre, code, amps)
        assert grid_overlaps[code].tobytes() == overlaps.tobytes()


@pytest.mark.parametrize("variant, rule, n", [("bich3", "table1", 3), ("improved", "table2", 3),
                                              ("improved", "derived", 4),
                                              ("improved", "paper-step3", 4)])
def test_oracle_reads_the_engine_fidelity_on_the_rule_op(variant, rule, n):
    rng = np.random.default_rng(n + len(rule))
    shares = generic_shares(n - 1, rng)
    for theta in (0.0, math.pi / 2.0, rng.uniform(0.05, math.pi / 2.0 - 0.05)):
        t = TargetState(math.cos(theta), math.sin(theta), sum(shares) % TWO_PI)
        report = run_exact(variant, t, shares, rule)
        same_op = 0
        for (op, fid, _), code, engine_fid in zip(
            oracle_branches(report), report.ops.tolist(), report.fidelity
        ):
            if op.code == code:
                same_op += 1
                assert np.float64(fid).tobytes() == engine_fid.tobytes()
        assert same_op > 0


# Oracle dominance, rerun where OpenBLAS has been told to use its Haswell
# kernel (the one an AVX2 CPU without AVX-512 gets).  The first case is a
# bich3 run where, under that kernel, a BLAS matrix-vector overlap read
# fidelity 1.0 on eight table1 branches and an entrywise one
# 0.9999999999999996.
_DOMINANCE = """
import json, math, sys
import numpy as np
from jrsp import RULES, TargetState, generic_shares, oracle_branches, run_exact

theta = 0.8303383096343177
shares = (2.1881803116312573, 2.3451044104845704)
cases = [("bich3", TargetState(math.cos(theta), math.sin(theta), sum(shares)), shares)]
for seed in range(40):
    rng = np.random.default_rng(seed)
    variant = ("improved", "bich3")[int(rng.integers(0, 2))]
    n = 3 if variant == "bich3" else int(rng.integers(2, 6))
    theta = (0.0, math.pi / 2.0, rng.uniform(0.0, math.pi / 2.0))[int(rng.integers(0, 3))]
    shares = generic_shares(n - 1, rng)
    t = TargetState(math.cos(theta), math.sin(theta), sum(shares) % (2.0 * math.pi))
    cases.append((variant, t, shares))
bad = []
for variant, t, shares in cases:
    n = len(shares) + 1
    for name, rule in RULES.items():
        if rule.variant != variant or rule.requires_n not in (None, n):
            continue
        report = run_exact(variant, t, shares, name)
        for pos, (_, fid, _) in enumerate(oracle_branches(report)):
            if not fid >= report.fidelity[pos]:
                bad.append([variant, name, t.a, t.phi, pos, fid, float(report.fidelity[pos])])
json.dump(bad, sys.stdout)
"""


def test_oracle_dominance_does_not_depend_on_the_blas_kernel():
    src = str(Path(jrsp.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE="Haswell",
        OPENBLAS_VERBOSE="2",
        OPENBLAS_NUM_THREADS="1",
        PYTHONPATH=src if not path else src + os.pathsep + path,
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DOMINANCE], capture_output=True, text=True, env=env
    )
    if "Core: Haswell" not in proc.stderr:
        pytest.skip(f"OpenBLAS did not report its Haswell kernel: {proc.stderr.strip()!r}")
    if proc.returncode < 0:
        pytest.skip(f"the Haswell kernel cannot run on this CPU (signal {-proc.returncode})")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
