"""Differential and golden tests for the array sampler behind run_sampled."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from conftest import generic_run_args
from reference_sampler import conditional_tables, reference_run_sampled

from jrsp import TargetState, generic_shares, run_exact, run_sampled
from jrsp.protocol import _philox_uniforms, _sampling_tables

TWO_PI = 2.0 * np.pi


def _assert_same(report, reference):
    assert report.counts == reference.counts
    assert all(type(c) is int for c in report.counts)
    assert report.p_strict == reference.p_strict
    assert report.p_fidelity == reference.p_fidelity


@pytest.mark.parametrize("key", [0, 2**63 - 1, 2**64 - 1, 0x243F6A8885A308D3])
def test_kernel_matches_numpy_philox(key):
    rng = np.random.default_rng(key % 1000)
    trials = np.array(
        [0, 1, 4095, 2**63 - 1, 2**64 - 1, *rng.integers(0, 2**64, 5, dtype=np.uint64)],
        dtype=np.uint64,
    )
    for count in (1, 4, 9, 12):
        draws = _philox_uniforms(key, trials, count)
        for row, trial in zip(draws, trials):
            gen = np.random.Philox(key=np.array([key, trial], dtype=np.uint64))
            assert np.array_equal(row, np.random.Generator(gen).random(count))


def test_kernel_matches_numpy_philox_on_random_keys():
    rng = np.random.default_rng(99)
    for key in rng.integers(0, 2**64, 20, dtype=np.uint64):
        trials = rng.integers(0, 2**64, 4, dtype=np.uint64)
        draws = _philox_uniforms(int(key), trials, 8)
        for row, trial in zip(draws, trials):
            gen = np.random.Philox(key=np.array([key, trial], dtype=np.uint64))
            assert np.array_equal(row, np.random.Generator(gen).random(8))


def _numpy_philox(key, trials, count):
    """Reference draws: one numpy Philox generator per trial."""
    return np.array([
        np.random.Generator(np.random.Philox(key=np.array([key, trial], dtype=np.uint64)))
        .random(count)
        for trial in trials
    ])


@pytest.mark.parametrize("size", [1, 200, 4095, 4096, 4097])
def test_kernel_matches_numpy_philox_for_every_count_up_to_four_blocks(size):
    rng = np.random.default_rng(size)
    key = int(rng.integers(0, 2**64, dtype=np.uint64))
    trials = rng.integers(0, 2**64, size, dtype=np.uint64)
    trials[-1] = 2**64 - 1
    want = _numpy_philox(key, trials, 13)
    for count in range(1, 14):
        draws = _philox_uniforms(key, trials, count)
        assert draws.shape == (size, count)
        assert draws.dtype == np.float64
        assert draws.tobytes() == want[:, :count].tobytes()


def test_kernel_rows_do_not_depend_on_the_batch():
    trials = np.arange(4097, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    full = _philox_uniforms(31, trials, 9)
    for start, stop in ((0, 1), (5, 6), (0, 200), (1000, 4096), (4095, 4097)):
        assert np.array_equal(_philox_uniforms(31, trials[start:stop], 9), full[start:stop])


@pytest.mark.parametrize("n", range(2, 8))
def test_tables_match_reference_to_the_last_bit(n):
    # A threshold one ulp off flips a trial only when a draw lands on it,
    # which no sampled count can be relied on to show, so compare directly.
    t, shares = generic_run_args(np.random.default_rng(n), n)
    report = run_exact("improved", t, shares, "paper-step3")
    marginal, next_zero = conditional_tables(report)
    probabilities = np.array([br.probability for br in report.branches])
    cumulative, table = _sampling_tables(probabilities.reshape(1 << n, -1))
    assert np.array_equal(cumulative, np.cumsum(marginal))
    for (l_idx, prefix), value in next_zero.items():
        node = (1 << len(prefix)) | int("0" + "".join(map(str, prefix)), 2)
        assert table[l_idx, node] == value


RULE_CASES = [("bich3", "table1", 3), ("improved", "table2", 3)] + [
    ("improved", rule, n) for rule in ("derived", "paper-step3") for n in range(2, 8)
]


@pytest.mark.parametrize("variant, rule, n", RULE_CASES)
def test_matches_reference_loop(variant, rule, n):
    rng = np.random.default_rng(100 * n + len(rule))
    t, shares = generic_run_args(rng, n)
    seeds = [int(rng.integers(0, 2**63))]
    if n <= 5:
        seeds += [0, 2**63 - 1]
    trials = 1500 if n <= 5 else 200
    for seed in seeds:
        _assert_same(
            run_sampled(variant, t, shares, rule, trials, seed),
            reference_run_sampled(variant, t, shares, rule, trials, seed),
        )


@pytest.mark.parametrize("a, b", [(1.0, 0.0), (0.0, 1.0)])
@pytest.mark.parametrize(
    "variant, rule, n",
    [("bich3", "table1", 3), ("improved", "table2", 3), ("improved", "derived", 4),
     ("improved", "paper-step3", 5)],
)
def test_matches_reference_at_the_poles(variant, rule, n, a, b):
    shares = generic_shares(n - 1, 7)
    t = TargetState(a, b, sum(shares) % TWO_PI)
    _assert_same(
        run_sampled(variant, t, shares, rule, 1000, 5),
        reference_run_sampled(variant, t, shares, rule, 1000, 5),
    )


@pytest.mark.parametrize("trials", [1, 4095, 4096, 4097, 10_000])
def test_matches_reference_across_batch_edges(trials):
    t = TargetState(0.6, 0.8, 1.1)
    for variant, rule in (("bich3", "table1"), ("improved", "paper-step3")):
        _assert_same(
            run_sampled(variant, t, (0.55, 0.55), rule, trials, 77),
            reference_run_sampled(variant, t, (0.55, 0.55), rule, trials, 77),
        )


@pytest.mark.parametrize("trials", [4095, 4096, 4097])
def test_matches_reference_across_batch_edges_with_two_blocks(trials):
    # n = 5 reads five draws per trial, two Philox blocks.
    shares = generic_shares(4, 11)
    t = TargetState(0.6, 0.8, sum(shares) % TWO_PI)
    _assert_same(
        run_sampled("improved", t, shares, "derived", trials, 2**64 - 2),
        reference_run_sampled("improved", t, shares, "derived", trials, 2**64 - 2),
    )


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("seed", True), ("seed", "3"), ("seed", np.float64(2.0)),
    ("trials", 2.5), ("trials", True), ("trials", np.bool_(True)), ("trials", None),
])
def test_rejects_non_integer_trials_and_seed(name, value):
    args = dict(trials=10, seed=1)
    args[name] = value
    t = TargetState(0.6, 0.8, 1.1)
    with pytest.raises(ValueError, match=name):
        run_sampled("bich3", t, (0.55, 0.55), "table1", args["trials"], args["seed"])


def test_takes_numpy_integers_as_python_ints():
    t = TargetState(0.6, 0.8, 1.1)
    want = run_sampled("bich3", t, (0.55, 0.55), "table1", 300, 2**64 - 1)
    for trials, seed in ((np.int64(300), np.uint64(2**64 - 1)), (np.uint16(300), 2**64 - 1)):
        got = run_sampled("bich3", t, (0.55, 0.55), "table1", trials, seed)
        assert type(got.trials) is int and type(got.seed) is int
        assert (got.trials, got.seed, got.counts) == (want.trials, want.seed, want.counts)


def test_matches_reference_above_the_signed_range():
    t = TargetState(0.6, 0.8, 1.1)
    for seed in (2**63, 2**63 + 1, 2**64 - 1):
        _assert_same(
            run_sampled("bich3", t, (0.55, 0.55), "table1", 500, seed),
            reference_run_sampled("bich3", t, (0.55, 0.55), "table1", 500, seed),
        )


# SHA-256 of json.dumps(report.counts), recorded with the per-trial loop.
IMPROVED6_SHARES = (0.3, 0.25, 0.2, 0.2, 0.15)
GOLDEN = [
    ("bich3", (0.6, 0.8, 1.1), (0.55, 0.55), "table1", 100_000, 123,
     "6b15894de680563bcfca2df84e2ffc5f5377d15aa9c70fbf9e7075cfc691d3f0"),
    ("bich3", (0.6, 0.8, 1.1), (0.55, 0.55), "table1", 2000, 31,
     "8a73670a4f4cbb77333b1abd9d2a26b9970a2a0734ee5f8744c3d15a60a8c729"),
    ("improved", (0.6, 0.8, sum(IMPROVED6_SHARES)), IMPROVED6_SHARES, "paper-step3",
     3000, 2024, "42f0c9dc5f5076663cedebb35367beb642b406edd3838f91a3ec307a72bd121d"),
]


@pytest.mark.parametrize("variant, target, shares, rule, trials, seed, digest", GOLDEN)
def test_golden_counts(variant, target, shares, rule, trials, seed, digest):
    report = run_sampled(variant, TargetState(*target), shares, rule, trials, seed)
    assert hashlib.sha256(json.dumps(report.counts).encode()).hexdigest() == digest
