"""Tests for the command-line interface, its formats and its exit codes."""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jrsp import TargetState, cli, run_exact, split_phase, verify
from jrsp.cli import build_parser, main

AUDIT_FLAGS = ["--a", "0.6", "--b", "0.8", "--phi", "1.1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_text_report_prints_tolerances_and_headline(self, capsys):
        code, out, err = run_cli(capsys, ["simulate", "--variant", "bich3", *AUDIT_FLAGS])
        assert code == 0
        assert "tolerances: equality=1e-10 norm=1e-12" in out
        assert "probability_floor=1e-14 success=1e-09" in out
        assert "p_strict: 0.25" in out
        assert "p_fidelity: 1" in out
        assert "success_probability[strict]: 0.25" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, ["simulate", "--variant", "bich3", "--format", "json", *AUDIT_FLAGS]
        )
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "variant", "n", "target", "shares", "rule", "semantics", "branches",
            "p_strict", "p_fidelity", "errata", "tolerances", "seed",
        ]
        assert doc["variant"] == "bich3"
        assert doc["n"] == 3
        assert doc["target"] == {"a": 0.6, "b": 0.8, "phi": 1.1}
        assert doc["shares"] == [0.55, 0.55]
        assert doc["rule"] == "table1"
        assert doc["errata"] == []
        assert len(doc["branches"]) == 32
        branch = doc["branches"][0]
        assert list(branch) == [
            "l", "m", "prob", "recovery", "fidelity", "strict", "residual_phase",
        ]
        assert branch["l"] == "000" and branch["m"] == "00"
        assert isinstance(branch["strict"], bool)
        assert set(branch["residual_phase"]) == {"re", "im"}
        assert doc["p_strict"] == 0.25

    def test_all_formats_agree_to_twelve_digits(self, capsys):
        argv = ["simulate", "--variant", "bich3", *AUDIT_FLAGS]
        _, text_out, _ = run_cli(capsys, argv)
        _, json_out, _ = run_cli(capsys, [*argv, "--format", "json"])
        _, csv_out, _ = run_cli(capsys, [*argv, "--format", "csv"])
        doc = json.loads(json_out)
        csv_rows = [
            line.split(",") for line in csv_out.splitlines()
            if line and not line.startswith("#") and not line.startswith("l,")
        ]
        text_rows = [
            line.split() for line in text_out.splitlines()
            if line[:1] in "01" and "  " in line
        ]
        assert len(csv_rows) == len(text_rows) == len(doc["branches"]) == 32
        for branch, csv_row, text_row in zip(doc["branches"], csv_rows, text_rows):
            expected_prob = f"{branch['prob']:.12g}"
            assert csv_row[0] == branch["l"] == text_row[0]
            assert csv_row[2] == expected_prob == text_row[2]
            assert csv_row[4] == f"{branch['fidelity']:.12g}" == text_row[4]
            assert csv_row[6] == f"{branch['residual_phase']['re']:.12g}"

    def test_assert_p_pass_and_fail(self, capsys):
        base = ["simulate", "--variant", "bich3", *AUDIT_FLAGS]
        code, _, _ = run_cli(capsys, [*base, "--assert-p", "0.25"])
        assert code == 0
        code, _, err = run_cli(capsys, [*base, "--assert-p", "0.26"])
        assert code == 2
        assert "assertion failed" in err
        code, _, _ = run_cli(
            capsys, [*base, "--assert-p", "0.26", "--assert-tol", "0.02"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flags",
        [
            ["--assert-p", "nan"],
            ["--assert-p", "0.9", "--assert-tol", "nan"],
            ["--assert-p", "0.9", "--assert-tol", "inf"],
            ["--assert-p", "1", "--assert-tol", "-1"],
        ],
    )
    def test_assertions_that_cannot_fail_exit_one(self, capsys, monkeypatch, tmp_path, flags):
        def refuse(*args):
            raise AssertionError("the protocol ran")

        monkeypatch.setattr(cli, "run_exact", refuse)
        dump = tmp_path / "dump.json"
        code, out, err = run_cli(capsys, ["simulate", *flags, "--dump-config", str(dump)])
        assert code == 1
        assert out == ""
        assert flags[-2] in err
        assert not dump.exists()

    def test_sampled_mode_reports_frequencies(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--variant", "bich3", *AUDIT_FLAGS, "--mode", "sample",
             "--trials", "4096", "--seed", "9", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] == 9
        probs = [b["prob"] for b in doc["branches"]]
        assert sum(round(p * 4096) for p in probs) == 4096
        assert abs(doc["p_strict"] - 0.25) < 0.05

    def test_theta_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--theta", repr(float(np.arctan2(0.8, 0.6))),
             "--phi", "1.1", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["target"]["a"] == pytest.approx(0.6)
        assert doc["target"]["b"] == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--a", "0.6"],
            ["simulate", "--theta", "0.5", "--a", "0.6", "--b", "0.8"],
            ["simulate", "--shares", "0.5,0.5", "--n", "4"],
            ["simulate", "--variant", "bich3", "--rule", "derived"],
            ["simulate", "--a", "0.9", "--b", "0.9"],
            ["simulate", "--seed", "-4"],
            ["simulate", "--n", "13"],
            ["simulate", "--n", "13", "--mode", "sample"],
            ["check-bases", "--seed", "-3"],
            ["errata", "--seed", "-1"],
        ],
    )
    def test_config_errors_exit_one(self, capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a bad flag value
            code = exc.code
        err = capsys.readouterr().err
        assert code == 1
        assert "error" in err.lower()
        if "--seed" in argv:
            assert "--seed" in err

    @pytest.mark.parametrize("command", ["simulate", "table", "compare-rules"])
    @pytest.mark.parametrize("flags, doc", [
        (["--n", "3000000"], None),
        (["--n", "3000000", "--shares-mode", "random"], None),
        ([], '{"n": 3000000}'),
        ([], '{"n": 3000000, "shares_mode": "random"}'),
        (["--n", "13"], None),
        (["--n", "1"], None),
    ])
    def test_party_count_is_bounded_before_the_phase_is_split(
        self, capsys, monkeypatch, tmp_path, command, flags, doc
    ):
        # Splitting the phase for millions of parties takes seconds, and the
        # random mode redraws for minutes before it gives up.
        def refuse(*args):
            raise AssertionError("the phase was split")

        monkeypatch.setattr(cli, "split_phase", refuse)
        if doc is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(doc)
            flags = ["--config", str(cfg)]
        code, out, err = run_cli(capsys, [command, *flags])
        assert code == 1
        assert out == ""
        assert "supported party counts are 2 <= n <= 12" in err

    @pytest.mark.parametrize("mode", ["exact", "sample"])
    @pytest.mark.parametrize(
        "flags", [["--phi", "nan"], ["--phi", "inf"], ["--shares", "nan,0.5"]]
    )
    def test_non_finite_phases_exit_one(self, capsys, mode, flags):
        code, out, err = run_cli(
            capsys, ["simulate", *flags, "--mode", mode, "--trials", "10"]
        )
        assert code == 1
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("flags, doc", [
        (["--phi", "nan"], None),
        (["--theta", "inf"], None),
        (["--a", "nan", "--b", "0.8"], None),
        (["--shares", "nan,1"], None),
        ([], '{"target": {"phi": NaN}}'),
        ([], '{"shares": [Infinity, 1]}'),
        ([], '{"tolerances": {"success": NaN}}'),
    ])
    def test_non_finite_inputs_exit_one_before_rendering(self, capsys, tmp_path, flags, doc):
        if doc is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(doc)
            flags = ["--config", str(cfg)]
        code, out, err = run_cli(capsys, ["simulate", *flags, "--format", "json"])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--bogus"])
        assert info.value.code == 1

    def test_explicit_shares_fix_the_party_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--shares", "0.2,0.3,0.6", "--phi", "1.1", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 4
        assert doc["shares"] == [0.2, 0.3, 0.6]
        assert len(doc["branches"]) == 128


class TestConfigFile:
    def test_dump_and_reload_is_byte_identical(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        argv = ["simulate", "--variant", "improved", "--n", "4", "--shares-mode",
                "random", "--seed", "21", "--format", "json",
                "--dump-config", str(cfg)]
        code, first, _ = run_cli(capsys, argv)
        assert code == 0
        assert cfg.exists()
        code, second, _ = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert code == 0
        assert first == second

    def test_flags_override_file_values(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"variant": "bich3", "semantics": "fidelity"}))
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--config", str(cfg), "--semantics", "strict",
             "--format", "json", *AUDIT_FLAGS],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["variant"] == "bich3"
        assert doc["semantics"] == "strict"

    def test_tolerance_overrides_flow_into_reports(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tolerances": {"success": 1e-6}}))
        code, out, _ = run_cli(
            capsys, ["simulate", "--config", str(cfg), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["tolerances"]["success"] == 1e-6

    @pytest.mark.parametrize("key", ["equality", "norm", "probability_floor", "success"])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-1", '"1e-6"', "true", "null",
                                     "1", "2"])
    def test_non_finite_or_negative_tolerances_exit_one(self, capsys, tmp_path, key, bad):
        cfg = tmp_path / "run.json"
        cfg.write_text(f'{{"tolerances": {{"{key}": {bad}}}}}')
        code, out, err = run_cli(
            capsys, ["simulate", "--config", str(cfg), "--variant", "bich3"]
        )
        assert code == 1
        assert out == ""
        assert key in err

    @pytest.mark.parametrize("command", ["simulate", "table"])
    @pytest.mark.parametrize("key", ["equality", "norm", "probability_floor"])
    def test_fixed_tolerances_take_only_their_value(self, capsys, tmp_path, command, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tolerances": {key: 1e-6}}))
        code, out, err = run_cli(capsys, [command, "--config", str(cfg)])
        assert code == 1
        assert out == ""
        assert f"tolerances.{key} is fixed" in err

    @pytest.mark.parametrize("command", ["simulate", "table"])
    def test_dumped_tolerances_reload_to_the_same_bytes(self, capsys, tmp_path, command):
        dump = tmp_path / "dump.json"
        code, _, _ = run_cli(capsys, ["simulate", "--dump-config", str(dump)])
        assert code == 0
        tolerances = json.loads(dump.read_text())["tolerances"]
        assert list(tolerances) == ["equality", "norm", "probability_floor", "success"]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tolerances": tolerances}))
        _, plain, _ = run_cli(capsys, [command])
        code, out, _ = run_cli(capsys, [command, "--config", str(cfg)])
        assert code == 0
        assert out == plain

    def test_success_budget_below_one_is_honoured(self, capsys, tmp_path):
        # A wide budget below 1 is honoured as given, not refused.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tolerances": {"success": 0.9}}))
        code, out, _ = run_cli(
            capsys, ["simulate", "--config", str(cfg), "--variant", "bich3", *AUDIT_FLAGS]
        )
        assert code == 0
        assert "success=0.9" in out
        assert "p_strict: 0.75" in out

    def test_success_budget_does_not_widen_the_share_sum_check(self, capsys, tmp_path):
        # The shares miss phi by 5e-4 rad, inside this success budget.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"tolerances": {"success": 0.001}}))
        code, out, err = run_cli(
            capsys,
            ["simulate", "--config", str(cfg), "--shares", "0.55,0.5505", "--phi", "1.1"],
        )
        assert code == 1
        assert out == ""
        assert "not the target phase" in err

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"shares": "12", "target": {"phi": 3.0}}, "shares"),
            ({"shares": [0.5, "0.6"]}, "shares[1]"),
            ({"shares": [0.5, True]}, "shares[1]"),
            ({"n": 2.9}, "n"),
            ({"n": "3"}, "n"),
            ({"trials": 2.5}, "trials"),
            ({"seed": 1.7}, "seed"),
            ({"seed": True}, "seed"),
            ({"tolerances": []}, "tolerances"),
            ({"target": []}, "target"),
            ({"target": {"a": "0.6", "b": 0.8}}, "target.a"),
            ({"target": {"a": 0.6, "bb": 0.8}}, "bb"),
        ],
    )
    def test_wrongly_typed_values_exit_one(self, capsys, tmp_path, doc, key):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        dump = tmp_path / "dump.json"
        for mode in ("exact", "sample"):
            code, out, err = run_cli(
                capsys,
                ["simulate", "--config", str(cfg), "--mode", mode, "--trials", "10",
                 "--dump-config", str(dump)],
            )
            assert code == 1
            assert out == ""
            assert f"'{key}'" in err
        assert not dump.exists()

    @pytest.mark.parametrize(
        "doc, flags",
        [
            ({"variant": "x"}, ["--variant", "improved"]),
            ({"mode": "samples"}, ["--mode", "exact"]),
            ({"format": "yaml"}, ["--format", "text"]),
            ({"semantics": 1}, ["--semantics", "strict"]),
            ({"rule": 5}, ["--rule", "derived"]),
            ({"shares_mode": "rand"}, ["--shares", "0.55,0.55", "--phi", "1.1"]),
        ],
    )
    def test_invalid_values_exit_one_even_when_a_flag_overrides_them(
        self, capsys, tmp_path, doc, flags
    ):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg), *flags])
        assert code == 1
        assert out == ""
        assert f"'{next(iter(doc))}'" in err

    @pytest.mark.parametrize(
        "flags, doc",
        [(["--trials", "0"], None), (["--trials", "-5"], None), ([], {"trials": 0})],
    )
    def test_trial_counts_below_one_exit_one_in_exact_mode(self, capsys, tmp_path, flags, doc):
        if doc is not None:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(doc))
            flags = ["--config", str(cfg)]
        dump = tmp_path / "dump.json"
        code, out, err = run_cli(
            capsys, ["simulate", *flags, "--mode", "exact", "--dump-config", str(dump)]
        )
        assert code == 1
        assert out == ""
        assert "trials" in err and "at least 1" in err
        assert not dump.exists()

    @pytest.mark.parametrize("source", ["flag", "config key"])
    @pytest.mark.parametrize("mode", ["exact", "sample"])
    def test_seeds_above_64_bits_exit_one(self, capsys, tmp_path, source, mode):
        flags = ["--seed", str(2**64)]
        if source == "config key":
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"seed": 2**64}))
            flags = ["--config", str(cfg)]
        dump = tmp_path / "dump.json"
        code, out, err = run_cli(capsys, [
            "simulate", *flags, "--mode", mode, "--trials", "10", "--dump-config", str(dump),
        ])
        assert code == 1
        assert out == ""
        name = "--seed" if source == "flag" else "config key 'seed'"
        assert f"{name} must be at most {2**64 - 1}, got {2**64}" in err
        assert not dump.exists()

    @pytest.mark.parametrize("source", ["flag", "config key"])
    def test_the_greatest_seed_runs_in_sample_mode(self, capsys, tmp_path, source):
        flags = ["--seed", str(2**64 - 1)]
        if source == "config key":
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({"seed": 2**64 - 1}))
            flags = ["--config", str(cfg)]
        code, out, _ = run_cli(
            capsys, ["simulate", *flags, "--mode", "sample", "--trials", "10", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["seed"] == 2**64 - 1

    @pytest.mark.parametrize("n_from", ["--n", "config key 'n'"])
    @pytest.mark.parametrize("shares_from", ["--shares", "config key 'shares'"])
    def test_inconsistent_party_count_names_where_n_and_shares_came_from(
        self, capsys, tmp_path, n_from, shares_from
    ):
        doc, flags = {"target": {"phi": 1.1}}, []
        if n_from == "--n":
            flags += ["--n", "4"]
        else:
            doc["n"] = 4
        if shares_from == "--shares":
            flags += ["--shares", "0.55,0.55"]
        else:
            doc["shares"] = [0.55, 0.55]
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["simulate", "--config", str(cfg), *flags])
        assert code == 1
        assert out == ""
        assert f"error: {n_from} 4 is inconsistent with the 2 shares of {shares_from}\n" == err

    def test_unknown_keys_are_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"varint": "improved"}))
        code, _, err = run_cli(capsys, ["simulate", "--config", str(cfg)])
        assert code == 1
        assert "unknown config keys" in err

    def test_missing_file_is_a_config_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["simulate", "--config", str(tmp_path / "absent.json")]
        )
        assert code == 1
        assert "cannot read config file" in err


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["table", "--variant", "improved"], None),
        (["table", "--semantics", "fidelity"], None),
        (["table", "--mode", "sample"], None),
        (["table", "--trials", "5"], None),
        (["compare-rules", "--variant", "improved"], None),
        (["compare-rules", "--rule", "derived"], None),
        (["compare-rules", "--semantics", "fidelity"], None),
        (["compare-rules", "--mode", "sample"], None),
        (["compare-rules", "--trials", "5"], None),
        (["table"], {"variant": "bich3"}),
        (["table"], {"mode": "sample"}),
        (["compare-rules"], {"tolerances": {"success": 0.9, "probability_floor": 0.5}}),
        (["compare-rules"], {"rule": "table2"}),
    ],
)
def test_options_a_command_does_not_use_exit_one(capsys, tmp_path, argv, doc):
    if doc is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(doc))
        argv = [*argv, "--config", str(cfg)]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a flag the command lacks
        code = exc.code
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err or "unknown config keys" in captured.err


class TestTable:
    def test_derived_rule_matches_everywhere(self, capsys):
        code, out, _ = run_cli(capsys, ["table"])
        assert code == 0
        assert "matches: 32/32" in out
        assert "MISMATCH" not in out

    def test_table2_rule_splits_on_the_leading_bit(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--rule", "table2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["matches"] == 16 and doc["mismatches"] == 16
        for row in doc["rows"]:
            assert row["match"] == (row["l"][0] == "0")

    def test_paper_step3_mismatch_includes_the_flagship_branch(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "--rule", "paper-step3"])
        assert code == 0
        assert "010  00  a|0> + b e^(i phi)|1>      X     I       MISMATCH" in out

    def test_collapsed_column_shows_the_sign(self, capsys):
        _, out, _ = run_cli(capsys, ["table", "--format", "csv"])
        rows = dict(
            (tuple(line.split(",")[:2]), line.split(",")[2])
            for line in out.splitlines() if not line.startswith(("#", "l,"))
        )
        assert rows[("000", "00")] == "a|0> + b e^(i phi)|1>"
        assert rows[("100", "00")] == "a|0> - b e^(i phi)|1>"
        assert rows[("001", "01")] == "a|1> - b e^(i phi)|0>"

    @pytest.mark.parametrize("rule", ["derived", "table2", "paper-step3"])
    @pytest.mark.parametrize("shares_mode", ["equal", "random"])
    def test_collapsed_column_is_the_run_state_up_to_a_global_phase(self, rule, shares_mode):
        rng = np.random.default_rng(5)
        for _ in range(6):
            theta, phi = rng.uniform(0.05, np.pi / 2.0 - 0.05), rng.uniform(0.0, 2.0 * np.pi)
            t = TargetState.from_theta(theta, phi)
            report = run_exact("improved", t, split_phase(phi, 2, shares_mode, rng), rule)
            assert report.pre.shape == (32, 2)
            for pos, pre in enumerate(report.pre):
                l, m = format(pos >> 2, "03b"), format(pos & 3, "02b")
                found = re.fullmatch(r"a\|([01])> ([+-]) b e\^\(i phi\)\|([01])>",
                                     cli._collapsed_expression(l, m))
                keep, sign, flip = found.groups()
                assert int(flip) == 1 - int(keep)
                expr = np.zeros(2, complex)
                expr[int(keep)] = t.a
                expr[int(flip)] = (1 if sign == "+" else -1) * t.b * np.exp(1j * phi)
                overlap = abs(np.vdot(expr, pre)) / np.linalg.norm(pre)
                assert abs(1.0 - overlap) <= 1e-12, (rule, l, m)

    def test_bich3_rule_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["table", "--rule", "table1"])
        assert code == 1
        assert "variant" in err

    def test_party_count_is_pinned(self, capsys):
        code, _, err = run_cli(capsys, ["table", "--n", "4", "--shares-mode", "random"])
        assert code == 1
        assert "n=3" in err


class TestCheckBases:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-max", "13"], "n=13"),
            (["--n-min", "1"], "n=1"),
            (["--n-min", "13", "--n-max", "14"], "n=13"),
            (["--n-min", "5", "--n-max", "3"], "need 2 <= n_min <= n_max, got 5..3"),
        ],
    )
    def test_party_range_is_checked_before_any_basis_is_built(
        self, capsys, monkeypatch, flags, message
    ):
        def refuse(*args):
            raise AssertionError("a basis was built")

        monkeypatch.setattr(verify, "improved_alice_basis", refuse)
        code, out, err = run_cli(capsys, ["check-bases", *flags])
        assert code == 1
        assert out == ""
        assert message in err

    def test_default_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["check-bases", "--samples", "10"])
        assert code == 0
        assert "FAIL" not in out
        for name in ("improved-alice-n2", "improved-alice-n6", "bich3-alice",
                     "bich3-bob-self-inverse", "improved-bob-unitary"):
            assert name in out

    def test_known_bad_fixture_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["check-bases", "--samples", "10", "--fixture", "eq25-as-printed"],
        )
        assert code == 2
        assert "FAIL" in out
        assert "fixture-eq25-as-printed" in out

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["check-bases", "--samples", "5", "--format", "json",
             "--fixture", "eq25-as-printed"],
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["pass"] is False
        by_name = {row["name"]: row for row in doc["checks"]}
        assert by_name["fixture-eq25-as-printed"]["pass"] is False
        assert by_name["fixture-eq25-as-printed"]["max_deviation"] > 0.2
        assert by_name["bich3-alice"]["pass"] is True


class TestErrata:
    def test_text_lists_five_findings(self, capsys):
        code, out, _ = run_cli(capsys, ["errata"])
        assert code == 0
        for ident in ("finding i ", "finding ii ", "finding iii ",
                      "finding iv ", "finding v "):
            assert ident in out

    def test_json_document_shape(self, capsys):
        code, out, _ = run_cli(capsys, ["errata", "--format", "json", "--seed", "4"])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["errata", "tolerances", "seed"]
        assert doc["seed"] == 4
        assert [f["id"] for f in doc["errata"]] == ["i", "ii", "iii", "iv", "v"]
        for finding in doc["errata"]:
            assert list(finding) == ["id", "location", "description", "evidence"]


class TestCompareRulesCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, ["compare-rules", "--format", "json", *AUDIT_FLAGS])
        assert code == 0
        doc = json.loads(out)
        assert doc["rules"] == ["derived", "paper-step3", "table2"]
        assert doc["p_strict"]["derived"] == 1.0
        assert doc["p_strict"]["paper-step3"] == 0.25
        assert doc["p_strict"]["table2"] == 0.5
        assert len(doc["disagreements"]) == 28

    def test_rule_subset(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["compare-rules", "--rules", "derived,table2", "--format", "json",
             *AUDIT_FLAGS],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rules"] == ["derived", "table2"]
        assert len(doc["disagreements"]) == 16

    def test_unknown_rule_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["compare-rules", "--rules", "psychic"])
        assert code == 1
        assert "error" in err


# SHA-256 of simulate stdout, recorded with the per-branch engine and the
# per-branch renderers; every byte of every format must stay the same.
GOLDEN_SIMULATE = [
    ([], {
        "text": "cefc4366d5f0daffbbd38b684576b8e37ca4a144c1b871eb3638c6ff4cc3352c",
        "json": "910328e0eff325da6cd0198a5615f6f344d83a107aa4e95d1aac6a1a1de49478",
        "csv": "d617a6ce70b03fae5a5650c81b9ee0809b7a2e782b9e751cbef566c07aa0a807",
    }),
    (["--n", "8", "--shares-mode", "random", "--seed", "11", "--theta", "0.7"], {
        "text": "54b0dda85d93fdc493d7c06a2d418cfd1744e57c2aa6d014cae4bf8a899223a4",
        "json": "374e8c4e83554be1f93ddd90b3bb38bdc3f802bc75b529dc4678e5b79aa72f93",
        "csv": "4a6f8e1cf2d25dfbf545be30007f6845a4e225f5703deecb3c4f2d4575d41cca",
    }),
    (["--variant", "bich3", "--rule", "table1"], {
        "text": "a4e619aebf8c76797c7b4f2aa11259e14e59bb7dba2da743a7c209232dbbec17",
        "json": "0d0152e543d11066f0073d2e14065fa8640a5510f1821f7b335523a7be9279c8",
        "csv": "4e72ff2e71c72ed8ef5a660214747a64327c6e9ae00e0e99cf20c80a664268d3",
    }),
    (["--variant", "bich3", "--mode", "sample", "--trials", "1000", "--seed", "5"], {
        "text": "215321bdd528a115c8380f2f2a54bed0f815b6a9a55911a8649322dbf5b86cef",
        "json": "676c63635b7f316bd9c780f40ab5a2ad704d53a4f44c75d2fa70ce352e6a67f7",
        "csv": "bd6802bb6e887fb15127327f80aa7cfcd2d1c88dc4d9ed8c3c661071b0b901a6",
    }),
    (["--a", "1", "--b", "0", "--phi", "0"], {
        "text": "827fb77e1e2f054b672318113124af354c66199674c5ec565daf51bf56716711",
        "json": "260ebd8abd70a97731baec88f45abba3ee68065e78a93f4ee67fcc839211556f",
        "csv": "b73b44ab39bf50b11a6d13a8ac9e6259e54e10fb9fe2d01eeffbc9b78cbe105a",
    }),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("flags, digests", GOLDEN_SIMULATE)
def test_simulate_output_bytes_are_pinned(capsys, flags, digests, fmt):
    code, out, _ = run_cli(capsys, ["simulate", *flags, "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]


# SHA-256 of the stdout of the other four commands and their exit codes,
# recorded with one adapter and one renderer per command.
GOLDEN_COMMANDS = [
    (["table", "--rule", "derived"], 0, {
        "text": "f581cf70772b31ed33568d47d98bc524caac17b960383e1d3b663c816a374144",
        "json": "48ff62fbf828e4d9dd88c5ab91ac85089cd480071abf104c5c2bef7148c3c28d",
        "csv": "75f60acd4fb0a85078b8e68a6d262ce56dbb3abb61258e26c68c08234a721fd9",
    }),
    (["table", "--rule", "table2"], 0, {
        "text": "dbfa9575a3ec7fbad0fc92ff9d7aaee1dd9558109421cea0f601c601058f3063",
        "json": "d9ba4736559c244d8b6f64d4ba09f1ba4e045d6086aab6a0ac4e0f6fde06b230",
        "csv": "8a1b3b9297de8d5ad14372caddca64ee7a24cc4f3baba02c32034e6fc9ee8758",
    }),
    (["table", "--rule", "paper-step3"], 0, {
        "text": "25c056aeac47dae93e519ef5322176be8ba3f39c7e56388feb7a73873a477449",
        "json": "3337c033f4253edc46371fabbac18c85499ea2d9abdec08142e9fde63f27d525",
        "csv": "41329afed979cf29a340f3a4915381df04046a68cf83bf813fd2ace6bc457453",
    }),
    (["check-bases", "--samples", "5"], 0, {
        "text": "f0efb928e4eb589d5e91746889a69ee7ca2809c15feb6c8b91f2f4bf030b3cc7",
        "json": "c32eed5e6eea51478d7848c069f87c303095851d346efeb8d26a04ac60e2e702",
        "csv": "ca12815c29b88c17cb85407aea150f79dabb3d8f1092205848b9edf6a501a05b",
    }),
    (["check-bases", "--samples", "5", "--fixture", "eq25-as-printed"], 2, {
        "text": "95ef2189f3c76112418450b16c96332b3b96d7909da9f325a68e3e37865dcbfa",
        "json": "9fe5bf6c881a481677a97bb3dfc84c7cd6df50de54775cc243b1457305c7b10e",
        "csv": "866f0fe327e07094ce9b19dd510137e8d71117e440cd4eecdcf5b90c27fb262e",
    }),
    (["errata", "--seed", "0"], 0, {
        "text": "e00f40b14e795d1063454bb136af59325f24f02c3d7a78cee3a78348b5274441",
        "json": "717d9b3bc2e0e43faf04c38c921c9241685e0282b6f9d524045746bcc9723a8f",
        "csv": "70d7abebc26b934737238f3755007d793715882bf02ebf6b280b9f14bef79e99",
    }),
    (["errata", "--seed", "3"], 0, {
        "text": "6f848fffbe17058d0eaa621b28e2519f2df6711f29a427c8396cf2789c00cf73",
        "json": "8b3609d65f0335d9e0ce753171c328c5522086b5ca20a043438bf360d046ea6f",
        "csv": "f13b220398d80d1c85553a2522edd7d5092e3cf419ab7db572551a2a9e143321",
    }),
    (["compare-rules"], 0, {
        "text": "1694e27bb1e6f9a31331f3fd67bd0534c8b5be0d91faa3805db97c58dcd4faa3",
        "json": "62078fff583761a251aabc938c706c332109f6dd7eb17c09cde0b6df0ee3cbc3",
        "csv": "5ac5b3024ae6c7e51d2736d393920c52f9e06db93f5287e6dd442ffce138e197",
    }),
    (["compare-rules", "--rules", "derived,paper-step3", "--n", "4",
      "--shares-mode", "random", "--seed", "2"], 0, {
        "text": "d03feb00663585c04e61367abe78779a712fe2c1519b6b4b693dce99237dbf8a",
        "json": "1d7f9a0d9ed35e9152f051b6c860b323e0b2630a8a3f9aa718d33fa00dafe640",
        "csv": "3a70ce12288a477cf942dbf22ab5bca1593a8d609044f8623983adaaedb87bf8",
    }),
]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv, exit_code, digests", GOLDEN_COMMANDS)
def test_command_output_bytes_are_pinned(capsys, argv, exit_code, digests, fmt):
    code, out, _ = run_cli(capsys, [*argv, "--format", fmt])
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digests[fmt]


def test_main_reuses_its_parser_without_carrying_state(capsys):
    # The parser is built once per process; an append option's default must
    # not grow from one call to the next.
    argv = ["check-bases", "--fixture", "eq25-as-printed", "--samples", "3"]
    first = run_cli(capsys, argv)
    second = run_cli(capsys, argv)
    assert first == second
    assert first[1].count("fixture-eq25-as-printed") == 1
    assert build_parser() is not build_parser()


def test_parser_exposes_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("simulate", "table", "check-bases", "errata", "compare-rules"):
        assert command in text


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands() -> dict[str, tuple[set[str], set[str]]]:
    """Command name to the (options, config keys) README's command table
    lists for it, with "target options" spelled out."""
    readme = README.read_text()
    readme = readme[readme.index("## Command line"):readme.index("### simulate")]
    target = set(re.search(r"\*target options\* `([^`]*)`", readme).group(1).split())
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \| (.*) \|$", readme, re.M)
    commands = {}
    for name, options, keys in rows:
        listed = set(re.findall(r"--[\w-]+", options))
        if options.startswith("target options"):
            listed |= target
        commands[name] = (listed, set(" ".join(re.findall(r"`([^`]*)`", keys)).split()))
    return commands


def test_readme_command_table_matches_the_parser():
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    config_keys = {
        "simulate": cli._SIMULATE_KEYS,
        "table": cli._TABLE_KEYS,
        "compare-rules": cli._TARGET_KEYS,
        "check-bases": set(),
        "errata": set(),
    }
    documented = _readme_commands()
    assert set(documented) == set(subparsers) == set(config_keys)
    for name, (options, keys) in documented.items():
        parsed = {
            opt for action in subparsers[name]._actions
            for opt in action.option_strings if opt != "--help" and opt.startswith("--")
        }
        assert options == parsed, name
        assert keys == set(config_keys[name]), name


def _readme_sh_blocks() -> list[list[str]]:
    """The lines of each ```sh block in README, read as Markdown reads them:
    only a plain ``` line closes a fence."""
    blocks, fence = [], None
    for line in README.read_text().splitlines():
        if fence is None:
            if line.startswith("```"):
                fence, lines = line, []
        elif line == "```":
            if fence == "```sh":
                blocks.append(lines)
            fence = None
        else:
            lines.append(line)
    return blocks


def test_readme_sh_fences_close_plainly():
    # A second ```sh before the closing fence is printed as code.
    for lines in _readme_sh_blocks():
        assert not [line for line in lines if line.startswith("```")], lines


@pytest.mark.parametrize("line", [
    line for block in _readme_sh_blocks() for line in block if line.startswith("jrsp ")
])
def test_readme_examples_run(capsys, line):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)[1:]
    code, out, _ = run_cli(capsys, argv)
    assert code == (2 if "--fixture eq25-as-printed" in command else 0)
    if argv[0] == "table":
        stated = re.search(r"(\d+/32) match", comment).group(1)
        assert f"matches: {stated}\n" in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jrsp.cli", "simulate", "--variant", "bich3",
         "--assert-p", "0.25"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "jrsp", "errata", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["seed"] == 0
