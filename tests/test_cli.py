"""Tests for the command-line interface, its formats and its exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

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
        ],
    )
    def test_config_errors_exit_one(self, capsys, argv):
        code, _, err = run_cli(capsys, argv)
        assert code == 1
        assert "error" in err.lower()

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

    def test_bich3_rule_is_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["table", "--rule", "table1"])
        assert code == 1
        assert "variant" in err

    def test_party_count_is_pinned(self, capsys):
        code, _, err = run_cli(capsys, ["table", "--n", "4", "--shares-mode", "random"])
        assert code == 1
        assert "n=3" in err


class TestCheckBases:
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


def test_parser_exposes_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for command in ("simulate", "table", "check-bases", "errata", "compare-rules"):
        assert command in text


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
