"""Command-line front end.

Five commands, each taking only the options it uses:

- simulate: run a protocol and print the branch report.  Target options
  plus --variant --rule --semantics --mode --trials --assert-p --assert-tol
  --dump-config.
- table: the three-party recovery listing with an oracle column.  Target
  options plus --rule.
- compare-rules: side-by-side rule adjudication.  Target options plus
  --rules.
- check-bases: basis health checks over random targets.  --n-min --n-max
  --samples --seed --fixture --format.
- errata: the findings report.  --seed --format.

The target options are --config --n --a --b --theta --phi --shares
--shares-mode --seed --format.  Flags are merged over a JSON config file
given with --config; flags win, and a config key the command does not use
is rejected.  --dump-config writes back the fully resolved configuration,
which reproduces the run byte for byte.  Exit codes are 0 for success, 1
for configuration or usage errors, and 2 when an assertion or verification
check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .bases import RULES, TargetState
from .protocol import VARIANTS, ProtocolReport, _check_party_count, run_exact, run_sampled, split_phase
from .qcore import DEFAULT_TOL, RecoveryOp, Tolerances
from .verify import SEMANTICS, check_bases, compare_rules, detect_errata, oracle_branches, success_probability

__all__ = ["main"]

_FORMATS = ("text", "json", "csv")
_MODES = ("exact", "sample")
_SHARE_MODES = ("equal", "random")
_FIXTURES = ("eq25-as-printed",)

_DEF = {
    "variant": "improved",
    "n": 3,
    "a": 0.6,
    "b": 0.8,
    "phi": 1.1,
    "shares_mode": "equal",
    "semantics": "strict",
    "mode": "exact",
    "trials": 100000,
    "seed": 0,
    "format": "text",
}

# Config keys each command accepts; compare_rules runs at DEFAULT_TOL, so
# compare-rules takes no tolerances.
_TARGET_KEYS = frozenset({"n", "target", "shares", "shares_mode", "seed", "format"})
_TABLE_KEYS = _TARGET_KEYS | {"rule", "tolerances"}
_SIMULATE_KEYS = _TABLE_KEYS | {"variant", "semantics", "mode", "trials"}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; every field is concrete.

    dataclasses.asdict(config) is its canonical JSON form: reloading it
    reproduces this config exactly.
    """

    variant: str
    n: int
    target: TargetState
    shares: tuple[float, ...]
    rule: str
    semantics: str
    mode: str
    trials: int
    seed: int
    tolerances: Tolerances
    format: str


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _g(x: float) -> str:
    """Report-grade rendering of a float, 12 significant digits."""
    return f"{x:.12g}"


def _jnum(x: float) -> float:
    """Float rounded to the 12 significant digits the reports print."""
    return float(f"{x:.12g}")


def _write(lines: Sequence[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _write_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return raw


# Config values are taken at their JSON type, never coerced: a string is
# not a list of shares, and 2.9 is not the integer 2.  JSON true and false
# are not numbers either, although Python's bool is an int.

def _json_int(value, key: str) -> int | None:
    """An integer config value, or None when the key is absent."""
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)):
        raise ValueError(f"config key {key!r} must be an integer, got {value!r}")
    return value


def _json_number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config value {key!r} must be a number, got {value!r}")
    return float(value)


def _json_object(value, key: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"config key {key!r} must be an object, got {value!r}")
    return value


def _pick(flag, file_value, default):
    if flag is not None:
        return flag
    if file_value is not None:
        return file_value
    return default


def _enum(value, allowed, what: str):
    if value not in allowed:
        raise ValueError(f"{what} must be one of {list(allowed)}, got {value!r}")
    return value


def _parse_shares(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise ValueError(f"could not parse share list {text!r}") from None
    if not values:
        raise ValueError("share list is empty")
    return values


def _resolve_config(args: argparse.Namespace, keys: frozenset[str]) -> RunConfig:
    """Merge flags over the --config file over defaults into a RunConfig.

    keys are the config keys the command accepts.  A run option the command
    does not take is absent from both args and the file, so it resolves to
    its default.
    """
    filed = _load_config(args.config)
    unknown = set(filed) - keys
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    flags = vars(args)
    variant = _enum(_pick(flags.get("variant"), filed.get("variant"), _DEF["variant"]),
                    VARIANTS, "variant")
    semantics = _enum(
        _pick(flags.get("semantics"), filed.get("semantics"), _DEF["semantics"]),
        SEMANTICS, "semantics",
    )
    mode = _enum(_pick(flags.get("mode"), filed.get("mode"), _DEF["mode"]), _MODES, "mode")
    fmt = _enum(_pick(args.format, filed.get("format"), _DEF["format"]),
                _FORMATS, "format")
    trials = _pick(flags.get("trials"), _json_int(filed.get("trials"), "trials"),
                   _DEF["trials"])
    seed = _pick(args.seed, _json_int(filed.get("seed"), "seed"), _DEF["seed"])
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")

    tol_file = _json_object(filed.get("tolerances"), "tolerances")
    unknown = set(tol_file) - {field.name for field in fields(Tolerances)}
    if unknown:
        raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
    tol_file = {key: _json_number(value, f"tolerances.{key}") for key, value in tol_file.items()}
    # Only success is settable; a file may repeat the fixed budgets, as
    # --dump-config does.
    settable = {field.name for field in fields(Tolerances) if field.init}
    for key, value in tol_file.items():
        if key not in settable and value != getattr(DEFAULT_TOL, key):
            raise ValueError(f"tolerances.{key} is fixed at {getattr(DEFAULT_TOL, key)!r}, "
                             f"got {value!r}")
    tolerances = Tolerances(**{key: tol_file[key] for key in tol_file if key in settable})

    target_file = {
        key: _json_number(value, f"target.{key}")
        for key, value in _json_object(filed.get("target"), "target").items()
    }
    unknown = set(target_file) - {"a", "b", "phi"}
    if unknown:
        raise ValueError(f"unknown target keys: {sorted(unknown)}")
    phi = float(_pick(args.phi, target_file.get("phi"), _DEF["phi"]))
    if args.theta is not None:
        if args.a is not None or args.b is not None:
            raise ValueError("give either --theta or --a/--b, not both")
        target = TargetState.from_theta(args.theta, phi)
    else:
        if (args.a is None) != (args.b is None):
            raise ValueError("--a and --b must be given together")
        a = float(_pick(args.a, target_file.get("a"), _DEF["a"]))
        b = float(_pick(args.b, target_file.get("b"), _DEF["b"]))
        target = TargetState(a, b, phi)

    shares_flag = _parse_shares(args.shares) if args.shares is not None else None
    shares_file = filed.get("shares")
    if shares_file is not None:
        if not isinstance(shares_file, list):
            raise ValueError(f"config key 'shares' must be a list, got {shares_file!r}")
        shares_file = tuple(
            _json_number(v, f"shares[{i}]") for i, v in enumerate(shares_file)
        )
    shares = _pick(shares_flag, shares_file, None)
    n_given = _pick(args.n, _json_int(filed.get("n"), "n"), None)
    if shares is not None:
        n = len(shares) + 1
        if n_given is not None and n_given != n:
            raise ValueError(
                f"--n {n_given} is inconsistent with {len(shares)} explicit shares"
            )
    else:
        n = n_given if n_given is not None else _DEF["n"]
        _check_party_count(n)
        shares_mode = _enum(
            _pick(args.shares_mode, filed.get("shares_mode"), _DEF["shares_mode"]),
            _SHARE_MODES, "shares mode",
        )
        shares = split_phase(target.phi, n - 1, shares_mode, np.random.default_rng(seed))

    rule = _pick(flags.get("rule"), filed.get("rule"), None)
    if rule is None:
        rule = "table1" if variant == "bich3" else "derived"
    if not isinstance(rule, str) or rule not in RULES:
        raise ValueError(f"unknown rule {rule!r}, expected one of {sorted(RULES)}")

    return RunConfig(
        variant=variant,
        n=n,
        target=target,
        shares=tuple(shares),
        rule=rule,
        semantics=semantics,
        mode=mode,
        trials=trials,
        seed=seed,
        tolerances=tolerances,
        format=fmt,
    )


def _graded(values: np.ndarray) -> list[tuple[str, str]]:
    """(repr(x), _g(x)) for x = _jnum(v), for every entry of a float column.

    repr(x) is how json.dumps prints a finite float, and _g(x) is the text
    and csv form.  Each distinct bit pattern is rounded and printed once;
    keying on the bits, not on the value, keeps -0.0 apart from 0.0.
    """
    keys, inverse = np.unique(
        np.ascontiguousarray(values, dtype=np.float64).view(np.uint64),
        return_inverse=True,
    )
    graded = [(repr(x), _g(x)) for x in map(_jnum, keys.view(np.float64).tolist())]
    return [graded[i] for i in inverse.ravel().tolist()]


def _printed_prob(report: ProtocolReport) -> np.ndarray:
    """The prob column as reported: exact, or a sampled run's frequencies."""
    if report.mode == "sampled":
        return np.array(report.counts) / report.trials
    return report.prob


def _branch_rows(report: ProtocolReport) -> list[tuple]:
    """One report-grade row per branch, read off the report's columns.

    A row is (l, m, prob, recovery, fidelity, strict, phase_re, phase_im);
    every number is rounded to 12 digits and given as its (json, text) pair
    from _graded, and the phase parts are None off faithful branches.
    Every format renders these rows, so all three carry the same numbers.
    """
    n, helpers = report.n, report.n - 1
    l_txt = [format(l, f"0{n}b") for l in range(1 << n)]
    m_txt = [format(m, f"0{helpers}b") for m in range(1 << helpers)]
    labels = [RecoveryOp.from_code(code).label for code in range(4)]
    rows = []
    for pos, (p, op, fid, strict, faithful, re, im) in enumerate(zip(
        _graded(_printed_prob(report)), report.ops.tolist(),
        _graded(report.fidelity), report.strict.tolist(), report.faithful.tolist(),
        _graded(report.phase.real), _graded(report.phase.imag),
    )):
        rows.append((
            l_txt[pos >> helpers], m_txt[pos & ((1 << helpers) - 1)], p, labels[op],
            fid, strict, re if faithful else None, im if faithful else None,
        ))
    return rows


def _target_doc(t: TargetState) -> dict:
    return {"a": _jnum(t.a), "b": _jnum(t.b), "phi": _jnum(t.phi)}


# Stands in for the branches array while json.dumps lays out the rest of
# the simulate report.
_BRANCHES = "\0branches\0"

# One branch of the simulate report, laid out as json.dumps(doc, indent=2)
# lays out a branch dict at that depth; l, m and recovery need no escaping.
_JSON_ROW = (
    '    {\n      "l": "%s",\n      "m": "%s",\n      "prob": %s,\n'
    '      "recovery": "%s",\n      "fidelity": %s,\n      "strict": %s,\n'
    '      "residual_phase": %s\n    }'
)
_JSON_PHASE = '{\n        "re": %s,\n        "im": %s\n      }'


def _report_doc(config: RunConfig, report: ProtocolReport) -> dict:
    """The simulate json report, with _BRANCHES in place of the branches."""
    return {
        "variant": report.variant,
        "n": report.n,
        "target": _target_doc(report.target),
        "shares": [_jnum(v) for v in report.shares],
        "rule": report.rule,
        "semantics": config.semantics,
        "branches": _BRANCHES,
        "p_strict": _jnum(report.p_strict),
        "p_fidelity": _jnum(report.p_fidelity),
        "errata": [],
        "tolerances": asdict(report.tolerances),
        "seed": report.seed,
    }


def _write_report_json(config: RunConfig, report: ProtocolReport) -> None:
    """Write the simulate json report, the bytes of json.dumps(doc, indent=2).

    The keys around the branches go through json.dumps; the branches are
    filled into _JSON_ROW from the rows every format shares, which skips
    the pure-Python encoder that indent selects.  A non-finite value, which
    json.dumps would print as NaN or Infinity, raises ValueError before
    anything is written.
    """
    printed = (_printed_prob(report), report.fidelity, report.phase[report.faithful])
    if not all(np.isfinite(column).all() for column in printed):
        raise ValueError("the report holds a non-finite number, which JSON cannot carry")
    head, _, tail = json.dumps(_report_doc(config, report), indent=2,
                               allow_nan=False).partition(json.dumps(_BRANCHES))
    rows = [
        _JSON_ROW % (l, m, prob[0], op, fid[0], "true" if strict else "false",
                     "null" if re is None else _JSON_PHASE % (re[0], im[0]))
        for l, m, prob, op, fid, strict, re, im in _branch_rows(report)
    ]
    sys.stdout.write(head + "[\n")
    sys.stdout.write(",\n".join(rows))
    sys.stdout.write("\n  ]" + tail + "\n")


def _tol_txt(tol: Tolerances) -> str:
    return " ".join(f"{key}={_g(value)}" for key, value in asdict(tol).items())


def _render_report_text(config: RunConfig, report: ProtocolReport) -> str:
    lines = [
        f"variant: {report.variant}",
        f"n: {report.n}",
        f"target: a={_g(report.target.a)} b={_g(report.target.b)} phi={_g(report.target.phi)}",
        "shares: " + " ".join(_g(v) for v in report.shares),
        f"rule: {report.rule}",
        f"semantics: {config.semantics}",
        f"mode: {report.mode}",
        f"trials: {report.trials if report.trials is not None else '-'}",
        f"seed: {report.seed if report.seed is not None else '-'}",
        f"tolerances: {_tol_txt(report.tolerances)}",
        "",
    ]
    l_width, m_width = max(1, report.n), max(1, report.n - 1)
    header = f"{'l':<{l_width}}  {'m':<{m_width}}  "
    header += f"{'prob':<16}  {'recovery':<8}  {'fidelity':<16}  {'strict':<6}  residual_phase"
    lines.append(header)
    for l, m, prob, op, fid, strict, re, im in _branch_rows(report):
        if re is None:
            phase_txt = "-"
        else:
            sign = "" if im[1].startswith("-") else "+"
            phase_txt = f"{re[1]}{sign}{im[1]}j"
        lines.append(
            f"{l:<{l_width}}  {m:<{m_width}}  {prob[1]:<16}  {op:<8}  {fid[1]:<16}  "
            f"{'yes' if strict else 'no':<6}  {phase_txt}"
        )
    lines += [
        "",
        f"p_strict: {_g(report.p_strict)}",
        f"p_fidelity: {_g(report.p_fidelity)}",
        f"success_probability[{config.semantics}]: "
        f"{_g(success_probability(report, config.semantics))}",
    ]
    return "\n".join(lines) + "\n"


def _render_report_csv(config: RunConfig, report: ProtocolReport) -> str:
    lines = [
        f"# variant={report.variant}",
        f"# n={report.n}",
        f"# target_a={_g(report.target.a)}",
        f"# target_b={_g(report.target.b)}",
        f"# target_phi={_g(report.target.phi)}",
        "# shares=" + ";".join(_g(v) for v in report.shares),
        f"# rule={report.rule}",
        f"# semantics={config.semantics}",
        f"# mode={report.mode}",
        f"# trials={report.trials if report.trials is not None else ''}",
        f"# seed={report.seed if report.seed is not None else ''}",
        f"# p_strict={_g(report.p_strict)}",
        f"# p_fidelity={_g(report.p_fidelity)}",
        f"# tolerances={_tol_txt(report.tolerances)}",
        "l,m,prob,recovery,fidelity,strict,residual_phase_re,residual_phase_im",
    ]
    for l, m, prob, op, fid, strict, re, im in _branch_rows(report):
        re_txt = "" if re is None else re[1]
        im_txt = "" if im is None else im[1]
        lines.append(
            f"{l},{m},{prob[1]},{op},{fid[1]},{'true' if strict else 'false'},"
            f"{re_txt},{im_txt}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one protocol configuration and print its branch report.

    Returns 0 normally and 2 when an --assert-p check fails; configuration
    problems raise ValueError before anything is printed.
    """
    if args.assert_p is not None and not math.isfinite(args.assert_p):
        raise ValueError(f"--assert-p must be finite, got {args.assert_p!r}")
    if not (math.isfinite(args.assert_tol) and args.assert_tol >= 0.0):
        raise ValueError(
            f"--assert-tol must be finite and nonnegative, got {args.assert_tol!r}"
        )
    config = _resolve_config(args, _SIMULATE_KEYS)
    if config.mode == "sample":
        report = run_sampled(
            config.variant, config.target, config.shares, config.rule,
            config.trials, config.seed, config.tolerances,
        )
    else:
        report = run_exact(
            config.variant, config.target, config.shares, config.rule,
            config.tolerances,
        )
        report = replace(report, seed=config.seed)
    if args.dump_config is not None:
        Path(args.dump_config).write_text(json.dumps(asdict(config), indent=2) + "\n")
    if config.format == "json":
        _write_report_json(config, report)
    elif config.format == "csv":
        sys.stdout.write(_render_report_csv(config, report))
    else:
        sys.stdout.write(_render_report_text(config, report))
    if args.assert_p is not None:
        p = success_probability(report, config.semantics)
        if abs(p - args.assert_p) > args.assert_tol:
            sys.stderr.write(
                f"assertion failed: p[{config.semantics}] = {_g(p)} is not "
                f"within {_g(args.assert_tol)} of {_g(args.assert_p)}\n"
            )
            return 2
    return 0


def _collapsed_expression(l: str, m: str) -> str:
    """Symbolic receiver state before recovery, from the derived closed form."""
    sign = (int(l[0]) + m.count("1")) % 2
    keep = int(l[-1])
    joiner = "-" if sign else "+"
    return f"a|{keep}> {joiner} b e^(i phi)|{1 - keep}>"


def cmd_table(args: argparse.Namespace) -> int:
    """Print the three-party recovery listing with an oracle column.

    Every row shows the collapsed receiver state, the configured rule's
    operator, the oracle's operator, and whether they agree.
    """
    config = _resolve_config(args, _TABLE_KEYS)
    if config.n != 3:
        raise ValueError(f"the table listing covers n=3, got n={config.n}")
    report = run_exact(
        "improved", config.target, config.shares, config.rule, config.tolerances
    )
    rows = []
    for pos, (code, best) in enumerate(zip(report.ops.tolist(), oracle_branches(report))):
        l, m = format(pos >> 2, "03b"), format(pos & 3, "02b")
        rule_label = RecoveryOp.from_code(code).label
        oracle_label = best[0].label
        rows.append({
            "l": l,
            "m": m,
            "collapsed": _collapsed_expression(l, m),
            "rule_op": rule_label,
            "oracle_op": oracle_label,
            "match": rule_label == oracle_label,
        })
    matches = sum(1 for row in rows if row["match"])
    if config.format == "json":
        _write_json({
            "rule": config.rule,
            "target": _target_doc(config.target),
            "shares": [_jnum(v) for v in config.shares],
            "rows": rows,
            "matches": matches,
            "mismatches": len(rows) - matches,
        })
    elif config.format == "csv":
        lines = [f"# rule={config.rule}", "l,m,collapsed,rule_op,oracle_op,match"]
        for row in rows:
            lines.append(
                f"{row['l']},{row['m']},{row['collapsed']},{row['rule_op']},"
                f"{row['oracle_op']},{'match' if row['match'] else 'MISMATCH'}"
            )
        lines.append(f"# matches={matches}/{len(rows)}")
        _write(lines)
    else:
        lines = [
            f"rule: {config.rule}",
            f"target: a={_g(config.target.a)} b={_g(config.target.b)} "
            f"phi={_g(config.target.phi)}",
            "shares: " + " ".join(_g(v) for v in config.shares),
            "",
            f"{'l':<4} {'m':<3} {'collapsed state':<26} {'rule':<5} {'oracle':<7} verdict",
        ]
        for row in rows:
            verdict = "match" if row["match"] else "MISMATCH"
            lines.append(
                f"{row['l']:<4} {row['m']:<3} {row['collapsed']:<26} "
                f"{row['rule_op']:<5} {row['oracle_op']:<7} {verdict}"
            )
        lines += ["", f"matches: {matches}/{len(rows)}"]
        _write(lines)
    return 0


def cmd_check_bases(args: argparse.Namespace) -> int:
    """Run the basis health checks and print a pass/fail summary.

    Returns 0 when every checked construction passes and 2 otherwise, so a
    requested known-bad fixture turns the exit code red on purpose.
    """
    rows = check_bases(args.n_min, args.n_max, args.samples, args.seed, args.fixture)
    all_ok = all(ok for _, _, ok in rows)
    if args.format == "json":
        _write_json({
            "checks": [
                {"name": name, "max_deviation": _jnum(dev), "pass": ok}
                for name, dev, ok in rows
            ],
            "pass": all_ok,
            "seed": args.seed,
            "samples": args.samples,
        })
    elif args.format == "csv":
        lines = ["name,max_deviation,pass"]
        lines += [f"{name},{_g(dev)},{str(ok).lower()}" for name, dev, ok in rows]
        _write(lines)
    else:
        lines = [
            f"{'PASS' if ok else 'FAIL'}  {name:<24} max deviation {_g(dev)}"
            for name, dev, ok in rows
        ]
        lines.append(f"result: {'all checks passed' if all_ok else 'FAILURES present'}")
        _write(lines)
    return 0 if all_ok else 2


def cmd_errata(args: argparse.Namespace) -> int:
    """Print the findings report on the manuscript's internal inconsistencies."""
    findings = detect_errata(args.seed)
    if args.format == "json":
        _write_json({
            "errata": [asdict(f) for f in findings],
            "tolerances": asdict(DEFAULT_TOL),
            "seed": args.seed,
        })
    elif args.format == "csv":
        lines = ["id,location,description,evidence"]
        for f in findings:
            desc = f.description.replace('"', "'")
            ev = json.dumps(f.evidence).replace('"', "'")
            lines.append(f'{f.id},"{f.location}","{desc}","{ev}"')
        _write(lines)
    else:
        lines = []
        for f in findings:
            lines += [
                "",
                f"finding {f.id} [{f.location}]",
                f"  {f.description}",
                f"  evidence: {json.dumps(f.evidence)}",
            ]
        _write(lines[1:])
    return 0


def cmd_compare_rules(args: argparse.Namespace) -> int:
    """Adjudicate several recovery rules on identical branches and print it."""
    config = _resolve_config(args, _TARGET_KEYS)
    rules = [part.strip() for part in args.rules.split(",") if part.strip()]
    comparison = compare_rules(config.target, config.shares, config.n, rules)
    names = list(dict.fromkeys(comparison.rules))
    if config.format == "json":
        _write_json({
            "rules": list(comparison.rules),
            "p_strict": {k: _jnum(v) for k, v in comparison.p_strict.items()},
            "p_fidelity": {k: _jnum(v) for k, v in comparison.p_fidelity.items()},
            "disagreements": [
                {"l": l, "m": m, "ops": ops}
                for l, m, ops in comparison.disagreements
            ],
        })
    elif config.format == "csv":
        lines = ["rule,p_strict,p_fidelity"]
        for name in names:
            lines.append(
                f"{name},{_g(comparison.p_strict[name])},{_g(comparison.p_fidelity[name])}"
            )
        lines.append("")
        lines.append("l,m," + ",".join(names))
        for l, m, ops in comparison.disagreements:
            lines.append(f"{l},{m}," + ",".join(ops[name] for name in names))
        _write(lines)
    else:
        lines = [f"{'rule':<14} {'p_strict':<12} p_fidelity"]
        for name in names:
            lines.append(
                f"{name:<14} {_g(comparison.p_strict[name]):<12} "
                f"{_g(comparison.p_fidelity[name])}"
            )
        lines.append("")
        lines.append(f"disagreements: {len(comparison.disagreements)}")
        for l, m, ops in comparison.disagreements:
            ops_txt = " ".join(f"{name}={ops[name]}" for name in names)
            lines.append(f"  l={l} m={m}  {ops_txt}")
        _write(lines)
    return 0


def _seed(text: str) -> int:
    """argparse type of every --seed flag: a nonnegative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {seed}")
    return seed


def _target_flags() -> argparse.ArgumentParser:
    """Parent parser of the options that pick a target and an output format."""
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--config", help="JSON config file; flags override its values")
    target.add_argument("--n", type=int, help="party count (helpers plus one)")
    target.add_argument("--a", type=float, help="target amplitude of |0>")
    target.add_argument("--b", type=float, help="target amplitude of |1>")
    target.add_argument("--theta", type=float,
                        help="angle form: a=cos(theta), b=sin(theta)")
    target.add_argument("--phi", type=float, help="target relative phase, radians")
    target.add_argument("--shares", help="explicit phase shares, comma separated")
    target.add_argument("--shares-mode", choices=_SHARE_MODES, dest="shares_mode",
                        help="how to split phi when --shares is absent")
    target.add_argument("--seed", type=_seed, help="seed for sampling and random shares")
    target.add_argument("--format", choices=_FORMATS, help="output format")
    return target


def build_parser() -> _Parser:
    parser = _Parser(
        prog="jrsp",
        description=(
            "Branch-exact simulator and verifier for deterministic joint "
            "remote state preparation over EPR pairs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    target = _target_flags()
    rule_help = "recovery rule; defaults to the variant's own rule"

    sim = sub.add_parser("simulate", parents=[target],
                         help="run a protocol and print the branch report")
    sim.add_argument("--variant", choices=VARIANTS)
    sim.add_argument("--rule", choices=tuple(RULES), help=rule_help)
    sim.add_argument("--semantics", choices=SEMANTICS,
                     help="success notion for the headline number")
    sim.add_argument("--mode", choices=_MODES, help="exact enumeration or sampling")
    sim.add_argument("--trials", type=int, help="sample count for --mode sample")
    sim.add_argument("--assert-p", type=float, dest="assert_p",
                     help="exit 2 unless the headline probability matches")
    sim.add_argument("--assert-tol", type=float, default=1e-9, dest="assert_tol",
                     help="tolerance for --assert-p (default 1e-9)")
    sim.add_argument("--dump-config", dest="dump_config",
                     help="write the resolved config to this path")
    sim.set_defaults(func=cmd_simulate)

    tab = sub.add_parser("table", parents=[target],
                         help="recovery listing with an oracle column (n=3)")
    tab.add_argument("--rule", choices=tuple(RULES), help=rule_help)
    tab.set_defaults(func=cmd_table)

    # Exact option names only, so --rule is refused rather than read as --rules.
    cmp_parser = sub.add_parser("compare-rules", parents=[target], allow_abbrev=False,
                                help="diff recovery rules on identical branches")
    cmp_parser.add_argument("--rules", default="derived,paper-step3,table2",
                            help="comma separated rule names")
    cmp_parser.set_defaults(func=cmd_compare_rules)

    chk = sub.add_parser("check-bases", help="basis health checks")
    chk.add_argument("--n-min", type=int, default=2, dest="n_min")
    chk.add_argument("--n-max", type=int, default=6, dest="n_max")
    chk.add_argument("--samples", type=int, default=100)
    chk.add_argument("--seed", type=_seed, default=0)
    chk.add_argument("--fixture", action="append", choices=_FIXTURES, default=[],
                     help="also check a known-bad printed construction")
    chk.add_argument("--format", choices=_FORMATS, default="text")
    chk.set_defaults(func=cmd_check_bases)

    err = sub.add_parser("errata", help="findings on the manuscript under audit")
    err.add_argument("--seed", type=_seed, default=0)
    err.add_argument("--format", choices=_FORMATS, default="text")
    err.set_defaults(func=cmd_errata)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
