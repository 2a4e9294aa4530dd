"""Command-line interface: dispatch, config handling, formats, exit codes."""

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gateprog.cli as cli
import gateprog.reporting as reporting
from gateprog.scoring import ConvergenceError, ScoreMatrix
from gateprog.verify import CheckResult


def run_capture(capsys, argv):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProtocolCommand:
    def test_json_output(self, capsys):
        code, out, _ = run_capture(capsys, ["protocol", "--d", "2", "--n", "8", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["fidelity_qstar"] == pytest.approx(0.890165042945)
        assert payload["dP_exact"] == "164"
        assert all(payload["pass_flags"].values())

    def test_degenerate_regime_exits_1(self, capsys):
        code, _, err = run_capture(capsys, ["protocol", "--d", "3", "--n", "12"])
        assert code == 1
        assert "degenerate weight regime" in err

    def test_missing_argument_exits_1(self, capsys):
        code, _, err = run_capture(capsys, ["protocol", "--d", "2"])
        assert code == 1
        assert "requires --n" in err

    def test_oversized_lattice_exits_1(self, capsys):
        # d=3 n=8000 has N = 1143: the report's corner is built, its 1143^2-member solve
        # is not
        code, out, err = run_capture(capsys, ["protocol", "--d", "3", "--n", "8000"])
        assert code == 1
        assert out == ""
        assert err == ("error: lattice too large: dimension = 1306449^1 = 1306449 members "
                       "exceeds the budget of 1048576 members\n")

    @pytest.mark.parametrize("n", [str(2**63), str(10**30)])
    def test_rows_past_int64_exit_1(self, capsys, n):
        code, out, err = run_capture(capsys, ["protocol", "--d", "2", "--n", n])
        assert code == 1 and out == ""
        assert err == f"error: n={n} exceeds 2^63 - 1, the int64 limit of the lattice rows\n"

    def test_lattice_of_millions_of_digits_exits_1(self, capsys):
        # N = 2 and d - 1 = 2999999: the count 2^2999999 is too long to spell out
        code, out, err = run_capture(capsys, ["protocol", "--d", "3000000", "--n", "30000000000000"])
        assert code == 1 and out == ""
        assert err == (
            "error: lattice too large: N^(d-1) = 2^2999999 members at n=30000000000000, "
            "d=3000000 exceeds the budget of 1048576 members\n"
        )

    def test_solver_failure_exits_1(self, capsys, monkeypatch):
        # at d=3: a d=2 report takes its optimum in closed form and runs no solver
        def no_convergence(matrix):
            raise ConvergenceError("residual 1.0e-08")

        monkeypatch.setattr(reporting, "optimal_fidelity", no_convergence)
        code, out, err = run_capture(capsys, ["protocol", "--d", "3", "--n", "26"])
        assert code == 1
        assert out == ""
        assert err == "error: eigensolver did not converge: residual 1.0e-08\n"

    def test_byte_identical_output(self, capsys):
        _, first, _ = run_capture(capsys, ["protocol", "--d", "2", "--n", "16", "--format", "json"])
        _, second, _ = run_capture(capsys, ["protocol", "--d", "2", "--n", "16", "--format", "json"])
        assert first == second

    def test_module_entry_point(self, capsys):
        argv = ["protocol", "--d", "2", "--n", "8", "--format", "json"]
        src = Path(__file__).resolve().parents[1] / "src"
        child = subprocess.run(
            [sys.executable, "-m", "gateprog", *argv], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
        )
        _, expected, _ = run_capture(capsys, argv)
        assert child.returncode == 0, child.stderr
        assert child.stdout == expected

    def test_csv_format_uses_report_schema(self, capsys):
        code, out, _ = run_capture(capsys, ["protocol", "--d", "2", "--n", "4", "--format", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("d,n,N,n0,set_size")
        assert row.startswith("2,4,2,0,2")


class TestBoundsCommand:
    def test_reference_point(self, capsys):
        code, out, _ = run_capture(
            capsys, ["bounds", "--d", "2", "--eps", "1e-6", "--delta", "0.1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["lower_bits"] == pytest.approx(5.86558709453)
        assert payload["upper_bits"] == pytest.approx(42.8616162467)

    def test_optimized_delta_when_flag_absent(self, capsys):
        code, out, _ = run_capture(capsys, ["bounds", "--d", "2", "--eps", "1e-6", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["delta_optimized"] is True
        assert payload["lower_bits"] > 5.87

    def test_bad_epsilon_exits_1(self, capsys):
        code, _, err = run_capture(capsys, ["bounds", "--d", "2", "--eps", "2.0"])
        assert code == 1
        assert "error:" in err


class TestSweepCommand:
    def test_json_payload(self, capsys):
        code, out, _ = run_capture(
            capsys,
            ["sweep", "--d", "2", "--n-min", "8", "--n-max", "16", "--n-step", "4",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["reports"]) == 3
        assert payload["slope"] < -1.5

    def test_too_few_points_exits_1(self, capsys):
        code, _, err = run_capture(
            capsys, ["sweep", "--d", "2", "--n-min", "8", "--n-max", "8"]
        )
        assert code == 1
        assert "at least 3" in err

    @pytest.mark.parametrize("d,n_min,size", [("3", "8000", " = 1306449"),
                                              ("30", "3000", " = 536870912")])
    def test_oversized_lattice_exits_1_before_any_solve(self, capsys, monkeypatch, d,
                                                        n_min, size):
        # d=3 is refused by the solve, d=30 by the corner of its first report
        def refuse(matrix, *args):
            raise AssertionError(f"the solve used the ({matrix.d}, {matrix.N}) box")

        for method in ("preconditioner", "start", "matvec"):
            monkeypatch.setattr(ScoreMatrix, method, refuse)
        argv = ["sweep", "--d", d, "--n-min", n_min, "--n-max", str(int(n_min) + 2)]
        code, out, err = run_capture(capsys, argv)
        assert code == 1 and out == ""
        where = f" at n={n_min}, d={d}" if d == "30" else ""  # the solve does not know n
        assert err.startswith("error: lattice too large: ")
        assert err.endswith(f"{size} members{where} exceeds the budget of 1048576 members\n")

    SWEEP_CSV = ["sweep", "--d", "2", "--n-min", "8", "--n-max", "16", "--n-step", "4",
                 "--format", "csv"]

    def test_csv_builds_each_report_dict_once(self, capsys, monkeypatch):
        calls = []
        original = reporting.report_to_dict

        def counted(report):
            calls.append(report.n)
            return original(report)

        monkeypatch.setattr(reporting, "report_to_dict", counted)
        code, out, _ = run_capture(capsys, self.SWEEP_CSV)
        assert code == 0
        assert calls == [8, 12, 16]
        assert len(out.splitlines()) == 4

    def test_csv_rows_match_protocol_rows(self, capsys):
        code, sweep_out, _ = run_capture(capsys, self.SWEEP_CSV)
        assert code == 0
        header, *rows = sweep_out.splitlines()
        for n, row in zip((8, 12, 16), rows):
            code, out, _ = run_capture(
                capsys, ["protocol", "--d", "2", "--n", str(n), "--format", "csv"]
            )
            assert code == 0
            assert out.splitlines() == [header, row]

    @pytest.mark.parametrize("step", ["0", "-4"])
    def test_nonpositive_step_exits_1(self, capsys, step):
        code, _, err = run_capture(
            capsys, ["sweep", "--d", "2", "--n-min", "8", "--n-max", "16", "--n-step", step]
        )
        assert code == 1
        assert "n-step must be positive" in err


class TestPhaseCommand:
    def test_report(self, capsys):
        code, out, _ = run_capture(capsys, ["phase", "--dp", "16", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["eps_quantum"] == pytest.approx(0.018013799622)
        assert payload["eps_classical"] == pytest.approx(0.0980171403296)

    def test_small_dimension_exits_1(self, capsys):
        code, out, err = run_capture(capsys, ["phase", "--dp", "1"])
        assert code == 1 and out == ""
        assert "program dimension must be at least 2" in err

    @pytest.mark.parametrize("d_p", [10**9, 10**154], ids=["1e9", "1e154"])
    def test_large_dimension_is_finite(self, capsys, d_p):
        code, out, _ = run_capture(capsys, ["phase", "--dp", str(d_p), "--format", "json"])
        assert code == 0
        payload = json.loads(out, parse_constant=pytest.fail)
        assert 0.0 < payload["eps_quantum"] < payload["eps_classical"]
        assert payload["asymptote_ratio"] <= 1.0  # printed to 12 significant digits

    @pytest.mark.parametrize("exponent", [155, 200, 400])
    def test_out_of_float_range_exits_1(self, capsys, exponent):
        code, out, err = run_capture(capsys, ["phase", "--dp", str(10**exponent)])
        assert code == 1 and out == ""
        assert err == (
            f"error: quantum phase error at dP={10**exponent} is below the normal "
            "float range\n"
        )


class TestTable1Command:
    def test_rows(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table1", "--d", "2", "--eps", "0.01", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["prior_work"]["upper d^2 log(K/eps)"] == pytest.approx(26.5754247591)
        assert payload["this_work_upper_bits"] == pytest.approx(22.9300476774)

    @pytest.mark.parametrize("command", ["table1", "bounds"])
    @pytest.mark.parametrize("big_k", ["nan", "inf", "0"])
    def test_invalid_k_exits_1(self, capsys, command, big_k):
        code, out, err = run_capture(
            capsys, [command, "--d", "2", "--eps", "0.01", "--K", big_k]
        )
        assert code == 1 and out == ""
        assert err == f"error: constant K must be positive and finite, got {float(big_k)}\n"

    @pytest.mark.parametrize("command", ["table1", "bounds"])
    @pytest.mark.parametrize("eps", ["1e-155", "1e-200"])
    def test_overflowing_epsilon_exits_1(self, capsys, command, eps):
        # 1 / eps^2 is out of float range, and below about 1e-162 so is eps**2
        code, out, err = run_capture(
            capsys, [command, "--d", "2", "--eps", eps, "--format", "json"]
        )
        assert code == 1 and out == ""
        assert err == f"error: upper 4 d^2 log(d) / eps^2 is inf at epsilon={eps}: out of float range\n"

    @pytest.mark.parametrize(
        "command, exponent, quantity",
        [("bounds", 80, "upper bound cost"), ("table1", 80, "upper bound cost"),
         ("bounds", 200, "upper bound cost"), ("table1", 200, "table1 rows")],
    )
    def test_overflowing_dimension_exits_1(self, capsys, command, exponent, quantity):
        # (d-1)^4 in the upper bound, and from d ~ 1e154 on d^2 itself, leave float range
        d = 10**exponent
        code, out, err = run_capture(capsys, [command, "--d", str(d), "--eps", "0.1"])
        assert code == 1 and out == ""
        assert err == f"error: d={d} is out of float range for the {quantity}\n"

    @pytest.mark.parametrize("command", ["table1", "bounds"])
    def test_smallest_finite_epsilon(self, capsys, command):
        code, out, _ = run_capture(
            capsys, [command, "--d", "2", "--eps", "1e-150", "--format", "json"]
        )
        assert code == 0
        json.loads(out, parse_constant=pytest.fail)


class TestConfigFile:
    def test_file_values_used(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=2\nn=8\nformat=json\n")
        code, out, _ = run_capture(capsys, ["protocol", "--config", str(cfg)])
        assert code == 0
        assert json.loads(out)["n"] == 8

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=2\nn=8\nformat=json\n")
        code, out, _ = run_capture(capsys, ["protocol", "--config", str(cfg), "--n", "4"])
        assert code == 0
        assert json.loads(out)["n"] == 4

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble=3\n")
        code, _, err = run_capture(capsys, ["protocol", "--config", str(cfg), "--d", "2", "--n", "4"])
        assert code == 1
        assert "unknown key" in err

    @pytest.mark.parametrize("missing", [False, True])
    def test_unreadable_config_exits_1(self, capsys, tmp_path, missing):
        path = tmp_path / "absent.cfg" if missing else tmp_path
        code, out, err = run_capture(capsys, ["protocol", "--config", str(path)])
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot read config {path}: ")
        assert err.count("\n") == 1

    def test_bad_value_names_file_line_and_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=2\nn=abc\n")
        code, out, err = run_capture(capsys, ["protocol", "--config", str(cfg)])
        assert code == 1 and out == ""
        assert err == f"error: {cfg}:2: key 'n' expects int, got 'abc'\n"

    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_output_exits_1(self, capsys, tmp_path, target):
        path = tmp_path / target
        code, out, err = run_capture(
            capsys, ["protocol", "--d", "2", "--n", "4", "--output", str(path)]
        )
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_output_file_written_atomically(self, capsys, tmp_path):
        # the file gets a plain write's mode under umask 022, not the temp file's 0600
        out_path = tmp_path / "report.json"
        saved = os.umask(0o022)
        try:
            code, out, _ = run_capture(
                capsys,
                ["protocol", "--d", "2", "--n", "4", "--format", "json",
                 "--output", str(out_path)],
            )
        finally:
            os.umask(saved)
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["dP_exact"] == "34"
        assert out_path.stat().st_mode & 0o777 == 0o644


class TestVerifyCommand:
    def test_pass_lines_and_exit_zero(self, capsys, monkeypatch):
        fake = [CheckResult(name="alpha", passed=True, detail="fine")]
        monkeypatch.setattr(cli.verify_mod, "run_all", lambda samples, seed: fake)
        code, out, _ = run_capture(capsys, ["verify"])
        assert code == 0
        assert "PASS alpha: fine" in out
        assert "all passed" in out

    def test_failure_exits_2(self, capsys, monkeypatch):
        fake = [
            CheckResult(name="alpha", passed=True, detail="fine"),
            CheckResult(name="beta", passed=False, detail="broken"),
        ]
        monkeypatch.setattr(cli.verify_mod, "run_all", lambda samples, seed: fake)
        code, out, _ = run_capture(capsys, ["verify"])
        assert code == 2
        assert "FAIL beta: broken" in out

    def test_json_format(self, capsys, monkeypatch):
        fake = [CheckResult(name="alpha", passed=True, detail="fine")]
        monkeypatch.setattr(cli.verify_mod, "run_all", lambda samples, seed: fake)
        code, out, _ = run_capture(capsys, ["verify", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True

    def test_csv_values_are_quoted(self, capsys, monkeypatch):
        detail = 'exact for d in {2,3}, m <= 8; "tol" 1e-10'
        fake = [CheckResult(name="alpha", passed=True, detail=detail)]
        monkeypatch.setattr(cli.verify_mod, "run_all", lambda samples, seed: fake)
        code, out, _ = run_capture(capsys, ["verify", "--format", "csv"])
        assert code == 0
        assert list(csv.reader(io.StringIO(out))) == [
            ["key", "value"],
            ["checks[0].name", "alpha"],
            ["checks[0].passed", "True"],
            ["checks[0].detail", detail],
            ["all_passed", "True"],
        ]

    def test_negative_seed_named(self, capsys):
        code, out, err = run_capture(capsys, ["verify", "--seed", "-1"])
        assert code == 1
        assert out == ""
        assert "seed" in err

    @pytest.mark.parametrize("samples", [0, -5, 99999])
    def test_too_few_samples_exits_1(self, capsys, samples):
        code, out, err = run_capture(capsys, ["verify", "--samples", str(samples)])
        assert code == 1
        assert out == ""
        assert err == f"error: need at least 1e5 samples for a stable fit, got {samples}\n"


class TestParserReuse:
    # an error, a csv report, a command that must not inherit --format csv, a json report
    SEQUENCE = (
        ["protocol", "--d", "2", "--n", "3"],
        ["protocol", "--d", "2", "--n", "8", "--format", "csv"],
        ["bounds", "--d", "2", "--eps", "1e-6"],
        ["phase", "--dp", "64", "--format", "json"],
    )

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_one_process_match_each_run_alone(self, capsys):
        src = Path(__file__).resolve().parents[1] / "src"
        in_process = [run_capture(capsys, argv) for argv in self.SEQUENCE]
        alone = []
        for argv in self.SEQUENCE:
            child = subprocess.run(
                [sys.executable, "-m", "gateprog", *argv], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
            )
            alone.append((child.returncode, child.stdout, child.stderr))
        assert in_process == alone
        assert [code for code, _, _ in in_process] == [1, 0, 0, 0]
        assert in_process[2][1].startswith("d ")


class TestParsing:
    def test_unknown_command_exits_1(self, capsys):
        code, _, err = run_capture(capsys, ["frobnicate"])
        assert code == 1

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_capture(capsys, ["protocol", "--d", "2", "--n", "4", "--frob", "1"])
        assert code == 1

    @pytest.mark.parametrize("flag", ["--seed", "--samples"])
    @pytest.mark.parametrize("argv", [
        ["bounds", "--d", "2", "--eps", "0.01"],
        ["protocol", "--d", "2", "--n", "8"],
        ["sweep", "--d", "2", "--n-min", "8", "--n-max", "10"],
        ["phase", "--dp", "8"],
        ["table1", "--d", "2", "--eps", "0.01"],
    ], ids=lambda argv: argv[0])
    def test_sampling_flags_belong_to_verify(self, capsys, argv, flag):
        code, out, err = run_capture(capsys, [*argv, flag, "0"])
        assert (code, out) == (1, "")
        assert err == f"error: unrecognized arguments: {flag} 0\n"

    def test_sampling_keys_shared_in_config_file(self, capsys, tmp_path):
        # the config file's keys stay common to every command
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d=2\neps=0.01\nseed=3\nsamples=0\n")
        code, _, err = run_capture(capsys, ["bounds", "--config", str(cfg)])
        assert (code, err) == (0, "")


REPORT_KEYS = [
    "d", "n", "N", "n0", "set_size", "fidelity_qstar", "fidelity_optimal", "epsilon_qstar",
    "epsilon_optimal", "dP_exact", "dP_exact_log2", "cP_bits", "bound_eq5", "bound_eq6_log2",
    "bound_lemma3", "bound_lemma4_log2", "corollary_bits", "pass_flags",
]
PASS_FLAG_KEYS = ["eq5", "eq6", "lemma3", "lemma4", "corollary"]
TABLE1_LABELS = [
    "upper d^2 log(K/eps)", "upper 4 d^2 log(d) / eps^2", "lower (1-eps) K d - (2/3) log(d)",
    "lower log(d^2/eps)", "lower ((d+1)/2) log(1/d) + ((d-1)/2) log(1/eps)",
]


def key_order(payload):
    """The keys of payload, nested dicts and the first dict of a list as sub-lists."""
    order = []
    for key, value in payload.items():
        order.append(key)
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = value[0]
        if isinstance(value, dict):
            order.append(key_order(value))
    return order


class TestSchemas:
    """The JSON layouts, flags and config keys the commands have always had."""

    KEY_TYPES = {
        "d": int, "n": int, "n_min": int, "n_max": int, "n_step": int, "dp": int,
        "seed": int, "samples": int, "eps": float, "delta": float, "K": float,
        "format": str, "output": str,
    }
    FLAGS = {
        "bounds": {"--d", "--eps", "--delta", "--K"},
        "protocol": {"--d", "--n"},
        "sweep": {"--d", "--n-min", "--n-max", "--n-step"},
        "phase": {"--dp"},
        "table1": {"--d", "--eps", "--K"},
        "verify": {"--seed", "--samples"},
    }
    COMMON = {"--config", "--format", "--output"}

    @pytest.mark.parametrize("argv, expected", [
        (["bounds", "--d", "2", "--eps", "1e-6"], [
            "d", "epsilon", "delta", "delta_optimized", "lower_bits", "lower_dimension_log2",
            "upper_bits", "upper_bits_simplified", "K", "table1", TABLE1_LABELS,
            "vacuous_flags", ["lower", "upper"],
        ]),
        (["table1", "--d", "2", "--eps", "0.01"], [
            "d", "epsilon", "K", "prior_work", TABLE1_LABELS, "this_work_upper_bits",
            "this_work_upper_bits_simplified",
        ]),
        (["phase", "--dp", "16"],
         ["dP", "eps_classical", "eps_quantum", "choi_infidelity", "asymptote_ratio"]),
        (["protocol", "--d", "2", "--n", "8"], [*REPORT_KEYS, PASS_FLAG_KEYS]),
        (["sweep", "--d", "2", "--n-min", "8", "--n-max", "16", "--n-step", "4"],
         ["reports", [*REPORT_KEYS, PASS_FLAG_KEYS], "slope", "residual"]),
    ], ids=["bounds", "table1", "phase", "protocol", "sweep"])
    def test_json_key_order(self, capsys, argv, expected):
        code, out, _ = run_capture(capsys, [*argv, "--format", "json"])
        assert code == 0
        assert key_order(json.loads(out)) == expected

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_flags_parse_to_their_key_types(self, command):
        subparsers = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        options = [
            a for a in subparsers.choices[command]._actions if a.dest not in ("help", "config")
        ]
        flags = {a.option_strings[0] for a in options}
        assert flags == self.FLAGS[command] | {"--format", "--output"}
        for action in options:
            kind = self.KEY_TYPES[action.dest]
            text = "json" if action.dest == "format" else "7"
            args = cli.build_parser().parse_args([command, action.option_strings[0], text])
            assert type(getattr(args, action.dest)) is kind

    def test_key_table_types(self):
        assert {key: kind for key, (kind, _) in cli._KEYS.items()} == self.KEY_TYPES

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_own_flags_and_common_ones(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            cli.run([command, "--help"])
        assert exit_info.value.code == 0
        listed = re.findall(r"^  (--[A-Za-z-]+)", capsys.readouterr().out, flags=re.M)
        assert sorted(listed) == sorted(self.FLAGS[command] | self.COMMON)
