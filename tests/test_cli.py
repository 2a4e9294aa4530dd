"""Command-line interface: dispatch, config handling, formats, exit codes."""

import json

import pytest

import gateprog.cli as cli
import gateprog.reporting as reporting
from gateprog.scoring import ConvergenceError
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

    def test_solver_failure_exits_1(self, capsys, monkeypatch):
        def no_convergence(matrix):
            raise ConvergenceError("residual 1.0e-08")

        monkeypatch.setattr(reporting, "optimal_fidelity", no_convergence)
        code, out, err = run_capture(capsys, ["protocol", "--d", "2", "--n", "8"])
        assert code == 1
        assert out == ""
        assert err == "error: eigensolver did not converge: residual 1.0e-08\n"

    def test_byte_identical_output(self, capsys):
        _, first, _ = run_capture(capsys, ["protocol", "--d", "2", "--n", "16", "--format", "json"])
        _, second, _ = run_capture(capsys, ["protocol", "--d", "2", "--n", "16", "--format", "json"])
        assert first == second

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


class TestTable1Command:
    def test_rows(self, capsys):
        code, out, _ = run_capture(
            capsys, ["table1", "--d", "2", "--eps", "0.01", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["prior_work"]["upper d^2 log(K/eps)"] == pytest.approx(26.5754247591)
        assert payload["this_work_upper_bits"] == pytest.approx(22.9300476774)


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

    def test_output_file_written_atomically(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_capture(
            capsys,
            ["protocol", "--d", "2", "--n", "4", "--format", "json",
             "--output", str(out_path)],
        )
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["dP_exact"] == "34"


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


class TestParsing:
    def test_unknown_command_exits_1(self, capsys):
        code, _, err = run_capture(capsys, ["frobnicate"])
        assert code == 1

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run_capture(capsys, ["protocol", "--d", "2", "--n", "4", "--frob", "1"])
        assert code == 1
