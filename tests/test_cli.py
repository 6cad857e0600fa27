import json

import numpy as np
import pytest

import loadshare.cli as cli
from loadshare.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_csv_shape_contract(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--model", "kim-kvam", "--k", "3",
            "--theta", "1", "--lambda", "1,1", "--n", "5", "--seed", "7",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t1,t2,t3"
        assert len(lines) == 6
        assert "n=5" in err and "k=3" in err and "seed=7" in err

    def test_invalid_switch_index_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--model", "ssk", "--k", "3", "--s", "3",
            "--theta", "1", "--lambda", "1,1", "--n", "2",
        )
        assert code == 2
        assert "2 <= s <= k-1" in err

    def test_k_below_two_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--model", "kim-kvam", "--k", "1",
            "--theta", "1", "--lambda", "", "--n", "2",
        )
        assert code == 2

    def test_byte_identical_runs(self, tmp_path, capsys):
        args = [
            "simulate", "--model", "ssk", "--k", "4", "--s", "2",
            "--theta", "0.5", "--lambda", "1,2,0.5", "--n", "20", "--seed", "3",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_lambda_count_mismatch_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--model", "kim-kvam", "--k", "3",
            "--theta", "1", "--lambda", "1", "--n", "2",
        )
        assert code == 2
        assert "multipliers" in err

    def test_params_file(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"theta": 1.0, "lambda": [1.0, 1.0], "model": "kim-kvam", "k": 3}')
        code, out, _ = run_cli(
            capsys, "simulate", "--params", str(pfile), "--n", "4", "--seed", "1"
        )
        assert code == 0
        assert out.splitlines()[0] == "t1,t2,t3"

    def test_params_file_conflicts_with_flags(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"theta": 1.0, "lambda": [1.0], "model": "kim-kvam", "k": 2}')
        code, _, err = run_cli(
            capsys, "simulate", "--params", str(pfile), "--model", "kim-kvam", "--n", "2"
        )
        assert code == 2

    def test_params_file_unknown_key_exits_2(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"theta": 1.0, "lambda": [1.0], "model": "kim-kvam", "k": 2, "x": 0}')
        code, _, err = run_cli(capsys, "simulate", "--params", str(pfile), "--n", "2")
        assert code == 2 and "unknown keys" in err


class TestFit:
    def test_unit_spacing_pair(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,1\n")
        code, out, _ = run_cli(
            capsys, "fit", "--model", "kim-kvam", "--data", str(data), "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theta_hat"] == 0.5
        assert payload["lambda_hat"] == [2.0]
        assert payload["n"] == 1 and payload["k"] == 2
        assert payload["model"] == "kim-kvam" and "s" not in payload

    def test_two_system_example(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2,t3\n1,2,3\n3,2,1\n")
        code, out, _ = run_cli(
            capsys, "fit", "--model", "kim-kvam", "--data", str(data), "--format", "json"
        )
        payload = json.loads(out)
        assert payload["theta_hat"] == pytest.approx(1 / 6, rel=1e-15)
        assert payload["lambda_hat"] == pytest.approx([1.5, 3.0], rel=1e-15)

    def test_ssk_fit_reports_s(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2,t3\n1,1,1\n")
        code, out, _ = run_cli(
            capsys, "fit", "--model", "ssk", "--s", "2", "--data", str(data), "--format", "json"
        )
        payload = json.loads(out)
        assert payload["s"] == 2
        assert payload["theta_hat"] == pytest.approx(1 / 3, rel=1e-15)
        assert payload["lambda_hat"] == pytest.approx([1.5, 6.0], rel=1e-15)

    def test_ssk_without_s_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2,t3\n1,1,1\n")
        code, _, err = run_cli(capsys, "fit", "--model", "ssk", "--data", str(data))
        assert code == 2 and "--s" in err

    def test_zero_entry_exits_1_citing_cell(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,2\n0,1\n")
        code, _, err = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 1
        assert "row 3" in err and "column 1" in err

    def test_duplicate_lifetimes_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("x1,x2,x3\n2,2,3\n")
        code, _, err = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 1 and "twice" in err

    def test_ragged_rows_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,2\n1\n")
        code, _, err = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 1 and "row 3" in err

    @pytest.mark.parametrize(
        "model,text,cited",
        [
            (["ssk", "--s", "2"], "t1,t2,t3\n1,1,1e200\n1,1,2e200\n", "column 3"),
            (["ssk", "--s", "2"], "t1,t2,t3\n1,1,1e-200\n1,1,2e-200\n", "column 3"),
            (["kim-kvam"], "t1,t2\n1e308,1\n1e308,1\n", "column 1"),
            # squares are subnormal but positive; lambda_2 = S_1 / S_3 overflows
            (["ssk", "--s", "2"], "t1,t2,t3\n1,1,1e-160\n1,1,1e-160\n", "lambda_2"),
        ],
        ids=["ssk-overflow", "ssk-underflow", "kim-kvam-overflow", "ratio-overflow"],
    )
    def test_out_of_range_totals_exit_1(self, tmp_path, capsys, model, text, cited):
        data = tmp_path / "d.csv"
        data.write_text(text)
        code, out, err = run_cli(capsys, "fit", "--model", *model, "--data", str(data))
        assert code == 1 and out == ""
        assert cited in err and "Warning" not in err

    def test_utf8_bom_is_ignored(self, tmp_path, capsys):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"t1,t2,t3\r\n1,2,3\r\n3,2,1\r\n")
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        args = ["fit", "--model", "kim-kvam", "--format", "json", "--data"]
        code_plain, out_plain, _ = run_cli(capsys, *args, str(plain))
        code_bom, out_bom, _ = run_cli(capsys, *args, str(bom))
        assert code_plain == code_bom == 0 and out_bom == out_plain

    @pytest.mark.parametrize("command", ["fit", "verify"])
    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfet1,t2\n1,2\n", b"t1,t2\n1,2\n\xff,3\n"],
        ids=["header", "row"],
    )
    def test_non_utf8_exits_1(self, tmp_path, capsys, command, content):
        data = tmp_path / "d.csv"
        data.write_bytes(content)
        code, out, err = run_cli(capsys, command, "--model", "kim-kvam", "--data", str(data))
        assert code == 1 and out == ""
        assert "error: dataset is not UTF-8 text (invalid start byte b'\\xff')" in err
        assert "Traceback" not in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", "/no/such.csv")
        assert code == 1

    def test_lifetimes_and_spacings_modes_agree(self, tmp_path, capsys):
        lifetimes = tmp_path / "x.csv"
        lifetimes.write_text("x1,x2,x3\n5,1,2\n1,2,4\n")
        spacings = tmp_path / "t.csv"
        spacings.write_text("t1,t2,t3\n1,1,3\n1,1,2\n")
        _, out_x, _ = run_cli(
            capsys, "fit", "--model", "kim-kvam", "--data", str(lifetimes), "--format", "json"
        )
        _, out_t, _ = run_cli(
            capsys, "fit", "--model", "kim-kvam", "--data", str(spacings), "--format", "json"
        )
        assert out_x == out_t

    def test_headerless_requires_override(self, tmp_path, capsys):
        data = tmp_path / "legacy.csv"
        data.write_text("3,1,2\n")
        code, _, _ = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 1
        code, out, _ = run_cli(
            capsys,
            "fit", "--model", "kim-kvam", "--data", str(data), "--lifetimes",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["n"] == 1

    def test_text_format(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,1\n")
        code, out, _ = run_cli(capsys, "fit", "--model", "kim-kvam", "--data", str(data))
        assert code == 0
        assert "theta_hat: 0.5" in out
        assert "lambda_hat_1: 2" in out
        assert "loglik:" in out


class TestVerify:
    def test_single_dataset(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,1\n")
        code, out, _ = run_cli(capsys, "verify", "--model", "kim-kvam", "--data", str(data))
        assert code == 0
        assert "max param discrepancy" in out
        assert "verified 1/1" in out

    @pytest.mark.parametrize(
        "scale,closed",
        [("e-300", "2.2222222222222223e+299 1.5 2"), ("e300", "2.2222222222222219e-301 1.5 2")],
        ids=["tiny", "huge"],
    )
    def test_extreme_magnitudes_leak_no_warning(self, tmp_path, capsys, scale, closed):
        data = tmp_path / "d.csv"
        data.write_text(f"t1,t2,t3\n1{scale},2{scale},3{scale}\n2{scale},1{scale},1.5{scale}\n")
        code, out, err = run_cli(capsys, "verify", "--model", "kim-kvam", "--data", str(data))
        assert code == 0
        assert "Warning" not in err and "Traceback" not in err
        assert f"  closed:  {closed}\n" in out

    @pytest.mark.parametrize("model", ["kim-kvam", "ssk"])
    def test_random_instances(self, capsys, model):
        code, out, _ = run_cli(
            capsys,
            "verify", "--model", model, "--random", "--instances", "5", "--seed", "1",
        )
        assert code == 0
        assert "verified 5/5" in out

    def test_s_with_random_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--model", "ssk", "--s", "2", "--random", "--instances", "2"
        )
        assert code == 2

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_empty_random_request_exits_2(self, capsys, count):
        code, out, err = run_cli(
            capsys, "verify", "--model", "kim-kvam", "--random", "--instances", count
        )
        assert code == 2 and "--instances" in err and "verified" not in out

    def test_data_and_random_mutually_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--model", "kim-kvam", "--data", "x.csv", "--random"
        )
        assert code == 2

    def test_tolerance_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        class FakeResult:
            ok = False
            max_param_rel_discrepancy = 1.0
            loglik_gap = 1.0

            class closed:
                class params_hat:
                    @staticmethod
                    def as_array():
                        return np.array([1.0, 1.0])

                loglik_at_mle = 0.0

            class numeric:
                class params_hat:
                    @staticmethod
                    def as_array():
                        return np.array([2.0, 2.0])

                loglik_at_mle = -1.0

        monkeypatch.setattr(cli, "crosscheck", lambda spec, data: FakeResult())
        data = tmp_path / "d.csv"
        data.write_text("t1,t2\n1,1\n")
        code, out, _ = run_cli(capsys, "verify", "--model", "kim-kvam", "--data", str(data))
        assert code == 3
        assert "FAIL" in out


class TestMcStudy:
    def test_n_below_two_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "mc-study", "--model", "kim-kvam", "--k", "2", "--theta", "1",
            "--lambda", "1", "--n", "1", "--reps", "10",
        )
        assert code == 2
        assert "n >= 2" in err

    def test_text_output_includes_reference_mean(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc-study", "--model", "kim-kvam", "--k", "2", "--theta", "1",
            "--lambda", "1", "--n", "10", "--reps", "200", "--seed", "42",
        )
        assert code == 0
        assert "ref_mean" in out and "theta" in out and "lambda_1" in out

    def test_json_output_and_determinism(self, capsys):
        args = [
            "mc-study", "--model", "ssk", "--k", "3", "--s", "2", "--theta", "1",
            "--lambda", "1,1", "--n", "10", "--reps", "300", "--seed", "9",
            "--format", "json",
        ]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["model"] == "ssk" and payload["s"] == 2
        assert len(payload["mean"]) == 3
        ref = 10 / 9
        assert payload["reference_mean"] == pytest.approx([ref, ref, ref], rel=1e-12)

    def test_single_replication_json_is_valid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "mc-study", "--model", "kim-kvam", "--k", "2", "--theta", "1",
            "--lambda", "1", "--n", "3", "--reps", "1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reps"] == 1 and payload["se_mean"] == [None, None]

    def test_params_file(self, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        pfile.write_text('{"theta": 1.0, "lambda": [1.0], "model": "kim-kvam", "k": 2}')
        code, out, _ = run_cli(
            capsys,
            "mc-study", "--params", str(pfile), "--n", "5", "--reps", "50",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["k"] == 2


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flags(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--model", "kim-kvam", "--n", "2")
        assert code == 2 and "missing required flags" in err

    @pytest.mark.parametrize("command", ["fit", "verify"])
    def test_model_required_for_data_commands(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--data", "x.csv")
        assert code == 2 and "--model" in err

    @pytest.mark.parametrize("command,extra", [("simulate", []), ("mc-study", ["--reps", "5"])])
    def test_degenerate_stage_rates_exit_2(self, capsys, command, extra):
        code, out, err = run_cli(
            capsys,
            command, "--model", "kim-kvam", "--k", "2",
            "--theta", "1e-300", "--lambda", "1e-300", "--n", "3", *extra,
        )
        assert code == 2 and out == ""
        assert "theta=1e-300" in err and "lambda=1e-300" in err and "Warning" not in err

    @pytest.mark.parametrize(
        "command,theta,lam,reps",
        [
            ("simulate", "1e-310", "1", None),  # valid rates, but the spacings overflow
            ("simulate", "1e308", "1", None),  # the stage-1 rate overflows
            ("mc-study", "1e-310", "1", "5"),
            ("mc-study", "5e307", "1", "200"),  # some theta estimate overflows
            ("mc-study", "1e300", "1e8", "2"),  # the squared errors overflow
        ],
        ids=["simulate-low", "simulate-high", "mc-study-low", "mc-study-high", "mc-study-summary"],
    )
    def test_extreme_parameters_exit_2(self, capsys, command, theta, lam, reps):
        extra = [] if reps is None else ["--reps", reps]
        code, out, err = run_cli(
            capsys,
            command, "--model", "kim-kvam", "--k", "2",
            "--theta", theta, "--lambda", lam, "--n", "3", *extra,
        )
        assert code == 2 and out == ""
        assert f"theta={float(theta):g}" in err and f"lambda={float(lam):g}" in err
        assert "Warning" not in err

    def test_bad_model_choice(self, capsys):
        assert main(["fit", "--model", "weibull", "--data", "x.csv"]) == 2
        capsys.readouterr()

    def test_stdout_carries_only_artifact(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--model", "kim-kvam", "--k", "2",
            "--theta", "1", "--lambda", "1", "--n", "3", "--seed", "0",
        )
        assert code == 0
        for line in out.splitlines():
            assert line.startswith("t1") or line[0].isdigit()
        assert "seed=0" in err
