"""Command-line surface: exit codes, determinism, config precedence, and
the file outputs of each subcommand."""

import csv
import json
from itertools import count
from xml.etree import ElementTree

import numpy as np
import pytest

from secondprice import NumericalError, export_bid_log, fit, pipeline, read_dataset
from secondprice import simulate as simulate_module
from secondprice.cli import main
from secondprice.simulate import parse_dist


def simulate(tmp_path, name="data.csv", K=40, seed=5, extra=()):
    out = tmp_path / name
    code = main(["simulate", "--dist", "uniform:1,8", "--K", str(K),
                 "--lambda", "1.0", "--tau", "20.0", "--seed", str(seed),
                 "--out", str(out), *extra])
    assert code == 0
    return out


class TestParseDist:
    def test_kinds(self):
        assert parse_dist("uniform:1,20").kind == "uniform"
        assert parse_dist("gamma:10,2").params == (10.0, 2.0)
        assert parse_dist("pareto:3,100").params == (3.0, 100.0)
        assert parse_dist("beta:2,2").kind == "beta"
        pw = parse_dist("piecewise:1,2,0.5;3,4,0.5")
        assert pw.kind == "piecewise_uniform"

    def test_bad_spec(self):
        from secondprice import ValidationError
        with pytest.raises(ValidationError):
            parse_dist("cauchy:0,1")

    @pytest.mark.parametrize("spec", ["cauchy:0,1", "piecewise_uniform:1,2,1"])
    def test_unknown_kind_names_the_spec_forms(self, spec):
        from secondprice import ValidationError
        with pytest.raises(ValidationError) as err:
            parse_dist(spec)
        message = str(err.value)
        assert "piecewise" in message and "piecewise_uniform" not in message

    @pytest.mark.parametrize("spec", ["uniform:1,x", "uniform:", "piecewise:1,2"])
    def test_unparsable_parameters(self, spec):
        from secondprice import ValidationError
        with pytest.raises(ValidationError,
                           match=f"^cannot parse distribution spec '{spec}': "):
            parse_dist(spec)

    def test_unparsable_parameters_exit_3(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["simulate", "--dist", "uniform:1,x", "--K", "5",
                     "--out", str(out)]) == 3
        assert ("cannot parse distribution spec 'uniform:1,x'"
                in capsys.readouterr().err)
        assert not out.exists()


class TestExitCodes:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self):
        assert main(["simulate", "--bogus", "1"]) == 2

    def test_help_is_success(self):
        assert main(["--help"]) == 0

    def test_missing_required_parameter_is_validation_error(self):
        assert main(["simulate", "--dist", "uniform:1,8"]) == 3

    def test_missing_file_is_validation_error(self, tmp_path):
        assert main(["estimate", "--data", str(tmp_path / "nope.csv"),
                     "--out-curves", str(tmp_path / "c.csv")]) == 3

    def test_zero_rate_estimate_is_numerical_error(self, tmp_path, capsys):
        # the low-reserve auctions (reserves 0 and 0.001) never jump
        data = tmp_path / "data.csv"
        data.write_text("kind,auction,reserve_or_price,duration_or_wait,sold\n"
                        "auction,0,0.0,10.0,0\nauction,1,0.001,10.0,0\n"
                        "auction,2,5.0,10.0,1\njump,2,6.0,1.0,\n"
                        "auction,3,5.5,10.0,1\njump,3,7.0,2.0,\n")
        out = tmp_path / "c.csv"
        assert main(["estimate", "--data", str(data), "--out-curves", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: arrival-rate estimate is zero")
        assert not out.exists()

    @pytest.mark.parametrize("command, text, message", [
        ("ingest", "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n",
         "bid log contains no usable rows"),
        ("estimate", "", "is not a canonical dataset file"),
        ("estimate", "# a comment\n\n# another\n", "is not a canonical dataset file"),
        ("estimate", "kind,auction,reserve_or_price,duration_or_wait,sold\n# none\n",
         "contains no auctions"),
    ], ids=["bid-log-header-only", "dataset-empty", "dataset-comments-only",
            "dataset-header-only"])
    def test_input_without_rows_is_validation_error(self, tmp_path, capsys,
                                                    command, text, message):
        data, out = tmp_path / "in.csv", tmp_path / "out.csv"
        data.write_text(text)
        argv = {"ingest": ["ingest", "--data", str(data), "--duration", "7",
                           "--out", str(out)],
                "estimate": ["estimate", "--data", str(data),
                             "--out-curves", str(out)]}[command]
        assert main(argv) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bias_reps_are_checked_before_the_initial_fit(self, tmp_path, capsys):
        # the initial fit fails on this file (exit 4), but the replicate
        # count is refused first
        data = tmp_path / "data.csv"
        data.write_text("kind,auction,reserve_or_price,duration_or_wait,sold\n"
                        "auction,0,0.0,10.0,0\nauction,1,0.001,10.0,0\n"
                        "auction,2,5.0,10.0,1\njump,2,6.0,1.0,\n"
                        "auction,3,5.5,10.0,1\njump,3,7.0,2.0,\n")
        out = tmp_path / "b.csv"
        assert main(["bands", "--data", str(data), "--auto-delta", "--bias-reps", "5",
                     "--out", str(out)]) == 3
        assert "mc_reps >= 100" in capsys.readouterr().err
        assert not out.exists()


class TestNotUtf8:
    # each reader, given a byte that is not UTF-8 on its third line
    @pytest.mark.parametrize("reader", ["dataset", "curves", "bid-log", "config"])
    def test_names_the_file_and_line(self, tmp_path, capsys, reader):
        bad = tmp_path / "bad.txt"
        lines = {
            "dataset": [b"kind,auction,reserve_or_price,duration_or_wait,sold",
                        b"auction,0,1.0,20.0,1", b"jump,0,2.0,1.0,\xff"],
            "curves": [b"x,f_init,f_mle", b"0.0,0.0,0.0", b"1.0,0.5,0.5\xff"],
            "bid-log": [b"auctionid,bid,bidtime,bidder,bidderrate,openbid,price",
                        b"1,5.0,1.0,alice,0,0.5,5.0", b"1,7.0,2.0,b\xffb,0,0.5,5.0"],
            "config": [b"# seed", b"K=3", b"dist=uniform:1,2 # \xe9t\xe9"],
        }[reader]
        bad.write_bytes(b"\n".join(lines) + b"\n")
        out = str(tmp_path / "out.csv")
        argv = {"dataset": ["estimate", "--data", str(bad), "--out-curves", out],
                "curves": ["metrics", "--curves", str(bad)],
                "bid-log": ["ingest", "--data", str(bad), "--duration", "7",
                            "--out", out],
                "config": ["simulate", "--config", str(bad), "--out", out]}[reader]
        assert main(argv) == 3
        assert f"{bad} line 3: not UTF-8 text (invalid" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()


class TestByteOrderMark:
    # spreadsheet "CSV UTF-8" exports start with one
    @pytest.mark.parametrize("reader", ["dataset", "bid-log", "config"])
    def test_reads_like_the_file_without_it(self, tmp_path, reader):
        text = {
            "dataset": "kind,auction,reserve_or_price,duration_or_wait,sold\n"
                       "auction,0,0.0,10.0,1\njump,0,2.0,1.0,\njump,0,3.0,2.0,\n"
                       "auction,1,0.5,10.0,1\njump,1,4.0,3.0,\n"
                       "auction,2,1.0,10.0,0\n",
            "bid-log": "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
                       "1,5.0,1.0,alice,0,0.5,6.0\n1,6.0,2.0,bob,0,0.5,6.0\n",
            "config": "dist=uniform:1,8\nK=5\nseed=3\n",
        }[reader]
        rows = []
        for name, prefix in (("plain", ""), ("bom", "\ufeff")):
            data, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
            data.write_text(prefix + text, encoding="utf-8")
            argv = {"dataset": ["estimate", "--data", str(data), "--out-curves", str(out)],
                    "bid-log": ["ingest", "--data", str(data), "--duration", "7",
                                "--out", str(out)],
                    "config": ["simulate", "--config", str(data), "--out", str(out)]}[reader]
            assert main(argv) == 0
            rows.append([line for line in out.read_text().splitlines()
                         if not line.startswith("#")])
        assert rows[0] == rows[1] and len(rows[0]) > 1


class TestSimulate:
    def test_deterministic_output(self, tmp_path):
        p1 = simulate(tmp_path, "a.csv", seed=5)
        p2 = simulate(tmp_path, "b.csv", seed=5)

        def body(path):
            # identical except for the provenance header (output paths differ)
            return [line for line in path.read_text().splitlines()
                    if not line.startswith("#")]

        assert body(p1) == body(p2)
        ds = read_dataset(p1)
        assert ds.K == 40

    @pytest.mark.parametrize("lam, tau", [("nan", "10"), ("1", "inf"),
                                          ("inf", "10"), ("1", "nan")])
    def test_non_finite_rate_or_window_is_validation_error(self, tmp_path,
                                                           capsys, lam, tau):
        out = tmp_path / "data.csv"
        code = main(["simulate", "--dist", "uniform:1,8", "--K", "5",
                     "--lambda", lam, "--tau", tau, "--out", str(out)])
        assert code == 3
        assert "finite lam > 0, finite tau > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_arrival_product_is_validation_error(self, tmp_path, capsys):
        # lam and tau are each finite, but lam * tau overflows to inf
        out = tmp_path / "data.csv"
        code = main(["simulate", "--dist", "uniform:1,8", "--K", "5",
                     "--lambda", "1e308", "--tau", "1e308", "--out", str(out)])
        assert code == 3
        assert "lam * tau must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reserve", ["-1", "nan"])
    def test_bad_constant_reserve_is_one_validation_error(self, tmp_path,
                                                          capsys, reserve):
        out = tmp_path / "data.csv"
        code = main(["simulate", "--dist", "uniform:1,8", "--K", "500",
                     "--reserve", reserve, "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("reserve") == 1 and err.count("\n") == 1
        assert "constant reserve must be finite and >= 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, spec", [
        ("simulate", "uniform:0,inf"), ("simulate", "piecewise:1,2,nan"),
        ("simulate", "gamma:nan,2"), ("simulate", "pareto:1,nan"),
        ("simulate", "beta:inf,2"), ("replicate", "uniform:0,inf:10")])
    def test_non_finite_distribution_parameter_is_validation_error(
            self, tmp_path, capsys, command, spec):
        out = tmp_path / "out.csv"
        argv = {"simulate": ["simulate", "--dist", spec, "--K", "5", "--tau", "10"],
                "replicate": ["replicate", "--setting", spec, "--reps", "1"]}[command]
        assert main([*argv, "--out", str(out)]) == 3
        assert "parameters must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["simulate", "--dist", "uniform:1,8", "--K", "5",
                     "--seed", "-1", "--out", str(out)]) == 3
        assert "--seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_changes_output(self, tmp_path):
        p1 = simulate(tmp_path, "a.csv", seed=5)
        p2 = simulate(tmp_path, "b.csv", seed=6)
        assert read_dataset(p1) != read_dataset(p2)


class TestConfigPrecedence:
    def test_flag_beats_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("dist=uniform:1,8\nK=5\nseed=1\ntau=20.0\n"
                          f"out={tmp_path / 'c.csv'}\n")
        assert main(["simulate", "--config", str(config), "--K", "7"]) == 0
        assert read_dataset(tmp_path / "c.csv").K == 7

    def test_config_beats_default(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("dist=uniform:1,8\nK=5\ntau=20.0  # comment\n"
                          f"out={tmp_path / 'c.csv'}\n")
        assert main(["simulate", "--config", str(config)]) == 0
        ds = read_dataset(tmp_path / "c.csv")
        assert ds.K == 5 and ds.tau == 20.0

    def test_malformed_config(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("this is not a key value pair\n")
        assert main(["simulate", "--config", str(config)]) == 3

    def test_comment_and_blank_lines_are_skipped(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# a study\n\ndist=uniform:1,8\n   \nK=5\n"
                          "  # indented comment\ntau=20.0\n\n")
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        by_config = out.read_text()
        assert main(["simulate", "--dist", "uniform:1,8", "--K", "5", "--tau", "20.0",
                     "--out", str(out)]) == 0
        assert out.read_text() == by_config

    @pytest.mark.parametrize("key", ["lambda", "lam"])
    def test_config_key_is_flag_name_or_dest(self, tmp_path, key):
        base = ["--dist", "uniform:1,8", "--K", "5", "--tau", "20.0"]
        by_flag = tmp_path / "flag.csv"
        assert main(["simulate", *base, "--lambda", "3.0",
                     "--out", str(by_flag)]) == 0
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}=3.0\n")
        by_config = tmp_path / "config.csv"
        assert main(["simulate", *base, "--config", str(config),
                     "--out", str(by_config)]) == 0
        assert read_dataset(by_config) == read_dataset(by_flag)
        assert "# lam=3.0" in by_config.read_text().splitlines()

    @pytest.mark.parametrize("command,line", [
        ("replicate", "mc_reps=3000"),        # unknown keys
        ("estimate", "max_sweps=3000"),
        ("simulate", "K=abc"),                # values their option cannot parse
        ("simulate", "tau=abc"),
        ("estimate", "unconstrained=ture"),
        ("bands", "auto_delta=maybe"),
        ("bands", "kind=both"),
        ("simulate", "lambda=2.0"),           # lam is already set
        ("replicate", "reps=2"),              # reps is already set
    ], ids=["replicate-mc_reps", "estimate-max_sweps", "simulate-K",
            "simulate-tau", "estimate-unconstrained", "bands-auto_delta",
            "bands-kind", "simulate-lambda-twice", "replicate-reps-twice"])
    def test_bad_config_line_is_validation_error(self, tmp_path, capsys,
                                                 command, line):
        # the rest of each config is a complete, valid run
        data = simulate(tmp_path)
        valid = {"replicate": "setting=uniform:1,8:25\nreps=1\ntau=20.0\n",
                 "estimate": f"data={data}\nout_curves={tmp_path / 'c.csv'}\n",
                 "simulate": "dist=uniform:1,8\nK=5\nlam=1.0\ntau=20.0\n"
                             f"out={tmp_path / 'd.csv'}\n",
                 "bands": f"data={data}\nalpha=0.3\nout={tmp_path / 'b.csv'}\n"
                 }[command]
        config = tmp_path / "run.cfg"
        config.write_text(valid)
        assert main([command, "--config", str(config)]) == 0
        config.write_text(valid + line + "\n")
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert repr(line.split("=")[0]) in err
        assert f"{config}:{len(valid.splitlines()) + 1}:" in err


BID_LOG = ("auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
           "1,5.0,1.0,alice,0,0.5,5.0\n"
           "1,7.0,2.0,bob,0,0.5,5.0\n"
           "2,6.0,1.5,carol,0,0.8,0.8\n")

# command, its flags, a config that sets the same values, the file it
# writes, and that file's provenance header (delta=? stands for the
# median-bias value that --auto-delta computes)
PROVENANCE = {
    "simulate": (
        ["--dist", "uniform:1,8", "--K", "40", "--lambda", "1.5", "--tau", "20",
         "--seed", "5", "--out", "sim.csv"],
        "dist=uniform:1,8\nK=40\nlambda=1.5\ntau=20\nseed=5\nout=sim.csv\n",
        "sim.csv",
        ["K=40", "dist=uniform:1,8", "lam=1.5", "out=sim.csv", "reserve=0.0",
         "seed=5", "tau=20.0"]),
    "estimate": (
        ["--data", "data.csv", "--unconstrained", "--trace", "trace.csv",
         "--out-curves", "curves.csv", "--out-json", "diag.json"],
        "data=data.csv\nunconstrained=true\ntrace=trace.csv\n"
        "out-curves=curves.csv\nout_json=diag.json\n",
        "curves.csv",
        ["data=data.csv", "max_sweeps=10000", "out_curves=curves.csv",
         "out_json=diag.json", "q=0.25", "tol=1e-08", "trace=trace.csv",
         "unconstrained=True"]),
    "bands": (
        ["--data", "data.csv", "--kind", "init", "--alpha", "0.3", "--seed", "1",
         "--out", "band.csv"],
        "data=data.csv\nkind=init\nalpha=0.3\nseed=1\nout=band.csv\n",
        "band.csv",
        ["alpha=0.3", "auto_delta=False", "bias_reps=100", "data=data.csv",
         "delta=0.0", "kind=init", "out=band.csv", "q=0.25", "seed=1"]),
    "bands-auto-delta": (
        ["--data", "data.csv", "--kind", "init", "--alpha", "0.3",
         "--auto-delta", "--seed", "1", "--out", "band.csv"],
        "data=data.csv\nkind=init\nalpha=0.3\nauto-delta=yes\nseed=1\n"
        "out=band.csv\n",
        "band.csv",
        ["alpha=0.3", "auto_delta=True", "bias_reps=100", "data=data.csv",
         "delta=?", "kind=init", "out=band.csv", "q=0.25", "seed=1"]),
    "replicate": (
        ["--setting", "uniform:1,8:25", "--setting", "uniform:1,8:30",
         "--reps", "1", "--tau", "20", "--seed", "3", "--out", "report.csv"],
        "setting=uniform:1,8:25;uniform:1,8:30\nreps=1\ntau=20\nseed=3\n"
        "out=report.csv\n",
        "report.csv",
        ["lam=1.0", "out=report.csv", "q=0.25", "reps=1", "seed=3",
         "setting=uniform:1,8:25;uniform:1,8:30", "tau=20.0"]),
    "ingest": (
        ["--data", "log.csv", "--duration", "7", "--noise-seed", "1",
         "--out", "dataset.csv", "--report-out", "report.txt"],
        "data=log.csv\nduration=7\nnoise-seed=1\nout=dataset.csv\n"
        "report_out=report.txt\n",
        "dataset.csv",
        ["data=log.csv", "duration=7.0", "noise_scale=0.01", "noise_seed=1",
         "out=dataset.csv", "report_out=report.txt"]),
}


class TestProvenance:
    @pytest.mark.parametrize("via", ["flags", "config"])
    @pytest.mark.parametrize("case", list(PROVENANCE))
    def test_header(self, tmp_path, monkeypatch, case, via):
        monkeypatch.chdir(tmp_path)
        simulate(tmp_path)
        (tmp_path / "log.csv").write_text(BID_LOG)
        flags, config, out, want = PROVENANCE[case]
        argv = flags
        if via == "config":
            (tmp_path / "run.cfg").write_text(config)
            argv = ["--config", "run.cfg"]
        assert main([case.split("-")[0], *argv]) == 0
        header = [r[2:] for r in (tmp_path / out).read_text().splitlines()
                  if r.startswith("# ")]
        if "delta=?" in want:
            delta = float(header[want.index("delta=?")].split("=")[1])
            assert 0.0 < delta < 0.5
            header[want.index("delta=?")] = "delta=?"
        assert header == want
        rows = [r for r in (tmp_path / out).read_text().splitlines()
                if not r.startswith("#")]
        if case == "estimate":
            diag = json.loads((tmp_path / "diag.json").read_text())
            assert diag["constrained"] is False
            assert diag["config"] == {
                "data": "data.csv", "max_sweeps": 10000,
                "out_curves": "curves.csv", "out_json": "diag.json", "q": 0.25,
                "tol": 1e-8, "trace": "trace.csv", "unconstrained": True}
        if case == "replicate":
            assert [r.split(",")[0] for r in rows[1:]] == ["uniform-K25",
                                                           "uniform-K30"]


class TestEstimate:
    def test_outputs(self, tmp_path, capsys):
        data = simulate(tmp_path)
        capsys.readouterr()
        curves = tmp_path / "curves.csv"
        blob = tmp_path / "diag.json"
        code = main(["estimate", "--data", str(data), "--out-curves",
                     str(curves), "--out-json", str(blob)])
        assert code == 0
        diag = json.loads(blob.read_text())
        for key in ("lambda_hat", "r_min", "v_size", "sweeps",
                    "final_objective", "converged", "constrained", "config"):
            assert key in diag
        assert diag["constrained"] is True
        printed = json.loads(capsys.readouterr().out)
        assert printed == diag
        header = [r for r in curves.read_text().splitlines()
                  if not r.startswith("#")][0]
        assert header == "x,f_init,f_mle"

    def test_trace_csv(self, tmp_path):
        data = simulate(tmp_path)
        blob = tmp_path / "diag.json"
        trace = tmp_path / "trace.csv"
        assert main(["estimate", "--data", str(data), "--out-curves",
                     str(tmp_path / "c.csv"), "--out-json", str(blob),
                     "--trace", str(trace)]) == 0
        diag = json.loads(blob.read_text())
        with trace.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sweep", "loglik"]
        assert len(rows) - 1 == diag["sweeps"] + 1
        assert [int(r[0]) for r in rows[1:]] == list(range(len(rows) - 1))
        assert float(rows[-1][1]) == diag["final_objective"]
        assert diag["config"]["trace"] == str(trace)

    def test_outputs_make_their_directories(self, tmp_path, capsys):
        data = simulate(tmp_path)
        capsys.readouterr()
        curves, blob = tmp_path / "new1" / "c.csv", tmp_path / "new2" / "e.json"
        assert main(["estimate", "--data", str(data), "--out-curves",
                     str(curves), "--out-json", str(blob)]) == 0
        assert json.loads(blob.read_text()) == json.loads(capsys.readouterr().out)
        assert curves.exists()

    def test_unconstrained_flag(self, tmp_path):
        data = simulate(tmp_path)
        blob = tmp_path / "diag.json"
        code = main(["estimate", "--data", str(data), "--out-curves",
                     str(tmp_path / "c.csv"), "--out-json", str(blob),
                     "--unconstrained"])
        assert code == 0
        assert json.loads(blob.read_text())["constrained"] is False

    @pytest.mark.parametrize("row", ["jump,7,30.0,1.0,", "jump,0,30.0,",
                                     "jump,x,30.0,1.0,", "jump,0,nan,1.0,",
                                     "auction,1,2.0,20.0,7"])
    def test_malformed_dataset_is_validation_error(self, tmp_path, capsys,
                                                   row):
        data = tmp_path / "data.csv"
        data.write_text("kind,auction,reserve_or_price,duration_or_wait,sold\n"
                        "auction,0,1.0,20.0,1\n" + row + "\n")
        code = main(["estimate", "--data", str(data), "--out-curves",
                     str(tmp_path / "c.csv")])
        assert code == 3
        assert "line 3" in capsys.readouterr().err

    def test_foreign_header_is_validation_error(self, tmp_path, capsys):
        # a header of just "kind" used to pass, and the rows below it read
        # as a dataset
        data = tmp_path / "data.csv"
        data.write_text("# made by hand\nkind\nauction,0,1.0,10.0,1\njump,0,2.0,1.0,\n")
        code = main(["estimate", "--data", str(data), "--out-curves",
                     str(tmp_path / "c.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "not a canonical dataset file" in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("flag", ["--tol", "--epsilon"])
    def test_nan_tolerance_or_window_is_validation_error(self, tmp_path,
                                                         capsys, flag):
        data = simulate(tmp_path)
        capsys.readouterr()
        code = main(["estimate", "--data", str(data), "--out-curves",
                     str(tmp_path / "c.csv"), flag, "nan"])
        assert code == 3
        assert "> 0" in capsys.readouterr().err


    @pytest.mark.parametrize("flag, message", [("--tol", "finite tol"),
                                               ("--epsilon", "finite epsilon")])
    def test_infinite_tolerance_or_window_is_validation_error(self, tmp_path, capsys,
                                                              flag, message):
        data = simulate(tmp_path)
        capsys.readouterr()
        blob = tmp_path / "diag.json"
        code = main(["estimate", "--data", str(data), "--out-curves",
                     str(tmp_path / "c.csv"), "--out-json", str(blob), flag, "inf"])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not blob.exists()


class TestMetricsCommand:
    def test_distances_between_series(self, tmp_path, capsys):
        data = simulate(tmp_path)
        curves = tmp_path / "curves.csv"
        assert main(["estimate", "--data", str(data), "--out-curves",
                     str(curves)]) == 0
        capsys.readouterr()
        assert main(["metrics", "--curves", str(curves)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert 0.0 <= out["ks"] <= 1.0
        assert 0.0 <= out["tv"] <= 1.0

    def test_unknown_series(self, tmp_path):
        data = simulate(tmp_path)
        curves = tmp_path / "curves.csv"
        assert main(["estimate", "--data", str(data), "--out-curves",
                     str(curves)]) == 0
        assert main(["metrics", "--curves", str(curves),
                     "--series-a", "nope"]) == 3

    @pytest.mark.parametrize("text,line", [
        ("# only a comment\n", None),
        ("x,f_init,f_mle\n", None),
        ("x,f_init,f_mle\n1.0,0.1,0.2\n2.0,0.5\n", "line 3"),
        ("x,f_init,f_mle\n0,0,0,9\n1,1,0.5,9\n", "line 2"),
        ("# c\nx,f_init,f_mle\n1.0,0.1,0.2\n2.0,0.5,abc\n", "line 4"),
        ("x,f_init,f_mle\n1.0,0.1,0.2\n2.0,nan,0.4\n", "line 3"),
        ("x,f_init,f_mle\n1.0,0.1,0.2\ninf,0.5,0.4\n", "line 3"),
    ], ids=["comment-only", "header-only", "short-row", "long-row", "non-numeric",
            "nan", "inf"])
    def test_malformed_curves_file(self, tmp_path, capsys, text, line):
        curves = tmp_path / "curves.csv"
        curves.write_text(text)
        assert main(["metrics", "--curves", str(curves)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(curves) in captured.err
        if line:
            assert line in captured.err


class TestBandsCommand:
    def test_init_band(self, tmp_path, capsys):
        data = simulate(tmp_path, K=40)
        out = tmp_path / "band.csv"
        code = main(["bands", "--data", str(data), "--kind", "init",
                     "--alpha", "0.3", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert "B=3" in capsys.readouterr().out
        rows = [r for r in out.read_text().splitlines()
                if not r.startswith("#")]
        assert rows[0] == "x,lower,upper,estimate"

    def test_auto_delta_echo(self, tmp_path):
        # the seeded median-bias replicates give this delta, echoed into
        # the band file
        data = simulate(tmp_path, K=40)
        out = tmp_path / "band.csv"
        assert main(["bands", "--data", str(data), "--auto-delta", "--seed", "3",
                     "--out", str(out)]) == 0
        assert "# delta=0.01782527989524718" in out.read_text().splitlines()


    def test_infinite_window_is_validation_error(self, tmp_path, capsys):
        data = simulate(tmp_path, K=40)
        capsys.readouterr()
        out = tmp_path / "band.csv"
        assert main(["bands", "--data", str(data), "--epsilon", "inf",
                     "--out", str(out)]) == 3
        assert "finite epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_bias_near_one_half_is_refused_at_once(self, tmp_path, capsys):
        # some 2.3e10 batches, counted in a few steps
        data = simulate(tmp_path, K=40)
        capsys.readouterr()
        out = tmp_path / "band.csv"
        assert main(["bands", "--data", str(data), "--delta", "0.4999999999",
                     "--out", str(out)]) == 3
        assert "need at least B=23025849024 auctions" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        data = simulate(tmp_path, K=40)
        capsys.readouterr()
        out = tmp_path / "band.csv"
        assert main(["bands", "--data", str(data), "--auto-delta", "--seed", "-1",
                     "--out", str(out)]) == 3
        assert "--seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()


class TestReplicateCommand:
    def test_small_run(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["replicate", "--setting", "uniform:1,8:25", "--reps",
                     "2", "--lambda", "0.5", "--tau", "20.0", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert "uniform-K25" in capsys.readouterr().out
        assert out.exists()

    def test_setting_from_config(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("setting=uniform:1,8:25;uniform:1,8:30\nreps=1\n"
                          "lambda=0.5\ntau=20.0\n")
        assert main(["replicate", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert "uniform-K25" in out and "uniform-K30" in out
        # a --setting flag replaces the config's list
        assert main(["replicate", "--config", str(config),
                     "--setting", "uniform:1,8:35"]) == 0
        labels = [r.split(":")[0] for r in capsys.readouterr().out.splitlines()]
        assert labels == ["uniform-K35"]
        # an empty list is a missing setting
        config.write_text("setting=;\nreps=1\n")
        assert main(["replicate", "--config", str(config)]) == 3
        assert "'setting'" in capsys.readouterr().err
        # a K that is not an integer is a validation error naming the setting
        for spec in ("uniform:1,8:abc", "uniform:1,8:2.5"):
            config.write_text(f"setting={spec}\nreps=1\n")
            assert main(["replicate", "--config", str(config)]) == 3
            assert repr(spec) in capsys.readouterr().err
            assert main(["replicate", "--setting", spec]) == 3
            assert repr(spec) in capsys.readouterr().err

    def test_reasons_line_only_for_a_setting_with_failures(self, capsys, monkeypatch):
        # the fits of the calls (counted from 1) in ``failing`` raise a
        # two-line message; only its first line is printed
        failing, calls = set(), count(1)

        def fit_or_fail(*args, **kwargs):
            if next(calls) in failing:
                raise NumericalError("solver stalled\nat iteration 7")
            return fit(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fit", fit_or_fail)
        argv = ["replicate", "--setting", "uniform:1,8:25", "--setting",
                "uniform:1,8:30", "--reps", "3", "--lambda", "0.5", "--tau", "20.0"]
        failing.update({5})
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "uniform-K25", "uniform-K30", "  failed"]
        assert lines[1].endswith("(2 replicates, 1 failed)")
        assert lines[2] == "  failed: NumericalError: solver stalled (1 times)"
        failing.update({10, 11, 12})   # the second run's second setting
        assert main(argv) == 4
        assert "K=30; most often NumericalError: solver stalled (3 times)" in \
            capsys.readouterr().err

    def test_overflowing_arrival_product_is_validation_error(self, capsys):
        assert main(["replicate", "--setting", "uniform:1,8:10", "--lambda", "1e308",
                     "--tau", "1e308"]) == 3
        assert "lam * tau must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_replicate_count_below_one_is_validation_error(self, capsys, reps):
        assert main(["replicate", "--setting", "uniform:1,8:10", "--reps", reps]) == 3
        assert "at least 1 replicate" in capsys.readouterr().err

    def test_negative_seed_is_validation_error(self, capsys):
        assert main(["replicate", "--setting", "uniform:1,8:10", "--reps", "2",
                     "--seed", "-1"]) == 3
        assert "--seed must be non-negative" in capsys.readouterr().err

    def test_bad_q_is_validation_error_before_simulating(self, capsys, monkeypatch):
        monkeypatch.setattr(simulate_module, "run_study", None)   # nothing is simulated
        assert main(["replicate", "--setting", "uniform:1,5:25", "--reps", "2",
                     "--q", "1.5", "--tau", "20"]) == 3
        assert "need 0 < q < 1 and a finite epsilon > 0" in capsys.readouterr().err


class TestPlotCommand:
    def test_plot_outputs(self, tmp_path):
        data = simulate(tmp_path)
        curves = tmp_path / "curves.csv"
        assert main(["estimate", "--data", str(data), "--out-curves",
                     str(curves)]) == 0
        out_csv = tmp_path / "plot.csv"
        out_svg = tmp_path / "plot.svg"
        assert main(["plot", "--curves", str(curves), "--out-csv",
                     str(out_csv), "--out-svg", str(out_svg)]) == 0
        assert out_csv.read_text().startswith("x,series,value")
        svg = out_svg.read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg
        assert "nan" not in svg and "inf" not in svg

    def test_series_names_are_escaped_in_the_svg(self, tmp_path):
        curves = tmp_path / "curves.csv"
        curves.write_text("x,f<a&b,g]]>h,plain\n1.0,0.1,0.2,0.3\n2.0,0.5,0.6,0.7\n")
        out_svg = tmp_path / "plot.svg"
        assert main(["plot", "--curves", str(curves), "--out-csv",
                     str(tmp_path / "plot.csv"), "--out-svg", str(out_svg)]) == 0
        texts = ElementTree.parse(out_svg).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts] == ["f<a&b", "g]]>h", "plain"]

    def test_series_names_xml_cannot_hold_are_refused(self, tmp_path, capsys):
        # quotes and non-ASCII letters are text like any other; U+0001 is
        # not allowed in XML 1.0 even as a character reference
        curves = tmp_path / "curves.csv"
        out_csv, out_svg = tmp_path / "plot.csv", tmp_path / "plot.svg"
        argv = ["plot", "--curves", str(curves), "--out-csv", str(out_csv),
                "--out-svg", str(out_svg)]
        curves.write_text('x,f<"é"&,Ωmega\n1.0,0.1,0.2\n2.0,0.5,0.6\n', encoding="utf-8")
        assert main(argv) == 0
        texts = ElementTree.parse(out_svg).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert [t.text for t in texts] == ['f<"é"&', "Ωmega"]
        out_csv.unlink()
        out_svg.unlink()
        capsys.readouterr()
        curves.write_text("x,a\x01b,plain\n1.0,0.1,0.2\n2.0,0.5,0.6\n")
        assert main(argv) == 3
        assert "column 'a\\x01b'" in capsys.readouterr().err
        assert not out_csv.exists() and not out_svg.exists()
        # without the chart the name is only a CSV field
        assert main(argv[:-2]) == 0 and out_csv.exists()

    def test_malformed_band_file(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text("x,f_init,f_mle\n1.0,0.1,0.2\n2.0,0.5,0.6\n")
        bands = tmp_path / "band.csv"
        bands.write_text("# alpha=0.1\nx,lower,upper,estimate\n"
                         "1.0,0.0,0.3,0.2\n2.0,0.4\n")
        assert main(["plot", "--curves", str(curves), "--bands", str(bands),
                     "--out-csv", str(tmp_path / "plot.csv")]) == 3
        assert f"{bands} line 4" in capsys.readouterr().err

    def test_unordered_band_x_is_validation_error(self, tmp_path, capsys):
        curves = tmp_path / "curves.csv"
        curves.write_text("x,f_init,f_mle\n1.0,0.1,0.2\n2.0,0.5,0.6\n")
        bands = tmp_path / "band.csv"
        # each envelope rises row by row, but x does not
        bands.write_text("x,lower,upper,estimate\n3.0,0.0,0.3,0.2\n"
                         "1.0,0.1,0.4,0.3\n2.0,0.2,0.5,0.4\n")
        out = tmp_path / "plot.csv"
        assert main(["plot", "--curves", str(curves), "--bands", str(bands),
                     "--out-csv", str(out)]) == 3
        assert "strictly ascending" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["plot", "metrics"])
    def test_curves_file_without_series_is_validation_error(self, tmp_path,
                                                            capsys, command):
        curves = tmp_path / "curves.csv"
        curves.write_text("x\n1\n2\n")
        argv = [command, "--curves", str(curves)]
        if command == "plot":
            argv += ["--out-csv", str(tmp_path / "plot.csv")]
        assert main(argv) == 3
        assert f"{curves} has no curve column" in capsys.readouterr().err


class TestCsvDialect:
    def test_outputs_end_every_line_in_newline_alone(self, tmp_path):
        data = simulate(tmp_path)
        curves, trace = tmp_path / "c.csv", tmp_path / "trace.csv"
        band, report = tmp_path / "band.csv", tmp_path / "report.csv"
        plot, log = tmp_path / "plot.csv", tmp_path / "log.csv"
        assert main(["estimate", "--data", str(data), "--out-curves",
                     str(curves), "--trace", str(trace)]) == 0
        assert main(["bands", "--data", str(data), "--kind", "init",
                     "--alpha", "0.3", "--out", str(band)]) == 0
        assert main(["replicate", "--setting", "uniform:1,8:25", "--reps",
                     "1", "--lambda", "0.5", "--tau", "20.0", "--out",
                     str(report)]) == 0
        assert main(["plot", "--curves", str(curves), "--bands", str(band),
                     "--out-csv", str(plot)]) == 0
        export_bid_log(log, [(0.5, np.array([1.0, 2.0]), np.array([3.0, 4.0]))],
                       10.0)
        for path in (data, curves, trace, band, report, plot, log):
            raw = path.read_bytes()
            assert b"\r" not in raw and raw.endswith(b"\n"), path.name

    def test_output_path_holding_a_quote_and_a_comma(self, tmp_path, capsys):
        # the echoed "# out=..." line is a comment, never the start of a
        # quoted field
        data = simulate(tmp_path, name='a,"b.csv')
        curves = tmp_path / 'c,"d.csv'
        assert main(["estimate", "--data", str(data), "--out-curves",
                     str(curves)]) == 0
        assert main(["metrics", "--curves", str(curves)]) == 0

    def test_output_path_holding_non_ascii_text(self, tmp_path, capsys):
        # the echoed "# out=..." line is written as UTF-8, which the
        # readers expect
        data = simulate(tmp_path, name="données.csv")
        assert f"# out={data}\n".encode() in data.read_bytes()
        assert main(["estimate", "--data", str(data), "--out-curves",
                     str(tmp_path / "c.csv")]) == 0

    @pytest.mark.parametrize("name", ["a\nb.csv", "c\rd.csv"])
    def test_output_path_holding_a_line_break(self, tmp_path, capsys, name):
        # each line of the echoed "# out=..." entry is a comment of its own
        data = simulate(tmp_path, name=name)
        assert main(["estimate", "--data", str(data), "--out-curves",
                     str(tmp_path / "c.csv")]) == 0


class TestIngestCommand:
    def test_ingest_and_report(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
            "1,5.0,1.0,alice,0,0.5,5.0\n"
            "1,7.0,2.0,bob,0,0.5,5.0\n"
            "2,6.0,1.5,carol,0,0.8,0.8\n")
        out = tmp_path / "dataset.csv"
        report = tmp_path / "report.txt"
        code = main(["ingest", "--data", str(log), "--duration", "7",
                     "--noise-seed", "1", "--noise-scale", "0.001",
                     "--out", str(out), "--report-out", str(report)])
        assert code == 0
        assert "auctions: 2" in report.read_text()
        ds = read_dataset(out)
        assert ds.K == 2

    def test_report_makes_its_directory(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
            "1,5.0,1.0,alice,0,0.5,5.0\n"
            "1,7.0,2.0,bob,0,0.5,5.0\n")
        report = tmp_path / "new" / "report.txt"
        assert main(["ingest", "--data", str(log), "--duration", "7",
                     "--out", str(tmp_path / "dataset.csv"),
                     "--report-out", str(report)]) == 0
        assert report.read_text().splitlines() == \
            capsys.readouterr().out.splitlines()[:-1]

    def test_non_finite_rows_are_validation_errors(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
            "1,5.0,1.0,alice,0,0.5,8.0\n"
            "1,nan,2.0,bob,0,0.5,8.0\n"
            "1,inf,3.0,carol,0,0.5,8.0\n"
            "1,8.0,nan,dave,0,0.5,8.0\n")
        out = tmp_path / "dataset.csv"
        code = main(["ingest", "--data", str(log), "--duration", "7",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert all(f"row {n}" in err for n in (3, 4, 5))
        assert not out.exists()

    def test_short_or_overflowing_rows_are_validation_errors(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
            "1,5.0,1.0,alice,0,0.5,8.0\n"
            "1,6.0\n"
            "1,7.0,2.0,bob,inf,0.5,8.0\n"
            "1,8.0,3.0,carol,1e400,0.5,8.0\n")
        out = tmp_path / "dataset.csv"
        code = main(["ingest", "--data", str(log), "--duration", "7",
                     "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert all(f"row {n}" in err for n in (3, 4, 5))
        assert "Traceback" not in err
        assert not out.exists()

    def test_field_beyond_the_csv_limit_is_validation_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
            "1,5.0,1.0,alice,0,0.5,8.0\n"
            f"1,6.0,2.0,{'b' * 200_000},0,0.5,8.0\n")
        out = tmp_path / "dataset.csv"
        assert main(["ingest", "--data", str(log), "--duration", "7",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{log} line 3: field larger than field limit" in err
        assert not out.exists()

    def test_row_with_extra_fields_is_validation_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
            "1,5.0,1.0,alice,0,0.5,8.0,junk,more\n")
        out = tmp_path / "dataset.csv"
        assert main(["ingest", "--data", str(log), "--duration", "7",
                     "--out", str(out)]) == 3
        assert "row 2: 2 field(s) beyond" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["-1", "nan", "inf"])
    def test_bad_noise_scale_is_validation_error(self, tmp_path, capsys, scale):
        log = tmp_path / "log.csv"
        log.write_text(
            "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
            "1,5.0,1.0,alice,0,0.5,8.0\n")
        out = tmp_path / "dataset.csv"
        assert main(["ingest", "--data", str(log), "--duration", "7",
                     "--noise-scale", scale, "--out", str(out)]) == 3
        assert "noise_scale" in capsys.readouterr().err
        assert not out.exists()

    def test_refused_auction_is_named_by_its_id(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
            "7,5.0,1.0,alice,0,0.5,8.0\n"
            "7,6.0,2.0,bob,0,0.5,8.0\n"
            "7,8.0,2.0,carol,0,0.5,8.0\n")
        out = tmp_path / "dataset.csv"
        assert main(["ingest", "--data", str(log), "--duration", "7",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "auction 7: non-positive waiting time" in err
        assert "auction 0" not in err
        assert not out.exists()

    def test_negative_noise_seed_is_validation_error(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "auctionid,bid,bidtime,bidder,bidderrate,openbid,price\n"
            "1,5.0,1.0,alice,0,0.5,8.0\n")
        out = tmp_path / "dataset.csv"
        assert main(["ingest", "--data", str(log), "--duration", "7",
                     "--noise-seed", "-1", "--out", str(out)]) == 3
        assert "--noise-seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()
