import csv
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from robustfinite import __version__, calibration, estimators, factors
from robustfinite.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_lines(text):
    """CSV rows of a CLI output, metadata comments stripped."""
    return [line for line in text.strip().splitlines() if not line.startswith("#")]


@pytest.fixture
def obs_file(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# three observations\n1\n2\n3\n")
    return str(path)


class TestEstimate:
    def test_unbiased_mad_chain(self, capsys, obs_file):
        code, out, _ = run_cli(capsys, "estimate", "--estimator", "mad",
                               "--unbiased", "--input", obs_file)
        assert code == 0
        header, row = data_lines(out)
        assert header == "estimator,n,value"
        name, n, value = row.split(",")
        assert (name, n) == ("mad", "3")
        # mad([1,2,3]) / c5(3), chained by hand before the build
        assert float(value) == pytest.approx(2.204907061, abs=1e-6)

    def test_every_estimator_runs(self, capsys, obs_file):
        for est in ("mean", "median", "hl1", "hl2", "hl3", "std", "mad", "shamos"):
            code, out, _ = run_cli(capsys, "estimate", "--estimator", est,
                                   "--input", obs_file)
            assert code == 0, est

    def test_estimates_match_the_api(self, capsys, obs_file):
        values = [1.0, 2.0, 3.0]
        runs = [((est,), fn(values)) for est, fn in (
            ("mean", estimators.mean), ("median", estimators.median),
            ("hl1", estimators.hl1), ("hl2", estimators.hl2), ("hl3", estimators.hl3),
            ("std", estimators.std_dev), ("mad", estimators.mad),
            ("shamos", estimators.shamos))]
        runs += [((est, "--unbiased"), fn(values)) for est, fn in (
            ("std", lambda x: estimators.std_dev(x, unbiased_c4=True)),
            ("mad", factors.unbiased_mad), ("shamos", factors.unbiased_shamos))]
        for (est, *flags), want in runs:
            code, out, _ = run_cli(capsys, "estimate", "--estimator", est, *flags,
                                   "--input", obs_file)
            assert code == 0, est
            assert data_lines(out)[1] == f"{est},3,{want:.10g}", (est, flags)

    def test_metadata_line_carries_flags(self, capsys, obs_file):
        _, out, _ = run_cli(capsys, "estimate", "--estimator", "mean",
                            "--input", obs_file)
        first = out.splitlines()[0]
        assert first.startswith("# robustfinite")
        assert "estimate" in first and "--estimator mean" in first

    def test_unbiased_location_is_usage_error(self, capsys, obs_file):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--estimator", "median", "--unbiased",
                  "--input", obs_file])
        assert exc.value.code == 2

    def test_bad_data_exits_1_naming_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1\noops\n3\n")
        code, _, err = run_cli(capsys, "estimate", "--estimator", "mean",
                               "--input", str(path))
        assert code == 1
        assert "line 2" in err

    def test_missing_file_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--estimator", "mean",
                               "--input", "/nonexistent.csv")
        assert code == 1

    def test_values_near_largest_double(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1.7e308\n1.7e308\n")
        for est, value in (("mean", "1.7e+308"), ("std", "0")):
            code, out, _ = run_cli(capsys, "estimate", "--estimator", est,
                                   "--input", str(path))
            assert code == 0, est
            assert data_lines(out)[1] == f"{est},2,{value}"

    def test_too_small_sample_exits_1(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("5\n")
        code, _, err = run_cli(capsys, "estimate", "--estimator", "mad",
                               "--input", str(path))
        assert code == 1


class TestBreakdown:
    def test_matches_packaged_golden_table(self, capsys):
        code, out, _ = run_cli(capsys, "breakdown", "--n-max", "50")
        assert code == 0
        got = data_lines(out)
        golden = (resources.files("robustfinite") / "data" /
                  "breakdown_table.csv").read_text().strip().splitlines()
        assert got == golden

    def test_row_count(self, capsys):
        _, out, _ = run_cli(capsys, "breakdown", "--n-max", "10")
        assert len(data_lines(out)) == 1 + 9  # header + n = 2..10


class TestFactors:
    def test_n2_values(self, capsys):
        code, out, _ = run_cli(capsys, "factors", "--n", "2")
        assert code == 0
        row = dict(zip(*[line.split(",") for line in data_lines(out)]))
        assert row["c5"] == "0.8366120"
        assert row["c6"] == "1.1831500"
        assert row["source"] == "table"

    def test_model_range(self, capsys):
        _, out, _ = run_cli(capsys, "factors", "--n", "150", "--model", "williams")
        assert data_lines(out)[1].endswith("williams-model")

    def test_small_n_data_error(self, capsys):
        code, _, err = run_cli(capsys, "factors", "--n", "1")
        assert code == 1

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(capsys, "factors", "--n", "5", "--out", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: cannot write {path}: No such file or directory\n"


class TestSimulateAndFit:
    def test_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "bias.csv"
        code, _, _ = run_cli(capsys, "simulate", "--estimator", "mad",
                             "--n", "2,3,5", "--reps", "2000", "--seed", "42",
                             "--out", str(out_path))
        assert code == 0
        with open(out_path) as f:
            rows = list(csv.DictReader(
                line for line in f if not line.startswith("#")))
        assert [r["n"] for r in rows] == ["2", "3", "5"]
        assert all(r["seed"] == "42" for r in rows)

        # the emitted CSV is accepted unchanged by fit
        code, out, _ = run_cli(capsys, "fit", "--model", "hayes",
                               "--input", str(out_path), "--target", "A")
        assert code == 0
        header, row = data_lines(out)
        assert header.startswith("form,target,p_over_n,q_over_n2")
        assert row.startswith("hayes,A,")

    def test_n_range_syntax(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--estimator", "mean",
                               "--n", "2:4", "--reps", "500", "--seed", "1")
        assert code == 0
        assert [r.split(",")[0] for r in data_lines(out)[1:]] == ["2", "3", "4"]

    def test_inverted_n_range_is_data_error(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--estimator", "mad",
                                 "--n", "3,10:2", "--reps", "200", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == "error: empty range '10:2' in --n '3,10:2'\n"

    @pytest.mark.parametrize("sizes, token", [("2:x", "2:x"), ("5,a", "a"), ("3:", "3:")])
    def test_bad_n_token_is_named(self, capsys, sizes, token):
        code, out, err = run_cli(capsys, "simulate", "--estimator", "mad",
                                 "--n", sizes, "--reps", "200", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == f"error: bad size or range {token!r} in --n {sizes!r}\n"

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--estimator", "mad", "--n", "2", "--reps", "500"])
        assert exc.value.code == 2

    def test_incompatible_n_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--estimator", "shamos",
                               "--n", "1", "--reps", "500", "--seed", "0")
        assert code == 1

    def test_non_integer_worker_env_is_data_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ROBUST_FINITE_THREADS", "two")
        code, _, err = run_cli(capsys, "simulate", "--estimator", "mean",
                               "--n", "3", "--reps", "500", "--seed", "0")
        assert code == 1
        assert "ROBUST_FINITE_THREADS" in err and "'two'" in err

    def test_worker_count_below_one_is_data_error(self, capsys, monkeypatch):
        args = ("--reps", "300", "--seed", "0")
        for sub in (("simulate", "--estimator", "mean", "--n", "3"), ("spc-demo",)):
            code, out, err = run_cli(capsys, *sub, *args, "--workers", "0")
            assert (code, out) == (1, "")
            assert err == "error: worker count must be an integer of at least 1, got 0\n"
            monkeypatch.setenv("ROBUST_FINITE_THREADS", "0")
            code, out, err = run_cli(capsys, *sub, *args)
            monkeypatch.delenv("ROBUST_FINITE_THREADS")
            assert (code, out) == (1, "")
            assert err == "error: ROBUST_FINITE_THREADS must be an integer of at least 1, got '0'\n"

    def test_negative_seed_is_data_error(self, capsys):
        for sub in (("simulate", "--estimator", "mean", "--n", "3"), ("spc-demo",)):
            code, out, err = run_cli(capsys, *sub, "--reps", "300", "--seed", "-1")
            assert (code, out) == (1, "")
            assert err == ("error: master_seed must be a non-negative integer, "
                           "got -1\n")

    def test_workers_do_not_change_output(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "sim.csv"
        outputs = []
        for workers in ("1", "3"):
            monkeypatch.setenv("ROBUST_FINITE_THREADS", workers)
            run_cli(capsys, "simulate", "--estimator", "median", "--n", "3,5",
                    "--reps", "2000", "--seed", "9", "--out", str(path))
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seeded_headers_name_the_generator(self, capsys):
        """simulate and spc-demo name the bit generator and the numpy version
        of their normals after the flags; factors draws nothing."""
        drawn = f" | {calibration._BIT_GENERATOR.__name__} numpy {np.__version__}"
        for argv in (("simulate", "--estimator", "mean", "--n", "3", "--reps", "300",
                      "--seed", "1", "--workers", "1"),
                     ("spc-demo", "--reps", "300", "--seed", "1", "--workers", "1")):
            _, out, _ = run_cli(capsys, *argv)
            assert out.splitlines()[0] == \
                f"# robustfinite {__version__} | " + " ".join(argv) + drawn
        _, out, _ = run_cli(capsys, "factors", "--n", "5")
        assert out.splitlines()[0] == f"# robustfinite {__version__} | factors --n 5"

    def test_fit_williams_target_b(self, capsys, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("n,estimate,bias,variance,normalized,mc_se,reps,seed\n"
                        + "".join(f"{n},0,{0.4358 * n**-1.0084},0,0,0,1,1\n"
                                  for n in (100, 200, 400)))
        code, out, _ = run_cli(capsys, "fit", "--model", "williams",
                               "--input", str(path), "--target", "B")
        assert code == 0
        row = data_lines(out)[1].split(",")
        assert float(row[2]) == pytest.approx(0.4358, rel=1e-3)
        assert float(row[3]) == pytest.approx(1.0084, rel=1e-3)

    def test_fit_non_finite_value_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("n,estimate,bias,variance,normalized,mc_se,reps,seed\n"
                        "2,0,nan,0,0,0,1,1\n3,0,0.1,0,0,0,1,1\n4,0,0.05,0,0,0,1,1\n")
        code, out, err = run_cli(capsys, "fit", "--model", "hayes",
                                 "--input", str(path))
        assert (code, out) == (1, "")
        assert err == ("error: point (n=2.0, value=nan) needs a finite n > 0 "
                       "and a finite value\n")

    def test_fit_missing_column_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        code, _, err = run_cli(capsys, "fit", "--model", "hayes",
                               "--input", str(path))
        assert code == 1


class TestSpcDemo:
    def test_schema_and_determinism(self, capsys, tmp_path):
        args = ("spc-demo", "--k", "4", "--n", "5", "--delta", "0,20",
                "--reps", "300", "--seed", "7")
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        lines = data_lines(first)
        assert lines[0] == "delta,method,bias,variance,mse,reps"
        assert len(lines) == 1 + 2 * 6  # two deltas, six methods
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_seed_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["spc-demo", "--reps", "300"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, value", [("--k", "0"), ("--n", "1")])
    def test_too_few_subgroups_or_observations_is_data_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "spc-demo", flag, value, "--reps", "300",
                                 "--seed", "7")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {flag[2:]} (") and err.endswith(f"got {value}\n")

    @pytest.mark.parametrize("flag, value, name, got", [
        ("--sigma", "-1", "sigma", "-1.0"), ("--delta", "0,nan", "delta_grid", "nan")])
    def test_invalid_process_or_shift_is_data_error(self, capsys, flag, value, name, got):
        code, out, err = run_cli(capsys, "spc-demo", flag, value, "--reps", "300",
                                 "--seed", "7")
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {name} ") and err.endswith(f"got {got}\n")

    def test_bad_delta_token_is_named(self, capsys):
        code, out, err = run_cli(capsys, "spc-demo", "--delta", "0, abc", "--reps", "300",
                                 "--seed", "7")
        assert (code, out) == (1, "")
        assert err == "error: bad number 'abc' in --delta '0, abc'\n"


def test_repeated_calls_share_one_parser(capsys, obs_file):
    """The parser is built once per process: a second run of each command
    writes the same bytes, and a usage error after other subcommands still
    exits 2 with the same message."""
    runs = (("estimate", "--estimator", "hl1", "--input", obs_file),
            ("simulate", "--estimator", "hl1", "--n", "20", "--reps", "500", "--seed", "3",
             "--workers", "1"),
            ("factors", "--n", "150", "--model", "williams"))
    first = [run_cli(capsys, *argv) for argv in runs]
    assert [code for code, _, _ in first] == [0, 0, 0]
    assert [run_cli(capsys, *argv) for argv in runs] == first
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--estimator", "mad", "--n", "2", "--reps", "500"])
        errors.append((exc.value.code, capsys.readouterr().err))
    assert errors[0] == errors[1]
    assert errors[0][0] == 2
    assert "the following arguments are required: --seed" in errors[0][1]
    assert build_parser.cache_info().misses == 1


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, robustfinite, robustfinite.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=pythonpath), timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr
