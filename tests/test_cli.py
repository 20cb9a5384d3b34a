import json
import shutil

import numpy as np
import pytest

from ecocast.cli import config_from_dict, main, run

GRID_2X2 = """ncols 2
nrows 2
xllcorner 0.0
yllcorner 0.0
cellsize 10.0
NODATA_value -9999.0
{rows}
"""


def write_grid(path, rows="1.0 2.0\n3.0 4.0"):
    path.write_text(GRID_2X2.format(rows=rows))
    return str(path)


def read_report(path):
    return json.loads(path.read_text())


class TestCountParams:
    def test_large_layout_totals(self, tmp_path):
        report = tmp_path / "counts.json"
        code = main([
            "count-params",
            "--series-count", "40",
            "--map-pixels", "10000",
            "--bricks", "4",
            "--brick-kind", "kernel-tensor",
            "--per-brick-scaling",
            "--series-length", "3650",
            "--report", str(report),
        ])
        assert code == 0
        doc = read_report(report)
        out = doc["outputs"]
        assert out["scaling_factors"] == 328
        assert out["ridge_coefficients"] == 4
        assert out["total_unknowns"] == 332
        assert out["series_data_points"] == 146_000
        assert out["total_data_points"] == 156_000
        assert doc["config"]["seed"] == 0

    def test_shared_scaling_single_kernel(self, tmp_path):
        report = tmp_path / "counts.json"
        main([
            "count-params", "--series-count", "40", "--map-pixels", "10000",
            "--bricks", "4", "--brick-kind", "kernel", "--report", str(report),
        ])
        assert read_report(report)["outputs"]["scaling_factors"] == 41


class TestSimulateFit:
    def test_simulate_then_fit_recovers_parameters(self, tmp_path):
        csv = tmp_path / "lv.csv"
        sim_report = tmp_path / "sim.json"
        assert main([
            "simulate", "--alpha", "1.1", "--beta", "0.4", "--gamma", "0.4",
            "--delta", "0.1", "--prey0", "10", "--predators0", "5",
            "--dt", "1e-3", "--steps", "20000",
            "--output", str(csv), "--report", str(sim_report),
        ]) == 0
        sim = read_report(sim_report)
        assert sim["outputs"]["points"] == 20001
        assert sim["outputs"]["first_integral_drift"] < 1e-6

        fit_report = tmp_path / "fit.json"
        assert main(["fit-lv", "--series", str(csv), "--report", str(fit_report)]) == 0
        out = read_report(fit_report)["outputs"]
        for name, truth in (("alpha", 1.1), ("beta", 0.4), ("gamma", 0.4), ("delta", 0.1)):
            assert abs(out[name] - truth) / truth < 0.02

    def test_fit_picks_columns_by_header_name(self, tmp_path):
        csv = tmp_path / "lv.csv"
        main(["simulate", "--dt", "1e-3", "--steps", "5000", "--output", str(csv),
              "--report", str(tmp_path / "sim.json")])
        swapped = tmp_path / "swapped.csv"
        rows = [line.split(",") for line in csv.read_text().splitlines()]
        assert rows[0] == ["t", "prey", "predators"]
        swapped.write_text("".join(f"{t},{b},{a}\n" for t, a, b in rows))
        fits = []
        for path in (csv, swapped):
            report = tmp_path / f"{path.stem}.fit.json"
            assert main(["fit-lv", "--series", str(path), "--report", str(report)]) == 0
            fits.append(read_report(report)["outputs"])
        assert fits[0] == fits[1]
        assert abs(fits[0]["alpha"] - 1.1) / 1.1 < 0.02

    def test_fit_rejects_unnamed_columns(self, tmp_path, capsys):
        csv = tmp_path / "lv.csv"
        csv.write_text("t,rabbits,predators\n0,10,5\n1,11,4\n2,12,4\n")
        assert main(["fit-lv", "--series", str(csv)]) == 1
        assert "'prey'" in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.fixture
def small_series(tmp_path):
    csv = tmp_path / "series.csv"
    main([
        "simulate", "--dt", "0.05", "--steps", "120",
        "--output", str(csv), "--report", str(tmp_path / "sim.json"),
    ])
    return csv


class TestTrain:
    def test_identical_runs_give_byte_identical_models(self, tmp_path, small_series):
        args = lambda model, report: [
            "train", "--series", str(small_series), "--bricks", "2",
            "--brick-kind", "kernel", "--ridge", "1e-6", "--seed", "7",
            "--model-out", str(tmp_path / model), "--report", str(tmp_path / report),
        ]
        assert main(args("m1.json", "r1.json")) == 0
        assert main(args("m2.json", "r2.json")) == 0
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_report_config_replays_bit_identically(self, tmp_path, small_series):
        model = tmp_path / "model.json"
        report = tmp_path / "train.json"
        assert main([
            "train", "--series", str(small_series), "--bricks", "2",
            "--brick-kind", "dsn", "--hidden-size", "6", "--ridge", "1e-5",
            "--seed", "3", "--split-fraction", "0.8",
            "--model-out", str(model), "--report", str(report),
        ]) == 0
        doc = read_report(report)
        first_bytes = model.read_bytes()
        shutil.copy(model, tmp_path / "model.first.json")
        replay = config_from_dict(doc["config"])
        run(replay)
        assert model.read_bytes() == first_bytes
        assert read_report(report)["outputs"] == doc["outputs"]

    def test_train_with_context_and_scale_search(self, tmp_path, small_series):
        grid = write_grid(tmp_path / "ctx.asc")
        model = tmp_path / "model.json"
        report = tmp_path / "train.json"
        assert main([
            "train", "--series", str(small_series), "--grid", grid,
            "--bricks", "1", "--brick-kind", "kernel", "--ridge", "1e-4",
            "--split-fraction", "0.8", "--rho-grid", "0.5,1,2",
            "--model-out", str(model), "--report", str(report),
        ]) == 0
        out = read_report(report)["outputs"]
        trace = out["scale_search"]["loss_trace"]
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert "validation_rmse" in out


class TestPredictRolloutHorizon:
    @pytest.fixture
    def trained(self, tmp_path, small_series):
        model = tmp_path / "model.json"
        main([
            "train", "--series", str(small_series), "--bricks", "2",
            "--brick-kind", "kernel", "--ridge", "1e-6",
            "--model-out", str(model), "--report", str(tmp_path / "train.json"),
        ])
        return model

    def test_predict_writes_shifted_csv(self, tmp_path, small_series, trained):
        out = tmp_path / "pred.csv"
        assert main([
            "predict", "--series", str(small_series), "--model-in", str(trained),
            "--output", str(out), "--report", str(tmp_path / "p.json"),
        ]) == 0
        from ecocast.io import read_timeseries_csv

        source = read_timeseries_csv(small_series)
        pred = read_timeseries_csv(out)
        assert pred.n_points == source.n_points
        assert pred.times[0] == pytest.approx(source.times[0] + source.dt)
        # one-step predictions on training points track the data closely
        assert np.allclose(pred.values[:, :-1], source.values[:, 1:], atol=0.3)

    def test_rollout_and_reports(self, tmp_path, small_series, trained):
        out = tmp_path / "roll.csv"
        report = tmp_path / "roll.json"
        assert main([
            "rollout", "--series", str(small_series), "--model-in", str(trained),
            "--steps", "20", "--reference", str(small_series),
            "--output", str(out), "--errors-output", str(tmp_path / "err.csv"),
            "--report", str(report),
        ]) == 0
        doc = read_report(report)
        assert doc["outputs"]["steps_completed"] <= 20
        assert not doc["outputs"]["diverged"]
        assert (tmp_path / "err.csv").exists()

    def test_horizon_report(self, tmp_path, small_series, trained):
        report = tmp_path / "horizon.json"
        assert main([
            "horizon", "--series", str(small_series), "--model-in", str(trained),
            "--split-fraction", "0.8", "--epsilon", "0.2",
            "--errors-output", str(tmp_path / "curve.csv"),
            "--report", str(report),
        ]) == 0
        out = read_report(report)["outputs"]
        assert 1 <= out["horizon"] <= out["validation_points"]
        assert out["spectral_radius"] is None  # kernel stack: not applicable
        assert len(out["error_curve"]) >= 1

    @pytest.mark.parametrize("command, flags", [
        ("predict", ["--output", "p.csv"]),
        ("rollout", ["--steps", "5", "--output", "r.csv"]),
        ("horizon", ["--split-fraction", "0.8"]),
    ])
    def test_swapped_series_columns_rejected(self, tmp_path, small_series, trained, capsys,
                                             monkeypatch, command, flags):
        monkeypatch.chdir(tmp_path)
        rows = [line.split(",") for line in small_series.read_text().splitlines()]
        (tmp_path / "swapped.csv").write_text("".join(f"{t},{b},{a}\n" for t, a, b in rows))
        code = main([command, "--series", "swapped.csv", "--model-in", str(trained), *flags])
        assert code == 1
        assert "series names" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not (tmp_path / "r.csv").exists()

    def test_swapped_reference_columns_rejected(self, tmp_path, small_series, trained, capsys):
        rows = [line.split(",") for line in small_series.read_text().splitlines()]
        reference = tmp_path / "reference.csv"
        reference.write_text("".join(f"{t},{b},{a}\n" for t, a, b in rows))
        assert reference.read_text().startswith("t,predators,prey\n")
        out = tmp_path / "roll.csv"
        code = main(["rollout", "--series", str(small_series), "--model-in", str(trained),
                     "--steps", "5", "--reference", str(reference), "--output", str(out)])
        assert code == 1
        assert "series names" in json.loads(capsys.readouterr().err)["error"]["message"]
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["linear", "kernel"])
    @pytest.mark.parametrize("command, flags", [
        ("predict", ["--output", "p.csv"]),
        ("rollout", ["--steps", "5", "--output", "r.csv"]),
        ("horizon", ["--split-fraction", "0.8"]),
    ])
    def test_different_context_of_same_shape_rejected(self, tmp_path, small_series, capsys,
                                                      monkeypatch, kind, command, flags):
        monkeypatch.chdir(tmp_path)
        trained_on = write_grid(tmp_path / "dtm.asc")
        other = write_grid(tmp_path / "other.asc", "1.0 2.0\n3.0 5.0")
        common = ["--series", str(small_series), "--model-in", "m.json"]
        assert main(["train", "--series", str(small_series), "--grid", trained_on,
                     "--brick-kind", kind, "--bricks", "2", "--ridge", "1e-6",
                     "--model-out", "m.json", "--report", "t.json"]) == 0
        assert main([command, *common, "--grid", trained_on, *flags, "--report", "ok.json"]) == 0
        capsys.readouterr()
        code = main([command, *common, "--grid", other, *flags, "--report", "bad.json"])
        assert code == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "context" in message and "trained on" in message
        assert not (tmp_path / "bad.json").exists()


class TestUSLE:
    def test_five_factor_product(self, tmp_path):
        grids = [write_grid(tmp_path / f"g{i}.asc", "1.0 2.0\n0.5 1.0") for i in range(5)]
        out = tmp_path / "loss.asc"
        assert main([
            "usle", *sum([["--grid", g] for g in grids], []),
            "--output", str(out), "--report", str(tmp_path / "u.json"),
        ]) == 0
        from ecocast.io import read_ascii_grid

        result = read_ascii_grid(out)
        assert result.values[0, 1] == pytest.approx(2.0 ** 5)
        assert result.values[1, 0] == pytest.approx(0.5 ** 5)

    def test_wrong_grid_count_fails(self, tmp_path, capsys):
        g = write_grid(tmp_path / "g.asc")
        code = main(["usle", "--grid", g, "--output", str(tmp_path / "o.asc")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "five" in err["error"]["message"]


class TestErrorsAndEnv:
    def test_missing_file_gives_error_json(self, capsys, tmp_path):
        code = main(["fit-lv", "--series", str(tmp_path / "nope.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "FileNotFoundError"

    def test_context_mismatch_gives_error_json(self, capsys, tmp_path, small_series):
        model = tmp_path / "m.json"
        main([
            "train", "--series", str(small_series), "--bricks", "1",
            "--brick-kind", "linear", "--model-out", str(model),
            "--report", str(tmp_path / "t.json"),
        ])
        grid = write_grid(tmp_path / "extra.asc")
        code = main([
            "predict", "--series", str(small_series), "--model-in", str(model),
            "--grid", grid, "--output", str(tmp_path / "p.csv"),
        ])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert "context" in err["error"]["message"]

    def test_module_error_gives_error_json(self, capsys, tmp_path):
        csv = tmp_path / "flat.csv"
        csv.write_text("t,prey,predators\n0,4,2.75\n1,4,2.75\n2,4,2.75\n")
        code = main(["fit-lv", "--series", str(csv)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "DegenerateFitError"

    def test_output_dir_env_prefixes_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ECOCAST_OUTPUT_DIR", str(tmp_path))
        assert main([
            "simulate", "--steps", "10", "--output", "traj.csv", "--report", "sim.json",
        ]) == 0
        assert (tmp_path / "traj.csv").exists()
        doc = read_report(tmp_path / "sim.json")
        assert doc["config"]["output"] == str(tmp_path / "traj.csv")

    def test_verbose_env_logs_to_stderr(self, tmp_path, small_series, monkeypatch, capsys):
        monkeypatch.setenv("ECOCAST_VERBOSE", "1")
        main([
            "train", "--series", str(small_series), "--bricks", "1",
            "--brick-kind", "linear", "--model-out", str(tmp_path / "m.json"),
            "--report", str(tmp_path / "r.json"),
        ])
        assert "training" in capsys.readouterr().err

    def test_report_to_stdout_by_default(self, capsys, tmp_path):
        main(["count-params", "--series-count", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["outputs"]["scaling_factors"] == 3
