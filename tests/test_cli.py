import dataclasses
import json
import shutil
import tracemalloc

import numpy as np
import pytest

from ecocast import cli
from ecocast.bricks import LinearBrick
from ecocast.cli import (
    RunConfig,
    _apply_output_dir,
    _build_parser,
    _rmse,
    config_from_dict,
    main,
    run,
)
from ecocast.datasets import ContextMap, build_training_pairs, flatten_context
from ecocast.io import (
    load_model,
    read_ascii_grid,
    read_timeseries_csv,
    save_model,
    write_ascii_grid,
)
from ecocast.stack import InputSchema, StackedModel

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


# each command's required flags, and the RunConfig fields they set
REQUIRED_FLAGS = {
    "simulate": (["--output", "o.csv"], {"output": "o.csv"}),
    "fit-lv": (["--series", "s.csv"], {"series": "s.csv"}),
    "train": (["--series", "s.csv", "--model-out", "m.json"],
              {"series": "s.csv", "model_out": "m.json"}),
    "predict": (["--series", "s.csv", "--model-in", "m.json", "--output", "o.csv"],
                {"series": "s.csv", "model_in": "m.json", "output": "o.csv"}),
    "rollout": (["--series", "s.csv", "--model-in", "m.json", "--output", "o.csv"],
                {"series": "s.csv", "model_in": "m.json", "output": "o.csv"}),
    "horizon": (["--series", "s.csv", "--model-in", "m.json"],
                {"series": "s.csv", "model_in": "m.json"}),
    "count-params": (["--series-count", "3"], {"series_count": 3}),
    "usle": (["--grid", "g.asc", "--output", "o.asc"], {"grids": ("g.asc",), "output": "o.asc"}),
}


class TestRunConfig:
    @pytest.mark.parametrize("command", sorted(REQUIRED_FLAGS))
    def test_a_flag_left_out_takes_the_run_config_default(self, monkeypatch, command):
        flags, fields = REQUIRED_FLAGS[command]
        resolved = []
        monkeypatch.delenv("ECOCAST_OUTPUT_DIR", raising=False)
        monkeypatch.setattr(cli, "run", resolved.append)
        assert main([command, *flags]) == 0
        want = dataclasses.asdict(RunConfig(command=command, **fields))
        assert dataclasses.asdict(resolved[0]) == want

    def test_rollout_and_horizon_defaults_hold_for_a_run_config(self):
        assert RunConfig(command="rollout").steps == 100
        assert RunConfig(command="simulate").steps == 1000
        assert RunConfig(command="horizon").split_fraction == 0.8
        assert RunConfig(command="train").split_fraction == 1.0

    @pytest.mark.parametrize("flags", [
        ["--ridges", "1,2"],  # per-brick ridges, which --ridge covers
        ["--split", "0.5", "--rid", "1e-3"],  # abbreviations of live flags
    ], ids=["retired", "abbreviated"])
    def test_a_flag_not_spelled_as_a_live_one_is_refused(self, capsys, flags):
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--series", "s.csv", "--model-out", "m.json", *flags])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_a_report_with_null_ridges_replays_and_one_with_ridges_is_refused(
        self, tmp_path, small_series
    ):
        report = tmp_path / "train.json"
        assert main(["train", "--series", str(small_series), "--bricks", "2", "--ridge", "1e-3",
                     "--model-out", str(tmp_path / "m.json"), "--report", str(report)]) == 0
        doc = read_report(report)
        assert "ridges" not in doc["config"]
        replay = config_from_dict({**doc["config"], "ridges": None})
        assert replay == config_from_dict(doc["config"])
        run(replay)
        assert read_report(report)["outputs"] == doc["outputs"]
        with pytest.raises(ValueError, match="^retired config key 'ridges' replays only as None$"):
            config_from_dict({**doc["config"], "ridges": [1e-3]})


INPUT_FLAGS = ("--grid", "--interpolate", "--nodata-fill")
# Each command's flags besides --seed and --report, which every command takes:
# the required ones, then the rest
COMMAND_FLAGS = {
    "simulate": (("--output",), ("--alpha", "--beta", "--gamma", "--delta", "--prey0",
                                 "--predators0", "--dt", "--steps")),
    "fit-lv": (("--series",), ("--clamp-nonneg", "--interpolate")),
    "train": (("--series", "--model-out"),
              (*INPUT_FLAGS, "--bricks", "--brick-kind", "--ridge", "--hidden-size",
               "--hidden-size-a", "--hidden-size-b", "--activation", "--dsn-mode", "--rho-grid",
               "--split-fraction")),
    "predict": (("--series", "--model-in", "--output"), INPUT_FLAGS),
    "rollout": (("--series", "--model-in", "--output"),
                (*INPUT_FLAGS, "--steps", "--reference", "--bound", "--errors-output")),
    "horizon": (("--series", "--model-in"),
                (*INPUT_FLAGS, "--split-fraction", "--epsilon", "--errors-output")),
    "count-params": (("--series-count",),
                     ("--map-pixels", "--bricks", "--brick-kind", "--per-brick-scaling",
                      "--series-length")),
    "usle": (("--grid", "--output"), ("--nodata-fill",)),
}
CHOICES = {
    "--brick-kind": ("linear", "dsn", "kernel", "tensor", "kernel-tensor"),
    "--activation": ("step", "sigmoid", "relu", "identity"),
    "--dsn-mode": ("fixed-random", "gradient-refined"),
}
# Each flag's values on a command line (a flag without one is given alone, a
# repeatable one once per value), the RunConfig field it sets, and the value
# that field then holds
FLAG_VALUES = {
    "--seed": (["3"], "seed", 3),
    "--report": (["r.json"], "report", "r.json"),
    "--series": (["s.csv"], "series", "s.csv"),
    "--grid": (["a", "b"], "grids", ("a", "b")),
    "--model-in": (["m.json"], "model_in", "m.json"),
    "--model-out": (["n.json"], "model_out", "n.json"),
    "--output": (["o.csv"], "output", "o.csv"),
    "--errors-output": (["e.csv"], "errors_output", "e.csv"),
    "--reference": (["ref.csv"], "reference", "ref.csv"),
    "--alpha": (["1.5"], "alpha", 1.5),
    "--beta": (["0.5"], "beta", 0.5),
    "--gamma": (["2"], "gamma", 2.0),
    "--delta": (["-1e-3"], "delta", -1e-3),
    "--prey0": (["7"], "prey0", 7.0),
    "--predators0": (["3"], "predators0", 3.0),
    "--dt": (["0.01"], "dt", 0.01),
    "--steps": (["20"], "steps", 20),
    "--clamp-nonneg": ([], "clamp_nonneg", True),
    "--bricks": (["2"], "bricks", 2),
    "--brick-kind": (["tensor"], "brick_kind", "tensor"),
    "--ridge": (["1e-4"], "ridge", 1e-4),
    "--hidden-size": (["5"], "hidden_size", 5),
    "--hidden-size-a": (["6"], "hidden_size_a", 6),
    "--hidden-size-b": (["7"], "hidden_size_b", 7),
    "--activation": (["relu"], "activation", "relu"),
    "--dsn-mode": (["gradient-refined"], "dsn_mode", "gradient-refined"),
    "--rho-grid": (["0.5,2"], "rho_grid", (0.5, 2.0)),
    "--split-fraction": (["0.75"], "split_fraction", 0.75),
    "--epsilon": (["0.1"], "epsilon", 0.1),
    "--bound": (["50"], "bound", 50.0),
    "--interpolate": ([], "interpolate", True),
    "--nodata-fill": (["mean"], "nodata_fill", "mean"),
    "--series-count": (["4"], "series_count", 4),
    "--map-pixels": (["4", "4"], "map_pixels", (4, 4)),
    "--series-length": (["30"], "series_length", 30),
    "--per-brick-scaling": ([], "per_brick_scaling", True),
}


def command_parsers():
    actions = _build_parser()._subparsers._group_actions
    return actions[0].choices


class TestCommandSurface:
    def test_the_parser_offers_exactly_the_pinned_commands(self):
        assert list(command_parsers()) == list(COMMAND_FLAGS)

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_each_command_takes_exactly_its_pinned_flags(self, command):
        required, optional = COMMAND_FLAGS[command]
        actions = [a for a in command_parsers()[command]._actions if a.dest != "help"]
        assert sorted(a.option_strings[0] for a in actions) == sorted(
            ["--seed", "--report", *required, *optional])
        assert {a.option_strings[0] for a in actions if a.required} == set(required)
        for a in actions:
            want = CHOICES.get(a.option_strings[0])
            assert (None if a.choices is None else tuple(a.choices)) == want, a.option_strings

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_each_flag_parses_to_its_pinned_value(self, command):
        required, optional = COMMAND_FLAGS[command]
        flags = ["--seed", "--report", *required, *optional]
        argv = [command]
        for flag in flags:
            values = FLAG_VALUES[flag][0]
            argv += [flag] if not values else [t for v in values for t in (flag, v)]
        cfg = config_from_dict(vars(_build_parser().parse_args(argv)))
        for flag in flags:
            _, field, want = FLAG_VALUES[flag]
            assert repr(getattr(cfg, field)) == repr(want), flag  # the type counts too

    @pytest.mark.parametrize("command", list(COMMAND_FLAGS))
    def test_run_requires_what_the_command_line_requires(self, command):
        required = {FLAG_VALUES[f][1]: FLAG_VALUES[f][2] for f in COMMAND_FLAGS[command][0]}
        for flag in COMMAND_FLAGS[command][0]:
            others = {k: v for k, v in required.items() if k != FLAG_VALUES[flag][1]}
            with pytest.raises(ValueError, match=f"^{flag} is required for {command}$"):
                run(RunConfig(command=command, **others))


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

    @pytest.mark.parametrize("flag", [
        ["--inverse-mode", "exact-svd"],
        ["--truncation-rank", "2"],
        ["--truncation-threshold", "0.1"],
        ["--tikhonov-lam", "0"],
    ], ids=["inverse-mode", "truncation-rank", "truncation-threshold", "tikhonov-lam"])
    def test_fit_lv_takes_no_solver_flags(self, tmp_path, capsys, flag):
        # fit-lv always solves exact; a solver flag is a usage error
        with pytest.raises(SystemExit) as exit_info:
            main(["fit-lv", "--series", str(tmp_path / "lv.csv"), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_a_report_with_the_old_solver_keys_replays(self, tmp_path):
        csv = tmp_path / "lv.csv"
        main(["simulate", "--dt", "1e-2", "--steps", "2000", "--output", str(csv),
              "--report", str(tmp_path / "sim.json")])
        report = tmp_path / "fit.json"
        assert main(["fit-lv", "--series", str(csv), "--report", str(report)]) == 0
        doc = read_report(report)
        # the solver keys, with their values, as reports of earlier versions hold them
        old_keys = {"inverse_mode": "exact-svd", "truncation_rank": None,
                    "truncation_threshold": None, "tikhonov_lam": 0.0}
        assert not old_keys.keys() & doc["config"].keys()
        replay = config_from_dict({**doc["config"], **old_keys})
        assert replay == config_from_dict(doc["config"])
        run(replay)
        assert read_report(report)["outputs"] == doc["outputs"]

    def test_a_retired_solver_key_off_its_old_default_is_refused(self):
        # an earlier version fitted this config with a ridge; the exact solve
        # would replay it with other rate constants
        probe = {"command": "fit-lv", "series": "lv.csv", "inverse_mode": "tikhonov",
                 "tikhonov_lam": 50.0}
        with pytest.raises(ValueError, match="'inverse_mode'"):
            config_from_dict(probe)
        with pytest.raises(ValueError, match="'tikhonov_lam'"):
            config_from_dict({**probe, "inverse_mode": "exact-svd"})

    def test_an_unknown_config_key_is_refused(self):
        with pytest.raises(ValueError, match="'ridgee'"):
            config_from_dict({"command": "train", "series": "s.csv", "ridgee": 1e-3})


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
        assert out["scale_search"]["converged"] is True
        assert 1 <= out["scale_search"]["passes"] <= 20
        assert "validation_rmse" in out

    def test_a_searched_train_reports_the_validation_rmse_of_its_start(self, tmp_path,
                                                                       small_series):
        grid = write_grid(tmp_path / "ctx.asc")
        docs = {}
        search = ["--rho-grid", "0.5,2"]
        for name, flags in (("plain", ["--split-fraction", "0.8"]),
                            ("searched", ["--split-fraction", "0.8", *search]),
                            ("unvalidated", ["--split-fraction", "1", *search])):
            report = tmp_path / f"{name}.json"
            assert main([
                "train", "--series", str(small_series), "--grid", grid, "--bricks", "2",
                "--ridge", "1e-3", *flags,
                "--model-out", str(tmp_path / f"{name}.model.json"), "--report", str(report),
            ]) == 0
            docs[name] = read_report(report)
        initial = docs["searched"]["diagnostics"]["initial_validation_rmse"]
        assert initial == docs["plain"]["outputs"]["validation_rmse"]
        assert "diagnostics" not in docs["plain"] and "diagnostics" not in docs["unvalidated"]

    def test_non_finite_scale_search_grid_fails_naming_the_grid(self, tmp_path, small_series, capsys):
        model = tmp_path / "model.json"
        assert main([
            "train", "--series", str(small_series), "--bricks", "1", "--ridge", "1e-3",
            "--split-fraction", "0.8", "--rho-grid", "0.5,inf",
            "--model-out", str(model), "--report", str(tmp_path / "train.json"),
        ]) == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert "grid multipliers must be positive and finite" in message and "inf" in message
        assert not model.exists()

    @pytest.mark.parametrize("text", [",", "", " , "])
    def test_a_scale_search_grid_without_a_number_is_refused(self, tmp_path, small_series,
                                                             capsys, text):
        model = tmp_path / "model.json"
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--series", str(small_series), "--split-fraction", "0.8",
                  "--rho-grid", text, "--model-out", str(model)])
        assert exit_info.value.code == 2
        assert f"argument --rho-grid: expected comma-separated numbers; got {text!r}" in (
            capsys.readouterr().err)
        assert not model.exists()
        # an empty grid in a config still means no search
        report = tmp_path / "train.json"
        run(config_from_dict({"command": "train", "series": str(small_series), "rho_grid": [],
                              "split_fraction": 0.8, "model_out": str(model),
                              "report": str(report)}))
        assert "scale_search" not in read_report(report)["outputs"]

    @pytest.mark.parametrize("fraction", ["1.5", "0", "-0.2", "nan"])
    def test_split_fraction_outside_the_unit_interval_fails(self, tmp_path, small_series, capsys,
                                                            fraction):
        model = tmp_path / "model.json"
        assert main([
            "train", "--series", str(small_series), "--brick-kind", "linear",
            "--split-fraction", fraction, "--model-out", str(model),
        ]) == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == "train needs --split-fraction in (0, 1]"
        assert not model.exists()


    def test_a_bad_nodata_fill_is_named_before_any_grid_is_read(self, tmp_path, small_series,
                                                                capsys):
        assert main([
            "train", "--series", str(small_series), "--grid", str(tmp_path / "missing.asc"),
            "--nodata-fill", "abc", "--model-out", str(tmp_path / "model.json"),
        ]) == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == "--nodata-fill takes 'mean' or a number; got 'abc'"

    @pytest.mark.parametrize("kind", ["kernel", "linear"])
    @pytest.mark.parametrize("ridge", ["inf", "nan", "-0.001"])
    def test_a_ridge_that_is_not_finite_and_non_negative_fails(self, tmp_path, small_series,
                                                               capsys, kind, ridge):
        model = tmp_path / "model.json"
        assert main([
            "train", "--series", str(small_series), "--brick-kind", kind, "--ridge", ridge,
            "--model-out", str(model),
        ]) == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == f"the ridge lam must be finite and >= 0; got {float(ridge)}"
        assert not model.exists()

    def test_overflowing_scale_search_candidates_are_rejected(self, tmp_path, small_series):
        report = tmp_path / "train.json"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main([
                "train", "--series", str(small_series), "--bricks", "2", "--ridge", "1e-3",
                "--split-fraction", "0.8", "--rho-grid", "1e-200,1e200",
                "--model-out", str(tmp_path / "model.json"), "--report", str(report),
            ]) == 0
        search = read_report(report)["outputs"]["scale_search"]
        assert 0 < search["rejected"] < search["evaluations"]
        assert np.isfinite(search["loss_trace"]).all()

    @pytest.mark.parametrize("kind", ["linear", "dsn", "kernel", "tensor", "kernel-tensor"])
    def test_training_rmse_is_that_of_the_saved_model(self, tmp_path, small_series, kind):
        grid = write_grid(tmp_path / "ctx.asc")
        model, report = tmp_path / "model.json", tmp_path / "train.json"
        assert main([
            "train", "--series", str(small_series), "--grid", grid, "--brick-kind", kind,
            "--bricks", "2", "--ridge", "1e-6", "--hidden-size", "6",
            "--model-out", str(model), "--report", str(report),
        ]) == 0
        maps = [read_ascii_grid(grid)]
        inputs, targets, _ = build_training_pairs(read_timeseries_csv(small_series), maps)
        predictions = load_model(model).predict_columns(inputs[:2], flatten_context(maps))
        want = _rmse(predictions, targets)
        assert read_report(report)["outputs"]["training_rmse"] == want

    def test_train_copies_no_context_into_the_training_columns(self, tmp_path):
        """A 201-point series with a 40 x 40 grid gives 160 pairs; the context
        copied into each would make a 1 602 x 160 float64 block (2.05 MB)."""
        series, model, report = (tmp_path / name for name in ("s.csv", "m.json", "r.json"))
        assert main(["simulate", "--dt", "0.05", "--steps", "200", "--output", str(series)]) == 0
        grid = tmp_path / "dtm.asc"
        values = np.random.default_rng(5).uniform(100.0, 300.0, (40, 40))
        write_ascii_grid(ContextMap(name="dtm", values=values), grid)
        argv = ["train", "--series", str(series), "--grid", str(grid), "--brick-kind", "linear",
                "--split-fraction", "0.8", "--model-out", str(model), "--report", str(report)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read_report(report)["outputs"]["training_pairs"] == 160
        assert peak < 1602 * 160 * 8


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

    def test_reports_say_why_the_rollout_stopped(self, tmp_path, small_series, trained):
        common = ["--series", str(small_series), "--model-in", str(trained)]
        for flags, diagnostics in (
            ([], {"stop_reason": "completed", "stopped_at": 20}),
            (["--bound", "1e-3"], {"stop_reason": "bound", "stopped_at": 1}),
        ):
            report = tmp_path / "roll.json"
            assert main(["rollout", *common, "--steps", "20", *flags,
                         "--output", str(tmp_path / "roll.csv"), "--report", str(report)]) == 0
            doc = read_report(report)
            assert doc["diagnostics"] == diagnostics
            assert doc["outputs"]["steps_completed"] == diagnostics["stopped_at"]
        report = tmp_path / "horizon.json"
        assert main(["horizon", *common, "--split-fraction", "0.8", "--report", str(report)]) == 0
        doc = read_report(report)
        points = doc["outputs"]["validation_points"]
        assert doc["diagnostics"] == {"stop_reason": "completed", "stopped_at": points}

    @pytest.mark.parametrize("bound", ["-1", "0", "nan"])
    def test_bound_must_be_positive(self, tmp_path, small_series, trained, capsys, bound):
        out = tmp_path / "roll.csv"
        assert main(["rollout", "--series", str(small_series), "--model-in", str(trained),
                     "--steps", "5", "--bound", bound, "--output", str(out)]) == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message == "bound must be positive"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train", "--ridge", "-1e-3", "the ridge lam must be finite and >= 0; got -0.001"),
        ("rollout", "--bound", "-1e-3", "bound must be positive"),
        ("horizon", "--epsilon", "-1e-3", "epsilon must be positive"),
        ("train", "--ridge", "-inf", "the ridge lam must be finite and >= 0; got -inf"),
        ("train", "--ridge", "-Infinity", "the ridge lam must be finite and >= 0; got -inf"),
        ("rollout", "--bound", "-inf", "bound must be positive"),
        ("horizon", "--epsilon", "-nan", "epsilon must be positive"),
        ("horizon", "--epsilon", "-NaN", "epsilon must be positive"),
    ])
    def test_a_negative_value_in_scientific_notation_reaches_its_check(
        self, tmp_path, small_series, trained, capsys, command, flag, value, message
    ):
        args = {
            "train": ["--model-out", str(tmp_path / "model.json")],
            "rollout": ["--model-in", str(trained), "--output", str(tmp_path / "roll.csv")],
            "horizon": ["--model-in", str(trained), "--split-fraction", "0.8"],
        }[command]
        assert main([command, "--series", str(small_series), *args, flag, value]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["message"] == message

    def test_a_rollout_with_no_completed_step_leaves_no_csv(self, tmp_path, small_series):
        schema = InputSchema(series_names=("prey", "predators"))
        overflowing = StackedModel(bricks=(LinearBrick(np.full((2, 2), 1e308)),), schema=schema)
        save_model(overflowing, tmp_path / "model.json")
        out = tmp_path / "roll.csv"
        out.write_text("t,prey,predators\n1.0,2.0,3.0\n")  # an earlier run's forecast
        report = tmp_path / "roll.json"
        with np.errstate(over="ignore"):
            assert main(["rollout", "--series", str(small_series),
                         "--model-in", str(tmp_path / "model.json"), "--steps", "5",
                         "--output", str(out), "--report", str(report)]) == 0
        doc = read_report(report)
        assert doc["outputs"]["csv"] is None
        assert doc["outputs"]["steps_completed"] == 0 and doc["outputs"]["diverged"]
        assert doc["diagnostics"] == {"stop_reason": "non-finite", "stopped_at": 1}
        assert not out.exists()

    def test_a_forecast_that_is_not_finite_names_the_row_not_the_series(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        # the forecasts of rows 4 and 5 overflow
        series.write_text("t,prey,predators\n0,1,1\n0.5,2,1\n1,1e10,1\n1.5,1e20,1\n2,1,1\n")
        schema = InputSchema(series_names=("prey", "predators"))
        overflowing = StackedModel(bricks=(LinearBrick(np.full((2, 2), 1e300)),), schema=schema)
        save_model(overflowing, tmp_path / "model.json")
        out = tmp_path / "pred.csv"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["predict", "--series", str(series),
                         "--model-in", str(tmp_path / "model.json"), "--output", str(out),
                         "--report", str(tmp_path / "p.json")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValueError",
                         "message": "series row 4 (t = 1.0): the model's forecast is not finite"}
        assert not out.exists()

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

    def test_parser_is_built_once_and_safe_to_reuse(self, tmp_path, small_series, monkeypatch):
        assert _build_parser() is _build_parser()
        grids = [write_grid(tmp_path / "a.asc"), write_grid(tmp_path / "b.asc")]
        assert main([
            "train", "--series", str(small_series), "--grid", grids[0], "--grid", grids[1],
            "--brick-kind", "linear", "--bricks", "2", "--ridge", "1e-4", "--hidden-size", "5",
            "--split-fraction", "0.8", "--model-out", str(tmp_path / "m1.json"),
            "--report", str(tmp_path / "r1.json"),
        ]) == 0
        assert read_report(tmp_path / "r1.json")["config"]["grids"] == grids

        out_dir = tmp_path / "out"
        out_dir.mkdir()
        monkeypatch.setenv("ECOCAST_OUTPUT_DIR", str(out_dir))
        argv = ["train", "--series", str(small_series), "--model-out", "m2.json",
                "--report", "r2.json"]
        assert main(argv) == 0
        config = read_report(out_dir / "r2.json")["config"]
        args = _build_parser.__wrapped__().parse_args(argv)  # a parser never used before
        fresh = _apply_output_dir(config_from_dict({k: v for k, v in vars(args).items()
                                                    if v is not None}))
        assert config == json.loads(json.dumps(dataclasses.asdict(fresh)))
        assert config["grids"] == [] and config["bricks"] == 1 and config["brick_kind"] == "kernel"
        assert config["model_out"] == str(out_dir / "m2.json")
        assert (out_dir / "m2.json").exists()

    def test_verbose_env_logs_to_stderr(self, tmp_path, small_series, monkeypatch, capsys):
        monkeypatch.setenv("ECOCAST_VERBOSE", "1")
        main([
            "train", "--series", str(small_series), "--bricks", "1",
            "--brick-kind", "linear", "--model-out", str(tmp_path / "m.json"),
            "--report", str(tmp_path / "r.json"),
        ])
        assert "training" in capsys.readouterr().err

    def test_report_records_the_numerical_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert main(["simulate", "--steps", "10", "--output", str(tmp_path / "traj.csv"),
                     "--report", str(tmp_path / "sim.json")]) == 0
        doc = read_report(tmp_path / "sim.json")
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert doc["environment"] == {
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "blas_threads": {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": None},
        }
        assert isinstance(blas["name"], str) and isinstance(blas["version"], str)
        # beside the config and the outputs, never inside them, so the config
        # still replays and the outputs still compare exactly
        assert "environment" not in doc["outputs"] and "environment" not in doc["config"]
        config_from_dict(doc["config"])

    def test_report_to_stdout_by_default(self, capsys, tmp_path):
        main(["count-params", "--series-count", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["outputs"]["scaling_factors"] == 3
