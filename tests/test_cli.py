import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import tuckervar
from tuckervar import (
    NnmConfig,
    ScenarioSpec,
    StdgrConfig,
    TuckerFactors,
    build_laplacians,
    fit_panel,
    make_scenario,
    rolling_eval,
    simulate,
    spectral_radius,
    train_scaler,
    tucker_reconstruct,
)
import tuckervar.cli
import tuckervar.solver
import tuckervar.storage
import tuckervar.var
from tuckervar.var import PanelFormatError, predict_one_step
from tuckervar.cli import EXIT_DATA, EXIT_MAX_ITER, EXIT_OK, EXIT_SOFTWARE, EXIT_USAGE, main
from tuckervar.storage import (
    load_model,
    model_document,
    read_panel_csv,
    save_diagnostics,
    save_model,
    write_panel_csv,
)


def write_config(path, scenario=None, solver=None, nnm=None):
    doc = {}
    if scenario:
        doc["scenario"] = scenario
    if solver:
        doc["solver"] = solver
    if nnm:
        doc["nnm"] = nnm
    path.write_text(json.dumps(doc))
    return str(path)


def small_scenario(**overrides):
    base = dict(
        m=4,
        p=2,
        ranks=[2, 2, 2],
        superdiag=[1.0, 0.8],
        noise_scale=0.4,
        length=120,
        burn_in=100,
    )
    base.update(overrides)
    return base


def identity_model(tmp_path, scale=0.5, m=2):
    """Model file for W_1 = scale * I, p = 1."""
    core = np.zeros((m, m, 1))
    core[:, :, 0] = scale * np.eye(m)
    factors = TuckerFactors(core=core, a1=np.eye(m), a2=np.eye(m), a3=np.ones((1, 1)))
    doc = model_document(factors, StdgrConfig(ranks=(m, m, 1)))
    path = tmp_path / "model.json"
    save_model(str(path), doc)
    return str(path)


class TestSimulateCommand:
    def test_byte_identical_runs(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario=small_scenario())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out1), "--seed", "3"]) == EXIT_OK
        assert main(["simulate", "--config", cfg, "--output", str(out2), "--seed", "3"]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.truth.json").exists()
        assert (tmp_path / "a.csv.tvcache").read_bytes() == (tmp_path / "b.csv.tvcache").read_bytes()

    def test_truth_file_holds_the_scenario(self, tmp_path):
        scenario = small_scenario()
        cfg = write_config(tmp_path / "cfg.json", scenario=scenario)
        out = tmp_path / "a.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out), "--seed", "5"]) == EXIT_OK
        truth = json.loads((tmp_path / "a.csv.truth.json").read_text())
        spec = ScenarioSpec(**{k: v for k, v in scenario.items() if k != "length"})
        expected = make_scenario(spec, 5)
        assert list(truth) == [
            "format", "m", "p", "ranks", "superdiag_used", "rescale_count", "noise_scale",
            "seed", "prng", "w",
        ]
        assert (truth["format"], truth["m"], truth["p"], truth["ranks"]) == (
            "tuckervar-truth", 4, 2, [2, 2, 2]
        )
        # w is stored with the first index varying fastest
        w = np.reshape(truth["w"], expected.w.shape, order="F")
        assert w.tobytes() == expected.w.tobytes()
        assert truth["superdiag_used"] == list(expected.superdiag_used)
        assert truth["rescale_count"] == expected.rescale_count
        assert truth["noise_scale"] == 0.4
        assert (truth["seed"], truth["prng"]) == (5, tuckervar.var.PRNG_ALGORITHM)

    def test_zero_noise_zero_panel(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario=small_scenario(noise_scale=0.0))
        out = tmp_path / "zero.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out), "--seed", "0"]) == EXIT_OK
        _, panel = read_panel_csv(str(out))
        assert not panel.any()

    def test_roundtrip_full_precision(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", scenario=small_scenario())
        out = tmp_path / "p.csv"
        main(["simulate", "--config", cfg, "--output", str(out), "--seed", "1"])
        _, panel = read_panel_csv(str(out))
        rewritten = tmp_path / "p2.csv"
        write_panel_csv(str(rewritten), panel)
        _, again = read_panel_csv(str(rewritten))
        np.testing.assert_array_equal(panel, again)


class TestFitCommand:
    def _panel(self, tmp_path, seed=0, length=150):
        cfg = write_config(
            tmp_path / "sim.json", scenario=small_scenario(length=length)
        )
        out = tmp_path / "panel.csv"
        main(["simulate", "--config", cfg, "--output", str(out), "--seed", str(seed)])
        return str(out)

    def test_fit_writes_model_and_diagnostics(self, tmp_path):
        panel = self._panel(tmp_path)
        model = tmp_path / "model.json"
        code = main(
            ["fit", "--input", panel, "--output", str(model), "--p", "2", "--ranks", "auto"]
        )
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        factors = load_model(str(model))["factors"]
        assert factors.a1.shape[0] == 4 and factors.a3.shape[0] == 2
        lines = (tmp_path / "model.json.diagnostics.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["record"] == "meta"
        assert len(meta["ranks"]) == 3
        objectives = [json.loads(line)["objective"] for line in lines[1:]]
        arr = np.array([meta["objective_initial"]] + objectives)
        assert np.all(arr[1:] <= arr[:-1] + 1e-9 * np.maximum(1.0, np.abs(arr[:-1])))

    def test_exit_code_on_iteration_cap(self, tmp_path):
        panel = self._panel(tmp_path, seed=1)
        model = tmp_path / "m.json"
        code = main(
            [
                "fit",
                "--input",
                panel,
                "--output",
                str(model),
                "--p",
                "2",
                "--ranks",
                "2,2,1",
                "--max-iter",
                "1",
                "--tol",
                "1e-12",
            ]
        )
        assert code == EXIT_MAX_ITER

    def test_diagnostics_meta_reports_initializer(self, tmp_path, capsys):
        panel = self._panel(tmp_path)
        model = tmp_path / "m.json"
        code = main(["fit", "--input", panel, "--output", str(model), "--p", "2", "--ranks", "auto"])
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        captured = capsys.readouterr()
        assert "initializer converged" in captured.out
        assert "warning" not in captured.err
        lines = (tmp_path / "m.json.diagnostics.jsonl").read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["nnm_converged"] is True
        assert 1 <= meta["nnm_iterations"] < 500
        assert 1 <= meta["nnm_reweighted_steps"] < meta["nnm_iterations"]
        assert meta["lambda_nn"] > 0

    def test_diagnostics_meta_reports_spectral_radius(self, tmp_path):
        panel = self._panel(tmp_path)
        model = tmp_path / "m.json"
        main(["fit", "--input", panel, "--output", str(model), "--p", "2", "--ranks", "auto"])
        meta = json.loads((tmp_path / "m.json.diagnostics.jsonl").read_text().splitlines()[0])
        w_hat = tucker_reconstruct(load_model(str(model))["factors"])
        assert meta["spectral_radius"] == spectral_radius(w_hat)
        assert 0 < meta["spectral_radius"] < 1

    def test_initializer_cap_warns(self, tmp_path, capsys):
        panel = self._panel(tmp_path)
        cfg = write_config(tmp_path / "nnm.json", nnm={"max_iter": 2})
        model = tmp_path / "m.json"
        code = main(
            ["fit", "--input", panel, "--output", str(model), "--p", "2", "--ranks", "2,2,1",
             "--config", cfg]
        )
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        captured = capsys.readouterr()
        warnings = [line for line in captured.err.splitlines() if line.startswith("warning")]
        assert len(warnings) == 1
        assert "initializer" in warnings[0] and "nnm.max_iter=2" in warnings[0]
        assert "initializer did not converge" in captured.out
        meta = json.loads((tmp_path / "m.json.diagnostics.jsonl").read_text().splitlines()[0])
        assert meta["nnm_converged"] is False
        assert meta["nnm_iterations"] == 2

    def test_initializer_stall_names_the_tolerance(self, tmp_path, capsys):
        # a plain step stops lowering the objective long before the step
        # size falls to 1e-14
        panel = self._panel(tmp_path)
        cfg = write_config(tmp_path / "nnm.json", nnm={"tol": 1e-14})
        model = tmp_path / "m.json"
        code = main(
            ["fit", "--input", panel, "--output", str(model), "--p", "2", "--ranks", "2,2,1",
             "--config", cfg]
        )
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning")]
        assert len(warnings) == 1
        assert "nnm.tol=1e-14" in warnings[0] and "rounding" in warnings[0]
        assert "max_iter" not in warnings[0]
        meta = json.loads((tmp_path / "m.json.diagnostics.jsonl").read_text().splitlines()[0])
        assert meta["nnm_converged"] is False
        assert meta["nnm_iterations"] < NnmConfig().max_iter

    @pytest.mark.parametrize("standardize", [False, True], ids=["raw", "standardized"])
    def test_library_fit_writes_the_same_record(self, tmp_path, standardize):
        panel = self._panel(tmp_path, seed=2)
        model = tmp_path / "m.json"
        argv = ["fit", "--input", panel, "--output", str(model), "--p", "2", "--ranks", "2,2,1",
                "--train-fraction", "0.8"] + (["--standardize"] if standardize else [])
        assert main(argv) in (EXIT_OK, EXIT_MAX_ITER)
        _, values = read_panel_csv(panel)
        train = values[: int(0.8 * len(values))]
        if standardize:
            mean, std = train_scaler(train)
            train = (train - mean) / std
        record = tmp_path / "library.jsonl"
        save_diagnostics(str(record), fit_panel(train, 2, StdgrConfig(ranks=(2, 2, 1))), len(train))
        assert record.read_bytes() == (tmp_path / "m.json.diagnostics.jsonl").read_bytes()

    def test_model_roundtrip_bit_exact(self, tmp_path):
        panel = self._panel(tmp_path, seed=2)
        model = tmp_path / "m.json"
        main(["fit", "--input", panel, "--output", str(model), "--p", "2", "--ranks", "2,2,1",
              "--standardize"])
        loaded = load_model(str(model))
        # writing what was loaded, with the config the fit used, gives the
        # same bytes, so every array and the scaler survive the round trip
        resaved = tmp_path / "m2.json"
        save_model(str(resaved), model_document(loaded["factors"], StdgrConfig(ranks=(2, 2, 1)), loaded["scaler"]))
        assert resaved.read_bytes() == model.read_bytes()
        again = load_model(str(resaved))
        for key in ("core", "a1", "a2", "a3"):
            np.testing.assert_array_equal(getattr(loaded["factors"], key), getattr(again["factors"], key))
        for key in ("mean", "std"):
            np.testing.assert_array_equal(loaded["scaler"][key], again["scaler"][key])

    def test_model_file_holds_the_model(self, tmp_path):
        panel = self._panel(tmp_path, seed=2)
        model = tmp_path / "m.json"
        args = ["fit", "--input", panel, "--output", str(model), "--p", "2", "--ranks", "2,2,1"]
        assert main(args + ["--train-fraction", "0.8"]) in (EXIT_OK, EXIT_MAX_ITER)
        keys = ["format", "version", "m", "p", "ranks", "config", "core", "a1", "a2", "a3"]
        assert list(json.loads(model.read_text())) == keys
        meta = json.loads((tmp_path / "m.json.diagnostics.jsonl").read_text().splitlines()[0])
        assert meta["n_train"] == int(0.8 * read_panel_csv(panel)[1].shape[0])
        assert main(args + ["--standardize"]) in (EXIT_OK, EXIT_MAX_ITER)
        assert list(json.loads(model.read_text())) == keys + ["scaler"]

    def test_standardize_scaler_from_train_split_only(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        panel = rng.standard_normal((120, 3))
        panel[84:] += 50.0  # the held-out tail must not influence the scaler
        path = tmp_path / "p.csv"
        write_panel_csv(str(path), panel)
        model = tmp_path / "m.json"
        code = main(
            [
                "fit", "--input", str(path), "--output", str(model), "--p", "1",
                "--ranks", "1,1,1", "--train-fraction", "0.7", "--standardize",
            ]
        )
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        doc = load_model(str(model))
        np.testing.assert_allclose(doc["scaler"]["mean"], panel[:84].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(doc["scaler"]["std"], panel[:84].std(axis=0), atol=1e-12)
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--input", str(path), "--train-fraction", "0.7"]) == EXIT_OK
        reported = json.loads(capsys.readouterr().out)["mse"]
        # the tail sits ~50 train standard deviations away, so a leak-free
        # standardized MSE is enormous; full-panel statistics would shrink it
        assert reported > 100.0

    def test_lag_one_auto_ranks(self, tmp_path):
        rng = np.random.default_rng(10)
        path = tmp_path / "p.csv"
        write_panel_csv(str(path), rng.standard_normal((120, 3)))
        model = tmp_path / "m.json"
        code = main(["fit", "--input", str(path), "--output", str(model), "--p", "1", "--ranks", "auto"])
        assert code == EXIT_OK
        assert load_model(str(model))["factors"].ranks[2] == 1

    def test_repeated_fit_byte_identical(self, tmp_path):
        panel = self._panel(tmp_path, seed=3)
        m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
        args = ["fit", "--input", panel, "--p", "2", "--ranks", "2,2,1", "--max-iter", "40"]
        main(args + ["--output", str(m1)])
        main(args + ["--output", str(m2)])
        assert m1.read_bytes() == m2.read_bytes()
        assert (tmp_path / "m1.json.diagnostics.jsonl").read_bytes() == (
            tmp_path / "m2.json.diagnostics.jsonl"
        ).read_bytes()


class TestForecastCommand:
    def test_zero_model_zero_forecasts(self, tmp_path):
        model = identity_model(tmp_path, scale=0.0)
        panel = tmp_path / "panel.csv"
        write_panel_csv(str(panel), np.ones((5, 2)))
        out = tmp_path / "fc.csv"
        code = main(
            ["forecast", "--model", model, "--input", str(panel), "--output", str(out), "--horizon", "3"]
        )
        assert code == EXIT_OK
        _, preds = read_panel_csv(str(out))
        assert preds.shape == (3, 2)
        assert not preds.any()

    def test_two_step_hand_iteration(self, tmp_path):
        model = identity_model(tmp_path, scale=0.5)
        panel = tmp_path / "panel.csv"
        write_panel_csv(str(panel), np.array([[1.0, 1.0], [4.0, 4.0]]))
        out = tmp_path / "fc.csv"
        main(["forecast", "--model", model, "--input", str(panel), "--output", str(out), "--horizon", "2"])
        _, preds = read_panel_csv(str(out))
        np.testing.assert_allclose(preds, [[2.0, 2.0], [1.0, 1.0]])

    def test_one_step_matches_predict(self, tmp_path):
        rng = np.random.default_rng(0)
        m = 3
        q, _ = np.linalg.qr(rng.standard_normal((m, 2)))
        core = rng.uniform(-0.4, 0.4, size=(2, 2, 1))
        factors = TuckerFactors(core=core, a1=q, a2=q, a3=np.ones((1, 1)))
        doc = model_document(factors, StdgrConfig(ranks=(2, 2, 1)))
        model = tmp_path / "m.json"
        save_model(str(model), doc)
        panel_values = rng.standard_normal((4, m))
        panel = tmp_path / "p.csv"
        write_panel_csv(str(panel), panel_values)
        out = tmp_path / "fc.csv"
        main(["forecast", "--model", model.as_posix(), "--input", str(panel), "--output", str(out), "--horizon", "1"])
        _, preds = read_panel_csv(str(out))
        from tuckervar import tucker_reconstruct

        expected = predict_one_step(tucker_reconstruct(factors), panel_values[-1])
        np.testing.assert_allclose(preds[0], expected, atol=1e-12)


    def test_forecast_keeps_the_header(self, tmp_path):
        model = identity_model(tmp_path, scale=0.5, m=3)
        panel = tmp_path / "panel.csv"
        write_panel_csv(str(panel), np.ones((4, 3)), ["gdp", "cpi", "rate"])
        out = tmp_path / "fc.csv"
        argv = ["forecast", "--model", model, "--input", str(panel), "--output", str(out)]
        assert main(argv + ["--horizon", "2"]) == EXIT_OK
        names, preds = read_panel_csv(str(out))
        assert names == ["gdp", "cpi", "rate"]
        np.testing.assert_array_equal(preds, [[0.5] * 3, [0.25] * 3])

    def test_header_the_writer_refuses_is_a_usage_error(self, tmp_path, capsys):
        # the reader returns a quoted comma; the writer would split the name
        model = identity_model(tmp_path, scale=0.5)
        panel = tmp_path / "panel.csv"
        panel.write_text('"a,b",c\n1.0,2.0\n3.0,4.0\n')
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", model, "--input", str(panel), "--output", str(out)]) == EXIT_USAGE
        assert "'a,b'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_model_is_a_usage_error(self, tmp_path, capsys):
        panel = tmp_path / "panel.csv"
        write_panel_csv(str(panel), np.ones((5, 2)))
        missing = str(tmp_path / "missing.json")
        out = tmp_path / "out.csv"
        for argv in (
            ["forecast", "--model", missing, "--input", str(panel), "--output", str(out)],
            ["eval", "--model", missing, "--input", str(panel), "--output", str(out)],
        ):
            assert main(argv) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("usage error: cannot read model") and missing in err
            assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_non_finite_forecast_is_a_data_error(self, tmp_path, capsys):
        # W_1 = 1e200 I: lags of 1e200 overflow at step 1, lags of 1e100
        # reach 1e300 at step 1 and overflow at step 2
        model = identity_model(tmp_path, scale=1e200)
        panel = tmp_path / "panel.csv"
        out = tmp_path / "fc.csv"
        for lag, step in ((1e200, 1), (1e100, 2)):
            write_panel_csv(str(panel), np.full((2, 2), lag))
            code = main(
                ["forecast", "--model", model, "--input", str(panel), "--output", str(out), "--horizon", "3"]
            )
            assert code == EXIT_DATA
            assert f"forecast step {step} is not finite" in capsys.readouterr().err
            assert not out.exists() and not (tmp_path / "fc.csv.tvcache").exists()

    @pytest.mark.filterwarnings("error")
    def test_panel_that_overflows_when_scaled_is_a_data_error(self, tmp_path, capsys):
        # an identity model whose scaler std of 1e-10 takes 1e300 past the float range
        factors = TuckerFactors(core=np.eye(2)[:, :, None], a1=np.eye(2), a2=np.eye(2), a3=np.ones((1, 1)))
        scaler = {"mean": np.zeros(2), "std": np.full(2, 1e-10)}
        model = str(tmp_path / "model.json")
        save_model(model, model_document(factors, StdgrConfig(ranks=(2, 2, 1)), scaler))
        panel = str(tmp_path / "panel.csv")
        write_panel_csv(panel, np.full((3, 2), 1e300))
        out = tmp_path / "out.csv"
        for argv in (
            ["forecast", "--model", model, "--input", panel, "--output", str(out), "--horizon", "3"],
            ["eval", "--model", model, "--input", panel, "--output", str(out)],
        ):
            assert main(argv) == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("data error:") and "overflow when scaled" in err
            assert not out.exists()


def lag_two_model_doc():
    """A valid model document with m = 3, p = 2, ranks (2, 2, 1) and a scaler."""
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    a3 = np.linalg.qr(rng.standard_normal((2, 1)))[0]
    factors = TuckerFactors(core=rng.uniform(-0.3, 0.3, (2, 2, 1)), a1=q, a2=q, a3=a3)
    scaler = {"mean": [0.5, 0.0, -0.5], "std": [1.0, 2.0, 0.5]}
    return model_document(factors, StdgrConfig(ranks=(2, 2, 1)), scaler)


_DELETE = object()


def _set(doc, dotted, value):
    """Set (or, with _DELETE, remove) the entry at a dotted key path."""
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[key]
    if value is _DELETE:
        del doc[last]
    else:
        doc[last] = value


BAD_MODELS = [
    ("core", [], "core"),
    ("core.dims", [2.5, 2, 1], "core"),
    ("core.dims", [2, 2], "core"),
    ("m", _DELETE, "'m'"),
    ("m", 4, "'m'"),
    ("m", 3.0, "'m'"),
    ("p", 3, "'p'"),
    ("p", 1, "'p'"),
    ("ranks", [2, 2, 2], "'ranks'"),
    ("a1", _DELETE, "a1"),
    ("a1.values", [0.0] * 5, "a1"),
    ("a1.values", ["0"] * 6, "a1"),
    ("a1.values", [10**400] + [0.0] * 5, "a1"),
    ("core.values", [float("nan")] * 4, "core"),
    ("a2.rows", 4, "a2"),
    ("a3.cols", 2, "a3"),
    # a scaler key that is present must hold a valid mean and std, so a blank
    # value cannot pass for "no scaler" and forecast in standardized units
    ("scaler", {}, "scaler"),
    ("scaler", [], "scaler"),
    ("scaler", 0, "scaler"),
    ("scaler.std", [1.0, 1.0], "scaler.std"),
    ("scaler.std", [1.0, 0.0, 1.0], "scaler.std"),
    ("scaler.mean", [10**400, 0.0, 0.0], "scaler.mean"),
    ("scaler.mean", _DELETE, "scaler.mean"),
    # more blank scalers, after the rows above so that their test ids, which
    # count the rows, stay as they were
    ("scaler", False, "scaler"),
    ("scaler", None, "scaler"),
    ("scaler", "", "scaler"),
    ("format", "other", "tuckervar-model"),
]


class TestModelFileChecks:
    """load_model checks every key that forecast and eval read (the core and
    factor arrays, the scaler when present) and that m, p and ranks agree
    with the arrays; a bad model file is a data error (exit 65) naming the
    key, never a traceback, and nothing is written."""

    def write(self, tmp_path, dotted, value):
        doc = lag_two_model_doc()
        _set(doc, dotted, value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("dotted,value,named", BAD_MODELS)
    def test_load_model_names_the_key(self, tmp_path, dotted, value, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            load_model(self.write(tmp_path, dotted, value))

    @pytest.mark.parametrize("dotted,value,named", BAD_MODELS)
    def test_forecast_and_eval_report_a_data_error(self, tmp_path, capsys, dotted, value, named):
        model = self.write(tmp_path, dotted, value)
        panel = tmp_path / "p.csv"
        write_panel_csv(str(panel), np.random.default_rng(1).standard_normal((40, 3)))
        out = tmp_path / "out.csv"
        forecast = ["forecast", "--model", model, "--input", str(panel), "--output", str(out)]
        evaluate = ["eval", "--model", model, "--input", str(panel), "--output", str(out)]
        for argv in (forecast, evaluate):
            assert main(argv) == EXIT_DATA
            err = capsys.readouterr().err
            assert err.startswith("data error: cannot load model") and named in err
            assert not out.exists()

    @pytest.mark.parametrize("shape", [[[1, 2]], 5, "model"])
    def test_non_object_document_rejected(self, tmp_path, shape):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(shape))
        with pytest.raises(ValueError, match="not a tuckervar-model file"):
            load_model(str(path))

    def test_valid_document_loads_and_takes_p_from_a3(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        save_model(str(model), lag_two_model_doc())
        factors = load_model(str(model))["factors"]
        assert (factors.a1.shape[0], factors.a3.shape[0], factors.ranks) == (3, 2, (2, 2, 1))
        panel = tmp_path / "p.csv"
        write_panel_csv(str(panel), np.random.default_rng(1).standard_normal((40, 3)))
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--model", str(model), "--input", str(panel), "--output", str(out)]) == EXIT_OK
        assert main(["eval", "--model", str(model), "--input", str(panel)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["n_train"] == 24


def version_one_layout(doc):
    """``doc`` in the layout of model format version 1: the config echo
    without epsilon (which sat under "laplacians" beside the three
    Laplacians) and with a_bar1 and a_bar2 (the retired step multipliers of
    the four blocks and of the auxiliary factors the solver then had), and
    the solver's outcome and the training length beside the arrays."""
    config = {k: v for k, v in doc["config"].items() if k != "epsilon"}
    config.update(a_bar1=1.1, a_bar2=10.0)
    old = dict(doc, version=1, config=config)
    scaler = old.pop("scaler", None)
    arrays = [
        np.reshape(doc[k]["values"], (doc[k]["rows"], doc[k]["cols"]), order="F")
        for k in ("a1", "a2", "a3")
    ]
    lap = build_laplacians(TuckerFactors(np.zeros(doc["ranks"]), *arrays), doc["config"]["epsilon"])
    old["laplacians"] = {"epsilon": doc["config"]["epsilon"]}
    for key, matrix in zip(("l1", "l2", "l3"), lap):
        old["laplacians"][key] = {"n": matrix.shape[0], "values": matrix.ravel(order="F").tolist()}
    old.update(ranks_selected=False, n_train=24, converged=True, iterations=17)
    if scaler is not None:
        old["scaler"] = scaler
    return old


class TestVersionOneModels:
    """A model file written in the version-1 layout still loads, and forecast
    and eval give byte-identical output from it and from its version-2
    counterpart: the keys that version 2 dropped, and the retired a_bar1 and
    a_bar2 in the config echo, are ignored."""

    def outputs(self, tmp_path, capsys, doc):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc, indent=1) + "\n")
        panel = tmp_path / "p.csv"
        write_panel_csv(str(panel), np.random.default_rng(1).standard_normal((40, 3)))
        out, report = tmp_path / "fc.csv", tmp_path / "eval.json"
        codes = (
            main(["forecast", "--model", str(model), "--input", str(panel), "--output", str(out),
                  "--horizon", "5"]),
            main(["eval", "--model", str(model), "--input", str(panel), "--output", str(report)]),
        )
        return codes, capsys.readouterr(), out.read_bytes(), report.read_bytes()

    @pytest.mark.parametrize("scaled", [True, False], ids=["scaler", "no-scaler"])
    def test_same_forecast_and_eval(self, tmp_path, capsys, scaled):
        doc = lag_two_model_doc()
        if not scaled:
            del doc["scaler"]
        current = self.outputs(tmp_path, capsys, doc)
        old = version_one_layout(doc)
        assert "laplacians" in old and old["version"] == 1
        assert current[0] == (EXIT_OK, EXIT_OK)
        assert self.outputs(tmp_path, capsys, old) == current


class TestEvalCommand:
    def test_identical_files_zero(self, tmp_path, capsys):
        panel = tmp_path / "a.csv"
        write_panel_csv(str(panel), np.arange(12.0).reshape(6, 2))
        code = main(["eval", "--truth", str(panel), "--pred", str(panel)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["mse"] == 0.0

    def test_held_out_mse_matches_rolling_eval(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "sim.json", scenario=small_scenario(length=200))
        path = tmp_path / "panel.csv"
        main(["simulate", "--config", cfg, "--output", str(path), "--seed", "4"])
        model = tmp_path / "m.json"
        main(
            [
                "fit", "--input", str(path), "--output", str(model), "--p", "2",
                "--ranks", "2,2,1", "--standardize", "--train-fraction", "0.7",
            ]
        )
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--input", str(path), "--train-fraction", "0.7"]) == EXIT_OK
        reported = json.loads(capsys.readouterr().out)["mse"]
        _, panel = read_panel_csv(str(path))
        library = rolling_eval(panel, 0.7, p=2, cfg=StdgrConfig(ranks=(2, 2, 1)), standardize=True)
        assert reported == pytest.approx(library.mse, rel=1e-12)

    def test_requires_a_mode(self, tmp_path):
        assert main(["eval"]) == EXIT_USAGE

    def panels(self, tmp_path):
        """A model with m = 3, p = 2 and a scaler, a panel it fits and one of
        the wrong width."""
        model = tmp_path / "m.json"
        save_model(str(model), lag_two_model_doc())
        rng = np.random.default_rng(1)
        fits, wide = tmp_path / "fits.csv", tmp_path / "wide.csv"
        write_panel_csv(str(fits), rng.standard_normal((40, 3)))
        write_panel_csv(str(wide), rng.standard_normal((40, 2)))
        return str(model), str(fits), str(wide)

    @pytest.mark.parametrize(
        "mode",
        [
            ["--truth", "fits", "--model", "model", "--input", "fits"],
            ["--truth", "fits", "--pred", "fits", "--model", "model", "--input", "wide"],
            ["--truth", "fits", "--pred", "fits", "--train-fraction", "0.5"],
            ["--model", "model", "--train-fraction", "0.5"],
        ],
        ids=["truth-and-model", "both-pairs", "pair-and-fraction", "model-without-input"],
    )
    def test_mixed_modes_are_refused(self, tmp_path, capsys, mode):
        model, fits, wide = self.panels(tmp_path)
        files = {"model": model, "fits": fits, "wide": wide}
        out = tmp_path / "report.json"
        argv = ["eval"] + [files.get(arg, arg) for arg in mode] + ["--output", str(out)]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: eval needs")
        assert all(flag in captured.err for flag in mode if flag.startswith("--"))
        assert captured.out == "" and not out.exists()

    def test_wrong_width_panel_names_the_variable_count(self, tmp_path, capsys):
        # the scaler holds 3 entries: the count is checked before it is applied
        model, _, wide = self.panels(tmp_path)
        assert main(["eval", "--model", model, "--input", wide]) == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: panel has 2 variables, model expects 3\n"

    def test_split_shorter_than_the_lag_order(self, tmp_path, capsys):
        model, fits, _ = self.panels(tmp_path)
        # int(0.04 * 40) = 1 training row for p = 2
        assert main(["eval", "--model", model, "--input", fits, "--train-fraction", "0.04"]) == EXIT_USAGE
        assert "training split shorter than the lag order" in capsys.readouterr().err

    def test_truth_and_pred_shapes_must_agree(self, tmp_path, capsys):
        truth, pred = tmp_path / "t.csv", tmp_path / "p.csv"
        write_panel_csv(str(truth), np.ones((6, 2)))
        write_panel_csv(str(pred), np.ones((5, 2)))
        assert main(["eval", "--truth", str(truth), "--pred", str(pred)]) == EXIT_USAGE
        assert "panel shapes differ: (6, 2) vs (5, 2)" in capsys.readouterr().err


class TestRankSelectCommand:
    def test_recovers_scenario_ranks(self, tmp_path, capsys):
        # the ratio selector scans j in 1..n_i-1, so the truth must have
        # r3 < p to be recoverable
        spec = ScenarioSpec(
            m=6, p=3, ranks=(2, 2, 2), superdiag=(1.5, 1.5), noise_scale=0.5,
            seeds=(0,), sample_sizes=(1,),
        )
        scenario = make_scenario(spec, 0)
        panel = simulate(scenario.w, 0.5**2 * np.eye(6), length=1500, seed=0)
        path = tmp_path / "panel.csv"
        write_panel_csv(str(path), panel)
        code = main(["rank-select", "--input", str(path), "--p", "3"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["ranks"] == [2, 2, 2]


class TestBenchCommand:
    def test_curve_csv_header(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            scenario=dict(
                m=4,
                p=2,
                ranks=[2, 2, 2],
                superdiag=[1.0, 0.8],
                noise_scale=0.0,
                seeds=[0, 1],
                sample_sizes=[40, 60],
            ),
            solver=dict(beta=1e-8, alpha=0.0, gamma=0.1, c=2.0, ranks=[2, 2, 2]),
            nnm=dict(lambda_nn=1e-8),
        )
        out = tmp_path / "curve.csv"
        assert main(["bench", "--config", cfg, "--output", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "method,T,upsilon,mean_error,stderr"
        assert len(lines) == 1 + 2 * 2


class TestErrorPaths:
    def test_malformed_cell_names_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1.0,2.0\n1.0,oops\n")
        code = main(["fit", "--input", str(bad), "--output", str(tmp_path / "m.json"), "--p", "1"])
        assert code == EXIT_DATA
        assert "row 3" in capsys.readouterr().err

    def test_nan_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\nnan,2.0\n3.0,4.0\n")
        assert main(["fit", "--input", str(bad), "--output", str(tmp_path / "m.json"), "--p", "1"]) == EXIT_DATA

    def test_short_panel_rejected(self, tmp_path):
        short = tmp_path / "short.csv"
        write_panel_csv(str(short), np.ones((2, 2)))
        assert main(["fit", "--input", str(short), "--output", str(tmp_path / "m.json"), "--p", "2"]) == EXIT_DATA

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": {"m": 4, "p": 2, "ranks": [1, 1, 1], "superdiag": [0.5], "length": 50, "typo_key": 1}}))
        assert main(["simulate", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("section", ["scenario", "solver", "nnm"])
    def test_non_object_config_section_rejected(self, tmp_path, capsys, section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: 5}))
        assert main(["bench", "--config", str(cfg), "--output", str(tmp_path / "o.csv")]) == EXIT_USAGE
        assert f"'{section}'" in capsys.readouterr().err

    def test_bad_ranks_flag_rejected(self, tmp_path):
        panel = tmp_path / "p.csv"
        write_panel_csv(str(panel), np.random.default_rng(0).standard_normal((30, 2)))
        code = main(["fit", "--input", str(panel), "--output", str(tmp_path / "m.json"), "--p", "1", "--ranks", "1,2"])
        assert code == EXIT_USAGE


class TestConfigsFromDataclasses:
    def test_bench_config_matches_error_curve(self, tmp_path):
        from tuckervar import NnmConfig, error_curve
        from tuckervar.benchmark import curve_csv_lines

        scenario = dict(
            m=4, p=2, ranks=[2, 2, 2], superdiag=[1.0, 0.8], noise_scale=0.5,
            factor_style="laplacian-eigenvectors", burn_in=50, seeds=[3, 5], sample_sizes=[60, 90],
        )
        solver = dict(c=2.0, ranks=[2, 2, 2], max_iter=20)
        cfg = write_config(tmp_path / "cfg.json", scenario=scenario, solver=solver)
        out = tmp_path / "curve.csv"
        assert main(["bench", "--config", cfg, "--output", str(out), "--gamma", "0.2"]) == EXIT_OK
        rows = error_curve(
            ScenarioSpec(**scenario), StdgrConfig(**solver, gamma=0.2), NnmConfig()
        )
        assert out.read_text() == "\n".join(curve_csv_lines(rows)) + "\n"

    def test_every_solver_flag_reaches_the_config(self, tmp_path):
        panel = tmp_path / "p.csv"
        write_panel_csv(str(panel), np.random.default_rng(0).standard_normal((60, 3)))
        cfg = write_config(tmp_path / "cfg.json", solver=dict(beta=5e-3, tol=1e-2))
        model = tmp_path / "m.json"
        flags = [
            "--ranks", "2,2,1", "--alpha", "0.001,0.002,0.003", "--gamma", "0.2", "--c", "2.5",
            "--max-iter", "7", "--tol", "1e-9",
        ]
        code = main(["fit", "--input", str(panel), "--output", str(model), "--p", "1",
                     "--config", cfg] + flags)
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        doc = json.loads(model.read_text())
        assert doc["ranks"] == [2, 2, 1]
        assert doc["config"] == dict(
            beta=5e-3, alpha=[1e-3, 2e-3, 3e-3], gamma=[0.2, 0.2, 0.2], c=2.5,
            tol=1e-9, max_iter=7, epsilon=0.2,
        )

    def test_scenario_without_m_names_it(self, tmp_path, capsys):
        scenario = small_scenario()
        del scenario["m"]
        cfg = write_config(tmp_path / "cfg.json", scenario=scenario)
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "o.csv")]) == EXIT_USAGE
        assert "'m'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,named",
        [("--ranks", "a,b,c", "--ranks"), ("--alpha", "x", "--alpha"), ("--alpha", "1,2", "alpha")],
    )
    def test_bad_solver_flag_names_it(self, tmp_path, capsys, flag, value, named):
        panel = tmp_path / "p.csv"
        write_panel_csv(str(panel), np.random.default_rng(0).standard_normal((30, 2)))
        args = ["fit", "--input", str(panel), "--output", str(tmp_path / "m.json"), "--p", "1"]
        assert main(args + [flag, value]) == EXIT_USAGE
        assert named in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestBadHyperparameters:
    """A non-finite or mistyped hyperparameter is a usage error that names
    its field, and no model file is written. ``--abar1`` and ``--abar2``, the
    retired step multipliers of the four blocks and of the auxiliary factors,
    are refused whatever their value, as unrecognized arguments named by their
    flags."""

    FLAGS = ["--beta", "--alpha", "--gamma", "--c", "--abar1", "--abar2", "--tol", "--lambda-nn", "--epsilon"]

    def fit(self, tmp_path, extra):
        panel = tmp_path / "p.csv"
        write_panel_csv(str(panel), np.random.default_rng(0).standard_normal((40, 3)))
        model = tmp_path / "m.json"
        code = main(["fit", "--input", str(panel), "--output", str(model), "--p", "1"] + extra)
        return code, model

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", FLAGS)
    def test_non_finite_flag_rejected(self, tmp_path, capsys, flag, bad):
        code, model = self.fit(tmp_path, [f"{flag}={bad}"])
        assert code == EXIT_USAGE
        field = {
            "--abar1": "unrecognized arguments: --abar1",
            "--abar2": "unrecognized arguments: --abar2",
            "--lambda-nn": "lambda_nn",
        }
        assert field.get(flag, flag[2:]) in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("solver", "max_iter", 2.5),
            ("nnm", "max_iter", 2.5),
            ("solver", "ranks", [2.5, 2, 2]),
            ("solver", "beta", "0.1"),
            ("nnm", "tol", None),
            ("solver", "a_bar1", 1.1),  # retired: a constant of the step rule
            ("solver", "a_bar2", 10.0),  # retired with the auxiliary factors
        ],
    )
    def test_mistyped_config_value_rejected(self, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path / "cfg.json", **{section: {key: value}})
        code, model = self.fit(tmp_path, ["--config", cfg])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("usage error:") and key in err
        assert "Traceback" not in err
        assert not model.exists()


class TestUndecodablePanel:
    def test_rank_select_reports_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"a,b\n1.0,2.0\n3.0,\xff\n")
        code = main(["rank-select", "--input", str(bad), "--p", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error:") and str(bad) in err


def huge_panel(tmp_path, scale):
    path = tmp_path / "huge.csv"
    write_panel_csv(str(path), np.random.default_rng(0).standard_normal((60, 3)) * scale)
    return str(path)


class TestHugePanels:
    """A panel whose moments could overflow is refused as a data error before
    any numpy warning; standardized, it fits."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e150, 1e153, 1e154, 1e200, 1e300])
    def test_fit_and_rank_select_fit_or_refuse_the_panel(self, tmp_path, capsys, scale):
        path = huge_panel(tmp_path, scale)
        model = tmp_path / "m.json"
        fit = main(["fit", "--input", path, "--output", str(model), "--p", "1", "--ranks", "1,1,1"])
        ranks = main(["rank-select", "--input", path, "--p", "1"])
        err = capsys.readouterr().err
        if scale == 1e150:
            assert fit in (EXIT_OK, EXIT_MAX_ITER) and ranks == EXIT_OK and err == ""
        else:
            assert (fit, ranks) == (EXIT_DATA, EXIT_DATA) and not model.exists()
            assert [line.startswith("data error:") and "--standardize" in line
                    for line in err.splitlines()] == [True, True]

    @pytest.mark.filterwarnings("error")
    def test_standardized_huge_panel_fits_and_forecasts(self, tmp_path):
        path = huge_panel(tmp_path, 1e160)
        model = str(tmp_path / "m.json")
        argv = ["fit", "--standardize", "--input", path, "--output", model, "--p", "1",
                "--ranks", "1,1,1"]
        assert main(argv) in (EXIT_OK, EXIT_MAX_ITER)
        doc = load_model(model)  # which refuses a scaler that is not finite
        assert doc["factors"].core.any()
        out = str(tmp_path / "fc.csv")
        assert main(["forecast", "--model", model, "--input", path, "--output", out]) == EXIT_OK
        report = rolling_eval(read_panel_csv(path)[1], 0.7, 1, StdgrConfig(ranks=(1, 1, 1)), standardize=True)
        assert np.isfinite(report.mse) and report.mse > 0

    @pytest.mark.filterwarnings("error")
    def test_panel_that_overflows_when_standardized_is_refused(self, tmp_path, capsys):
        # one largest double among its negatives: x - mean overflows
        panel = np.random.default_rng(1).standard_normal((20, 2))
        panel[:, 0] = -1.7e308
        panel[3, 0] = 1.7e308
        path = str(tmp_path / "p.csv")
        write_panel_csv(path, panel)
        model = tmp_path / "m.json"
        argv = ["fit", "--standardize", "--input", path, "--output", str(model), "--p", "1",
                "--ranks", "1,1,1"]
        assert main(argv) == EXIT_DATA
        assert "overflow when scaled" in capsys.readouterr().err and not model.exists()
        with pytest.raises(ValueError, match="overflow when scaled"):
            rolling_eval(panel, 0.7, 1, StdgrConfig(ranks=(1, 1, 1)), standardize=True)


class TestDataErrorsFromTheLibrary:
    """The library raises PanelFormatError for a panel it cannot use, and the
    CLI reports it as a data error without checking the panel again."""

    def test_one_panel_format_error_class(self):
        assert tuckervar.storage.PanelFormatError is PanelFormatError
        assert issubclass(PanelFormatError, ValueError)

    def test_moment_scale_is_checked_once_per_command(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path / "sim.json", scenario=small_scenario())
        panel = str(tmp_path / "panel.csv")
        assert main(["simulate", "--config", cfg, "--output", panel, "--seed", "0"]) == EXIT_OK
        calls = []
        check = tuckervar.var._require_moment_scale

        def spy(values):
            calls.append(values.shape)
            return check(values)

        # every binding of the check counts, the CLI's own included
        monkeypatch.setattr(tuckervar.var, "_require_moment_scale", spy)
        monkeypatch.setattr(tuckervar.cli, "_require_moment_scale", spy, raising=False)
        model = str(tmp_path / "m.json")
        fit = ["fit", "--input", panel, "--output", model, "--p", "2", "--ranks", "2,2,2"]
        for argv in (fit, fit + ["--standardize"], ["rank-select", "--input", panel, "--p", "2"]):
            calls.clear()
            assert main(argv) in (EXIT_OK, EXIT_MAX_ITER)
            assert len(calls) == 1, argv

    def test_rolling_eval_raises_a_panel_format_error(self):
        # one largest double among its negatives: x - mean overflows
        panel = np.random.default_rng(1).standard_normal((20, 2))
        panel[:, 0] = -1.7e308
        panel[3, 0] = 1.7e308
        with pytest.raises(PanelFormatError, match="overflow when scaled") as caught:
            rolling_eval(panel, 0.7, 1, StdgrConfig(ranks=(1, 1, 1)), standardize=True)
        assert isinstance(caught.value, ValueError)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e153, 1e160])
    def test_eval_reports_a_finite_mse_or_a_data_error(self, tmp_path, capsys, scale):
        values = np.random.default_rng(2).standard_normal((40, 2)) * scale
        truth, pred = str(tmp_path / "truth.csv"), str(tmp_path / "pred.csv")
        write_panel_csv(truth, values)
        write_panel_csv(pred, -values)
        model = identity_model(tmp_path, scale=0.5)
        unit, n_train = values / scale, int(0.6 * 40)
        # in units of the scale: at 1e153 the plain sum of squares would overflow
        expected = {
            ("--truth", truth, "--pred", pred): np.mean((2 * unit) ** 2),
            ("--model", model, "--input", truth): np.mean(
                (unit[n_train:] - 0.5 * unit[n_train - 1 : -1]) ** 2
            ),
        }
        for flags, value in expected.items():
            code = main(["eval", *flags])
            out, err = capsys.readouterr()
            if scale == 1e153:
                assert (code, err) == (EXIT_OK, "")
                assert json.loads(out)["mse"] == pytest.approx(value * scale**2, rel=1e-12)
            else:
                assert (code, out) == (EXIT_DATA, "")
                assert err.startswith("data error: mean squared error overflows")


class TestOversizedCell:
    """A cell longer than the csv module's field limit (131072 characters) is
    a data error naming the file, not a traceback."""

    @pytest.mark.parametrize(
        "text",
        ["a," + "b" * 200_000 + "\n1.0,2.0\n", "a,b\n1.0,2.0\n3.0," + "4" * 200_000 + "\n"],
        ids=["header", "data"],
    )
    def test_rank_select_reports_a_data_error(self, tmp_path, capsys, text):
        bad = tmp_path / "big.csv"
        bad.write_text(text)
        code = main(["rank-select", "--input", str(bad), "--p", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error:") and str(bad) in err
        assert "field limit" in err


class TestSolverFault:
    """A sweep that breaks a solver guarantee is a fault of the program, not
    of the input: exit 70 with the sweep named, and no model is written."""

    @pytest.fixture
    def unclipped(self, monkeypatch):
        def prox_core(l, tau, c):
            return np.sign(l) * np.maximum(np.abs(l) - tau, 0.0)

        monkeypatch.setattr(tuckervar.solver, "prox_core", prox_core)

    def test_fit_exits_70_and_writes_no_model(self, tmp_path, capsys, unclipped):
        cfg = write_config(tmp_path / "sim.json", scenario=small_scenario(length=150))
        panel = tmp_path / "panel.csv"
        assert main(["simulate", "--config", cfg, "--output", str(panel), "--seed", "0"]) == EXIT_OK
        capsys.readouterr()
        model = tmp_path / "m.json"
        code = main(["fit", "--input", str(panel), "--output", str(model), "--p", "2",
                     "--c", "0.5", "--ranks", "2,2,2"])
        err = capsys.readouterr().err
        assert code == EXIT_SOFTWARE
        assert err.startswith("internal error: sweep 1: core violates the box bound")
        assert not model.exists() and not (tmp_path / "m.json.diagnostics.jsonl").exists()

    def test_bench_names_the_cell(self, tmp_path, capsys, unclipped):
        scenario = small_scenario(seeds=[0], sample_sizes=[40])
        cfg = write_config(tmp_path / "cfg.json", scenario=scenario, solver={"c": 0.5})
        out = tmp_path / "curve.csv"
        assert main(["bench", "--config", cfg, "--output", str(out)]) == EXIT_SOFTWARE
        err = capsys.readouterr().err
        assert err.startswith("internal error: benchmark cell failed at T=40, seed=0: sweep 1:")
        assert not out.exists()


def read_readme() -> str:
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme) as handle:
        return handle.read()


def test_documented_exit_codes_are_the_constants():
    """README and the cli module docstring list exactly the EXIT_* codes."""
    constants = sorted(v for k, v in vars(tuckervar.cli).items() if k.startswith("EXIT_"))
    for text in (tuckervar.cli.__doc__, read_readme()):
        listed = re.search(r"Exit codes:(.*?)\.\s", text, re.S).group(1)
        assert sorted(int(code) for code in re.findall(r"\b\d+\b", listed)) == constants


def test_documented_solver_flags_and_fields_match_the_code():
    """README's solver-flag list is what the fit and bench parsers both
    accept beyond --config and --output, and its StdgrConfig field list is
    the dataclass's fields, in order."""
    readme = read_readme()
    documented = re.search(r"Solver flags \(`fit` and `bench`\): `([^`]*)`", readme).group(1)
    flags = [token for token in documented.split() if token.startswith("--")]
    subparsers = next(
        action for action in tuckervar.cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    accepted = [
        {option for action in subparsers.choices[name]._actions for option in action.option_strings}
        for name in ("fit", "bench")
    ]
    assert set(flags) == (accepted[0] & accepted[1]) - {"-h", "--help", "--config", "--output"}
    assert len(flags) == len(set(flags))
    listed = re.search(r"`StdgrConfig` \(([^)]*)\)", readme).group(1)
    fields = [name.strip(" `\n") for name in listed.split(",")]
    assert fields == [f.name for f in dataclasses.fields(StdgrConfig)]


class TestModuleEntryPoints:
    """``python -m tuckervar`` and ``python -m tuckervar.cli`` run the CLI and
    return its exit code."""

    @pytest.mark.parametrize("module", ["tuckervar", "tuckervar.cli"])
    @pytest.mark.parametrize(
        "argv, code", [(["--help"], EXIT_OK), ([], EXIT_USAGE), (["fit"], EXIT_USAGE)], ids=["help", "no-command", "missing-flags"]
    )
    def test_exit_code(self, module, argv, code):
        src = os.path.dirname(os.path.dirname(os.path.abspath(tuckervar.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == code
        if code == EXIT_OK:
            assert done.stdout.startswith("usage: tuckervar")
        else:
            assert done.stderr.startswith("usage error:")


class TestScenarioChecks:
    """A bad scenario key is a usage error that names it, and simulate or
    bench writes no panel, truth or curve file."""

    @pytest.mark.parametrize(
        "command,key,value,named",
        [
            ("simulate", "ranks", [2.5, 2, 2], "ranks"),
            ("simulate", "m", 6.5, "m must"),
            ("simulate", "p", True, "p must"),
            ("simulate", "length", 300.5, "length"),
            ("simulate", "length", "300", "length"),
            ("simulate", "burn_in", 2.5, "burn_in"),
            ("simulate", "noise_scale", float("nan"), "noise_scale"),
            ("simulate", "superdiag", [float("inf"), 1.0], "superdiag"),
            ("simulate", "seeds", [0.5], "seeds"),
            ("bench", "seeds", [], "seeds"),
            ("bench", "sample_sizes", [0], "sample_sizes"),
            ("bench", "sample_sizes", "40", "sample_sizes"),
            # a cell that cannot be fitted is named by its sample size and seed
            ("bench", "sample_sizes", [1], "T=1, seed=0"),
            # no truth is stable after 50 shrinks by 0.9
            ("simulate", "superdiag", [1e300, 1e300], "superdiag"),
            ("bench", "superdiag", [1e300, 1e300], "superdiag"),
            # the covariance squares noise_scale
            ("simulate", "noise_scale", 1e200, "noise_scale"),
            ("bench", "noise_scale", 1e200, "noise_scale"),
        ],
    )
    def test_bad_key_is_a_usage_error(self, tmp_path, capsys, command, key, value, named):
        scenario = small_scenario(seeds=[0], sample_sizes=[40])
        scenario[key] = value
        cfg = write_config(tmp_path / "cfg.json", scenario=scenario)
        assert main([command, "--config", cfg, "--output", str(tmp_path / "out.csv")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and named in err
        assert os.listdir(tmp_path) == ["cfg.json"]


class TestBandwidthSetting:
    """epsilon is a StdgrConfig field: the config file's solver section sets
    it like the flag does, and the flag wins."""

    def fit(self, tmp_path, name, extra):
        panel = tmp_path / "p.csv"
        write_panel_csv(str(panel), np.random.default_rng(0).standard_normal((60, 3)))
        model = tmp_path / name
        code = main(["fit", "--input", str(panel), "--output", str(model), "--p", "1"] + extra)
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        return model.read_bytes(), (tmp_path / (name + ".diagnostics.jsonl")).read_bytes()

    def test_config_and_flag_give_the_same_model(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", solver={"epsilon": 0.5})
        from_config = self.fit(tmp_path, "a.json", ["--config", cfg])
        assert from_config == self.fit(tmp_path, "b.json", ["--epsilon", "0.5"])
        assert json.loads(from_config[0])["config"]["epsilon"] == 0.5
        overridden = self.fit(tmp_path, "c.json", ["--config", cfg, "--epsilon", "0.7"])
        assert overridden == self.fit(tmp_path, "d.json", ["--epsilon", "0.7"])

    def test_bad_bandwidth_refused_before_the_panel_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        code = main(["fit", "--input", missing, "--output", str(tmp_path / "m.json"), "--p", "1",
                     "--epsilon", "nan"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "epsilon" in err and "cannot read panel" not in err


# 10**400 is an integer beyond the float range
SWEEP_VALUES = [float("nan"), float("inf"), 2.5, "3", True, None, 10**400]
SWEEP_SCENARIO = dict(
    m=3, p=1, ranks=[1, 1, 1], superdiag=[0.5], noise_scale=0.5, seeds=[0], sample_sizes=[20],
    burn_in=10, length=25,
)
SWEEP_KEYS = [
    (section, f.name)
    for section, cls in (("scenario", ScenarioSpec), ("solver", StdgrConfig), ("nnm", NnmConfig))
    for f in dataclasses.fields(cls)
] + [("scenario", "length"), ("solver", "a_bar1"), ("solver", "a_bar2")]  # retired, refused as unknown


@pytest.mark.parametrize("bad", SWEEP_VALUES, ids=lambda v: "10**400" if v == 10**400 else repr(v))
@pytest.mark.parametrize("section,key", SWEEP_KEYS)
def test_every_config_key_fits_or_fails_cleanly(tmp_path, capsys, section, key, bad):
    """Each key of each config section, set to a non-finite, fractional,
    string, bool or null value, gives an exit code and never raises."""
    panel = tmp_path / "p.csv"
    write_panel_csv(str(panel), np.random.default_rng(0).standard_normal((30, 2)))
    doc = {"scenario": dict(SWEEP_SCENARIO), "solver": {"max_iter": 5}, "nnm": {"max_iter": 20}}
    doc[section][key] = bad
    cfg = write_config(tmp_path / "cfg.json", **doc)
    out = str(tmp_path / "out")
    commands = {
        "scenario": [["simulate", "--output", out]],
        "solver": [["fit", "--input", str(panel), "--output", out, "--p", "1"]],
        "nnm": [["fit", "--input", str(panel), "--output", out, "--p", "1"],
                ["rank-select", "--input", str(panel), "--p", "1"]],
    }[section] + [["bench", "--output", out]]
    for argv in commands:
        assert main(argv + ["--config", cfg]) in (EXIT_OK, EXIT_MAX_ITER, EXIT_USAGE, EXIT_DATA)
    assert "Traceback" not in capsys.readouterr().err
