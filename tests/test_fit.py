"""fit_panel on small degenerate panels: every case either returns a finite
estimate or raises a ValueError that tuckervar itself raised, with a message;
no numpy error or warning escapes. A fit runs the public stage functions:
its ranks and its solver start can be rebuilt from the report."""

import json
import sys
import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckervar
from tuckervar import (
    NnmConfig,
    ScenarioSpec,
    StdgrConfig,
    build_design,
    build_laplacians,
    fit_panel,
    hosvd,
    laplacian_from_rows,
    make_scenario,
    ridge_constant,
    select_ranks,
    simulate,
    solve,
    unfold,
)
from tuckervar import initialization
from tuckervar.cli import EXIT_MAX_ITER, EXIT_OK, EXIT_USAGE, main
from tuckervar.storage import write_panel_csv

PACKAGE = Path(tuckervar.__file__).resolve().parent


@st.composite
def small_fits(draw):
    """(panel, p, ranks): m <= 4, p <= 3, L from p + 1 to 3 mp, some
    columns constant or zero, ranks "auto" or explicit (possibly above the
    dimensions)."""
    m, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    length = draw(st.integers(p + 1, max(p + 1, 3 * m * p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    panel = rng.standard_normal((length, m)) * draw(st.sampled_from([1.0, 1e-8, 1e8]))
    for column in draw(st.sets(st.integers(0, m - 1))):
        panel[:, column] = draw(st.sampled_from([0.0, 1.0, -3.0]))
    explicit = st.tuples(st.integers(1, m + 1), st.integers(1, m + 1), st.integers(1, p + 1))
    ranks = draw(st.one_of(st.just("auto"), explicit))
    return panel, p, ranks


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=small_fits())
def test_small_fits_succeed_or_explain(case):
    panel, p, ranks = case
    cfg = StdgrConfig(ranks=ranks, max_iter=20)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fit_panel(panel, p, cfg)
    except ValueError as exc:
        origin = Path(traceback.extract_tb(exc.__traceback__)[-1].filename).resolve()
        assert origin.parent == PACKAGE, f"{type(exc).__name__} from {origin}: {exc}"
        assert not isinstance(exc, np.linalg.LinAlgError)
        assert str(exc)
        return
    m = panel.shape[1]
    assert report.w_hat.shape == (m, m, p)
    assert np.isfinite(report.w_hat).all()


class TestStagesFromReport:
    """What FitReport and the README promise: automatic ranks are
    ``select_ranks(report.nnm.w, ridge_constant(m, p, T))`` and the solver
    starts from ``hosvd(report.nnm.w, report.ranks)``."""

    P = 2

    @pytest.fixture(scope="class")
    def panel(self):
        spec = ScenarioSpec(m=8, p=self.P, ranks=(2, 2, 2), superdiag=(2.0, 1.5), noise_scale=0.5)
        return simulate(make_scenario(spec, 0).w, 0.25 * np.eye(8), length=400, seed=3)

    def test_auto_ranks_are_select_ranks(self, panel):
        report = fit_panel(panel, self.P, StdgrConfig(c=2.0))
        design = build_design(panel, self.P)
        c_bar = ridge_constant(design.m, design.p, design.n_samples)
        assert report.ranks_selected
        assert report.ranks == select_ranks(report.nnm.w, c_bar)

    @pytest.mark.parametrize("ranks", ["auto", (3, 2, 1)])
    def test_solver_starts_from_hosvd(self, panel, ranks):
        cfg = StdgrConfig(c=2.0, ranks=ranks)
        report = fit_panel(panel, self.P, cfg)
        init = hosvd(report.nnm.w, report.ranks)
        again = solve(build_design(panel, self.P), build_laplacians(init, cfg.epsilon), cfg, init)
        assert report.result.iterations > 1
        np.testing.assert_array_equal(again.w_hat, report.w_hat)
        np.testing.assert_array_equal(again.objective_trace, report.result.objective_trace)

    def test_each_unfolding_is_decomposed_once(self, panel, monkeypatch):
        """Rank selection and the HOSVD share one Gram eigendecomposition of
        each unfolding of the nuclear-norm estimate, and take no SVD of it."""
        calls = {"gram": [], "svd": []}

        def spy(kind, fn):
            return lambda a, *args, **kwargs: calls[kind].append(a.copy()) or fn(a, *args, **kwargs)

        monkeypatch.setattr(
            initialization, "_gram_singular", spy("gram", initialization._gram_singular)
        )
        monkeypatch.setattr(np.linalg, "svd", spy("svd", np.linalg.svd))
        report = fit_panel(panel, self.P, StdgrConfig(c=2.0))
        assert report.ranks_selected

        def count(kind, target):
            return sum(a.shape == target.shape and np.array_equal(a, target) for a in calls[kind])

        for mode in (1, 2, 3):
            unfolding = unfold(report.nnm.w, mode)
            assert (count("gram", unfolding), count("svd", unfolding)) == (1, 0)

    def test_laplacians_take_the_config_bandwidth(self, panel):
        cfg = StdgrConfig(c=2.0, ranks=(3, 2, 1), epsilon=0.5)
        report = fit_panel(panel, self.P, cfg)
        init = hosvd(report.nnm.w, report.ranks)
        design = build_design(panel, self.P)

        def trace(epsilon):
            laps = tuple(laplacian_from_rows(a, epsilon) for a in (init.a1, init.a2, init.a3))
            return solve(design, laps, cfg, init).objective_trace

        np.testing.assert_array_equal(trace(cfg.epsilon), report.result.objective_trace)
        assert not np.array_equal(trace(0.2), report.result.objective_trace)


@pytest.mark.parametrize(
    "m, p, ranks", [(2, 9, (2, 2, 5)), (2, 9, (2, 2, 9)), (1, 3, (1, 1, 3)), (3, 1, (3, 3, 1))]
)
def test_fit_has_the_ranks_it_reports(m, p, ranks):
    """A mode whose rank exceeds the product of the other two dimensions (a
    tall unfolding) still gets as many factor columns as asked."""
    panel = np.random.default_rng(30).standard_normal((300, m))
    report = fit_panel(panel, p, StdgrConfig(ranks=ranks))
    f = report.result.factors
    assert report.ranks == ranks
    assert f.core.shape == ranks
    assert (f.a1.shape, f.a2.shape, f.a3.shape) == tuple((n, r) for n, r in zip((m, m, p), ranks))
    assert f.orthonormality_defect() <= 1e-10


class TestExtremeSettings:
    """A huge coupling weight, a bandwidth whose 2 epsilon^2 is subnormal or
    0, a nuclear-norm weight at the float range's edge and a huge box bound
    each fit, or are refused by a ValueError (exit 64) naming their field;
    none is an internal error (exit 70) and no numpy warning escapes."""

    @pytest.fixture(scope="class")
    def panel(self):
        spec = ScenarioSpec(m=8, p=2, ranks=(2, 2, 2), superdiag=(2.0, 1.5), noise_scale=0.25)
        return simulate(make_scenario(spec, 0).w, 0.25 * np.eye(8), length=600, seed=0)

    @pytest.mark.parametrize(
        "flag,value,refused",
        [
            ("gamma", 1e13, None),
            ("gamma", 1e14, None),
            ("gamma", 1e100, None),
            ("epsilon", 1e-160, None),
            ("epsilon", 1e-200, None),
            ("epsilon", 1e-300, None),
            ("lambda_nn", 1.7e308, "lambda_nn"),
            ("lambda_nn", 1e300, None),
            ("c", 1e300, "c="),
        ],
    )
    def test_fits_or_names_the_field(self, panel, tmp_path, capsys, flag, value, refused):
        cfg, nnm_cfg = StdgrConfig(ranks=(2, 2, 2)), NnmConfig()
        if flag == "lambda_nn":
            nnm_cfg = NnmConfig(lambda_nn=value)
        else:
            cfg = StdgrConfig(ranks=(2, 2, 2), **{flag: value})
        if refused is None:
            assert np.isfinite(fit_panel(panel, 2, cfg, nnm_cfg).w_hat).all()
        else:
            with pytest.raises(ValueError, match=refused):
                fit_panel(panel, 2, cfg, nnm_cfg)

        path = str(tmp_path / "panel.csv")
        write_panel_csv(path, panel)
        argv = ["fit", "--input", path, "--output", str(tmp_path / "m.json"), "--p", "2"]
        argv += ["--ranks", "2,2,2", "--" + flag.replace("_", "-"), repr(value)]
        code = main(argv)
        if refused is None:
            assert code in (EXIT_OK, EXIT_MAX_ITER)
        else:
            assert code == EXIT_USAGE
            assert refused in capsys.readouterr().err


def every_binding(monkeypatch, module, name, replace):
    """Patch ``name`` on every tuckervar module that binds ``module.name``,
    with ``replace(original)``; returns the original."""
    original = getattr(module, name)
    patched = replace(original)
    for other in list(sys.modules.values()):
        if other is not None and other.__name__.startswith("tuckervar"):
            if getattr(other, name, None) is original:
                monkeypatch.setattr(other, name, patched)
    return original


class TestOneInitializerStage:
    """``fit_design`` and ``rank-select`` start through the one
    ``initialization.initialize``: the same checks before the NNM, the same
    ranks, one decomposition of each unfolding."""

    @pytest.fixture(scope="class")
    def panel(self):
        spec = ScenarioSpec(m=8, p=2, ranks=(2, 2, 2), superdiag=(2.0, 1.5), noise_scale=0.5)
        return simulate(make_scenario(spec, 0).w, 0.25 * np.eye(8), length=400, seed=3)

    @pytest.mark.parametrize("ranks", ["auto", (3, 2, 1), [3, 2, 1], np.array([3, 2, 1])])
    def test_initialize_returns_the_stages(self, panel, ranks):
        design = build_design(panel, 2)
        nnm, chosen, c_bar, init = initialization.initialize(design, ranks)
        np.testing.assert_array_equal(nnm.w, initialization.nnm_estimate(design).w)
        if isinstance(ranks, str):
            assert c_bar == ridge_constant(8, 2, design.n_samples)
            assert chosen == select_ranks(nnm.w, c_bar)
        else:
            assert (chosen, c_bar) == ((3, 2, 1), None)
        again = hosvd(nnm.w, chosen)
        for name in ("core", "a1", "a2", "a3"):
            np.testing.assert_array_equal(getattr(init, name), getattr(again, name))

    @pytest.mark.parametrize("ranks", [(9, 2, 2), (2, 9, 2), (2, 2, 3), (81, 2, 2)])
    def test_rank_above_its_dimension_is_refused_before_the_nnm(
        self, panel, tmp_path, capsys, monkeypatch, ranks
    ):
        with pytest.raises(ValueError) as from_hosvd:
            hosvd(np.zeros((8, 8, 2)), ranks)

        def refused(original):
            def nnm(*args):
                raise AssertionError("the initializer ran before the ranks were checked")

            return nnm

        every_binding(monkeypatch, initialization, "nnm_estimate", refused)
        with pytest.raises(ValueError) as caught:
            fit_panel(panel, 2, StdgrConfig(ranks=ranks))
        assert str(caught.value) == str(from_hosvd.value)

        path = str(tmp_path / "panel.csv")
        write_panel_csv(path, panel)
        argv = ["fit", "--input", path, "--output", str(tmp_path / "m.json"), "--p", "2"]
        assert main(argv + ["--ranks", ",".join(map(str, ranks))]) == EXIT_USAGE
        assert capsys.readouterr().err == f"usage error: {from_hosvd.value}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("caller", ["fit_panel", "rank-select"])
    def test_each_caller_initializes_once(self, panel, tmp_path, capsys, monkeypatch, caller):
        """One ``initialize`` call per fit or rank selection, and one Gram
        eigendecomposition of each unfolding of its NNM estimate."""
        starts, grams = [], []

        def spy_start(original):
            return lambda *args: starts.append(original(*args)) or starts[-1]

        def spy_gram(original):
            return lambda a: grams.append(a.copy()) or original(a)

        every_binding(monkeypatch, initialization, "initialize", spy_start)
        every_binding(monkeypatch, initialization, "_gram_singular", spy_gram)
        if caller == "fit_panel":
            report = fit_panel(panel, 2, StdgrConfig(c=2.0))
            assert report.ranks == starts[0][1]
        else:
            path = str(tmp_path / "panel.csv")
            write_panel_csv(path, panel)
            assert main(["rank-select", "--input", path, "--p", "2"]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["ranks"] == list(starts[0][1])
        assert len(starts) == 1
        nnm = starts[0][0]
        for mode in (1, 2, 3):
            unfolding = unfold(nnm.w, mode)
            same = [a.shape == unfolding.shape and np.array_equal(a, unfolding) for a in grams]
            assert sum(same) == 1

    @pytest.mark.parametrize("m, p, length", [(12, 3, 200), (15, 3, 400)])
    @pytest.mark.parametrize("truth", [0, 1, 2, 3])
    def test_rank_select_reports_the_fit_ranks(self, tmp_path, capsys, m, p, length, truth):
        spec = ScenarioSpec(m=m, p=p, ranks=(2, 2, 2), superdiag=(2.0, 2.0), noise_scale=0.5)
        panel = simulate(
            make_scenario(spec, truth).w, 0.25 * np.eye(m), length=length, seed=1000 + truth
        )
        report = fit_panel(panel, p, StdgrConfig(ranks="auto"))
        path = str(tmp_path / "panel.csv")
        write_panel_csv(path, panel)
        assert main(["rank-select", "--input", path, "--p", str(p)]) == EXIT_OK
        design = build_design(panel, p)
        assert json.loads(capsys.readouterr().out) == {
            "ranks": list(report.ranks),
            "c_bar": ridge_constant(m, p, design.n_samples),
            "nnm_converged": report.nnm.converged,
        }
