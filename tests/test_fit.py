"""fit_panel on small degenerate panels: every case either returns a finite
estimate or raises a ValueError that tuckervar itself raised, with a message;
no numpy error or warning escapes. A fit runs the public stage functions:
its ranks and its solver start can be rebuilt from the report."""

import traceback
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckervar
from tuckervar import (
    ScenarioSpec,
    StdgrConfig,
    build_design,
    fit_panel,
    hosvd,
    laplacian_from_rows,
    make_scenario,
    ridge_constant,
    select_ranks,
    simulate,
    solve,
)

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
        again = solve(
            build_design(panel, self.P), report.laplacians, cfg, hosvd(report.nnm.w, report.ranks)
        )
        assert report.result.iterations > 1
        np.testing.assert_array_equal(again.w_hat, report.w_hat)
        np.testing.assert_array_equal(again.objective_trace, report.result.objective_trace)

    def test_laplacians_take_the_config_bandwidth(self, panel):
        cfg = StdgrConfig(c=2.0, ranks=(3, 2, 1), epsilon=0.5)
        report = fit_panel(panel, self.P, cfg)
        init = hosvd(report.nnm.w, report.ranks)
        for got, rows in zip(report.laplacians.as_tuple(), (init.a1, init.a2, init.a3)):
            np.testing.assert_array_equal(got, laplacian_from_rows(rows, cfg.epsilon))
