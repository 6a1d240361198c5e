import numpy as np
import pytest

from tuckervar import (
    NnmConfig,
    ScenarioSpec,
    StdgrConfig,
    error_curve,
    is_stable,
    make_scenario,
    rescale_to_spectral_radius,
    rolling_eval,
    simulate,
    upsilon,
)
from tuckervar.benchmark import curve_csv_lines


def small_spec(**overrides):
    base = dict(
        m=6,
        p=2,
        ranks=(2, 2, 2),
        superdiag=(1.2, 0.8),
        factor_style="gaussian-svd",
        noise_scale=0.5,
        seeds=(0, 1),
        sample_sizes=(60,),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestMakeScenario:
    def test_core_nonzero_count(self):
        spec = small_spec(ranks=(3, 3, 2), superdiag=(2.0, 2.0))
        scenario = make_scenario(spec, 0)
        assert np.count_nonzero(scenario.factors.core) == 2
        assert spec.core_nonzeros == 2

    @pytest.mark.parametrize("style", ["gaussian-svd", "laplacian-eigenvectors"])
    def test_factors_orthonormal(self, style):
        spec = small_spec(factor_style=style)
        scenario = make_scenario(spec, 3)
        assert scenario.factors.orthonormality_defect() <= 1e-10

    def test_seed_determinism(self):
        spec = small_spec()
        a = make_scenario(spec, 5)
        b = make_scenario(spec, 5)
        np.testing.assert_array_equal(a.w, b.w)

    def test_always_stable(self):
        spec = small_spec(superdiag=(100.0, 100.0))
        scenario = make_scenario(spec, 1)
        assert is_stable(scenario.w, 1e-8)
        assert scenario.rescale_count > 0
        assert scenario.superdiag_used[0] == pytest.approx(100.0 * 0.9**scenario.rescale_count)

    def test_bad_superdiag_length_rejected(self):
        with pytest.raises(ValueError):
            small_spec(superdiag=(1.0,))


class TestUpsilon:
    def test_formula(self):
        spec = small_spec(superdiag=(2.0, 2.0))
        t = 400
        s = 2
        expected = (np.sqrt(s) + np.sqrt(s)) * np.sqrt(np.log(spec.m**2 * spec.p) / t)
        assert abs(upsilon(spec, t) - expected) <= 1e-12


class TestErrorCurve:
    def test_noise_free_recovery(self):
        spec = small_spec(noise_scale=0.0, seeds=(0, 1), sample_sizes=(60, 90))
        cfg = StdgrConfig(beta=1e-8, alpha=0.0, gamma=0.1, c=2.0, ranks=(2, 2, 2))
        nnm_cfg = NnmConfig(lambda_nn=1e-8, max_iter=2000, tol=1e-12)
        rows = error_curve(spec, cfg, nnm_cfg)
        for row in rows:
            if row.method == "graph_tucker":
                assert row.mean_error <= 1e-3, row
        assert {row.method for row in rows} == {"graph_tucker", "nnm"}

    def test_upsilon_column_recomputation(self):
        spec = small_spec(noise_scale=0.0, seeds=(0,), sample_sizes=(60,))
        cfg = StdgrConfig(beta=1e-8, alpha=0.0, gamma=0.1, c=2.0, ranks=(2, 2, 2))
        rows = error_curve(spec, cfg, NnmConfig(lambda_nn=1e-8))
        s = spec.core_nonzeros
        for row in rows:
            expected = 2 * np.sqrt(s) * np.sqrt(np.log(spec.m**2 * spec.p) / row.n_samples)
            assert abs(row.upsilon - expected) <= 1e-12

    def test_csv_schema(self):
        spec = small_spec(noise_scale=0.0, seeds=(0,), sample_sizes=(60,))
        cfg = StdgrConfig(beta=1e-8, alpha=0.0, gamma=0.1, c=2.0, ranks=(2, 2, 2))
        rows = error_curve(spec, cfg, NnmConfig(lambda_nn=1e-8))
        lines = curve_csv_lines(rows)
        assert lines[0] == "method,T,upsilon,mean_error,stderr"
        assert len(lines) == 1 + len(rows)

    def test_empty_sample_sizes_rejected(self):
        spec = small_spec(sample_sizes=())
        with pytest.raises(ValueError):
            error_curve(spec, StdgrConfig(ranks=(2, 2, 2)))

    def test_cell_failures_name_the_cell(self):
        spec = small_spec(noise_scale=0.0, seeds=(0,), sample_sizes=(40,))
        bad_cfg = StdgrConfig(ranks=(5, 5, 5))  # exceeds the mode-3 dimension p=2
        with pytest.raises(ValueError, match=r"T=40, seed=0"):
            error_curve(spec, bad_cfg)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            error_curve(small_spec(seeds=()), StdgrConfig(ranks=(2, 2, 2)))

    def test_other_cell_errors_propagate_unchanged(self, monkeypatch):
        import tuckervar.benchmark as bench

        def failing(*args):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(bench, "fit_design", failing)
        with pytest.raises(ZeroDivisionError, match="^boom$"):
            error_curve(small_spec(seeds=(0,)), StdgrConfig(ranks=(2, 2, 2)))


BAD_VALUES = [np.nan, np.inf, 2.5, "3", True, None]
SPEC_FIELDS = [
    "m", "p", "ranks", "superdiag", "factor_style", "noise_scale", "seeds", "sample_sizes", "burn_in"
]
# fields that hold sequences, each with the entry that a bad value replaces
SEQUENCES = {"ranks": (0, 2, 2), "superdiag": (0, 0.8), "seeds": (0, 1), "sample_sizes": (0,)}


class TestScenarioSpecChecks:
    """Scenario fields are checked like solver fields: m, p, ranks, seeds,
    sample_sizes and burn_in are integers, superdiag and noise_scale finite
    numbers, each within its bound; a bad value is a ValueError naming the
    field."""

    @pytest.mark.parametrize(
        "field,bad",
        [(f, b) for f in SPEC_FIELDS for b in BAD_VALUES if (f, b) != ("noise_scale", 2.5)]
        + [("m", 0), ("p", 0), ("noise_scale", -0.5), ("burn_in", -1)],
    )
    def test_bad_value_names_the_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            small_spec(**{field: bad})

    @pytest.mark.parametrize(
        "field,bad",
        [(f, b) for f in SEQUENCES for b in BAD_VALUES if (f, b) != ("superdiag", 2.5)]
        + [("ranks", 0), ("superdiag", -np.inf), ("seeds", -1), ("sample_sizes", 0)],
    )
    def test_bad_entry_names_the_field(self, field, bad):
        with pytest.raises(ValueError, match=field):
            small_spec(**{field: (bad,) + SEQUENCES[field][1:]})

    def test_integer_like_values_accepted(self):
        spec = small_spec(m=np.int64(6), ranks=np.array([2, 2, 2]), burn_in=np.int32(10))
        assert (spec.m, spec.ranks, spec.burn_in) == (6, (2, 2, 2), 10)
        assert type(spec.m) is int and all(type(r) is int for r in spec.ranks)


def noise_free_panel(seed, m=6, p=2, ranks=(2, 2, 2), length=300, radius=0.999):
    spec = ScenarioSpec(
        m=m, p=p, ranks=ranks, superdiag=(1.0,) * min(ranks), noise_scale=0.0, sample_sizes=(1,)
    )
    scenario = make_scenario(spec, seed)
    w = rescale_to_spectral_radius(scenario.w, radius)
    rng = np.random.default_rng(seed + 1000)
    initial = rng.standard_normal((p, m))
    panel = simulate(w, np.zeros((m, m)), length=length, seed=0, burn_in=0, initial=initial)
    return panel, w


class TestRollingEval:
    def test_noise_free_forecasting(self):
        panel, _ = noise_free_panel(0)
        cfg = StdgrConfig(beta=1e-8, alpha=0.0, gamma=0.1, c=5.0, ranks=(2, 2, 2))
        report = rolling_eval(panel, 0.7, p=2, cfg=cfg, nnm_cfg=NnmConfig(lambda_nn=1e-8, max_iter=3000, tol=1e-13))
        assert report.mse <= 1e-6

    def test_single_test_step(self):
        rng = np.random.default_rng(1)
        panel, _ = noise_free_panel(1, length=52)
        cfg = StdgrConfig(beta=1e-8, alpha=0.0, gamma=0.1, c=5.0, ranks=(2, 2, 2))
        report = rolling_eval(panel, 51 / 52, p=2, cfg=cfg)
        assert report.n_test == 1
        # one squared-error term scaled by 1/m
        assert report.mse >= 0

    def test_lag_one_auto_ranks(self):
        # the lag mode has size 1 and gets rank 1
        rng = np.random.default_rng(4)
        report = rolling_eval(rng.standard_normal((10, 2)), 0.99, p=1)
        assert (report.n_train, report.n_test) == (9, 1)
        assert np.isfinite(report.mse)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        panel = rng.standard_normal((80, 4))
        cfg = StdgrConfig(ranks=(2, 2, 1), max_iter=20)
        a = rolling_eval(panel, 0.7, p=2, cfg=cfg)
        b = rolling_eval(panel, 0.7, p=2, cfg=cfg)
        assert a.mse == b.mse

    def test_standardization_uses_train_split_only(self):
        rng = np.random.default_rng(3)
        panel = rng.standard_normal((100, 3))
        panel[70:] += 8.0  # test tail lives on a different scale
        cfg = StdgrConfig(ranks=(1, 1, 1), max_iter=30)
        reported = rolling_eval(panel, 0.7, p=1, cfg=cfg, standardize=True).mse

        def manual(mean, std):
            scaled = (panel - mean) / std
            return rolling_eval(scaled, 0.7, p=1, cfg=cfg, standardize=False).mse

        train_stats = manual(panel[:70].mean(axis=0), panel[:70].std(axis=0))
        full_stats = manual(panel.mean(axis=0), panel.std(axis=0))
        assert reported == pytest.approx(train_stats, rel=1e-12)
        assert abs(reported - full_stats) > 1e-6

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            rolling_eval(np.zeros((50, 2)), 1.2, p=1)

    def test_too_few_test_rows_rejected(self):
        # 9 training rows leave no full lag window for p = 9
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="training split too short"):
            rolling_eval(rng.standard_normal((10, 2)), 0.99, p=9)


class TestOneSampleFits:
    """One training sample makes the ridge constant 0 (log 1 = 0), so rank
    selection cannot run; fixed ranks still fit."""

    def test_auto_ranks_on_p_plus_one_rows_rejected(self):
        from tuckervar import fit_panel

        panel = np.random.default_rng(5).standard_normal((3, 3))
        with pytest.raises(ValueError, match="rank selection needs at least 2 samples"):
            fit_panel(panel, 2)

    def test_rolling_eval_at_p_plus_one_training_rows_rejected(self):
        panel = np.random.default_rng(6).standard_normal((30, 3))
        with pytest.raises(ValueError, match="rank selection needs at least 2 samples"):
            rolling_eval(panel, 0.1, p=2)

    def test_fixed_ranks_fit_on_p_plus_one_rows(self):
        from tuckervar import fit_panel

        panel = np.random.default_rng(6).standard_normal((30, 3))
        cfg = StdgrConfig(ranks=(1, 1, 1))
        report = fit_panel(panel[:3], 2, cfg)
        assert report.ranks == (1, 1, 1)
        assert np.all(np.isfinite(report.w_hat))
        assert np.isfinite(rolling_eval(panel, 0.1, p=2, cfg=cfg).mse)


class TestScenarioDraws:
    def test_each_seed_drawn_once(self, monkeypatch):
        import tuckervar.benchmark as bench

        drawn = []

        def counting(spec, seed):
            drawn.append(seed)
            return make_scenario(spec, seed)

        monkeypatch.setattr(bench, "make_scenario", counting)
        spec = small_spec(seeds=(0, 1), sample_sizes=(40, 60, 80))
        error_curve(spec, StdgrConfig(ranks=(2, 2, 2), max_iter=5))
        assert sorted(drawn) == [0, 1]

    def test_seed_and_size_lists_become_int_tuples(self):
        spec = small_spec(seeds=[0, 1], sample_sizes=[40, 60])
        assert spec.seeds == (0, 1) and spec.sample_sizes == (40, 60)
