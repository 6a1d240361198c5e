import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tuckervar import (
    DesignPair,
    ScenarioSpec,
    TuckerFactors,
    build_design,
    fold,
    is_stable,
    make_scenario,
    mse,
    one_step_predictions,
    predict_one_step,
    rescale_to_spectral_radius,
    simulate,
    spectral_radius,
    train_scaler,
    tucker_reconstruct,
    unfold,
)
from tuckervar import benchmark
from solver_references import companion_matrix


def random_stable(rng, m, p, radius=0.8):
    w = rng.standard_normal((m, m, p)) * 0.1
    return rescale_to_spectral_radius(w, radius)


class TestBuildDesign:
    def test_univariate_lag_one(self):
        pair = build_design(np.array([[1.0], [2.0], [3.0]]), 1)
        np.testing.assert_array_equal(pair.x, [[1.0], [2.0]])
        np.testing.assert_array_equal(pair.y, [[2.0], [3.0]])

    def test_maximal_lag_leaves_one_row(self):
        rng = np.random.default_rng(0)
        panel = rng.standard_normal((6, 2))
        pair = build_design(panel, 5)
        assert pair.x.shape == (1, 10)
        assert pair.y.shape == (1, 2)
        # most recent lag first
        np.testing.assert_array_equal(pair.x[0, :2], panel[4])
        np.testing.assert_array_equal(pair.x[0, -2:], panel[0])

    def test_zero_panel(self):
        pair = build_design(np.zeros((10, 3)), 2)
        assert not pair.x.any() and not pair.y.any()

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            build_design(np.zeros((3, 2)), 3)


class TestPredictOneStep:
    def test_zero_tensor(self):
        assert not predict_one_step(np.zeros((3, 3, 2)), np.ones(6)).any()

    def test_half_identity(self):
        w = np.zeros((2, 2, 1))
        w[:, :, 0] = 0.5 * np.eye(2)
        np.testing.assert_allclose(predict_one_step(w, np.array([2.0, 2.0])), [1.0, 1.0])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 3, 2))
        x = rng.standard_normal(6)
        lags = x.reshape(2, 3)
        expected = np.zeros(3)
        for i in range(3):
            for lag in range(2):
                for j in range(3):
                    expected[i] += w[i, j, lag] * lags[lag, j]
        np.testing.assert_allclose(predict_one_step(w, x), expected, atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            predict_one_step(np.zeros((2, 2, 2)), np.ones(3))


class TestOneStepPredictions:
    def test_matches_per_row_loop(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 3, 2))
        panel = rng.standard_normal((20, 3))
        expected = [predict_one_step(w, panel[t - 2 : t][::-1].ravel()) for t in range(5, 20)]
        np.testing.assert_allclose(
            one_step_predictions(w, panel, 5), expected, rtol=1e-12, atol=1e-12
        )

    def test_first_row_needs_full_lags(self):
        with pytest.raises(ValueError, match="precedes the lag order"):
            one_step_predictions(np.zeros((2, 2, 3)), np.zeros((10, 2)), 2)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="variables"):
            one_step_predictions(np.zeros((2, 2, 1)), np.zeros((10, 3)), 5)


class TestTrainScaler:
    def test_constant_column_gets_unit_std(self):
        train = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        mean, std = train_scaler(train)
        np.testing.assert_array_equal(mean, train.mean(axis=0))
        np.testing.assert_array_equal(std, [1.0, np.arange(10.0).std()])


class TestStability:
    def test_half_identity_stable(self):
        w = np.zeros((2, 2, 1))
        w[:, :, 0] = 0.5 * np.eye(2)
        assert is_stable(w, 1e-8)

    def test_identity_unstable(self):
        w = np.zeros((2, 2, 1))
        w[:, :, 0] = np.eye(2)
        assert not is_stable(w, 1e-8)

    def test_two_lag_scalar_unstable(self):
        # largest root of z^2 = 0.6 z + 0.5 is (0.6 + sqrt(2.36)) / 2 > 1
        w = np.zeros((1, 1, 2))
        w[0, 0, 0] = 0.6
        w[0, 0, 1] = 0.5
        root = (0.6 + np.sqrt(0.6**2 + 4 * 0.5)) / 2
        assert root > 1
        assert abs(spectral_radius(w) - root) < 1e-10
        assert not is_stable(w, 1e-8)

    @pytest.mark.parametrize("scale", [0.5, 0.9])
    def test_shrinking_preserves_stability(self, scale):
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = random_stable(rng, 3, 2)
            assert is_stable(w, 1e-8)
            assert is_stable(scale * w, 1e-8)

    def test_bad_margin_rejected(self):
        with pytest.raises(ValueError):
            is_stable(np.zeros((2, 2, 1)), 0.0)

    def test_rescale_hits_target_radius(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 3, 2))
        scaled = rescale_to_spectral_radius(w, 0.97)
        assert abs(spectral_radius(scaled) - 0.97) < 1e-10

    @pytest.mark.parametrize("target", [np.nan, np.inf, 0.0, "0.9"])
    def test_bad_target_named(self, target):
        w = np.random.default_rng(3).standard_normal((3, 3, 2))
        with pytest.raises(ValueError, match=r"^target must be"):
            rescale_to_spectral_radius(w, target)


def dense_radius(w):
    """The reference: max |eig| of the full (mp x mp) companion matrix."""
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(w)))))


def orthonormal(rng, n, r):
    return np.linalg.qr(rng.standard_normal((n, r)))[0]


def radius_cases():
    """Seeded (kind, W) pairs: W_(1) of full rank, of deficient rank without
    Tucker structure (a random m x r times r x mp product), of rank r with
    singular values graded from 1 down to 1e-12, and Tucker tensors, over
    corner and random shapes, scaled so ||W_(1)||_2 spans 1e-6 .. 2."""
    rng = np.random.default_rng(20)
    shapes = [(1, 1), (1, 4), (5, 1), (2, 1), (1, 2)]
    shapes += [(int(rng.integers(1, 13)), int(rng.integers(1, 6))) for _ in range(60)]
    cases = []
    for m, p in shapes:
        for kind in ("full", "deficient", "graded", "tucker"):
            if kind == "full":
                w1 = rng.standard_normal((m, m * p))
            elif kind == "deficient":
                r = int(rng.integers(1, m + 1))
                w1 = rng.standard_normal((m, r)) @ rng.standard_normal((r, m * p))
            elif kind == "graded":
                r = int(rng.integers(1, m + 1))
                sigma = np.logspace(0.0, -12.0, r)
                w1 = (orthonormal(rng, m, r) * sigma) @ orthonormal(rng, m * p, r).T
            else:
                ranks = tuple(int(rng.integers(1, n + 1)) for n in (m, m, p))
                factors = TuckerFactors(
                    core=rng.standard_normal(ranks),
                    a1=orthonormal(rng, m, ranks[0]),
                    a2=orthonormal(rng, m, ranks[1]),
                    a3=orthonormal(rng, p, ranks[2]),
                )
                w1 = unfold(tucker_reconstruct(factors), 1)
            amplitude = 10.0 ** rng.uniform(-6.0, np.log10(2.0))
            w1 = w1 * (amplitude / np.linalg.norm(w1, 2))
            cases.append((kind, fold(w1, 1, (m, m, p))))
    return cases


class TestReducedCompanion:
    def test_matches_dense_eigvals(self):
        covered = set()
        for kind, w in radius_cases():
            dense = dense_radius(w)
            got = spectral_radius(w)
            m, _, p = w.shape
            full_rank = np.linalg.matrix_rank(unfold(w, 1)) == m
            if full_rank:
                # at r = m the reduced companion is the companion itself
                assert got == dense
            if dense < 1e-2:
                # the dense radius of a tiny W is the rounding scatter of its
                # nilpotent part, ~(eps ||C||)^(1/p), not a reference
                continue
            assert abs(got - dense) <= 1e-13 * dense, (kind, w.shape)
            covered |= {kind} | {
                tag
                for tag, hit in [
                    ("m=1", m == 1),
                    ("p=1", p == 1),
                    ("m=p=1", m == p == 1),
                    ("rank<m", not full_rank),
                    ("||W_(1)|| < 1e-4", np.linalg.norm(unfold(w, 1), 2) < 1e-4),
                ]
                if hit
            }
        assert covered == {
            "full", "deficient", "graded", "tucker", "m=1", "p=1", "m=p=1", "rank<m", "||W_(1)|| < 1e-4"
        }

    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 3, 1), (1, 1, 4), (4, 4, 3)])
    def test_zero_tensor(self, shape):
        assert spectral_radius(np.zeros(shape)) == 0.0 == dense_radius(np.zeros(shape))

    @pytest.mark.parametrize(
        "m, p, seeds",
        [
            (80, 5, (0, 1, 2, 3)),
            (30, 4, (0, 1, 2, 3)),
            (30, 3, (0, 1, 1000, 2001)),
            (12, 3, (0, 1, 2, 3)),
        ],
    )
    def test_make_scenario_matches_dense_check(self, monkeypatch, m, p, seeds):
        # the benchmark's nnm-bound, solver-bound, cli-roundtrip and bench truths
        spec = ScenarioSpec(m=m, p=p, ranks=(2, 2, 2), superdiag=(2.0, 2.0), noise_scale=0.5)
        self._assert_same_scenarios(monkeypatch, spec, seeds)

    def test_shrink_loop_matches_dense_check(self, monkeypatch):
        spec = ScenarioSpec(m=6, p=2, ranks=(2, 2, 2), superdiag=(100.0, 100.0))
        assert min(self._assert_same_scenarios(monkeypatch, spec, (0, 1, 2))) > 0

    @staticmethod
    def _assert_same_scenarios(monkeypatch, spec, seeds):
        """make_scenario against itself with a dense is_stable; returns the
        rescale counts."""
        fast = [make_scenario(spec, seed) for seed in seeds]
        monkeypatch.setattr(benchmark, "is_stable", lambda w, margin: dense_radius(w) <= 1.0 - margin)
        for seed, got in zip(seeds, fast):
            ref = make_scenario(spec, seed)
            assert got.w.tobytes() == ref.w.tobytes()
            assert got.rescale_count == ref.rescale_count
        return [got.rescale_count for got in fast]

    @pytest.mark.parametrize("kind", ["full", "deficient", "graded", "tucker"])
    def test_near_boundary_verdicts(self, kind):
        # targets 1e-9 either side of the stability threshold 1 - margin
        w = next(w for k, w in radius_cases() if k == kind and w.shape[0] > 2 and w.shape[2] > 1)
        for margin in (1e-8, 1e-12):
            for sign in (-1.0, 1.0):
                near = rescale_to_spectral_radius(w, 1.0 - margin + sign * 1e-9)
                verdict = is_stable(near, margin)
                assert verdict == (dense_radius(near) <= 1.0 - margin)
                assert verdict == (sign < 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            spectral_radius,
            is_stable,
            companion_matrix,
            lambda w: rescale_to_spectral_radius(w, 0.5),
            lambda w: simulate(w, np.eye(3), length=5, seed=0),
        ],
    )
    def test_non_finite_tensor_rejected(self, call, bad):
        w = np.full((3, 3, 2), 0.1)
        w[1, 2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            call(w)

    @pytest.mark.parametrize("shape", [(0, 0, 2), (3, 3, 0)])
    def test_empty_tensor_rejected(self, shape):
        with pytest.raises(ValueError, match="m, p >= 1"):
            spectral_radius(np.zeros(shape))


class TestSimulate:
    def test_zero_noise_zero_init_is_zero(self):
        rng = np.random.default_rng(4)
        w = random_stable(rng, 2, 1)
        panel = simulate(w, np.zeros((2, 2)), length=20, seed=0)
        assert not panel.any()

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(5)
        w = random_stable(rng, 3, 2)
        a = simulate(w, np.eye(3), length=50, seed=42)
        b = simulate(w, np.eye(3), length=50, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_pure_noise_mean(self):
        t = 4000
        panel = simulate(np.zeros((2, 2, 1)), np.eye(2), length=t, seed=7)
        assert np.max(np.abs(panel.mean(axis=0))) <= 5 / np.sqrt(t)

    def test_unstable_rejected(self):
        w = np.zeros((2, 2, 1))
        w[:, :, 0] = 1.5 * np.eye(2)
        with pytest.raises(ValueError):
            simulate(w, np.eye(2), length=10, seed=0)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, 2.5, "3", True, None, -1, pytest.param(10**400, id="10**400")]
    )
    @pytest.mark.parametrize("field", ["length", "burn_in"])
    def test_bad_length_or_burn_in_names_it(self, field, bad):
        w = np.zeros((2, 2, 1))
        with pytest.raises(ValueError, match=field):
            simulate(w, np.eye(2), **{"length": 5, "seed": 0, field: bad})

    def test_non_psd_covariance_rejected(self):
        rng = np.random.default_rng(6)
        w = random_stable(rng, 2, 1)
        with pytest.raises(ValueError):
            simulate(w, np.array([[1.0, 2.0], [2.0, 1.0]]), length=10, seed=0)

    @pytest.mark.parametrize(
        "covariance, initial, message",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], None, "covariance entries must be finite"),
            ([[1.0, np.nan], [np.nan, 1.0]], None, "covariance entries must be finite"),
            ([[np.inf, 0.0], [0.0, 1.0]], None, "covariance entries must be finite"),
            (np.eye(2), [[np.nan, 0.0]], "initial lag stack entries must be finite"),
            (np.eye(2), [[0.0, -np.inf]], "initial lag stack entries must be finite"),
        ],
        ids=["nan-diagonal", "nan-off-diagonal", "inf-covariance", "nan-initial", "inf-initial"],
    )
    def test_non_finite_inputs_rejected(self, covariance, initial, message):
        w = np.zeros((2, 2, 1))
        w[:, :, 0] = 0.5 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                simulate(w, covariance, length=5, seed=0, initial=initial)

    @pytest.mark.parametrize(
        "covariance",
        [
            [[1e155, 1e155], [0.0, 1e155]],
            [[1e200, 1e200], [0.0, 1e200]],
            [[1e300, 1e300], [0.0, 1e300]],
            # C - C^T overflows unless C is scaled first
            [[1e300, 1e308], [-1e308, 1e300]],
        ],
        ids=["1e155", "1e200", "1e300", "opposite-signs"],
    )
    def test_huge_asymmetric_covariance_rejected(self, covariance):
        w = np.zeros((2, 2, 1))
        w[:, :, 0] = 0.5 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="covariance must be symmetric"):
                simulate(w, covariance, length=3, seed=0)

    @pytest.mark.parametrize(
        "covariance",
        [
            np.diag([1e200, 1e200]),
            np.diag([1e300, 1e300]),
            np.array([[2.0, 1.0], [1.0, 2.0]]) * 1e300,
            np.array([[1.0, -1.0], [-1.0, 1.5]]) * 1e300,
        ],
        ids=["diag-1e200", "diag-1e300", "dense-1e300", "negative-1e300"],
    )
    def test_huge_symmetric_covariance_simulates(self, covariance):
        w = np.zeros((2, 2, 1))
        w[:, :, 0] = 0.5 * np.eye(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            panel = simulate(w, covariance, length=20, seed=0)
        assert panel.shape == (20, 2)
        assert np.isfinite(panel).all()
        assert panel.any()

    SCALES = [1e-20, 1e-8, 1.0, 1e4, 1e8, 1e150, 1e300]

    @pytest.mark.parametrize("scale", SCALES)
    def test_rank_one_covariance_simulates_at_any_scale(self, scale):
        # the semidefiniteness test is relative: rounding in the zero
        # eigenvalue grows with the scale and must not refuse these
        rng = np.random.default_rng(31)
        w = np.zeros((2, 2, 1))
        for _ in range(200):
            v = rng.standard_normal(2)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                panel = simulate(w, np.outer(v, v) * scale, length=3, seed=0, burn_in=0)
            assert np.isfinite(panel).all()

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("angle", [0.0, 0.7])
    def test_slightly_indefinite_covariance_rejected_at_any_scale(self, scale, angle):
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        covariance = rot @ np.diag([1.0, -1e-6]) @ rot.T * scale
        covariance = (covariance + covariance.T) / 2
        with pytest.raises(ValueError, match="positive semidefinite"):
            simulate(np.zeros((2, 2, 1)), covariance, length=3, seed=0)

    def test_noise_free_design_consistency(self):
        # a noise-free path satisfies the regression identity exactly
        rng = np.random.default_rng(8)
        w = random_stable(rng, 3, 2, radius=0.95)
        init = rng.standard_normal((2, 3))
        panel = simulate(w, np.zeros((3, 3)), length=40, seed=0, burn_in=0, initial=init)
        pair = build_design(panel, 2)
        residual = pair.y - pair.x @ unfold(w, 1).T
        assert np.max(np.abs(residual)) <= 1e-10


class TestMse:
    def test_identical_panels(self):
        panel = np.arange(6.0).reshape(3, 2)
        assert mse(panel, panel) == 0.0

    def test_unit_offset(self):
        rng = np.random.default_rng(9)
        panel = rng.standard_normal((7, 3))
        assert abs(mse(panel, panel + 1.0) - 1.0) <= 1e-12

    def test_hand_value(self):
        truth = np.array([[0.0, 0.0]])
        pred = np.array([[3.0, 4.0]])
        assert mse(truth, pred) == 12.5

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((5, 2))
        b = rng.standard_normal((5, 2))
        assert mse(a, b) == mse(b, a) >= 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse(np.zeros((3, 2)), np.zeros((2, 3)))


SEEDED = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def stacked_design(panel, p):
    """The regression pair with X copied out of the panel, so its moments
    come from X itself."""
    length = panel.shape[0]
    x = np.hstack([panel[p - lag : length - lag] for lag in range(1, p + 1)])
    return DesignPair(x=x, y=panel[p:])


def assert_same_design(panel, p):
    ours, ref = build_design(panel, p), stacked_design(panel, p)
    assert (ours.n_samples, ours.m, ours.p) == (ref.n_samples, ref.m, ref.p)
    for name in ("gram", "cross"):
        got, want = getattr(ours, name), getattr(ref, name)
        assert got.shape == want.shape, name
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name
    assert abs(ours.yty - ref.yty) <= 1e-13 * ref.yty
    assert ours.x.tobytes() == ref.x.tobytes() and ours.x.shape == ref.x.shape


@st.composite
def lagged_panels(draw):
    """(panel, p) with L from p + 1 (one sample) past 3 mp, some columns
    constant or zero, and amplitudes far from 1."""
    m, p = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    length = draw(st.integers(p + 1, 3 * m * p + p + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    panel = rng.standard_normal((length, m)) * draw(st.sampled_from([1.0, 1e-6, 1e6]))
    for column in draw(st.sets(st.integers(0, m - 1))):
        panel[:, column] = draw(st.sampled_from([0.0, 1.0, -2.5]))
    return panel, p


class TestLaggedMoments:
    """build_design forms X^T X and Y^T X from p + 1 lagged products of the
    panel; they must match the moments of the stacked X."""

    @SEEDED
    @given(case=lagged_panels())
    def test_moments_match_stacked_design(self, case):
        assert_same_design(*case)

    @pytest.mark.parametrize(
        "length,m,p",
        [(2, 1, 1), (9, 3, 1), (4, 2, 3), (6, 3, 4), (7, 1, 6), (8, 4, 2), (40, 5, 3)],
        ids=["L=p+1,m=p=1", "p=1", "L=p+1", "L<2p", "m=1,L=p+1", "L<=mp", "L>mp"],
    )
    def test_edge_shapes(self, length, m, p):
        panel = np.random.default_rng(length * m * p).standard_normal((length, m))
        assert_same_design(panel, p)
        panel[:, 0] = 0.0
        panel[:, -1] = 3.0
        assert_same_design(panel, p)

    def test_moments_are_read_only(self):
        design = build_design(np.random.default_rng(1).standard_normal((20, 3)), 2)
        for moment in (design.gram, design.cross):
            with pytest.raises(ValueError):
                moment[0, 0] = 1.0

    def test_moments_do_not_form_the_lag_matrix(self):
        m, p, t = 30, 4, 20000
        panel = np.random.default_rng(2).standard_normal((t + p, m))
        tracemalloc.start()
        try:
            design = build_design(panel, p)
            design.gram, design.cross
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < t * m * p * 8 / 4
