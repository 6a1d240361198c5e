import warnings

import numpy as np
import pytest

from tuckervar import (
    DesignPair,
    NnmConfig,
    ScenarioSpec,
    StdgrConfig,
    build_design,
    build_laplacians,
    fit_panel,
    fold,
    hosvd,
    laplacian_from_rows,
    make_scenario,
    nnm_estimate,
    ridge_constant,
    select_ranks,
    simulate,
    svt,
    tucker_reconstruct,
    unfold,
)
from tuckervar.initialization import _gram_singular
from tuckervar.tensor import TuckerFactors


def random_orthonormal(rng, n, r):
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def svt_cases():
    """Seeded matrices for the SVT accuracy grid: Gaussian, rank-deficient
    and ill-conditioned (singular values log-spaced down to 1/cond), in the
    wide 80 x 400 shape of the nuclear-norm initializer at (m, p) = (80, 5),
    square (p = 1), tall and single-row or single-column, plus all-zero."""
    rng = np.random.default_rng(20)
    cases = []
    for shape in [(80, 400), (80, 80), (400, 80), (1, 9), (9, 1), (30, 50)]:
        k = min(shape)
        cases.append((f"gaussian{shape}", rng.standard_normal(shape)))
        r = max(1, k // 3)
        low = rng.standard_normal((shape[0], r)) @ rng.standard_normal((r, shape[1]))
        cases.append((f"rank{r}{shape}", low))
        for cond in (1e4, 1e8, 1e12):
            u = random_orthonormal(rng, shape[0], k)
            v = random_orthonormal(rng, shape[1], k)
            cases.append((f"cond{cond:g}{shape}", (u * np.logspace(0, -np.log10(cond), k)) @ v.T))
    cases.append(("zero(5, 9)", np.zeros((5, 9))))
    return cases


SVT_CASES = svt_cases()
# threshold as a share of sigma_max; from 1e-3 up the Gram-based SVT is
# accurate to 1e-12 (its error is about k eps sigma_max^2 / tau); the worst
# case on this grid is 6e-9 at 1e-12 with cond 1e12
SVT_RATIOS = [0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.3, 0.99, 1.0, 3.0]


class TestSvt:
    @pytest.mark.parametrize("tau", [np.nan, np.inf, -1.0, "1", pytest.param(10**400, id="10**400")])
    def test_bad_threshold_names_tau(self, tau):
        with pytest.raises(ValueError, match=r"^tau must be"):
            svt(np.eye(3), tau)

    def test_diagonal_case(self):
        np.testing.assert_allclose(svt(np.diag([3.0, 1.0]), 2.0)[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_threshold_is_identity(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((4, 3))
        assert np.max(np.abs(svt(m, 0.0)[0] - m)) <= 1e-12

    def test_prox_against_grid_search(self):
        # the prox objective is separable across singular values once the
        # singular subspaces are fixed, so search each shrunk value on a grid
        rng = np.random.default_rng(1)
        tau = 0.7
        m = rng.standard_normal((3, 3))
        u, sigma, vt = np.linalg.svd(m)
        best = []
        for s in sigma:
            grid = np.arange(0.0, s + 1.0, 1e-4)
            objective = tau * grid + 0.5 * (grid - s) ** 2
            best.append(grid[np.argmin(objective)])
        oracle = (u * np.array(best)) @ vt
        assert np.max(np.abs(svt(m, tau)[0] - oracle)) <= 1e-3

    @pytest.mark.parametrize("shape", [(12, 36), (36, 12)])
    def test_threshold_above_every_singular_value_gives_exact_zero(self, shape):
        # A - U U^T A would leave rounding residue (up to 4.4e-15 here)
        mat = np.random.default_rng(21).standard_normal(shape)
        out, shrunk = svt(mat, 100.0)
        assert out.shape == shape
        assert not out.any() and not shrunk.any()

    @pytest.mark.parametrize("shape", [(4, 9), (9, 4), (5, 5)])
    def test_threshold_at_the_largest_singular_value_gives_exact_zero(self, shape):
        # the zero shortcut compares tau with the largest sigma the Gram
        # eigendecomposition reports: it takes tau equal to that sigma, and
        # one ulp below it leaves a nonzero result
        mat = np.random.default_rng(sum(shape)).standard_normal(shape)
        top = float(_gram_singular(mat.T if shape[0] > shape[1] else mat)[0][-1])
        out, shrunk = svt(mat, top)
        assert not out.any() and not shrunk.any()
        out, shrunk = svt(mat, np.nextafter(top, 0.0))
        assert out.any() and shrunk[-1] > 0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.1)

    @pytest.mark.parametrize("scale", [1e-200, 1e200, 5e307])
    def test_extreme_magnitudes(self, scale):
        # squaring 1e200 overflows and squaring 1e-200 underflows; 1.5e308
        # lies above the largest power of two
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = svt(np.diag([3.0, 1.0]) * scale, 2.0 * scale)[0]
        np.testing.assert_allclose(out / scale, np.diag([1.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("name, mat", SVT_CASES, ids=[c[0] for c in SVT_CASES])
    def test_matches_svd_thresholding(self, name, mat):
        u, sigma, vt = np.linalg.svd(mat, full_matrices=False)
        sigma_max = sigma[0]
        size = np.linalg.norm(mat)
        for ratio in SVT_RATIOS:
            tau = ratio * sigma_max
            shrunk_ref = np.maximum(sigma - tau, 0.0)
            ref = (u * shrunk_ref) @ vt
            out, shrunk = svt(mat, tau)
            tight = ratio >= 1e-3
            assert np.linalg.norm(out - ref) <= (1e-12 if tight else 2e-8) * size, ratio
            # the shrunk values sum to the nuclear norm of the result; below
            # the threshold, a zero singular value reads up to ~sqrt(k eps)
            # sigma_max, and a rank-deficient matrix has many of them
            error = abs(np.sum(shrunk) - np.sum(shrunk_ref))
            assert error <= (1e-12 if tight else 1e-7) * np.sum(sigma), ratio
            if mat.shape[0] != mat.shape[1]:
                # both orientations threshold the same wide matrix
                np.testing.assert_array_equal(svt(mat.T, tau)[0], out.T)
            if ratio == 0.0:
                assert np.linalg.norm(out - mat) <= 1e-12 * size
            if ratio >= 1.0:
                assert np.linalg.norm(out) <= 1e-12 * size


class TestNnmEstimate:
    def _design(self, rng, t, m, p, w1=None, noise=0.0):
        x = rng.standard_normal((t, m * p))
        if w1 is None:
            w1 = rng.standard_normal((m, m * p))
        y = x @ w1.T + noise * rng.standard_normal((t, m))
        return DesignPair(x=x, y=y), w1

    def test_large_weight_kills_estimate(self):
        rng = np.random.default_rng(2)
        design, _ = self._design(rng, 50, 3, 2)
        lam = 2.0 * np.linalg.norm(design.x.T @ design.y, 2) / design.n_samples
        result = nnm_estimate(design, NnmConfig(lambda_nn=lam * 1.01))
        assert np.linalg.norm(result.w) <= 1e-8

    def test_rank_one_recovery_residual(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((3, 1))
        v = rng.standard_normal((6, 1))
        design, w1 = self._design(rng, 400, 3, 2, w1=u @ v.T)
        result = nnm_estimate(design, NnmConfig(lambda_nn=1e-6, max_iter=2000))
        w1_hat = unfold(result.w, 1)
        residual = np.sum((design.y - design.x @ w1_hat.T) ** 2) / design.n_samples
        assert residual <= 1e-6

    def test_objective_monotone(self):
        rng = np.random.default_rng(4)
        design, _ = self._design(rng, 60, 3, 2, noise=0.5)
        result = nnm_estimate(design, NnmConfig(lambda_nn=0.05, max_iter=200))
        trace = result.objective_trace
        assert np.all(trace[1:] <= trace[:-1] + 1e-10 * np.maximum(1.0, np.abs(trace[:-1])))

    def test_objective_trace_matches_recomputed_nuclear_norm(self):
        # iterate k is the result of a k-iteration run; its objective, with
        # the nuclear norm from a fresh SVD, must match trace entry k
        rng = np.random.default_rng(6)
        design, _ = self._design(rng, 40, 3, 2, noise=0.5)
        lam = 1.0
        n_iter = 6
        full = nnm_estimate(design, NnmConfig(lambda_nn=lam, max_iter=n_iter, tol=1e-15))
        assert full.iterations == n_iter
        # the premise: the trace holds reweighted steps and FISTA iterations
        assert 0 < full.reweighted_steps < n_iter
        for k in range(1, n_iter + 1):
            run = nnm_estimate(design, NnmConfig(lambda_nn=lam, max_iter=k, tol=1e-15))
            np.testing.assert_array_equal(run.objective_trace, full.objective_trace[: k + 1])
            w1 = unfold(run.w, 1)
            residual = design.y - design.x @ w1.T
            expected = np.sum(residual**2) / design.n_samples + lam * np.sum(
                np.linalg.svd(w1, compute_uv=False)
            )
            assert abs(full.objective_trace[k] - expected) <= 1e-12 * abs(expected)

    def test_iteration_cap_flags_nonconvergence(self):
        rng = np.random.default_rng(5)
        design, _ = self._design(rng, 60, 3, 2, noise=0.5)
        result = nnm_estimate(design, NnmConfig(lambda_nn=0.05, max_iter=2, tol=1e-14))
        assert not result.converged
        assert result.iterations == 2


def scenario_design(m=12, p=3, T=800, seed=1):
    """Design of a simulated panel whose truth has ranks (2, 2, 2). At
    (12, 3, 800) and seed 1, 500 plain proximal-gradient steps stop short of
    the relative-change tolerance 1e-6."""
    spec = ScenarioSpec(m=m, p=p, ranks=(2, 2, 2), superdiag=(2.0, 2.0), noise_scale=0.5)
    truth = make_scenario(spec, seed).w
    return build_design(simulate(truth, 0.25 * np.eye(m), length=T + p, seed=seed), p)


def plain_proximal_gradient(design, lam, n_iter):
    """Reference: n_iter plain proximal-gradient steps from zero. Returns the
    objective after each step and the relative iterate change of each step."""
    x, y, n = design.x, design.y, design.n_samples
    gram, cross = x.T @ x, y.T @ x
    step = n / (2.0 * np.linalg.eigvalsh(gram)[-1])
    w = np.zeros_like(cross)
    objectives, changes = [], []
    for _ in range(n_iter):
        w_next = svt(w - step * 2.0 * (w @ gram - cross) / n, lam * step)[0]
        changes.append(np.linalg.norm(w_next - w) / max(np.linalg.norm(w), 1e-300))
        w = w_next
        residual = y - x @ w.T
        objectives.append(
            np.sum(residual**2) / n + lam * np.sum(np.linalg.svd(w, compute_uv=False))
        )
    return np.array(objectives), np.array(changes)


def reference_start(design, lam):
    """Reference: the start of ``nnm_estimate``, W0 = (Y^T X - (T lam / 2) P)
    (X^T X)^+ with P = U V^T from the SVD of the least-squares fit
    W_LS = Y^T X (X^T X)^+ and the pseudo-inverse at numpy's rank tolerance;
    W_LS when F(W0) > F(0), and 0 when F(W_LS) > F(0) too. Returns the start
    and F there."""
    x, y, n = design.x, design.y, design.n_samples
    gram, cross = x.T @ x, y.T @ x
    gram_pinv = np.linalg.pinv(gram, rtol=None)
    w_ls = cross @ gram_pinv
    u, _, vt = np.linalg.svd(w_ls, full_matrices=False)
    w0 = (cross - 0.5 * n * lam * (u @ vt)) @ gram_pinv
    f_zero = np.sum(y * y) / n
    for w in (w0, w_ls):
        f_w = nnm_objective(design, lam, w)
        if f_w <= f_zero:
            return w, f_w
    return np.zeros_like(w0), f_zero


def nnm_objective(design, lam, w1):
    """F(W) of the nuclear-norm initializer, with the nuclear norm from the SVD."""
    residual = design.y - design.x @ w1.T
    return np.sum(residual**2) / design.n_samples + lam * np.sum(
        np.linalg.svd(w1, compute_uv=False)
    )


def reference_fista(design, lam, tol, max_iter, warm=True):
    """Reference: the reweighted least-squares steps and then the monotone
    restarted FISTA of ``nnm_estimate``, written on W itself, from
    ``reference_start`` (from 0, with no reweighted steps, when not
    ``warm``). A reweighted step solves S W gram + (T lam / 2) W = S Y^T X,
    S = (W W^T)^(1/2) from ``np.linalg.svd``, as one dense linear system;
    the SVT takes ``np.linalg.svd`` and the gradient ``W @ gram``.
    Returns (W, iterations)."""
    x, y, n = design.x, design.y, design.n_samples
    gram, cross, yty = x.T @ x, y.T @ x, float(np.sum(y * y))
    step = n / (2.0 * np.linalg.eigvalsh(gram)[-1])

    def objective(w, nuclear):
        return (yty - 2.0 * np.sum(cross * w) + np.sum((w @ gram) * w)) / n + lam * nuclear

    if warm:
        w, f_w = reference_start(design, lam)
    else:
        w, f_w = np.zeros_like(cross), yty / n
    k = 0
    if warm and lam > 0 and w.any():
        rel_prev = np.inf
        while k < max_iter:
            k += 1
            u, sigma, _ = np.linalg.svd(w, full_matrices=False)
            s = (u * sigma) @ u.T
            # column-major vec(S W gram) = (gram kron S) vec(W)
            system = np.kron(gram, s) + 0.5 * n * lam * np.eye(w.size)
            z = np.linalg.solve(system, (s @ cross).ravel(order="F"))
            z = z.reshape(w.shape, order="F")
            f_z = objective(z, np.sum(np.linalg.svd(z, compute_uv=False)))
            if not f_z < f_w:
                break
            rel = np.linalg.norm(z - w) / np.linalg.norm(z)
            w, f_w = z, f_z
            if rel <= tol or rel > 0.5 * rel_prev:
                break
            rel_prev = rel
    v, t = w, 1.0
    for k in range(k + 1, max_iter + 1):
        u, sigma, vt = np.linalg.svd(v - step * 2.0 * (v @ gram - cross) / n, full_matrices=False)
        sigma = np.maximum(sigma - lam * step, 0.0)
        z = (u * sigma) @ vt
        f_z = objective(z, np.sum(sigma))
        rel = np.linalg.norm(z - v) / np.linalg.norm(z)
        accepted = f_z <= f_w
        if accepted:
            if np.sum((v - z) * (z - w)) > 0:
                t = 1.0
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
            v = z + (t - 1.0) / t_next * (z - w)
            w, f_w, t = z, f_z, t_next
        if rel <= tol:
            break
        if not accepted:
            if t == 1.0:
                break
            v, t = w, 1.0
    return w, k


class TestNnmEigenbasis:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_iterates_as_the_svd_loop(self, seed):
        design = scenario_design(seed=seed)
        cfg = NnmConfig()
        result = nnm_estimate(design, cfg)
        w_ref, iterations = reference_fista(design, result.lambda_nn, cfg.tol, cfg.max_iter)
        assert result.converged
        assert result.iterations == iterations
        w1 = unfold(result.w, 1)
        assert np.linalg.norm(w1 - w_ref) <= 1e-10 * np.linalg.norm(w_ref)
        # the last trace entry is the objective of the returned estimate
        residual = design.y - design.x @ w1.T
        expected = np.sum(residual**2) / design.n_samples + result.lambda_nn * np.sum(
            np.linalg.svd(w1, compute_uv=False)
        )
        assert abs(result.objective_trace[-1] - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("seed, column", [(1, 0), (1, 5), (2, 17), (3, 35)])
    def test_zero_predictor_column_stays_zero(self, seed, column):
        # X^T X is singular; its eigendecomposition returns a zero eigenvalue
        # up to rounding (here about +-1e-13), whose eigenvector is the
        # zero column's coordinate
        design = scenario_design(seed=seed)
        x = design.x.copy()
        x[:, column] = 0.0
        result = nnm_estimate(DesignPair(x=x, y=design.y))
        assert result.converged
        w1 = unfold(result.w, 1)
        assert np.linalg.norm(w1[:, column]) <= 1e-12 * np.linalg.norm(w1)


class TestNnmWarmStart:
    """The run starts at W0 = (Y^T X - (T lam / 2) P) (X^T X)^+, the
    minimizer of the loss plus the penalty linearized at the least-squares
    fit W_LS; at W_LS when F(W0) > F(0), and at 0 when F(W_LS) > F(0) too.
    The optimum and the stop rule are those of a zero start."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_optimum_as_a_zero_start(self, seed):
        design = scenario_design(seed=seed)
        cfg = NnmConfig()
        result = nnm_estimate(design, cfg)
        lam = result.lambda_nn
        w_zero, zero_iterations = reference_fista(design, lam, cfg.tol, cfg.max_iter, warm=False)
        f_zero = nnm_objective(design, lam, w_zero)
        assert abs(nnm_objective(design, lam, unfold(result.w, 1)) - f_zero) <= 1e-9 * f_zero
        assert result.iterations < zero_iterations

    def test_trace_starts_at_the_start_and_never_rises(self):
        design = scenario_design()
        result = nnm_estimate(design)
        w0, f_w0 = reference_start(design, result.lambda_nn)
        # the premise: the warm start is taken
        assert w0.any() and f_w0 < design.yty / design.n_samples
        trace = result.objective_trace
        assert abs(trace[0] - f_w0) <= 1e-12 * f_w0
        assert np.all(np.diff(trace) <= 0.0)

    def test_weight_that_zeroes_the_estimate_starts_and_stops_at_zero(self):
        # at 100 times the automatic weight W0 lies far along -P, F(W0) >
        # F(0), and the first SVT thresholds everything: an exact zero step
        design = scenario_design(seed=0)
        lam = 100.0 * nnm_estimate(design).lambda_nn
        assert not reference_start(design, lam)[0].any()
        result = nnm_estimate(design, NnmConfig(lambda_nn=lam))
        assert result.converged and result.iterations == 1
        # a zero start takes no reweighted step
        assert result.reweighted_steps == 0
        assert not result.w.any()
        f_zero = design.yty / design.n_samples
        np.testing.assert_array_equal(result.objective_trace, [f_zero, f_zero])

    @pytest.mark.parametrize("truth", [1, 2])
    def test_rejected_start_falls_back_to_the_least_squares_fit(self, truth):
        # the first 60 rows of a 560-row simulation (noise seed 1000 + truth)
        # at (12, 3): F(W0) > F(0) >= F(W_LS), so the run starts at W_LS and
        # takes reweighted steps, where a start at 0 could take none
        spec = ScenarioSpec(m=12, p=3, ranks=(2, 2, 2), superdiag=(2.0, 2.0), noise_scale=0.5)
        panel = simulate(make_scenario(spec, truth).w, 0.25 * np.eye(12), length=560, seed=1000 + truth)
        design = build_design(panel[:60], 3)
        cfg = NnmConfig()
        result = nnm_estimate(design, cfg)
        lam = result.lambda_nn
        start, f_start = reference_start(design, lam)
        # the premise: the start is W_LS
        gram_pinv = np.linalg.pinv(design.x.T @ design.x, rtol=None)
        assert np.array_equal(start, (design.y.T @ design.x) @ gram_pinv)
        assert abs(result.objective_trace[0] - f_start) <= 1e-12 * f_start
        assert result.converged and result.reweighted_steps > 0
        w_ref, iterations = reference_fista(design, lam, cfg.tol, cfg.max_iter)
        assert result.iterations == iterations
        w1 = unfold(result.w, 1)
        assert np.linalg.norm(w1 - w_ref) <= 1e-10 * np.linalg.norm(w_ref)
        w_zero, zero_iterations = reference_fista(design, lam, cfg.tol, cfg.max_iter, warm=False)
        assert result.iterations < zero_iterations
        f_zero = nnm_objective(design, lam, w_zero)
        assert abs(nnm_objective(design, lam, w1) - f_zero) <= cfg.tol * f_zero

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_start_is_scale_free(self, scale):
        # scaling (X, Y) scales X^T X, Y^T X and the automatic weight alike,
        # so W0 stays in place and F(W0) scales with the data variance
        design = scenario_design()
        cfg = NnmConfig(max_iter=1)
        base = nnm_estimate(design, cfg)
        scaled = nnm_estimate(DesignPair(x=scale * design.x, y=scale * design.y), cfg)
        np.testing.assert_allclose(
            scaled.objective_trace, scale**2 * base.objective_trace, rtol=1e-10
        )
        assert np.linalg.norm(scaled.w - base.w) <= 1e-10 * np.linalg.norm(base.w)

    @pytest.mark.parametrize("t", [10, 20])
    def test_singular_gram(self, t):
        # T < mp = 36: X^T X has rank T, and its pseudo-inverse scales only
        # the columns of its range
        design = scenario_design(T=t)
        cfg = NnmConfig()
        result = nnm_estimate(design, cfg)
        lam = result.lambda_nn
        # the premise: the warm start is taken
        assert reference_start(design, lam)[0].any()
        w_ref, iterations = reference_fista(design, lam, cfg.tol, cfg.max_iter)
        assert result.converged
        assert result.iterations == iterations
        w1 = unfold(result.w, 1)
        assert np.linalg.norm(w1 - w_ref) <= 1e-10 * np.linalg.norm(w_ref)
        w_zero, _ = reference_fista(design, lam, cfg.tol, cfg.max_iter, warm=False)
        f_zero = nnm_objective(design, lam, w_zero)
        assert abs(nnm_objective(design, lam, w1) - f_zero) <= 1e-9 * f_zero


class TestNnmReweighted:
    """Before FISTA, the run takes reweighted least-squares steps: each
    minimizes the loss plus the majorizer (1/2) tr(S^-1 W W^T) + (1/2) tr(S)
    of the nuclear norm at the current W, S = (W W^T)^(1/2), and the run
    hands over to FISTA once a step stops paying."""

    def test_one_step_is_the_dense_majorizer_solve(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((200, 8))
        y = x @ rng.standard_normal((4, 8)).T + 0.5 * rng.standard_normal((200, 4))
        design = DesignPair(x=x, y=y)
        result = nnm_estimate(design, NnmConfig(max_iter=1))
        assert result.reweighted_steps == result.iterations == 1
        assert not result.converged
        lam, n = result.lambda_nn, design.n_samples
        w0, f_w0 = reference_start(design, lam)
        u, sigma, _ = np.linalg.svd(w0, full_matrices=False)
        s_inv = (u / sigma) @ u.T
        ev, q = np.linalg.eigh(x.T @ x)
        # column-major vec: (diag(ev) kron I + kappa I kron S^-1) vec(W Q) = vec(Y^T X Q)
        system = np.kron(np.diag(ev), np.eye(4)) + 0.5 * n * lam * np.kron(np.eye(8), s_inv)
        wq = np.linalg.solve(system, (y.T @ x @ q).ravel(order="F")).reshape((4, 8), order="F")
        expected = wq @ q.T
        w1 = unfold(result.w, 1)
        assert np.linalg.norm(w1 - expected) <= 1e-12 * np.linalg.norm(expected)
        assert abs(result.objective_trace[0] - f_w0) <= 1e-12 * f_w0
        assert result.objective_trace[1] < result.objective_trace[0]
        # the cap stops the phase: the trace is the start of a full run's
        full = nnm_estimate(design)
        assert full.reweighted_steps >= 2
        np.testing.assert_array_equal(result.objective_trace, full.objective_trace[:2])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_trace_never_rises_across_the_hand_over(self, seed):
        design = scenario_design(seed=seed)
        result = nnm_estimate(design)
        k = result.reweighted_steps
        assert result.converged
        assert 0 < k < result.iterations
        trace = result.objective_trace
        assert trace.size == result.iterations + 1
        assert np.all(np.diff(trace) <= 0.0)
        # every reweighted step that did not end the phase lowered F
        assert np.all(np.diff(trace[:k]) < 0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tolerance_ends_the_phase(self, seed):
        # at tol = 1e-2 the third or fourth step is already that small
        design = scenario_design(seed=seed)
        cfg = NnmConfig(tol=1e-2)
        result = nnm_estimate(design, cfg)
        w_ref, iterations = reference_fista(design, result.lambda_nn, cfg.tol, cfg.max_iter)
        assert result.converged
        assert result.iterations == iterations
        assert result.reweighted_steps < nnm_estimate(design).reweighted_steps
        assert np.linalg.norm(unfold(result.w, 1) - w_ref) <= 1e-10 * np.linalg.norm(w_ref)

    def test_step_that_fails_to_lower_the_objective_ends_the_phase(self):
        # the optimum is reached to rounding after three steps; the fourth
        # reads F a rounding error higher, and W is kept
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 6))
        y = x @ rng.standard_normal((3, 6)).T + 0.5 * rng.standard_normal((40, 3))
        result = nnm_estimate(DesignPair(x=x, y=y), NnmConfig(lambda_nn=0.05, tol=1e-15))
        assert result.reweighted_steps == 4
        trace = result.objective_trace
        assert np.all(np.diff(trace[:4]) < 0.0)
        assert trace[4] == trace[3]
        assert np.all(np.diff(trace) <= 0.0)

    def test_rank_deficient_start_keeps_its_null_space(self):
        # at T = 10 < m = 12 the start has rank 10; a direction with s = 0
        # has the weight 0 and stays 0 through every reweighted step
        t = 10
        design = scenario_design(T=t)
        result = nnm_estimate(design)
        lam = result.lambda_nn
        sigma0 = np.linalg.svd(reference_start(design, lam)[0], compute_uv=False)
        assert np.all(sigma0[t:] <= 1e-14 * sigma0[0]) and sigma0[t - 1] > 1e-3 * sigma0[0]
        assert result.reweighted_steps > 0
        for k in range(1, result.reweighted_steps + 1):
            run = nnm_estimate(design, NnmConfig(max_iter=k))
            assert run.reweighted_steps == k
            sigma = np.linalg.svd(unfold(run.w, 1), compute_uv=False)
            assert np.all(sigma[t:] <= 1e-14 * sigma[0])
        assert result.converged
        w_zero, _ = reference_fista(design, lam, NnmConfig().tol, NnmConfig().max_iter, warm=False)
        f_zero = nnm_objective(design, lam, w_zero)
        assert abs(nnm_objective(design, lam, unfold(result.w, 1)) - f_zero) <= 1e-9 * f_zero

    def test_zero_weight_skips_the_phase(self):
        # m = p = 1: the automatic weight's rate factor sqrt(log(m^2 p) / T) is 0
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 1))
        result = nnm_estimate(DesignPair(x=x, y=0.5 * x + rng.standard_normal((50, 1))))
        assert result.lambda_nn == 0.0
        assert result.reweighted_steps == 0
        assert result.converged and result.iterations >= 1

    def test_few_iterations_at_a_full_rank_optimum(self):
        # truth 0 of the (40, 4, 800) benchmark scenario, panel seed 1000:
        # 83 FISTA iterations from the same start, 11 with reweighted steps
        m, p, t = 40, 4, 800
        spec = ScenarioSpec(m=m, p=p, ranks=(2, 2, 2), superdiag=(2.0, 2.0), noise_scale=0.5)
        panel = simulate(make_scenario(spec, 0).w, 0.25 * np.eye(m), length=t + 500, seed=1000)
        result = nnm_estimate(build_design(panel[:t], p))
        assert result.converged
        assert result.iterations <= 20

    @pytest.mark.parametrize("t, seed", [(200, 1), (60, 1), (60, 3)])
    def test_no_more_iterations_than_a_zero_start(self, t, seed):
        # FISTA alone from the linearized start took 170, 118 and 124
        # iterations here, against 141, 106 and 119 from 0
        design = scenario_design(T=t, seed=seed)
        cfg = NnmConfig()
        result = nnm_estimate(design, cfg)
        _, zero_iterations = reference_fista(
            design, result.lambda_nn, cfg.tol, cfg.max_iter, warm=False
        )
        assert result.converged
        assert result.iterations <= zero_iterations


class TestAcceleratedNnm:
    def test_converges_where_plain_steps_hit_the_cap(self):
        design = scenario_design()
        cfg = NnmConfig()
        result = nnm_estimate(design, cfg)
        objectives, changes = plain_proximal_gradient(design, result.lambda_nn, 5000)
        # the premise: the plain iteration is still moving after 500 steps
        assert np.all(changes[:500] > cfg.tol)
        assert result.converged
        assert result.iterations <= 300
        trace = result.objective_trace
        assert np.all(np.diff(trace) <= 0.0)
        f_ref = objectives[-1]
        gap = (trace[-1] - f_ref) / f_ref
        # the reference has converged, so no run may end below it
        assert abs(objectives[-1] - objectives[-1000]) <= 1e-14 * f_ref
        assert gap >= -1e-12
        # the stationarity stop ends no farther from the optimum than the
        # plain iteration stopped by the relative-change rule at the same tol
        plain_stop = int(np.argmax(changes <= cfg.tol))
        assert plain_stop > 0
        assert gap <= (objectives[plain_stop] - f_ref) / f_ref
        assert gap <= 1e-8

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_stop_is_scale_free(self, scale):
        # the automatic weight scales with the data variance, so scaling
        # (X, Y) scales the objective and leaves the minimizer in place
        design = scenario_design()
        base = nnm_estimate(design)
        scaled = nnm_estimate(DesignPair(x=scale * design.x, y=scale * design.y))
        assert scaled.iterations == base.iterations
        assert scaled.converged == base.converged
        assert np.linalg.norm(scaled.w - base.w) <= 1e-10 * np.linalg.norm(base.w)

    def test_unreachable_tolerance_stops_before_the_cap(self):
        # once rounding in F hides the decrease of a plain step, the step
        # would repeat unchanged; the run stops there, unconverged
        design = scenario_design(m=6, p=2, T=300, seed=0)
        result = nnm_estimate(design, NnmConfig(max_iter=20000, tol=1e-16))
        assert not result.converged
        assert result.iterations < 20000
        assert result.objective_trace.size == result.iterations + 1
        assert np.all(np.diff(result.objective_trace) <= 0.0)

    def test_zero_design_objective_is_mean_square_response(self):
        y = np.arange(12.0).reshape(6, 2)
        result = nnm_estimate(DesignPair(x=np.zeros((6, 4)), y=y))
        assert result.converged and result.iterations == 0
        assert np.linalg.norm(result.w) == 0.0
        np.testing.assert_array_equal(result.objective_trace, [np.sum(y * y) / 6])

    def test_yty_matches_sum_of_squares_on_row_sliced_panel(self):
        panel = np.random.default_rng(17).standard_normal((400, 7)) * 3.0 + 1.0
        design = build_design(panel[50:], 3)
        assert design.y.base is not None
        expected = float(np.sum(design.y * design.y))
        assert abs(design.yty - expected) <= 1e-14 * expected


class TestHosvd:
    def _exact_tucker(self, rng, dims, ranks):
        core = rng.standard_normal(ranks)
        f = TuckerFactors(
            core=core,
            a1=random_orthonormal(rng, dims[0], ranks[0]),
            a2=random_orthonormal(rng, dims[1], ranks[1]),
            a3=random_orthonormal(rng, dims[2], ranks[2]),
        )
        return tucker_reconstruct(f)

    @pytest.mark.parametrize(
        "ranks", [(2.7, 2, 2), (True, 2, 2), (2, np.nan, 2), ("2", 2, 2), (0, 2, 2), (2, 2)]
    )
    def test_bad_ranks_named(self, ranks):
        w = np.random.default_rng(5).standard_normal((4, 4, 3))
        with pytest.raises(ValueError, match=r"^ranks must be"):
            hosvd(w, ranks)

    def test_exact_low_rank_reconstruction(self):
        rng = np.random.default_rng(6)
        w = self._exact_tucker(rng, (5, 5, 3), (2, 2, 2))
        f = hosvd(w, (2, 2, 2))
        assert np.linalg.norm(tucker_reconstruct(f) - w) <= 1e-10

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(7)
        w = rng.standard_normal((4, 4, 3))
        f = hosvd(w, (4, 4, 3))
        assert np.linalg.norm(tucker_reconstruct(f) - w) <= 1e-10

    def test_rank_one_core_magnitude(self):
        rng = np.random.default_rng(8)
        g = 1.7
        a = random_orthonormal(rng, 5, 1)
        b = random_orthonormal(rng, 4, 1)
        c = random_orthonormal(rng, 3, 1)
        w = g * a[:, 0, None, None] * b[None, :, 0, None] * c[None, None, :, 0]
        f = hosvd(w, (1, 1, 1))
        assert abs(abs(f.core[0, 0, 0]) - g) <= 1e-10

    def test_factor_orthonormality(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((5, 5, 4))
        f = hosvd(w, (3, 2, 2))
        assert f.orthonormality_defect() <= 1e-10

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((4, 4, 2))
        f = hosvd(w, (2, 2, 1))
        for a in (f.a1, f.a2, f.a3):
            for j in range(a.shape[1]):
                assert a[np.argmax(np.abs(a[:, j])), j] > 0

    def test_rank_exceeding_dimension_rejected(self):
        with pytest.raises(ValueError):
            hosvd(np.zeros((3, 3, 2)), (4, 1, 1))


class TestSelectRanks:
    def _tensor_with_mode1_singular_values(self, rng, sigma, m, p):
        u = random_orthonormal(rng, m, len(sigma))
        v = random_orthonormal(rng, m * p, len(sigma))
        return fold((u * np.array(sigma)) @ v.T, 1, (m, m, p))

    def test_gap_detection(self):
        rng = np.random.default_rng(11)
        sigma = [5.0, 4.9, 0.001, 0.0005]
        w = self._tensor_with_mode1_singular_values(rng, sigma, 6, 2)
        c_bar = 0.01
        # evaluate every ratio by hand: j = 2 wins
        full = np.concatenate([sigma, np.zeros(2)])
        ratios = (full[1:] + c_bar) / (full[:-1] + c_bar)
        assert np.argmin(ratios) == 1
        assert select_ranks(w, c_bar)[0] == 2

    def test_exact_rank_tail(self):
        rng = np.random.default_rng(12)
        core = rng.standard_normal((3, 3, 2))
        f = TuckerFactors(
            core=core,
            a1=random_orthonormal(rng, 7, 3),
            a2=random_orthonormal(rng, 7, 3),
            a3=random_orthonormal(rng, 4, 2),
        )
        w = tucker_reconstruct(f)
        assert select_ranks(w, 1e-6) == (3, 3, 2)

    def test_flat_spectrum_ties_to_one(self):
        # an exactly diagonal unfolding keeps the singular values bit-equal,
        # so every ratio ties at 1 and the smallest j wins
        m, p = 4, 2
        w = fold(np.hstack([2.0 * np.eye(m), np.zeros((m, m * p - m))]), 1, (m, m, p))
        sigma = np.linalg.svd(unfold(w, 1), compute_uv=False)
        assert np.all(sigma == 2.0)
        assert select_ranks(w, 0.01)[0] == 1

    def test_scale_covariance(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal((5, 5, 3))
        c_bar = 0.05
        assert select_ranks(w, c_bar) == select_ranks(3.0 * w, 3.0 * c_bar)

    def test_ridge_constant_formula(self):
        m, p, t = 20, 4, 3000
        assert abs(ridge_constant(m, p, t) - np.sqrt(m * p * np.log(t) / (50 * t))) <= 1e-15

    def test_bad_constant_rejected(self):
        with pytest.raises(ValueError):
            select_ranks(np.zeros((2, 2, 2)), 0.0)

    @pytest.mark.parametrize("c_bar", [np.nan, np.inf, True, pytest.param(10**400, id="10**400")])
    def test_non_finite_constant_names_c_bar(self, c_bar):
        with pytest.raises(ValueError, match=r"^c_bar must be"):
            select_ranks(np.ones((3, 3, 2)), c_bar)

    @pytest.mark.parametrize(
        "args, name",
        [((20, 4, 0), "T"), ((20, 4, 1.5), "T"), ((0, 4, 300), "m"), ((20, np.nan, 300), "p")],
    )
    def test_ridge_constant_names_the_bad_argument(self, args, name):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            ridge_constant(*args)

    @pytest.mark.parametrize("shape", [(5, 5, 1), (1, 1, 3), (1, 1, 1)])
    def test_size_one_modes_get_rank_one(self, shape):
        w = np.random.default_rng(15).standard_normal(shape)
        ranks = select_ranks(w, 0.05)
        for n_i, r in zip(shape, ranks):
            assert 1 <= r <= max(n_i - 1, 1)
            if n_i == 1:
                assert r == 1

    @pytest.mark.parametrize("m, p", [(4, 1), (1, 3), (1, 1)])
    def test_fit_with_size_one_modes(self, m, p):
        panel = np.random.default_rng(16).standard_normal((200, m))
        report = fit_panel(panel, p, StdgrConfig(ranks="auto"))
        assert report.ranks_selected
        assert all(r == 1 for n_i, r in zip((m, m, p), report.ranks) if n_i == 1)
        assert report.result.converged
        assert np.isfinite(report.w_hat).all()


class TestLaplacians:
    def test_identical_rows_unit_weight(self):
        a = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        lap = laplacian_from_rows(a, 0.2)
        assert abs(-lap[0, 1] - 1.0) <= 1e-12
        assert np.max(np.abs(lap.sum(axis=1))) <= 1e-12

    def test_kernel_value(self):
        d = np.sqrt(0.08)
        a = np.array([[0.0], [d]])
        lap = laplacian_from_rows(a, 0.2)
        assert abs(-lap[0, 1] - np.exp(-1.0)) <= 1e-6

    def test_standard_basis_rows_direct_construction(self):
        a = np.eye(3)
        lap = laplacian_from_rows(a, 0.5)
        w = np.exp(-2.0 / (2 * 0.25))
        z = np.full((3, 3), w)
        np.fill_diagonal(z, 1.0)
        oracle = np.diag(z.sum(axis=1)) - z
        assert np.max(np.abs(lap - oracle)) <= 1e-12

    def test_set_invariants_and_energy_identity(self):
        rng = np.random.default_rng(15)
        factors = TuckerFactors(
            core=np.zeros((2, 2, 2)),
            a1=random_orthonormal(rng, 6, 2),
            a2=random_orthonormal(rng, 6, 2),
            a3=random_orthonormal(rng, 4, 2),
        )
        laps = build_laplacians(factors, 0.2)
        for lap, a in zip(laps, (factors.a1, factors.a2, factors.a3)):
            n = lap.shape[0]
            assert np.max(np.abs(lap - lap.T)) <= 1e-12
            assert np.max(np.abs(lap.sum(axis=1))) <= 1e-10
            assert np.linalg.eigvalsh(lap)[0] >= -1e-8
            for _ in range(100):
                x = rng.standard_normal(n)
                assert x @ lap @ x >= -1e-8
            # graph energy identity against the weight-sum form
            b = rng.standard_normal((n, 3))
            z = -lap.copy()
            np.fill_diagonal(z, 1.0)  # self weights are exp(0); the i = j terms vanish anyway
            energy = 0.0
            for i in range(n):
                for j in range(n):
                    energy += 0.5 * z[i, j] * np.sum((b[i] - b[j]) ** 2)
            assert abs(energy - np.trace(b.T @ lap @ b)) <= 1e-9

    @pytest.mark.parametrize("epsilon", [0.2, 1e-3, 1e-153])
    def test_kernel_bits_where_the_scale_is_normal(self, epsilon):
        # rows a bandwidth apart, so that the weights are neither 0 nor 1
        a = np.random.default_rng(16).standard_normal((6, 2)) * epsilon
        d2 = np.sum((a[:, None, :] - a[None, :, :]) ** 2, axis=2)
        z = np.exp(-d2 / (2.0 * epsilon * epsilon))
        assert ((z > 0) & (z < 1)).any()
        np.testing.assert_array_equal(laplacian_from_rows(a, epsilon), np.diag(z.sum(axis=1)) - z)

    @pytest.mark.parametrize("epsilon", [1e-160, 1e-200, 1e-300])
    def test_vanishing_bandwidth_gives_the_kernel_limit(self, epsilon):
        # 2 epsilon^2 is subnormal or 0: weight 1 where rows coincide, 0
        # elsewhere, with no overflow, no 0/0 and no warning
        a = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [0.5, 0.0]])
        z = (a[:, None, :] == a[None, :, :]).all(axis=2).astype(float)
        np.testing.assert_array_equal(laplacian_from_rows(a, epsilon), np.diag(z.sum(axis=1)) - z)

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            laplacian_from_rows(np.eye(2), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "0.2", None])
    def test_non_finite_or_non_numeric_bandwidth_rejected(self, bad):
        with pytest.raises(ValueError, match="epsilon"):
            laplacian_from_rows(np.eye(2), bad)


class TestNnmConfigValidation:
    # an integer beyond the float range is as unusable as inf
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, pytest.param(10**400, id="10**400")])
    @pytest.mark.parametrize("field", ["lambda_nn", "tol"])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            NnmConfig(**{field: bad})

    @pytest.mark.parametrize(
        "bad",
        [np.nan, np.inf, -np.inf, 2.5, "7", True, None, 0, pytest.param(10**400, id="10**400")],
    )
    def test_max_iter_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="max_iter"):
            NnmConfig(max_iter=bad)

    @pytest.mark.parametrize("field", ["lambda_nn", "tol"])
    def test_non_numeric_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            NnmConfig(**{field: "x"})
