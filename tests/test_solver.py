from dataclasses import replace

import numpy as np
import pytest

from tuckervar import (
    DesignPair,
    StdgrConfig,
    TuckerFactors,
    build_laplacians,
    fold,
    hosvd,
    kronecker,
    solve,
    tucker_reconstruct,
    unfold,
)
from solver_references import dense_penalty, grad_partials, grad_Q_full, psi_value
from tuckervar import solver
from tuckervar.solver import (
    compute_step_sizes,
    convergence_metrics,
    objective,
    palm_step,
    procrustes,
    prox_core,
    update_u,
)


def random_orthonormal(rng, n, r):
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def random_problem(seed, m=4, p=2, ranks=(2, 2, 2), t=30, cfg=None):
    rng = np.random.default_rng(seed)
    cfg = cfg or StdgrConfig(ranks=ranks, c=1.0)
    x = rng.standard_normal((t, m * p))
    y = rng.standard_normal((t, m))
    design = DesignPair(x=x, y=y)
    state = TuckerFactors(
        core=rng.uniform(-0.9, 0.9, size=ranks),
        a1=random_orthonormal(rng, m, ranks[0]),
        a2=random_orthonormal(rng, m, ranks[1]),
        a3=random_orthonormal(rng, p, ranks[2]),
    )
    lap = build_laplacians(state, 0.2)
    return design, state, lap, cfg, rng


def eigenpairs(lap):
    return tuple(np.linalg.eigh(l) for l in lap.as_tuple())


def graph_energy(state, lap, cfg):
    """sum_k tr(A_k^T Lt_k A_k) from the dense Lt_k."""
    factors = (state.a1, state.a2, state.a3)
    return sum(
        float(np.trace(a.T @ dense_penalty(l, a_w, g) @ a))
        for a, l, a_w, g in zip(factors, lap.as_tuple(), cfg.alpha, cfg.gamma)
    )


def loss_value(w, design):
    residual = design.x @ unfold(w, 1).T - design.y
    return float(np.sum(residual**2)) / (2 * design.n_samples)


class TestProxCore:
    def test_zero(self):
        assert prox_core(np.zeros((2, 2, 2)), 0.3, 1.0).sum() == 0

    def test_shrink_branch(self):
        assert prox_core(np.array([[[0.5]]]), 0.2, 1.0)[0, 0, 0] == pytest.approx(0.3)

    def test_clip_branch(self):
        assert prox_core(np.array([[[2.0]]]), 0.2, 1.0)[0, 0, 0] == 1.0

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(0)
        tau, c = 0.37, 1.0
        values = rng.uniform(-3, 3, size=200)
        grid = np.arange(-c, c + 1e-5, 1e-5)
        for l in values:
            objective_on_grid = tau * np.abs(grid) + 0.5 * (grid - l) ** 2
            best = grid[np.argmin(objective_on_grid)]
            got = prox_core(np.array([[[l]]]), tau, c)[0, 0, 0]
            assert abs(got - best) <= 1e-4


class TestProcrustes:
    def test_identity(self):
        np.testing.assert_allclose(procrustes(np.eye(3)), np.eye(3), atol=1e-12)

    def test_scale_invariant(self):
        np.testing.assert_allclose(procrustes(2 * np.eye(3)), np.eye(3), atol=1e-12)

    def test_beats_random_candidates(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 2))
        best = procrustes(m)
        target = np.trace(best.T @ m)
        for _ in range(500):
            q = random_orthonormal(rng, 4, 2)
            assert target >= np.trace(q.T @ m) - 1e-9

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError):
            procrustes(np.zeros((2, 3)))

    def test_rank_deficient_output_still_orthonormal(self):
        m = np.zeros((4, 2))
        m[:, 0] = [1.0, 0, 0, 0]
        out = procrustes(m)
        assert np.linalg.norm(out.T @ out - np.eye(2)) <= 1e-12


class TestUpdateU:
    def test_no_graph_term_reduces_to_relaxation(self):
        # with alpha = 0, U relaxes all the way onto A
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 2))
        eig = np.linalg.eigh(np.zeros((4, 4)))
        np.testing.assert_allclose(update_u(a, eig, alpha=0.0, gamma=0.3), a, atol=1e-12)

    def test_fixed_point(self):
        # U* is where alpha tr(U^T L U) + (gamma/2) ||U - A||^2 is stationary
        rng = np.random.default_rng(3)
        lap = rng.standard_normal((5, 5))
        lap = lap @ lap.T
        a = rng.standard_normal((5, 2))
        alpha, gamma = 0.6, 0.3
        u = update_u(a, np.linalg.eigh(lap), alpha, gamma)
        stationarity = 2 * alpha * lap @ u + gamma * (u - a)
        assert np.linalg.norm(stationarity) <= 1e-12 * np.linalg.norm(gamma * a)

    def test_matches_inverse_oracle(self):
        rng = np.random.default_rng(4)
        lap = rng.standard_normal((5, 5))
        lap = lap @ lap.T  # any PSD matrix works for the linear-solve check
        a = rng.standard_normal((5, 3))
        alpha, gamma = 0.7, 0.4
        out = update_u(a, np.linalg.eigh(lap), alpha, gamma)
        system = 2 * alpha * lap + gamma * np.eye(5)
        oracle = np.linalg.solve(system, gamma * a)
        assert np.max(np.abs(out - oracle)) <= 1e-10
        assert np.linalg.norm(system @ out - gamma * a) <= 1e-10 * np.linalg.norm(gamma * a)


def seven_block_objective(state, us, design, lap, cfg):
    """The paper's objective over (G, A, U), summed term by term from the
    residuals: loss + beta ||G||_1 + sum_k alpha_k tr(U_k^T L_k U_k)
    + (gamma_k/2) ||U_k - A_k||^2."""
    residual = design.x @ unfold(tucker_reconstruct(state), 1).T - design.y
    value = float(np.sum(residual**2)) / (2 * design.n_samples)
    value += cfg.beta * float(np.sum(np.abs(state.core)))
    for a, u, l, a_w, g in zip(
        (state.a1, state.a2, state.a3), us, lap.as_tuple(), cfg.alpha, cfg.gamma
    ):
        value += a_w * float(np.trace(u.T @ l @ u)) + 0.5 * g * float(np.sum((u - a) ** 2))
    return value


class TestObjective:
    def test_zero_data_zero_core(self):
        design, state, lap, cfg, _ = random_problem(5)
        design = DesignPair(x=np.zeros_like(design.x), y=np.zeros_like(design.y))
        state.core = np.zeros_like(state.core)
        energy = graph_energy(state, lap, cfg)
        assert energy > 0
        assert objective(state, design, eigenpairs(lap), cfg) == pytest.approx(energy, abs=1e-12)

    def test_zero_at_truth_on_noise_free_data(self):
        rng = np.random.default_rng(6)
        m, p, ranks = 4, 2, (2, 2, 2)
        factors = TuckerFactors(
            core=rng.uniform(-0.5, 0.5, size=ranks),
            a1=random_orthonormal(rng, m, 2),
            a2=random_orthonormal(rng, m, 2),
            a3=random_orthonormal(rng, p, 2),
        )
        w = tucker_reconstruct(factors)
        x = rng.standard_normal((40, m * p))
        design = DesignPair(x=x, y=x @ unfold(w, 1).T)
        cfg = StdgrConfig(beta=1e-300, alpha=0.0, ranks=ranks)
        lap = build_laplacians(factors, 0.2)
        assert objective(factors, design, eigenpairs(lap), cfg) <= 1e-12

    def test_matches_naive_summation(self):
        design, state, lap, cfg, rng = random_problem(7)
        value = objective(state, design, eigenpairs(lap), cfg)
        w = tucker_reconstruct(state)
        w1 = unfold(w, 1)
        naive = 0.0
        for t in range(design.n_samples):
            naive += np.sum((design.y[t] - w1 @ design.x[t]) ** 2)
        naive /= 2 * design.n_samples
        naive += cfg.beta * np.sum(np.abs(state.core))
        naive += graph_energy(state, lap, cfg)
        assert abs(value - naive) <= 1e-10

    @pytest.mark.parametrize("alpha", [(1e-3, 2e-3, 3e-3), (0.5, 0.2, 1.0), 0.0])
    def test_equals_seven_block_objective_minimized_over_u(self, alpha):
        # the estimator does not change: F(G, A) is the paper's objective at
        # the U that minimizes it, found here by a dense solve per factor
        cfg = StdgrConfig(ranks=(2, 2, 2), alpha=alpha, gamma=(0.1, 0.3, 0.2), beta=0.05)
        design, state, lap, cfg, _ = random_problem(9, m=6, p=3, cfg=cfg)
        us = [
            np.linalg.solve(2 * a_w * l + g * np.eye(l.shape[0]), g * a)
            for a, l, a_w, g in zip(
                (state.a1, state.a2, state.a3), lap.as_tuple(), cfg.alpha, cfg.gamma
            )
        ]
        seven = seven_block_objective(state, us, design, lap, cfg)
        value = objective(state, design, eigenpairs(lap), cfg)
        assert abs(value - seven) <= 1e-12 * abs(seven)
        # no U does better: the minimum is strict
        shifted = [u + 1e-3 for u in us]
        assert seven_block_objective(state, shifted, design, lap, cfg) > seven
        if cfg.alpha == (0.0, 0.0, 0.0):
            loss = loss_value(tucker_reconstruct(state), design)
            plain = loss + cfg.beta * float(np.sum(np.abs(state.core)))
            assert abs(value - plain) <= 1e-12 * plain

    def test_infeasible_state_rejected(self):
        design, state, lap, cfg, _ = random_problem(8)
        state.core = state.core + 10.0
        with pytest.raises(ValueError):
            objective(state, design, eigenpairs(lap), cfg)


class TestGradients:
    def test_zero_residual_gives_zero_gradient(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((3, 3, 2))
        x = rng.standard_normal((20, 6))
        design = DesignPair(x=x, y=x @ unfold(w, 1).T)
        assert np.max(np.abs(grad_Q_full(w, design))) <= 1e-12

    def test_scalar_hand_value(self):
        w = np.full((1, 1, 1), 1.0)
        design = DesignPair(x=np.array([[1.0]]), y=np.array([[2.0]]))
        assert grad_Q_full(w, design)[0, 0, 0] == pytest.approx(-1.0)

    def test_full_gradient_finite_differences(self):
        rng = np.random.default_rng(10)
        m, p, t = 4, 2, 15
        w = rng.standard_normal((m, m, p)) * 0.3
        x = rng.standard_normal((t, m * p))
        y = rng.standard_normal((t, m))
        design = DesignPair(x=x, y=y)
        grad = grad_Q_full(w, design)
        h = 1e-6
        fd = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            fd[idx] = (loss_value(wp, design) - loss_value(wm, design)) / (2 * h)
        assert np.max(np.abs(fd - grad)) / max(np.max(np.abs(grad)), 1e-12) <= 1e-6

    def test_partials_zero_at_coupled_zero_residual(self):
        # alpha = 0 couples U* = A, so the graph penalty and its gradient vanish
        design, state, lap, cfg, _ = random_problem(11, cfg=StdgrConfig(alpha=0.0, ranks=(2, 2, 2)))
        w = tucker_reconstruct(state)
        design = DesignPair(x=design.x, y=design.x @ unfold(w, 1).T)
        parts = grad_partials(state, design, lap, cfg)
        for part in parts:
            assert np.max(np.abs(part)) <= 1e-10

    def test_coupling_gradient_value(self):
        # the sweep's penalty gradient gamma (A - U*) is the dense 2 Lt A
        cfg = StdgrConfig(alpha=(0.5, 0.2, 1.0), gamma=(2.0, 0.3, 0.7), ranks=(2, 2, 2))
        design, state, lap, cfg, _ = random_problem(12, m=6, p=3, cfg=cfg)
        parts = grad_partials(state, design, lap, cfg)
        point = (state.core, state.a1, state.a2, state.a3)
        for k, (a, eig, a_w, g) in enumerate(
            zip(point[1:], eigenpairs(lap), cfg.alpha, cfg.gamma), start=1
        ):
            dense = parts[k] - solver._block_gradient(k, *point, design)
            assert np.linalg.norm(dense) > 1e-6
            # A - U* cancels terms of size |A|, and 2 ||Lt|| < gamma, so
            # gamma ||A|| is the scale of its rounding
            error = np.linalg.norm(g * (a - update_u(a, eig, a_w, g)) - dense)
            assert error <= 1e-12 * g * np.linalg.norm(a)

    def test_partials_match_finite_differences(self):
        cfg = StdgrConfig(alpha=(0.5, 0.2, 1.0), ranks=(2, 2, 2))
        design, state, lap, cfg, _ = random_problem(13, m=5, p=2, t=20, cfg=cfg)
        parts = grad_partials(state, design, lap, cfg)
        h = 1e-6

        def psi_at(blocks):
            return psi_value(TuckerFactors(*blocks), design, lap, cfg)

        blocks = [state.core, state.a1, state.a2, state.a3]
        for b, grad in enumerate(parts):
            fd = np.zeros_like(blocks[b])
            for idx in np.ndindex(blocks[b].shape):
                plus = [arr.copy() for arr in blocks]
                minus = [arr.copy() for arr in blocks]
                plus[b][idx] += h
                minus[b][idx] -= h
                fd[idx] = (psi_at(plus) - psi_at(minus)) / (2 * h)
            scale = max(np.max(np.abs(grad)), 1e-12)
            assert np.max(np.abs(fd - grad)) / scale <= 1e-6, f"block {b}"


def residual_block_gradients(core, a1, a2, a3, design):
    """Reference loss gradients with respect to (core, a1, a2, a3), formed
    from the T x m residual and explicit Kronecker products."""
    m, p = a1.shape[0], a3.shape[0]
    w1 = a1 @ unfold(core, 1) @ np.kron(a3, a2).T
    residual = design.x @ w1.T - design.y
    gq1 = residual.T @ design.x / design.n_samples
    gq = fold(gq1, 1, (m, m, p))
    return (
        fold(a1.T @ gq1 @ np.kron(a3, a2), 1, core.shape),
        gq1 @ np.kron(a3, a2) @ unfold(core, 1).T,
        unfold(gq, 2) @ np.kron(a3, a1) @ unfold(core, 2).T,
        unfold(gq, 3) @ np.kron(a2, a1) @ unfold(core, 3).T,
    )


def assert_rel_close(got, ref, rtol=1e-12):
    assert np.linalg.norm(np.asarray(got) - ref) <= rtol * np.linalg.norm(ref)


# (m, p, ranks, T): p=1, m=1, m=p=1, and T < mp
MOMENT_CASES = [
    (4, 2, (2, 2, 2), 30),
    (5, 1, (2, 3, 1), 12),
    (1, 3, (1, 1, 2), 10),
    (1, 1, (1, 1, 1), 4),
    (6, 3, (3, 2, 2), 7),
]


class TestMomentsForm:
    """The loss and its gradients come from X^T X, Y^T X and tr(Y^T Y); each
    must match the residual form on the raw design."""

    @pytest.mark.parametrize("m,p,ranks,t", MOMENT_CASES)
    def test_loss_matches_residual_form(self, m, p, ranks, t):
        design, state, lap, cfg, _ = random_problem(30 + t, m=m, p=p, ranks=ranks, t=t)
        ref = loss_value(tucker_reconstruct(state), design) + graph_energy(state, lap, cfg)
        assert_rel_close(psi_value(state, design, lap, cfg), ref)

    @pytest.mark.parametrize("m,p,ranks,t", MOMENT_CASES)
    def test_full_gradient_matches_residual_form(self, m, p, ranks, t):
        rng = np.random.default_rng(40 + t)
        w = rng.standard_normal((m, m, p))
        design = DesignPair(x=rng.standard_normal((t, m * p)), y=rng.standard_normal((t, m)))
        residual = design.x @ unfold(w, 1).T - design.y
        ref = fold(residual.T @ design.x / t, 1, (m, m, p))
        assert_rel_close(grad_Q_full(w, design), ref)

    @pytest.mark.parametrize("m,p,ranks,t", MOMENT_CASES)
    def test_block_gradients_match_residual_form(self, m, p, ranks, t):
        from tuckervar.solver import _block_gradient

        design, state, _, _, _ = random_problem(50 + t, m=m, p=p, ranks=ranks, t=t)
        point = (state.core, state.a1, state.a2, state.a3)
        for block, ref in enumerate(residual_block_gradients(*point, design)):
            assert_rel_close(_block_gradient(block, *point, design), ref)

    def test_moments_are_read_only(self):
        design, _, _, _, _ = random_problem(60)
        for moment in (design.gram, design.cross):
            with pytest.raises(ValueError):
                moment[0, 0] = 1.0

    def test_row_permutation_leaves_solve_unchanged(self):
        # the solver sees the data only through the moments, which do not
        # depend on the order of the (x_t, y_t) pairs
        rng = np.random.default_rng(61)
        design, w = noise_free_problem(61, m=5, p=2, t=60)
        design = DesignPair(x=design.x, y=design.y + 0.3 * rng.standard_normal(design.y.shape))
        order = rng.permutation(design.n_samples)
        shuffled = DesignPair(x=design.x[order], y=design.y[order])
        init = hosvd(w, (2, 2, 2))
        lap = build_laplacians(init, 0.2)
        cfg = StdgrConfig(ranks=(2, 2, 2), tol=1e-3, max_iter=300)
        base = solve(design, lap, cfg, init)
        moved = solve(shuffled, lap, cfg, init)
        assert 1 < base.iterations < cfg.max_iter
        assert moved.iterations == base.iterations
        assert_rel_close(moved.w_hat, base.w_hat, rtol=1e-10)


class TestStepSizes:
    def test_single_sample_energy(self):
        design = DesignPair(x=np.array([[1.0, 1.0]]), y=np.array([[0.0]]))
        cfg = StdgrConfig(ranks=(1, 1, 1))
        steps = compute_step_sizes(design, cfg, (1, 1, 1))
        assert steps.c1 == pytest.approx(2.0)
        assert steps.lipschitz[0] == pytest.approx(2.0)

    def test_unit_rank_factor_bound(self):
        design = DesignPair(x=np.array([[1.0, 1.0]]), y=np.array([[0.0]]))
        cfg = StdgrConfig(ranks=(1, 1, 1), c=1.0, gamma=(0.5, 0.5, 0.5))
        steps = compute_step_sizes(design, cfg, (1, 1, 1))
        assert steps.nu == pytest.approx(1.0)
        assert steps.lipschitz[1] == pytest.approx(steps.c1 + 0.5)

    def test_strict_margins(self):
        rng = np.random.default_rng(14)
        design = DesignPair(x=rng.standard_normal((10, 4)), y=rng.standard_normal((10, 2)))
        cfg = StdgrConfig(ranks=(2, 2, 1), a_bar1=1.1)
        steps = compute_step_sizes(design, cfg, (2, 2, 1))
        steps.validate()
        assert steps.rho[0] == pytest.approx(1.1 * steps.lipschitz[0])
        assert steps.rho[0] > steps.lipschitz[0]
        assert steps.decrease_margin() > 0

    def test_multiplier_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            StdgrConfig(a_bar1=1.0)


class TestConvergenceMetrics:
    def test_identical_states(self):
        _, state, _, _, _ = random_problem(15)
        lambdas, change_sq = convergence_metrics(state, replace(state))
        assert np.max(lambdas) == 0.0
        assert change_sq == 0.0

    def test_relative_change_value(self):
        _, state, _, _, _ = random_problem(16)
        prev = replace(state)
        prev.core = np.zeros((2, 2, 2))
        prev.core[0, 0, 0] = 2.0
        new = replace(prev)
        new.core = prev.core.copy()
        new.core[0, 0, 0] = 2.01
        new.a2 = prev.a2 + 0.5
        lambdas, change_sq = convergence_metrics(prev, new)
        assert lambdas.shape == (4,)
        assert lambdas[0] == pytest.approx(0.005)
        assert lambdas[1] == lambdas[3] == 0.0
        assert lambdas[2] == pytest.approx(0.5 * np.sqrt(prev.a2.size) / np.linalg.norm(prev.a2))
        assert change_sq == pytest.approx(0.01**2 + 0.25 * prev.a2.size)

    def test_zero_to_zero_counts_as_converged(self):
        _, state, _, _, _ = random_problem(17)
        prev = replace(state)
        prev.core = np.zeros((2, 2, 2))
        new = replace(prev)
        lambdas, change_sq = convergence_metrics(prev, new)
        assert lambdas[0] == 0.0
        assert change_sq == 0.0

    def test_jump_from_zero_is_infinite(self):
        _, state, _, _, _ = random_problem(18)
        prev = replace(state)
        prev.core = np.zeros((2, 2, 2))
        new = replace(prev)
        new.core = np.ones((2, 2, 2))
        lambdas, change_sq = convergence_metrics(prev, new)
        assert lambdas[0] == np.inf
        assert change_sq == pytest.approx(8.0)


def noise_free_problem(seed, m=6, p=2, ranks=(2, 2, 2), t=80):
    rng = np.random.default_rng(seed)
    factors = TuckerFactors(
        core=rng.uniform(-0.8, 0.8, size=ranks),
        a1=random_orthonormal(rng, m, ranks[0]),
        a2=random_orthonormal(rng, m, ranks[1]),
        a3=random_orthonormal(rng, p, ranks[2]),
    )
    w = tucker_reconstruct(factors)
    x = rng.standard_normal((t, m * p))
    return DesignPair(x=x, y=x @ unfold(w, 1).T), w


class TestSolve:
    def test_zero_data_collapses_core(self):
        m, p, ranks = 3, 2, (2, 2, 1)
        rng = np.random.default_rng(19)
        init = TuckerFactors(
            core=rng.uniform(-0.5, 0.5, size=ranks),
            a1=random_orthonormal(rng, m, 2),
            a2=random_orthonormal(rng, m, 2),
            a3=random_orthonormal(rng, p, 1),
        )
        design = DesignPair(x=np.zeros((5, m * p)), y=np.zeros((5, m)))
        lap = build_laplacians(init, 0.2)
        result = solve(design, lap, StdgrConfig(ranks=ranks, alpha=0.0), init)
        assert np.max(np.abs(result.factors.core)) == 0.0
        assert result.converged
        assert result.iterations <= 2

    def test_deterministic_traces(self):
        rng = np.random.default_rng(20)
        design, w = noise_free_problem(20)
        design = DesignPair(x=design.x, y=design.y + 0.1 * rng.standard_normal(design.y.shape))
        init = hosvd(np.zeros_like(w) + w * 0.9, (2, 2, 2))
        lap = build_laplacians(init, 0.2)
        cfg = StdgrConfig(ranks=(2, 2, 2), max_iter=30)
        r1 = solve(design, lap, cfg, init)
        r2 = solve(design, lap, cfg, init)
        assert np.array_equal(r1.objective_trace, r2.objective_trace)

    def test_noise_free_recovery(self):
        design, w = noise_free_problem(21, m=10, p=2, t=400)
        init = hosvd(grad_free_start(design, w), (2, 2, 2))
        lap = build_laplacians(init, 0.2)
        # the box bound must not bind at the truth
        cfg = StdgrConfig(beta=1e-6, alpha=0.0, gamma=0.1, c=5.0, ranks=(2, 2, 2), max_iter=200)
        result = solve(design, lap, cfg, init)
        final_loss = loss_value(result.w_hat, design)
        assert final_loss <= 1e-4

    def test_monotone_objective_and_sufficient_decrease(self):
        rng = np.random.default_rng(22)
        design, w = noise_free_problem(22)
        design = DesignPair(x=design.x, y=design.y + 0.3 * rng.standard_normal(design.y.shape))
        init = hosvd(w, (2, 2, 2))
        lap = build_laplacians(init, 0.2)
        cfg = StdgrConfig(ranks=(2, 2, 2), max_iter=50, c=1.0)
        # solve raises at the first sweep short of the certified decrease
        # (test_decrease_violation_names_the_sweep), so returning is the check
        result = solve(design, lap, cfg, init)
        f = result.objective_trace
        slack = 1e-9 * np.maximum(1.0, np.abs(f[:-1]))
        assert np.all(f[1:] <= f[:-1] + slack)
        assert result.step_sizes.decrease_margin() > 0
        assert np.all(f >= 0)

    def test_feasibility_along_the_path(self):
        rng = np.random.default_rng(23)
        design, w = noise_free_problem(23)
        design = DesignPair(x=design.x, y=design.y + 0.5 * rng.standard_normal(design.y.shape))
        init = hosvd(w, (2, 2, 2))
        lap = build_laplacians(init, 0.2)
        cfg = StdgrConfig(ranks=(2, 2, 2), max_iter=40, c=0.5)
        # objective checks every iterate and solve raises naming the sweep
        # (test_box_violation_names_the_sweep), so returning is the check
        result = solve(design, lap, cfg, init)
        assert np.max(np.abs(result.factors.core)) <= cfg.c + 1e-12
        assert result.factors.orthonormality_defect() <= 1e-10

    @pytest.mark.parametrize("perturb", ["swap_columns", "flip_sign"])
    def test_decrease_violation_names_the_sweep(self, monkeypatch, perturb):
        # both keep the iterate feasible: swapping A1's two columns without
        # permuting the core raises F, and flipping the sign of A1's first
        # column and the core's first mode-1 slice leaves F unchanged but
        # moves the blocks far, so the sweep lowers F by less than its
        # certified (margin/2) sum ||Delta||^2
        step = solver.palm_step
        sweeps = []

        def perturbed_step(state, *args):
            new = step(state, *args)
            sweeps.append(new)
            if len(sweeps) == 3 and perturb == "swap_columns":
                new.a1 = new.a1[:, ::-1]
            elif len(sweeps) == 3:
                flip = np.array([-1.0, 1.0])
                new.a1 = new.a1 * flip
                new.core = new.core * flip[:, None, None]
            return new

        monkeypatch.setattr(solver, "palm_step", perturbed_step)
        design, w = noise_free_problem(22)
        init = hosvd(w, (2, 2, 2))
        lap = build_laplacians(init, 0.2)
        cfg = StdgrConfig(ranks=(2, 2, 2), max_iter=10, tol=1e-12)
        # a broken guarantee is a fault of the solver, not a bad input
        with pytest.raises(RuntimeError, match=r"^sweep 3 breaks the sufficient decrease: F_k"):
            solve(design, lap, cfg, init)
        assert len(sweeps) == 3

    def test_box_violation_names_the_sweep(self, monkeypatch):
        def unclipped(l, tau, c):
            return np.sign(l) * np.maximum(np.abs(l) - tau, 0.0)

        monkeypatch.setattr(solver, "prox_core", unclipped)
        design, w = noise_free_problem(23)
        init = hosvd(w, (2, 2, 2))
        lap = build_laplacians(init, 0.2)
        cfg = StdgrConfig(ranks=(2, 2, 2), max_iter=10, c=0.1)
        with pytest.raises(RuntimeError, match=r"^sweep 1: core violates the box bound") as info:
            solve(design, lap, cfg, init)
        # chained from objective's feasibility check, which stays a ValueError
        assert type(info.value.__cause__) is ValueError

    def test_init_core_clipped_flag(self):
        rng = np.random.default_rng(24)
        design, w = noise_free_problem(24)
        init = hosvd(w, (2, 2, 2))
        big = TuckerFactors(core=init.core * 100.0, a1=init.a1, a2=init.a2, a3=init.a3)
        lap = build_laplacians(init, 0.2)
        result = solve(design, lap, StdgrConfig(ranks=(2, 2, 2), max_iter=3), big)
        assert result.init_core_clipped

    @pytest.mark.parametrize(
        "m,p,ranks,alpha",
        [(5, 2, (2, 2, 2), 1e-3), (1, 3, (1, 1, 2), 1e-3), (5, 2, (2, 2, 2), 0.0)],
    )
    def test_each_quantity_formed_once(self, monkeypatch, m, p, ranks, alpha):
        # X^T X is read by the step sizes and the starting X^T X B, then twice
        # per sweep: for the A3 gradient and for X^T X B at the new iterate,
        # which serves its objective and the next sweep. Each Laplacian is
        # decomposed once, U_k* is formed once per iterate, and none of it
        # solves a linear system.
        class CountingDesign(DesignPair):
            gram_reads = 0

            @property
            def gram(self):
                self.gram_reads += 1
                return super().gram

        eigh, eigh_shapes = np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            eigh_shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        def no_solve(*args, **kwargs):
            raise AssertionError("np.linalg.solve called inside solve")

        design, state, lap, _, _ = random_problem(26, m=m, p=p, ranks=ranks, t=20)
        design = CountingDesign(x=design.x, y=design.y)
        cfg = StdgrConfig(ranks=ranks, c=1.0, alpha=alpha, max_iter=5, tol=1e-12)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(np.linalg, "solve", no_solve)
        u_calls, update = [], solver.update_u
        monkeypatch.setattr(solver, "update_u", lambda *args: u_calls.append(args) or update(*args))
        result = solve(design, lap, cfg, state)
        assert result.iterations == 5
        assert eigh_shapes == [(m, m), (m, m), (p, p)]
        assert design.gram_reads == 2 + 2 * result.iterations
        assert len(u_calls) == 3 * (1 + result.iterations)

    def test_update_order_uses_fresh_blocks(self):
        # the second factor update must consume the first factor's new value:
        # replaying the sweep with the stale first factor changes the result
        design, state, lap, cfg, rng = random_problem(25, m=5, p=2, t=25)
        steps = compute_step_sizes(design, cfg, (2, 2, 2))
        us = solver._minimizers(state, eigenpairs(lap), cfg)
        new = palm_step(state, design, cfg, steps, gram_b_at(state, design), us)

        from tuckervar.solver import _block_gradient, procrustes as polar

        g_a2_fresh = _block_gradient(2, new.core, new.a1, state.a2, state.a3, design)
        g_a2_fresh += cfg.gamma[1] * (state.a2 - us[1])
        a2_fresh = polar(state.a2 - g_a2_fresh / steps.rho[2])
        np.testing.assert_array_equal(new.a2, a2_fresh)

        g_a2_stale = _block_gradient(2, new.core, state.a1, state.a2, state.a3, design)
        g_a2_stale += cfg.gamma[1] * (state.a2 - us[1])
        a2_stale = polar(state.a2 - g_a2_stale / steps.rho[2])
        assert np.max(np.abs(a2_stale - new.a2)) > 1e-12


def grad_free_start(design, w):
    """Least-squares start for noise-free recovery checks."""
    w1, *_ = np.linalg.lstsq(design.x, design.y, rcond=None)
    m = design.y.shape[1]
    p = design.x.shape[1] // m
    return fold(w1.T, 1, (m, m, p))


def gram_b_at(state, design):
    """X^T X B at a state, with B = A3 kron A2."""
    return design.gram @ kronecker(state.a3, state.a2)


def unrolled_palm_step(state, design, eigs, cfg, steps):
    """The sweep written out block by block, each penalty gradient by hand
    from U_k* at ``state``; it forms every X^T X B and U_k* itself, so
    equality also checks the ones passed to palm_step."""
    from tuckervar.solver import _block_gradient

    rho = steps.rho
    g1, g2, g3 = cfg.gamma
    a1w, a2w, a3w = cfg.alpha

    g_core = _block_gradient(0, state.core, state.a1, state.a2, state.a3, design)
    core = prox_core(state.core - g_core / rho[0], cfg.beta / rho[0], cfg.c)

    g_a1 = _block_gradient(1, core, state.a1, state.a2, state.a3, design)
    g_a1 += g1 * (state.a1 - update_u(state.a1, eigs[0], a1w, g1))
    a1 = procrustes(state.a1 - g_a1 / rho[1])

    g_a2 = _block_gradient(2, core, a1, state.a2, state.a3, design)
    g_a2 += g2 * (state.a2 - update_u(state.a2, eigs[1], a2w, g2))
    a2 = procrustes(state.a2 - g_a2 / rho[2])

    g_a3 = _block_gradient(3, core, a1, a2, state.a3, design)
    g_a3 += g3 * (state.a3 - update_u(state.a3, eigs[2], a3w, g3))
    a3 = procrustes(state.a3 - g_a3 / rho[3])

    return TuckerFactors(core=core, a1=a1, a2=a2, a3=a3)


class TestSweepMatchesUnrolled:
    """palm_step steps along the partial gradients that grad_partials returns
    (test_coupling_gradient_value ties gamma (A - U*) to the dense 2 Lt A);
    the sweep must equal the unrolled one bit for bit."""

    @pytest.mark.parametrize("m,p,ranks,t", MOMENT_CASES)
    def test_three_sweeps_identical(self, m, p, ranks, t):
        cfg = StdgrConfig(ranks=ranks, c=1.0, alpha=(1e-3, 2e-3, 3e-3), gamma=(0.1, 0.2, 0.3))
        design, state, lap, cfg, _ = random_problem(70 + t, m=m, p=p, ranks=ranks, t=t, cfg=cfg)
        steps = compute_step_sizes(design, cfg, ranks)
        eigs = eigenpairs(lap)
        ours, ref = state, state
        for _ in range(3):
            us = solver._minimizers(ours, eigs, cfg)
            ours = palm_step(ours, design, cfg, steps, gram_b_at(ours, design), us)
            ref = unrolled_palm_step(ref, design, eigs, cfg, steps)
            for got, want in zip(
                (ours.core, ours.a1, ours.a2, ours.a3), (ref.core, ref.a1, ref.a2, ref.a3)
            ):
                assert np.array_equal(got, want)


# an integer beyond the float range is as unusable as inf
NON_FINITE = [np.nan, np.inf, -np.inf, pytest.param(10**400, id="10**400")]


class TestConfigValidation:
    """NaN passes every test of the form ``x <= 0``; each check must fail it,
    and each message names the field."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["beta", "c", "a_bar1", "tol", "epsilon"])
    def test_non_finite_scalar_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            StdgrConfig(**{field: bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["alpha", "gamma"])
    @pytest.mark.parametrize("position", [None, 0, 2])
    def test_non_finite_weight_rejected(self, field, bad, position):
        value = bad if position is None else [0.1, 0.1, 0.1]
        if position is not None:
            value[position] = bad
        with pytest.raises(ValueError, match=field):
            StdgrConfig(**{field: value})

    @pytest.mark.parametrize("bad", NON_FINITE + [2.5, "7", True, None])
    def test_max_iter_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="max_iter"):
            StdgrConfig(max_iter=bad)

    @pytest.mark.parametrize(
        "bad", [[2.5, 2, 2], [2, np.nan, 2], [2, 2, np.inf], [2, 2], [2, 0, 2], [True, 2, 2], 3, "x"]
    )
    def test_ranks_must_be_three_positive_integers(self, bad):
        with pytest.raises(ValueError, match="ranks"):
            StdgrConfig(ranks=bad)

    @pytest.mark.parametrize("bad", ["x", ["0.1", "0.1", "0.1"], None, True])
    @pytest.mark.parametrize("field", ["beta", "c", "tol", "alpha", "gamma", "epsilon"])
    def test_non_numeric_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            StdgrConfig(**{field: bad})

    def test_integer_like_values_accepted(self):
        cfg = StdgrConfig(ranks=np.array([2, 2, 1]), max_iter=np.int64(5), beta=1, c=np.float32(2))
        assert cfg.ranks == (2, 2, 1) and all(type(r) is int for r in cfg.ranks)
        assert cfg.max_iter == 5
