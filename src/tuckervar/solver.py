"""Block-cyclic proximal solver for the graph-regularized sparse Tucker VAR fit.

Objective, over a core tensor G, column-orthonormal factors A1..A3 and
auxiliary factors U1..U3:

    F = (1/2T) sum_t ||y_t - W_(1) x_t||^2 + beta ||G||_1
        + sum_i alpha_i tr(U_i^T L_i U_i) + sum_i (gamma_i/2) ||U_i - A_i||^2

with W = G x1 A1 x2 A2 x3 A3, subject to ||G||_inf <= c and A_i^T A_i = I
(enforced exactly by the prox maps, never as penalty values).

One iteration updates G, A1, A2, A3, U1, U2, U3 in that order, each block
from a linearized gradient step at the freshest values of the blocks updated
before it: soft threshold + box clip for G, a polar (Procrustes) step for
each A_i, and an exact small linear solve for each U_i. Step sizes exceed the
per-block Lipschitz constants, which makes the objective monotone with a
quantified sufficient decrease.

The loss is a quadratic in W_(1), so the solver sees the data only through
the moments X^T X, Y^T X and tr(Y^T Y) that the design computes once:

    loss = (tr(Y^T Y) - 2 <Y^T X, W_(1)> + <W_(1) X^T X, W_(1)>) / 2T
    grad = (W_(1) X^T X - Y^T X) / T

The sweep works in the Tucker ranks. With B = A3 kron A2 (mp x r2 r3) and
K = B^T X^T X B, W_(1) = A1 G_(1) B^T, and A1^T A1 = I turns every
term into one of the small matrices X^T X B, K and A1^T Y^T X B:

    <W_(1) X^T X, W_(1)> = <G_(1) K, G_(1)>,  <Y^T X, W_(1)> = <A1^T Y^T X B, G_(1)>

and likewise for the block gradients (see _block_gradient). B changes only
at the A2 update, so a sweep forms X^T X B twice and costs
O((mp)^2 r2 r3) plus terms in m, p and the ranks, whatever the number of
samples T; the per-sweep objective forms it once more. The identities need
orthonormal factors: the prox maps make them so, and the objective checks
them to 1e-10 before it uses them. psi_value keeps the form in W_(1), which
holds off the orthonormal manifold too. The sweep and grad_partials take
each gradient from the same function, so the finite-difference checks of
grad_partials cover the gradients the sweep steps along.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .initialization import LaplacianSet
from .tensor import TuckerFactors, fold, kronecker, mode_product, tucker_reconstruct, unfold
from .var import DesignPair

__all__ = [
    "StdgrConfig",
    "StepSizes",
    "SolverState",
    "FitResult",
    "compute_step_sizes",
    "prox_core",
    "procrustes",
    "update_u",
    "grad_Q_full",
    "grad_partials",
    "psi_value",
    "objective",
    "convergence_metrics",
    "palm_step",
    "solve",
]


def _triple(value, name: str) -> tuple[float, float, float]:
    if np.isscalar(value):
        value = (value, value, value)
    out = tuple(float(v) for v in value)
    if len(out) != 3:
        raise ValueError(f"{name} must be a scalar or a triple")
    return out


@dataclass
class StdgrConfig:
    """Hyperparameters of the penalized model and its solver.

    ``alpha`` and ``gamma`` accept a scalar (broadcast to all three modes) or
    a triple. ``ranks`` is an explicit (r1, r2, r3) or "auto" for the
    ridge-ratio selector run on the initial estimate.
    """

    beta: float = 1e-3
    alpha: tuple[float, float, float] = (1e-3, 1e-3, 1e-3)
    gamma: tuple[float, float, float] = (0.1, 0.1, 0.1)
    c: float = 1.0
    a_bar1: float = 1.1
    a_bar2: float = 10.0
    tol: float = 3e-3
    max_iter: int = 200
    ranks: tuple[int, int, int] | str = "auto"

    def __post_init__(self) -> None:
        self.alpha = _triple(self.alpha, "alpha")
        self.gamma = _triple(self.gamma, "gamma")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if any(a < 0 for a in self.alpha):
            raise ValueError("alpha weights must be >= 0")
        if any(g <= 0 for g in self.gamma):
            raise ValueError("gamma weights must be positive")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.a_bar1 <= 1 or self.a_bar2 <= 1:
            raise ValueError("step multipliers a_bar1 and a_bar2 must exceed 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if isinstance(self.ranks, str):
            if self.ranks != "auto":
                raise ValueError('ranks must be "auto" or a triple of positive integers')
        else:
            self.ranks = tuple(int(r) for r in self.ranks)
            if len(self.ranks) != 3 or any(r < 1 for r in self.ranks):
                raise ValueError("ranks must be three positive integers")


@dataclass
class StepSizes:
    """Per-block proximal weights rho_1..rho_7 with the Lipschitz constants
    they must strictly exceed (rho_5..rho_7 exceed the coupling weights)."""

    rho: tuple[float, ...]
    lipschitz: tuple[float, float, float, float]
    nu: float
    c1: float
    gamma: tuple[float, float, float]

    def validate(self) -> None:
        bounds = self.lipschitz + self.gamma
        for i, (r, b) in enumerate(zip(self.rho, bounds), start=1):
            if not r > b:
                raise ValueError(f"step weight rho_{i}={r} does not exceed its bound {b}")

    def decrease_margin(self) -> float:
        """min over blocks of rho - bound; weights the sufficient-decrease
        inequality."""
        bounds = self.lipschitz + self.gamma
        return min(r - b for r, b in zip(self.rho, bounds))


def compute_step_sizes(
    design: DesignPair, cfg: StdgrConfig, ranks: tuple[int, int, int]
) -> StepSizes:
    """Lipschitz constants of the smooth coupling and the derived step weights.

    c1 = (1/T) sum ||x_t||^2 = tr(X^T X) / T bounds the core block; the
    factor blocks add the core energy bound nu = sqrt(r1 r2 r3) c and the
    coupling weight.
    """
    c1 = float(np.trace(design.gram)) / design.n_samples
    nu = float(np.sqrt(np.prod(ranks)) * cfg.c)
    g1, g2, g3 = cfg.gamma
    lips = (c1, nu * nu * c1 + g1, nu * nu * c1 + g2, nu * nu * c1 + g3)
    # an all-zero design gives L1 = 0; floor it so rho_1 stays positive
    # (the huge resulting threshold maps the core straight to zero)
    rho = (
        cfg.a_bar1 * max(lips[0], 1e-30),
        cfg.a_bar1 * lips[1],
        cfg.a_bar1 * lips[2],
        cfg.a_bar1 * lips[3],
        cfg.a_bar2 * g1,
        cfg.a_bar2 * g2,
        cfg.a_bar2 * g3,
    )
    steps = StepSizes(rho=rho, lipschitz=lips, nu=nu, c1=c1, gamma=cfg.gamma)
    steps.validate()
    return steps


@dataclass
class SolverState:
    """One full iterate: core, factors, and auxiliary factors."""

    core: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a3: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray

    def copy(self) -> "SolverState":
        return SolverState(*(arr.copy() for arr in self.blocks()))

    def blocks(self) -> tuple[np.ndarray, ...]:
        return (self.core, self.a1, self.a2, self.a3, self.u1, self.u2, self.u3)

    def factors(self) -> TuckerFactors:
        return TuckerFactors(core=self.core, a1=self.a1, a2=self.a2, a3=self.a3)

    def orthonormality_defect(self) -> float:
        return self.factors().orthonormality_defect()


@dataclass
class FitResult:
    """Final estimate plus per-iteration diagnostics."""

    w_hat: np.ndarray
    factors: TuckerFactors
    objective_trace: np.ndarray
    lambdas: np.ndarray
    block_change_sq: np.ndarray
    core_abs_max_trace: np.ndarray
    orth_defect_trace: np.ndarray
    iterations: int
    converged: bool
    init_core_clipped: bool
    step_sizes: StepSizes


def prox_core(l: np.ndarray, tau: float, c: float) -> np.ndarray:
    """Entrywise soft threshold followed by the box projection onto
    [-c, c]; the exact minimizer of tau|g| + (g - l)^2 / 2 over the box."""
    if tau < 0:
        raise ValueError("tau must be >= 0")
    if c <= 0:
        raise ValueError("c must be positive")
    l = np.asarray(l, dtype=float)
    return np.clip(np.sign(l) * np.maximum(np.abs(l) - tau, 0.0), -c, c)


def procrustes(mat: np.ndarray) -> np.ndarray:
    """Polar factor U V^T of the thin SVD; maximizes tr(A^T mat) over
    column-orthonormal A."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < mat.shape[1]:
        raise ValueError("procrustes needs a tall (rows >= cols) matrix")
    u, _, vt = np.linalg.svd(mat, full_matrices=False)
    return u @ vt


def update_u(
    u_prev: np.ndarray,
    a: np.ndarray,
    lap: np.ndarray,
    alpha: float,
    gamma: float,
    rho: float,
) -> np.ndarray:
    """Exact minimizer of the linearized auxiliary subproblem:
    (2 alpha L + rho I)^{-1} (rho U - gamma (U - A))."""
    n = u_prev.shape[0]
    rhs = rho * u_prev - _coupling_gradient(gamma, u_prev, a)
    return np.linalg.solve(2.0 * alpha * lap + rho * np.eye(n), rhs)


def _coupling_gradient(gamma: float, u: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gradient of the coupling (gamma / 2) ||U - A||^2 with respect to U;
    its negative is the gradient with respect to A."""
    return gamma * (u - a)


def grad_Q_full(w: np.ndarray, design: DesignPair) -> np.ndarray:
    """Gradient of the quadratic loss with respect to the full transition
    tensor; its mode-1 unfolding is (1/T) sum (W_(1) x_t - y_t) x_t^T =
    (W_(1) X^T X - Y^T X) / T, formed from the design's moments in
    O(m (mp)^2), independent of T."""
    w = np.asarray(w, dtype=float)
    m, _, p = w.shape
    if (design.m, design.p) != (m, p):
        raise ValueError("design dimensions do not match the transition tensor")
    grad = (unfold(w, 1) @ design.gram - design.cross) / design.n_samples
    return fold(grad, 1, (m, m, p))


def _block_gradient(
    block: int,
    core: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    a3: np.ndarray,
    design: DesignPair,
    gram_b: np.ndarray | None = None,
) -> np.ndarray:
    """Loss gradient with respect to one of (core, a1, a2, a3), numbered
    0..3, at a Tucker point with A1^T A1 = I; no other block's gradient is
    formed, and the costliest product is X^T X B, O((mp)^2 r2 r3).

    With Q the tensor gradient, the core gradient is Q x1 A1^T x2 A2^T x3 A3^T
    and the mode-k factor gradient is unfold(Q x_{j!=k} A_j^T, k) G_(k)^T.
    With B = A3 kron A2 and K = B^T X^T X B these are

        core: (G_(1) K - A1^T Y^T X B) / T, folded
        A1:   (A1 G_(1) K - Y^T X B) G_(1)^T / T
        A2:   unfold(fold(A1^T Q_(1)) x3 A3^T, 2) G_(2)^T
        A3:   unfold(fold(A1^T Q_(1)) x2 A2^T, 3) G_(3)^T

    where A1^T Q_(1) = (G_(1) (X^T X B)^T - A1^T Y^T X) / T. ``gram_b`` is
    X^T X B, formed here unless the caller passes it.
    """
    b = kronecker(a3, a2)
    if gram_b is None:
        gram_b = design.gram @ b
    g1 = unfold(core, 1)
    n = design.n_samples
    if block == 0:
        return fold((g1 @ (b.T @ gram_b) - a1.T @ (design.cross @ b)) / n, 1, core.shape)
    if block == 1:
        return (a1 @ (g1 @ (b.T @ gram_b)) - design.cross @ b) @ g1.T / n
    dims = (core.shape[0], a1.shape[0], a3.shape[0])
    projected = fold((g1 @ gram_b.T - a1.T @ design.cross) / n, 1, dims)
    if block == 2:
        projected = mode_product(projected, a3.T, 3)
    else:
        projected = mode_product(projected, a2.T, 2)
    return unfold(projected, block) @ unfold(core, block).T


def _partial_gradient(
    block: int,
    blocks: Sequence[np.ndarray],
    design: DesignPair,
    cfg: StdgrConfig,
    gram_b: np.ndarray | None = None,
) -> np.ndarray:
    """Partial gradient of the smooth part (loss plus coupling) with respect
    to block 0..6 of (G, A1, A2, A3, U1, U2, U3), at ``blocks`` in that order:
    the loss gradient for G, the loss gradient minus gamma_k (U_k - A_k) for
    A_k, and gamma_k (U_k - A_k) for U_k. ``gram_b`` is passed on to
    :func:`_block_gradient`."""
    if block >= 4:
        return _coupling_gradient(cfg.gamma[block - 4], blocks[block], blocks[block - 3])
    grad = _block_gradient(block, *blocks[:4], design, gram_b)
    if block == 0:
        return grad
    return grad - _coupling_gradient(cfg.gamma[block - 1], blocks[block + 3], blocks[block])


def grad_partials(
    state: SolverState, design: DesignPair, cfg: StdgrConfig
) -> tuple[np.ndarray, ...]:
    """The seven partial gradients of the smooth part (loss plus coupling)
    at a common point, in block order (G, A1, A2, A3, U1, U2, U3)."""
    blocks = state.blocks()
    return tuple(_partial_gradient(block, blocks, design, cfg) for block in range(7))


def _coupling_value(state: SolverState, cfg: StdgrConfig) -> float:
    """sum_i (gamma_i / 2) ||U_i - A_i||^2."""
    return sum(
        0.5 * g * float(np.sum((u - a) ** 2))
        for g, u, a in zip(cfg.gamma, (state.u1, state.u2, state.u3), (state.a1, state.a2, state.a3))
    )


def psi_value(state: SolverState, design: DesignPair, cfg: StdgrConfig) -> float:
    """Smooth part: quadratic loss plus the three coupling penalties, at any
    point (the loss is taken in W_(1), so the factors need not be
    orthonormal)."""
    w1 = state.a1 @ unfold(state.core, 1) @ kronecker(state.a3, state.a2).T
    quad = float(np.sum((w1 @ design.gram) * w1)) - 2.0 * float(np.sum(design.cross * w1))
    return (design.yty + quad) / (2.0 * design.n_samples) + _coupling_value(state, cfg)


def _check_feasible(state: SolverState, cfg: StdgrConfig) -> None:
    if float(np.max(np.abs(state.core))) > cfg.c + 1e-12:
        raise ValueError("core violates the box bound")
    if state.orthonormality_defect() > 1e-10:
        raise ValueError("factor matrices are not column-orthonormal")


def objective(
    state: SolverState, design: DesignPair, lap: LaplacianSet, cfg: StdgrConfig
) -> float:
    """Full objective value at a feasible state (box and orthonormality are
    constraints, not penalty terms). The loss is taken in the Tucker ranks,
    which is exact because the feasibility check has passed first."""
    _check_feasible(state, cfg)
    b = kronecker(state.a3, state.a2)
    g1 = unfold(state.core, 1)
    quad = float(np.sum((g1 @ (b.T @ (design.gram @ b))) * g1))
    quad -= 2.0 * float(np.sum((state.a1.T @ (design.cross @ b)) * g1))
    value = (design.yty + quad) / (2.0 * design.n_samples) + _coupling_value(state, cfg)
    value += cfg.beta * float(np.sum(np.abs(state.core)))
    for a_w, u, l in zip(cfg.alpha, (state.u1, state.u2, state.u3), lap.as_tuple()):
        value += a_w * float(np.trace(u.T @ l @ u))
    return value


def convergence_metrics(prev: SolverState, new: SolverState) -> np.ndarray:
    """Relative Frobenius change of each of the seven blocks. A zero-norm
    previous block counts as converged only if the change is itself zero."""
    out = np.empty(7)
    for i, (b_prev, b_new) in enumerate(zip(prev.blocks(), new.blocks())):
        num = float(np.linalg.norm(b_new - b_prev))
        den = float(np.linalg.norm(b_prev))
        if den > 0:
            out[i] = num / den
        else:
            out[i] = 0.0 if num <= 1e-14 else np.inf
    return out


def palm_step(
    state: SolverState,
    design: DesignPair,
    lap: LaplacianSet,
    cfg: StdgrConfig,
    steps: StepSizes,
) -> SolverState:
    """One full block sweep; every block sees the freshest previous blocks.

    B = A3 kron A2 stays the same until the A2 update, so the core, A1 and A2
    gradients share one X^T X B; the A3 gradient forms its own."""
    rho = steps.rho
    blocks = list(state.blocks())
    gram_b = design.gram @ kronecker(blocks[3], blocks[2])
    grad = _partial_gradient(0, blocks, design, cfg, gram_b)
    blocks[0] = prox_core(blocks[0] - grad / rho[0], cfg.beta / rho[0], cfg.c)
    for k in (1, 2, 3):
        grad = _partial_gradient(k, blocks, design, cfg, gram_b if k < 3 else None)
        blocks[k] = procrustes(blocks[k] - grad / rho[k])
    for k, l, alpha, gamma in zip((4, 5, 6), lap.as_tuple(), cfg.alpha, cfg.gamma):
        blocks[k] = update_u(blocks[k], blocks[k - 3], l, alpha, gamma, rho[k])
    return SolverState(*blocks)


def solve(
    design: DesignPair,
    lap: LaplacianSet,
    cfg: StdgrConfig,
    init: TuckerFactors,
) -> FitResult:
    """Run the block-cyclic solver from a Tucker initializer.

    The auxiliary factors start at the initial factor matrices. Stops when
    the largest relative block change drops to ``cfg.tol`` or after
    ``cfg.max_iter`` sweeps. The objective trace is monotone under the step
    rules enforced by :func:`compute_step_sizes`.
    """
    init.validate()
    if (design.m, design.m, design.p) != tuple(a.shape[0] for a in (init.a1, init.a2, init.a3)):
        raise ValueError("design and initializer dimensions do not match")

    core0 = init.core
    clipped = False
    if float(np.max(np.abs(core0))) > cfg.c:
        core0 = np.clip(core0, -cfg.c, cfg.c)
        clipped = True

    state = SolverState(
        core=core0.copy(),
        a1=init.a1.copy(),
        a2=init.a2.copy(),
        a3=init.a3.copy(),
        u1=init.a1.copy(),
        u2=init.a2.copy(),
        u3=init.a3.copy(),
    )
    ranks = tuple(int(r) for r in core0.shape)
    steps = compute_step_sizes(design, cfg, ranks)

    obj_trace = [objective(state, design, lap, cfg)]
    lambdas = []
    change_sq = []
    core_max = [float(np.max(np.abs(state.core)))]
    orth_defect = [state.orthonormality_defect()]

    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        prev = state
        state = palm_step(prev, design, lap, cfg, steps)
        metrics = convergence_metrics(prev, state)
        lambdas.append(metrics)
        change_sq.append(
            sum(
                float(np.sum((b_new - b_prev) ** 2))
                for b_prev, b_new in zip(prev.blocks(), state.blocks())
            )
        )
        obj_trace.append(objective(state, design, lap, cfg))
        core_max.append(float(np.max(np.abs(state.core))))
        orth_defect.append(state.orthonormality_defect())
        iterations += 1
        if float(np.max(metrics)) <= cfg.tol:
            converged = True
            break

    lambdas = np.asarray(lambdas).reshape(iterations, 7)
    factors = state.factors()
    return FitResult(
        w_hat=tucker_reconstruct(factors),
        factors=factors,
        objective_trace=np.asarray(obj_trace),
        lambdas=lambdas,
        block_change_sq=np.asarray(change_sq),
        core_abs_max_trace=np.asarray(core_max),
        orth_defect_trace=np.asarray(orth_defect),
        iterations=iterations,
        converged=converged,
        init_core_clipped=clipped,
        step_sizes=steps,
    )
