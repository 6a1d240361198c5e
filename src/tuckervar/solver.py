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
each A_i, and an exact minimization for each U_i. Step sizes exceed the
per-block Lipschitz constants, which makes the objective monotone with a
quantified sufficient decrease.

solve checks the scheme's three guarantees at every sweep: the core stays in
the box, the factors stay orthonormal (both checked by objective), and the
sweep lowers F by at least (margin/2) sum_i ||Delta_i||^2, up to a rounding
slack of 1e-9 max(1, |F|). The first sweep that breaks one raises
RuntimeError naming the sweep: a broken guarantee is a fault of the solver,
not of its input.

The loss is a quadratic in W_(1), so the solver sees the data only through
the moments X^T X, Y^T X and tr(Y^T Y) that the design computes once:

    loss = (tr(Y^T Y) - 2 <Y^T X, W_(1)> + <W_(1) X^T X, W_(1)>) / 2T
    grad = (W_(1) X^T X - Y^T X) / T

The sweep works in the Tucker ranks. With B = A3 kron A2 (mp x r2 r3) and
K = B^T X^T X B, W_(1) = A1 G_(1) B^T, and A1^T A1 = I turns every
term into one of the small matrices X^T X B, K and A1^T Y^T X B:

    <W_(1) X^T X, W_(1)> = <G_(1) K, G_(1)>,  <Y^T X, W_(1)> = <A1^T Y^T X B, G_(1)>

and likewise for the block gradients (see _block_gradient). B changes at
the A2 and A3 updates, so an iteration forms X^T X B twice: the sweep for
the A3 gradient, and solve at the new iterate, for its objective and the
next sweep's core, A1 and A2 gradients. An iteration costs O((mp)^2 r2 r3)
plus terms in m, p and the ranks, whatever the number of samples T. The
identities need orthonormal factors: the prox maps make them so, and the
objective checks them to 1e-10 before it uses them. Each U_k step solves
with 2 alpha_k L_k + rho I, which is fixed for a solve, through the
eigenpairs of L_k that solve takes once.

The sweep is written out block by block: each factor block steps along its
loss gradient from _block_gradient less its coupling term gamma_k (U_k - A_k).
The tests difference _block_gradient directly and hold the sweep to a
hand-unrolled copy of it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .initialization import LaplacianSet
from .tensor import TuckerFactors, fold, kronecker, mode_product, tucker_reconstruct, unfold
from .var import DesignPair, _require_number

__all__ = ["StdgrConfig", "StepSizes", "FitResult", "solve"]


def _triple(name: str, value, low: float, closed: bool) -> tuple[float, float, float]:
    items = (value, value, value) if isinstance(value, numbers.Real) else value
    try:
        items = tuple(items)
    except TypeError:
        items = ()
    if len(items) != 3:
        raise ValueError(f"{name} must be a number or a triple of numbers, got {value!r}")
    return tuple(float(_require_number(name, v, low, closed)) for v in items)


@dataclass
class StdgrConfig:
    """Hyperparameters of the penalized model and its solver.

    ``alpha`` and ``gamma`` accept a scalar (broadcast to all three modes) or
    a triple. ``ranks`` is an explicit (r1, r2, r3) or "auto" for the
    ridge-ratio selector run on the initial estimate. ``epsilon`` is the
    bandwidth of the Gaussian kernel behind the graph Laplacians.
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
    epsilon: float = 0.2

    def __post_init__(self) -> None:
        self.alpha = _triple("alpha", self.alpha, 0, closed=True)
        self.gamma = _triple("gamma", self.gamma, 0, closed=False)
        for name, low in (
            ("beta", 0), ("c", 0), ("a_bar1", 1), ("a_bar2", 1), ("tol", 0), ("epsilon", 0)
        ):
            _require_number(name, getattr(self, name), low)
        self.max_iter = _require_number("max_iter", self.max_iter, 1, closed=True, integer=True)
        if isinstance(self.ranks, str):
            if self.ranks != "auto":
                raise ValueError(f'ranks must be "auto" or three positive integers, got {self.ranks!r}')
        elif np.ndim(self.ranks) != 1 or len(self.ranks) != 3:
            raise ValueError(f"ranks must be three positive integers, got {self.ranks!r}")
        else:
            self.ranks = tuple(
                _require_number("ranks", r, 1, closed=True, integer=True) for r in self.ranks
            )


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

    def blocks(self) -> tuple[np.ndarray, ...]:
        return (self.core, self.a1, self.a2, self.a3, self.u1, self.u2, self.u3)

    def factors(self) -> TuckerFactors:
        return TuckerFactors(core=self.core, a1=self.a1, a2=self.a2, a3=self.a3)


@dataclass
class FitResult:
    """Final estimate plus per-iteration diagnostics.

    ``objective_trace`` holds F at the start and after each sweep, and
    ``lambdas`` the relative change of each of the seven blocks at each
    sweep. Every iterate of a returned fit passed the in-run checks: box,
    orthonormality and sufficient decrease (see :func:`solve`).
    """

    w_hat: np.ndarray
    factors: TuckerFactors
    objective_trace: np.ndarray
    lambdas: np.ndarray
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
    u_prev: np.ndarray, a: np.ndarray, eig: tuple, alpha: float, gamma: float, rho: float
) -> np.ndarray:
    """Exact minimizer of the linearized auxiliary subproblem,
    (2 alpha L + rho I)^{-1} (rho U - gamma (U - A)), from the eigenpairs
    ``eig`` = (e, V) of L as V ((V^T rhs) / (2 alpha e + rho))."""
    e, v = eig
    rhs = rho * u_prev - gamma * (u_prev - a)
    return v @ ((v.T @ rhs) / (2.0 * alpha * e + rho)[:, None])


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


def _check_feasible(state: SolverState, cfg: StdgrConfig) -> None:
    if float(np.max(np.abs(state.core))) > cfg.c + 1e-12:
        raise ValueError("core violates the box bound")
    if state.factors().orthonormality_defect() > 1e-10:
        raise ValueError("factor matrices are not column-orthonormal")


def objective(
    state: SolverState, design: DesignPair, lap: LaplacianSet, cfg: StdgrConfig, gram_b=None
) -> float:
    """Full objective value at a feasible state (box and orthonormality are
    constraints, not penalty terms). The loss is taken in the Tucker ranks,
    which is exact because the feasibility check has passed first. ``gram_b``
    is X^T X B at the state, formed here unless the caller passes it."""
    _check_feasible(state, cfg)
    b = kronecker(state.a3, state.a2)
    if gram_b is None:
        gram_b = design.gram @ b
    g1 = unfold(state.core, 1)
    quad = float(np.sum((g1 @ (b.T @ gram_b)) * g1))
    quad -= 2.0 * float(np.sum((state.a1.T @ (design.cross @ b)) * g1))
    us, factors = (state.u1, state.u2, state.u3), (state.a1, state.a2, state.a3)
    coupling = sum(
        0.5 * g * float(np.sum((u - a) ** 2)) for g, u, a in zip(cfg.gamma, us, factors)
    )
    value = (design.yty + quad) / (2.0 * design.n_samples) + coupling
    value += cfg.beta * float(np.sum(np.abs(state.core)))
    for a_w, u, l in zip(cfg.alpha, us, lap.as_tuple()):
        value += a_w * float(np.trace(u.T @ l @ u))
    return value


def convergence_metrics(prev: SolverState, new: SolverState) -> tuple[np.ndarray, float]:
    """Relative Frobenius change of each of the seven blocks and their summed
    squared change sum_i ||Delta_i||^2, in one pass. A zero-norm previous
    block counts as converged only if the change is itself zero."""
    out = np.empty(7)
    change_sq = 0.0
    for i, (b_prev, b_new) in enumerate(zip(prev.blocks(), new.blocks())):
        num = float(np.linalg.norm(b_new - b_prev))
        change_sq += num * num
        den = float(np.linalg.norm(b_prev))
        if den > 0:
            out[i] = num / den
        else:
            out[i] = 0.0 if num <= 1e-14 else np.inf
    return out, change_sq


def palm_step(
    state: SolverState,
    design: DesignPair,
    eigs: tuple[tuple[np.ndarray, np.ndarray], ...],
    cfg: StdgrConfig,
    steps: StepSizes,
    gram_b: np.ndarray,
) -> SolverState:
    """One full block sweep; every block sees the freshest previous blocks.

    ``eigs`` holds the eigenpairs (e, V) of L1, L2, L3 and ``gram_b`` is
    X^T X B at ``state``, which the core, A1 and A2 gradients share: B =
    A3 kron A2 changes at the A2 update, so the A3 gradient forms its own."""
    rho = steps.rho
    g1, g2, g3 = cfg.gamma
    a1w, a2w, a3w = cfg.alpha
    eig1, eig2, eig3 = eigs

    grad = _block_gradient(0, state.core, state.a1, state.a2, state.a3, design, gram_b)
    core = prox_core(state.core - grad / rho[0], cfg.beta / rho[0], cfg.c)

    grad = _block_gradient(1, core, state.a1, state.a2, state.a3, design, gram_b)
    grad = grad - g1 * (state.u1 - state.a1)
    a1 = procrustes(state.a1 - grad / rho[1])

    grad = _block_gradient(2, core, a1, state.a2, state.a3, design, gram_b)
    grad = grad - g2 * (state.u2 - state.a2)
    a2 = procrustes(state.a2 - grad / rho[2])

    grad = _block_gradient(3, core, a1, a2, state.a3, design)
    grad = grad - g3 * (state.u3 - state.a3)
    a3 = procrustes(state.a3 - grad / rho[3])

    u1 = update_u(state.u1, a1, eig1, a1w, g1, rho[4])
    u2 = update_u(state.u2, a2, eig2, a2w, g2, rho[5])
    u3 = update_u(state.u3, a3, eig3, a3w, g3, rho[6])
    return SolverState(core=core, a1=a1, a2=a2, a3=a3, u1=u1, u2=u2, u3=u3)


def solve(
    design: DesignPair,
    lap: LaplacianSet,
    cfg: StdgrConfig,
    init: TuckerFactors,
) -> FitResult:
    """Run the block-cyclic solver from a Tucker initializer.

    The auxiliary factors start at the initial factor matrices. Stops when
    the largest relative block change drops to ``cfg.tol`` or after
    ``cfg.max_iter`` sweeps. Every sweep is checked against the guarantees of
    the step rules enforced by :func:`compute_step_sizes`: the new iterate
    must be feasible, and with Delta_i the change of block i,

        F_k - F_{k+1} >= (margin/2) sum_i ||Delta_i||^2 - 1e-9 max(1, |F_k|)

    where margin is ``steps.decrease_margin()``. The first sweep that fails
    raises RuntimeError naming the sweep.
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
    margin = steps.decrease_margin()

    eigs = tuple(np.linalg.eigh(l) for l in lap.as_tuple())
    gram_b = design.gram @ kronecker(state.a3, state.a2)
    obj_trace = [objective(state, design, lap, cfg, gram_b)]
    lambdas = []

    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        prev = state
        state = palm_step(prev, design, eigs, cfg, steps, gram_b)
        iterations += 1
        metrics, change_sq = convergence_metrics(prev, state)
        lambdas.append(metrics)
        gram_b = design.gram @ kronecker(state.a3, state.a2)
        try:
            f_new = objective(state, design, lap, cfg, gram_b)
        except ValueError as exc:
            raise RuntimeError(f"sweep {iterations}: {exc}") from exc
        f_prev = obj_trace[-1]
        required = 0.5 * margin * change_sq - 1e-9 * max(1.0, abs(f_prev))
        if not f_prev - f_new >= required:
            raise RuntimeError(
                f"sweep {iterations} breaks the sufficient decrease: "
                f"F_k - F_k+1 = {f_prev - f_new:.6e} < {required:.6e} = "
                f"(margin/2) sum ||Delta_i||^2 - slack"
            )
        obj_trace.append(f_new)
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
        iterations=iterations,
        converged=converged,
        init_core_clipped=clipped,
        step_sizes=steps,
    )
