"""Block-cyclic proximal solver for the graph-regularized sparse Tucker VAR fit.

Objective, over a core tensor G and column-orthonormal factors A1..A3:

    F = (1/2T) sum_t ||y_t - W_(1) x_t||^2 + beta ||G||_1 + sum_i tr(A_i^T Lt_i A_i)

with W = G x1 A1 x2 A2 x3 A3, subject to ||G||_inf <= c and A_i^T A_i = I
(enforced exactly by the prox maps, never as penalty values), and the
graph penalty Lt_i = alpha_i gamma_i L_i (2 alpha_i L_i + gamma_i I)^{-1}.

This is the paper's objective with its auxiliary factors U_i, penalized by
alpha_i tr(U_i^T L_i U_i) + (gamma_i/2) ||U_i - A_i||^2, minimized out: for
fixed A_i that penalty is least at U_i* = gamma_i (2 alpha_i L_i + gamma_i I)^{-1} A_i
(update_u), where it equals tr(A_i^T Lt_i A_i). So the minimizer over (G, A)
is the paper's estimator. U_i* gives the penalty's gradient 2 Lt_i A_i as
2 alpha_i L_i U_i* and its value as alpha_i <A_i, L_i U_i*>, not through
A_i - U_i*, which cancels catastrophically once gamma_i >> 2 alpha_i ||L_i||.
Both come from the eigenpairs of L_i that solve takes once, and no dense
Lt_i is formed.

One iteration updates G, A1, A2, A3 in that order, each block from a
linearized gradient step at the freshest values of the blocks updated before
it: soft threshold + box clip for G and a polar (Procrustes) step for each
A_i, a PALM scheme (Bolte, Sabach & Teboulle, Math. Program. 2014). Each
step weight is A_BAR1 = 1.1 times its block's Lipschitz constant (the
penalty adds 2 ||Lt_i|| < gamma_i to the A_i block's), which makes the
objective monotone with a quantified sufficient decrease.

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
next sweep's core, A1 and A2 gradients. solve forms each U_i* and
L_i U_i* once per iterate too, for the same two uses. An iteration costs
O((mp)^2 r2 r3) plus terms in m, p and the ranks, whatever the number of
samples T. The identities need orthonormal factors: the prox maps make them
so, and the objective checks them to 1e-10 before it uses them.

The sweep is written out block by block: each factor block steps along its
loss gradient from _block_gradient plus its penalty gradient
2 alpha_k L_k U_k*. The tests difference _block_gradient directly and hold
the sweep to a hand-unrolled copy of it. The objective, the feasibility
check and the block changes take reductions through ndarray methods and
norms through tensor._frobenius, which mirrors np.linalg.norm bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .tensor import (
    TuckerFactors,
    _frobenius,
    fold,
    kronecker,
    mode_product,
    tucker_reconstruct,
    unfold,
)
from .var import DesignPair, _require_number

__all__ = ["StdgrConfig", "FitResult", "solve"]

# PALM's step weight over each block's Lipschitz constant; any value above 1
# sets only the path to the estimate, not the estimate
A_BAR1 = 1.1


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
    bandwidth of the Gaussian kernel behind the graph Laplacians; ``gamma``
    is the coupling weight that, with ``alpha``, sets the graph penalty
    Lt = alpha gamma L (2 alpha L + gamma I)^{-1}.
    """

    beta: float = 1e-3
    alpha: tuple[float, float, float] = (1e-3, 1e-3, 1e-3)
    gamma: tuple[float, float, float] = (0.1, 0.1, 0.1)
    c: float = 1.0
    tol: float = 3e-3
    max_iter: int = 200
    ranks: tuple[int, int, int] | str = "auto"
    epsilon: float = 0.2

    def __post_init__(self) -> None:
        self.alpha = _triple("alpha", self.alpha, 0, closed=True)
        self.gamma = _triple("gamma", self.gamma, 0, closed=False)
        for name, low in (
            ("beta", 0), ("c", 0), ("tol", 0), ("epsilon", 0)
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
    """Per-block proximal weights rho_1..rho_4 with the Lipschitz constants
    they must strictly exceed."""

    rho: tuple[float, float, float, float]
    lipschitz: tuple[float, float, float, float]

    def validate(self) -> None:
        for i, (r, b) in enumerate(zip(self.rho, self.lipschitz), start=1):
            if not r > b:
                raise ValueError(f"step weight rho_{i}={r} does not exceed its bound {b}")

    def decrease_margin(self) -> float:
        """min over blocks of rho - bound; weights the sufficient-decrease
        inequality."""
        return min(r - b for r, b in zip(self.rho, self.lipschitz))


def compute_step_sizes(
    design: DesignPair, cfg: StdgrConfig, ranks: tuple[int, int, int]
) -> StepSizes:
    """Lipschitz constants of the smooth part and the derived step weights.

    c1 = (1/T) sum ||x_t||^2 = tr(X^T X) / T bounds the core block; the
    factor blocks add the core energy bound nu = sqrt(r1 r2 r3) c and the
    coupling weight gamma_k, which exceeds the graph penalty's 2 ||Lt_k||.
    A ``c`` or ``gamma`` that makes a factor block's weight overflow is a
    ValueError naming both.
    """
    c1 = float(np.trace(design.gram)) / design.n_samples
    nu = math.sqrt(math.prod(ranks)) * cfg.c
    lips = (c1, *(nu * nu * c1 + g for g in cfg.gamma))
    # an all-zero design gives L1 = 0; floor it so rho_1 stays positive
    # (the huge resulting threshold maps the core straight to zero)
    rho = (A_BAR1 * max(lips[0], 1e-30), *(A_BAR1 * l for l in lips[1:]))
    if not all(map(math.isfinite, rho[1:])):
        raise ValueError(f"c={cfg.c} or gamma={cfg.gamma} overflows the step weights {rho[1:]}")
    steps = StepSizes(rho=rho, lipschitz=lips)
    steps.validate()
    return steps


@dataclass
class FitResult:
    """Final estimate plus per-iteration diagnostics.

    ``objective_trace`` holds F at the start and after each sweep, and
    ``lambdas`` the relative change of each of the four blocks (G, A1, A2,
    A3) at each sweep. Every iterate of a returned fit passed the in-run
    checks: box, orthonormality and sufficient decrease (see :func:`solve`).
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


def update_u(a: np.ndarray, eig: tuple, alpha: float, gamma: float) -> np.ndarray:
    """Minimizer U* = gamma (2 alpha L + gamma I)^{-1} A of
    alpha tr(U^T L U) + (gamma/2) ||U - A||^2, from the eigenpairs ``eig`` =
    (e, V) of L as gamma V ((V^T A) / (2 alpha e + gamma)). With
    Lt = alpha gamma L (2 alpha L + gamma I)^{-1}, the penalty's least value
    tr(A^T Lt A) is alpha <A, L U*> and its gradient 2 Lt A is
    2 alpha L U* (= gamma (A - U*), which cancels for a large gamma)."""
    e, v = eig
    return gamma * (v @ ((v.T @ a) / (2.0 * alpha * e + gamma)[:, None]))


def _penalty_gradients(f: TuckerFactors, eigs: tuple, cfg: StdgrConfig) -> tuple[np.ndarray, ...]:
    """The graph penalty's gradient 2 alpha_k L_k U_k* at each factor of
    ``f`` (see :func:`update_u`), with L_k applied through its eigenpairs."""
    out = []
    for a, eig, alpha, gamma in zip((f.a1, f.a2, f.a3), eigs, cfg.alpha, cfg.gamma):
        e, v = eig
        out.append(2.0 * alpha * (v @ (e[:, None] * (v.T @ update_u(a, eig, alpha, gamma)))))
    return tuple(out)


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


def _check_feasible(state: TuckerFactors, cfg: StdgrConfig) -> None:
    if float(np.abs(state.core).max(initial=0.0)) > cfg.c + 1e-12:
        raise ValueError("core violates the box bound")
    if state.orthonormality_defect() > 1e-10:
        raise ValueError("factor matrices are not column-orthonormal")


def objective(
    state: TuckerFactors,
    design: DesignPair,
    eigs: tuple[tuple[np.ndarray, np.ndarray], ...],
    cfg: StdgrConfig,
    gram_b: np.ndarray | None = None,
    pen: tuple[np.ndarray, ...] | None = None,
) -> float:
    """Full objective value at a feasible state (box and orthonormality are
    constraints, not penalty terms). The loss is taken in the Tucker ranks,
    which is exact because the feasibility check has passed first. ``eigs``
    holds the eigenpairs (e, V) of L1, L2, L3. ``gram_b`` is X^T X B and
    ``pen`` the penalty gradients 2 alpha_k L_k U_k* at the state, each
    formed here unless the caller passes it; penalty k is half of
    <A_k, pen_k>."""
    _check_feasible(state, cfg)
    b = kronecker(state.a3, state.a2)
    if gram_b is None:
        gram_b = design.gram @ b
    if pen is None:
        pen = _penalty_gradients(state, eigs, cfg)
    g1 = unfold(state.core, 1)
    quad = float(((g1 @ (b.T @ gram_b)) * g1).sum())
    quad -= 2.0 * float(((state.a1.T @ (design.cross @ b)) * g1).sum())
    value = (design.yty + quad) / (2.0 * design.n_samples)
    value += cfg.beta * float(np.abs(state.core).sum())
    for a, grad in zip((state.a1, state.a2, state.a3), pen):
        value += 0.5 * float((a * grad).sum())
    return value


def convergence_metrics(prev: TuckerFactors, new: TuckerFactors) -> tuple[np.ndarray, float]:
    """Relative Frobenius change of each of the four blocks (G, A1, A2, A3)
    and their summed squared change sum_i ||Delta_i||^2, in one pass. A
    zero-norm previous block counts as converged only if the change is
    itself zero."""
    out = np.empty(4)
    change_sq = 0.0
    pairs = zip((prev.core, prev.a1, prev.a2, prev.a3), (new.core, new.a1, new.a2, new.a3))
    for i, (b_prev, b_new) in enumerate(pairs):
        num = _frobenius(b_new - b_prev)
        change_sq += num * num
        den = _frobenius(b_prev)
        if den > 0:
            out[i] = num / den
        else:
            out[i] = 0.0 if num <= 1e-14 else np.inf
    return out, change_sq


def palm_step(
    state: TuckerFactors,
    design: DesignPair,
    cfg: StdgrConfig,
    steps: StepSizes,
    gram_b: np.ndarray,
    pen: tuple[np.ndarray, ...],
) -> TuckerFactors:
    """One full block sweep; every block sees the freshest previous blocks.

    ``gram_b`` is X^T X B at ``state``, which the core, A1 and A2 gradients
    share: B = A3 kron A2 changes at the A2 update, so the A3 gradient forms
    its own. ``pen`` holds the penalty gradients 2 alpha_k L_k U_k* at
    ``state``; each depends on A_k alone, so the freshest point's is the one
    at ``state``."""
    rho = steps.rho
    p1, p2, p3 = pen

    grad = _block_gradient(0, state.core, state.a1, state.a2, state.a3, design, gram_b)
    core = prox_core(state.core - grad / rho[0], cfg.beta / rho[0], cfg.c)

    grad = _block_gradient(1, core, state.a1, state.a2, state.a3, design, gram_b) + p1
    a1 = procrustes(state.a1 - grad / rho[1])

    grad = _block_gradient(2, core, a1, state.a2, state.a3, design, gram_b) + p2
    a2 = procrustes(state.a2 - grad / rho[2])

    grad = _block_gradient(3, core, a1, a2, state.a3, design) + p3
    a3 = procrustes(state.a3 - grad / rho[3])
    return TuckerFactors(core=core, a1=a1, a2=a2, a3=a3)


def solve(
    design: DesignPair,
    laps: tuple[np.ndarray, np.ndarray, np.ndarray],
    cfg: StdgrConfig,
    init: TuckerFactors,
) -> FitResult:
    """Run the block-cyclic solver from a Tucker initializer, with the graph
    Laplacians ``laps`` = (L1, L2, L3) of :func:`build_laplacians`.

    Stops when the largest relative block change drops to ``cfg.tol`` or
    after ``cfg.max_iter`` sweeps. Every sweep is checked against the
    guarantees of the step rules enforced by :func:`compute_step_sizes`: the
    new iterate must be feasible, and with Delta_i the change of block i,

        F_k - F_{k+1} >= (margin/2) sum_i ||Delta_i||^2 - 1e-9 max(1, |F_k|)

    where margin is ``steps.decrease_margin()``. The first sweep that fails
    raises RuntimeError naming the sweep.
    """
    init.validate()
    if (design.m, design.m, design.p) != tuple(a.shape[0] for a in (init.a1, init.a2, init.a3)):
        raise ValueError("design and initializer dimensions do not match")

    clipped = float(np.max(np.abs(init.core))) > cfg.c
    state = replace(init, core=np.clip(init.core, -cfg.c, cfg.c)) if clipped else init
    steps = compute_step_sizes(design, cfg, state.ranks)
    margin = steps.decrease_margin()

    eigs = tuple(np.linalg.eigh(l) for l in laps)
    gram_b = design.gram @ kronecker(state.a3, state.a2)
    pen = _penalty_gradients(state, eigs, cfg)
    obj_trace = [objective(state, design, eigs, cfg, gram_b, pen)]
    lambdas = []

    converged = False
    iterations = 0
    for _ in range(cfg.max_iter):
        prev = state
        state = palm_step(prev, design, cfg, steps, gram_b, pen)
        iterations += 1
        metrics, change_sq = convergence_metrics(prev, state)
        lambdas.append(metrics)
        gram_b = design.gram @ kronecker(state.a3, state.a2)
        pen = _penalty_gradients(state, eigs, cfg)
        try:
            f_new = objective(state, design, eigs, cfg, gram_b, pen)
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
        if float(metrics.max()) <= cfg.tol:
            converged = True
            break

    return FitResult(
        w_hat=tucker_reconstruct(state),
        factors=state,
        objective_trace=np.asarray(obj_trace),
        lambdas=np.asarray(lambdas).reshape(iterations, 4),
        iterations=iterations,
        converged=converged,
        init_core_clipped=clipped,
        step_sizes=steps,
    )
