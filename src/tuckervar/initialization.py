"""Everything the main solver needs before iterating.

Nuclear-norm initial estimator (started at the least-squares fit with its
penalty linearized, then reweighted least-squares steps that minimize a
majorizer of the nuclear norm in closed form, then monotone accelerated
proximal gradient with singular value thresholding, adaptive momentum
restart and a scale-free stationarity stop; all of it runs in the eigenbasis
of X^T X, so that an iteration costs one m x m eigendecomposition and a
column scaling by the eigenvalues),
truncated higher-order SVD of the initial tensor,
ridge-ratio rank selection on its unfoldings, and Gaussian-kernel graph
Laplacians built from factor rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import TuckerFactors, _require_tensor3, fold, mode_product, unfold
from .var import DesignPair, _require_number

__all__ = [
    "svt",
    "NnmConfig",
    "NnmResult",
    "nnm_estimate",
    "hosvd",
    "ridge_constant",
    "select_ranks",
    "LaplacianSet",
    "laplacian_from_rows",
    "build_laplacians",
]


def _gram_singular(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (ascending) and left singular vectors of a wide
    matrix A, from the eigendecomposition of A A^T.

    The Gram matrix is taken of A divided by a power of two near its largest
    entry, which is exact and keeps A A^T from overflowing or underflowing.
    """
    unit = np.ldexp(1.0, np.frexp(np.max(np.abs(a), initial=0.0))[1])
    b = a / unit
    sigma2, u = np.linalg.eigh(b @ b.T)
    return unit * np.sqrt(np.maximum(sigma2, 0.0)), u


def svt(mat: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular value thresholding, the proximal map of tau * nuclear norm.

    Returns the result and its singular values max(sigma - tau, 0) (in
    ascending order), whose sum is the nuclear norm of the result.

    With A the wide one of M and M^T and A A^T = U diag(sigma^2) U^T, the
    result is A - U diag(f) U^T A with f = min(sigma, tau) / sigma (1 where
    sigma <= tau, 0 when tau = 0), which is U diag(max(sigma - tau, 0)) V^T.
    Components below the rounding floor of sigma^2 are left in A at a zero
    threshold, not dropped. When every sigma <= tau the result is exactly
    zero.

    The Gram matrix resolves the squared singular values to about
    eps * sigma_max^2. The result then differs from thresholding an exact
    SVD by about k * eps * sigma_max^2 / tau in Frobenius norm (k the
    smaller dimension). On the seeded grid of the tests that is below
    1e-12 * ||M||_F once tau >= 1e-3 * sigma_max, and below 2e-8 * ||M||_F
    (worst 6e-9) for any tau; a zero threshold returns M to rounding.
    """
    _require_number("tau", tau, 0, closed=True)
    mat = np.asarray(mat, dtype=float)
    tall = mat.shape[0] > mat.shape[1]
    a = mat.T if tall else mat
    sigma, u = _gram_singular(a)
    if np.all(sigma <= tau):
        # the exact answer; A - U U^T A would leave rounding residue
        return np.zeros_like(mat), np.zeros_like(sigma)
    factor = tau / np.maximum(sigma, tau) if tau > 0 else np.zeros_like(sigma)
    out = a - (u * factor) @ (u.T @ a)
    return (out.T if tall else out), np.maximum(sigma - tau, 0.0)


def _auto_nuclear_weight(design: DesignPair) -> float:
    """Automatic weight: the rate factor sqrt(log(m^2 p) / T) times the mean
    squared response.

    The variance factor keeps the weight scale-equivariant (the penalty
    competes against a quadratic loss that scales with the data variance);
    a scale-free weight collapses the estimate to zero on small-amplitude
    series and leaves large-amplitude ones effectively unpenalized.
    """
    m, p, n = design.m, design.p, design.n_samples
    scale = design.yty / design.y.size
    return max(scale, 1e-12) * math.sqrt(math.log(m * m * p) / n)


@dataclass
class NnmConfig:
    """Nuclear-norm initializer settings. ``lambda_nn=None`` picks, at fit
    time, the rate sqrt(log(m^2 p) / T) times the mean squared response
    max(||Y||_F^2 / (T m), 1e-12)."""

    lambda_nn: float | None = None
    max_iter: int = 500
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.lambda_nn is not None:
            _require_number("lambda_nn", self.lambda_nn, 0)
        _require_number("tol", self.tol, 0)
        self.max_iter = _require_number("max_iter", self.max_iter, 1, closed=True, integer=True)


@dataclass
class NnmResult:
    w: np.ndarray
    converged: bool
    iterations: int
    objective_trace: np.ndarray
    lambda_nn: float
    reweighted_steps: int


def _linearized_start(cross: np.ndarray, ev: np.ndarray, weight: float) -> np.ndarray:
    """The start (cross - weight P) diag(ev)^+ of :func:`nnm_estimate` in the
    eigenbasis of X^T X, with P the polar factor U V^T of the least-squares
    fit cross diag(ev)^+.

    The pseudo-inverse scales the columns above numpy's rank tolerance by
    1 / ev and zeroes the rest. The rows of U^T W_LS have the singular
    values as their norms, so scaling each to unit norm gives V^T; rows at
    or below the rank tolerance, whose direction is rounding, are dropped.
    """
    inv = np.zeros_like(ev)
    keep = ev > ev[-1] * ev.size * np.finfo(float).eps
    inv[keep] = 1.0 / ev[keep]
    w_ls = cross * inv
    _, u = _gram_singular(w_ls)
    rows = u.T @ w_ls
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    live = norms > np.max(norms) * max(w_ls.shape) * np.finfo(float).eps
    polar = u @ np.divide(rows, norms, out=np.zeros_like(rows), where=live)
    return (cross - weight * polar) * inv


def nnm_estimate(design: DesignPair, cfg: NnmConfig | None = None) -> NnmResult:
    """Minimize F(W) = (1/T) sum ||y_t - W x_t||^2 + lambda ||W||_* over the
    mode-1 unfolding W: reweighted least-squares steps while they shrink the
    error fast, then monotone accelerated proximal gradient (FISTA) with
    adaptive restart and the exact Lipschitz step.

    The run starts at W0 = (Y^T X - (T lambda / 2) P) (X^T X)^+, with P the
    polar factor U V^T of the least-squares fit W_LS = Y^T X (X^T X)^+ and
    the pseudo-inverse at numpy's rank tolerance. W0 minimizes the loss plus
    the penalty linearized at W_LS; it is replaced by 0 when F(W0) > F(0).
    ``objective_trace[0]`` is F at the start.

    A reweighted step (Mohan & Fazel, JMLR 2012; Fornasier, Rauhut & Ward,
    SIAM J. Optim. 2011) bounds the penalty at the iterate W by its
    majorizer ||V||_* <= (1/2) tr(S^-1 V V^T) + (1/2) tr(S), S = (W W^T)^(1/2),
    equal at V = W, and moves to the exact minimizer of the loss plus that
    bound; F therefore never rises. With S = U diag(s) U^T, X^T X =
    Q diag(ev) Q^T and kappa = T lambda / 2 the minimizer is, in the
    eigenbasis, U (D o (U^T Y^T X Q)) with D_ij = s_i / (s_i ev_j + kappa):
    a direction with s_i = 0 stays 0. Near an optimum of full rank a step
    cuts the error several-fold; near a rank-deficient one it slows to a
    crawl, as the small s_i shrink only by a factor per step. The phase
    ends, and FISTA takes over from the last iterate, at the first step that
    fails to lower F (W is then kept), whose relative change ||W+ - W|| /
    ||W+|| is more than half the previous step's, or whose relative change
    falls to ``tol``. It is skipped when lambda = 0 or the run starts at 0.

    Each FISTA iteration takes one singular value thresholding step from the
    extrapolated point Y, giving a candidate Z. Z replaces the iterate W
    only if F(Z) <= F(W); otherwise W is kept and the momentum reset, so the
    objective trace never increases. The momentum is also reset when
    <Y - Z, Z - W> > 0, i.e. when the step points against the momentum
    (gradient restart). The run stops when the relative prox-gradient step
    ||Z - Y|| / ||Z||, a stationarity measure that does not depend on the
    scale of the data, falls to ``tol``; only this stop sets ``converged``.

    With X^T X = Q diag(ev) Q^T computed once, both phases run on W Q, where
    the product with X^T X is the column scaling by ev, and singular values
    come from the m x m Gram matrix: a step of either kind costs one m x m
    eigendecomposition, three products of an m x m with an m x mp matrix
    and elementwise work.

    Returns the folded (m, m, p) tensor, the best iterate. ``iterations``
    counts the steps of both phases against ``max_iter``, and
    ``reweighted_steps`` those of the first; each step adds one entry to
    ``objective_trace``. ``converged`` is False when the iteration cap is
    hit first, or when a plain FISTA step from W fails to lower F because
    rounding hides the decrease (a ``tol`` below working precision); the
    run then stops, as the step would repeat.
    """
    cfg = cfg or NnmConfig()
    m, p, n = design.m, design.p, design.n_samples
    lam = cfg.lambda_nn if cfg.lambda_nn is not None else _auto_nuclear_weight(design)

    cross, yty = design.cross, design.yty
    # gram = Q diag(ev) Q^T; eigenvalues of a singular gram can come out a
    # rounding error below zero, and a Gram matrix has none
    ev, q = np.linalg.eigh(design.gram)
    ev = np.maximum(ev, 0.0)
    lip = 2.0 * float(ev[-1]) / n
    if lip <= 0:
        # all-zero design: the prox of the nuclear norm at 0 is 0
        return NnmResult(
            w=np.zeros((m, m, p)),
            converged=True,
            iterations=0,
            objective_trace=np.array([yty / n]),
            lambda_nn=lam,
            reweighted_steps=0,
        )
    step = 1.0 / lip
    tau = lam * step

    # The loop runs on W Q. A right rotation leaves singular values, norms
    # and inner products unchanged, so the objective, restart and stop tests
    # read the same numbers as for W, while W gram becomes (W Q) diag(ev).
    cross = cross @ q
    shrink = 1.0 - (2.0 * step / n) * ev
    push = (2.0 * step / n) * cross

    def objective(w: np.ndarray, nuclear: float) -> float:
        quad = (yty - 2.0 * float(np.sum(cross * w)) + float(np.sum((w * w) @ ev))) / n
        return quad + lam * nuclear

    kappa = 0.5 * n * lam
    w = _linearized_start(cross, ev, kappa)
    s_w, v_w = _gram_singular(w)
    f_w = objective(w, float(np.sum(s_w)))
    if f_w > yty / n:  # F(0)
        w, f_w = np.zeros_like(w), yty / n
    trace = [f_w]
    iterations = 0
    # reweighted least-squares steps: Z minimizes the loss plus the
    # majorizer of the penalty at W, column by column in the eigenbasis
    if kappa > 0 and w.any():
        rel_prev = np.inf
        while iterations < cfg.max_iter:
            iterations += 1
            z = v_w @ (s_w[:, None] / (s_w[:, None] * ev + kappa) * (v_w.T @ cross))
            s_z, v_z = _gram_singular(z)
            f_z = objective(z, float(np.sum(s_z)))
            if not f_z < f_w:
                # a step cannot raise F: rounding hides the decrease
                trace.append(f_w)
                break
            rel = float(np.linalg.norm(z - w)) / float(np.linalg.norm(z))
            w, f_w, s_w, v_w = z, f_z, s_z, v_z
            trace.append(f_w)
            # a slow step means a rank-deficient optimum, where FISTA is faster
            if rel <= cfg.tol or rel > 0.5 * rel_prev:
                break
            rel_prev = rel
    reweighted_steps = iterations
    y = w
    t = 1.0
    converged = False
    for k in range(reweighted_steps, cfg.max_iter):
        z, s_z = svt(y * shrink + push, tau)
        f_z = objective(z, float(np.sum(s_z)))
        delta = float(np.linalg.norm(z - y))
        size = float(np.linalg.norm(z))
        rel = delta / size if size > 0 else (0.0 if delta == 0 else np.inf)
        iterations = k + 1
        accepted = f_z <= f_w
        if accepted:
            if float(np.sum((y - z) * (z - w))) > 0:
                t = 1.0
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = z + beta * (z - w)
            w, f_w, t = z, f_z, t_next
        trace.append(f_w)
        # a small step makes Z near-stationary; a rejected Z leaves a W
        # that is better still
        if rel <= cfg.tol:
            converged = True
            break
        if not accepted:
            if t == 1.0:
                # Y was W, and a plain step cannot raise F: rounding in F
                # hides any further decrease, and the step would repeat
                break
            y, t = w, 1.0
    return NnmResult(
        w=fold(w @ q.T, 1, (m, m, p)),
        converged=converged,
        iterations=iterations,
        objective_trace=np.asarray(trace),
        lambda_nn=lam,
        reweighted_steps=reweighted_steps,
    )


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive (first
    such index on ties); makes the SVD-based factors deterministic."""
    u = u.copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    return u


def hosvd(w: np.ndarray, ranks: tuple[int, int, int]) -> TuckerFactors:
    """Truncated higher-order SVD at the given multilinear ranks.

    Factor i holds the leading left singular vectors of the mode-i unfolding
    (thin SVD, deterministic sign convention); the core is the tensor
    multiplied by the factor transposes.
    """
    w = _require_tensor3(w)
    if np.ndim(ranks) != 1 or len(ranks) != 3:
        raise ValueError(f"ranks must be three positive integers, got {ranks!r}")
    ranks = tuple(_require_number("ranks", r, 1, closed=True, integer=True) for r in ranks)
    for i, r in enumerate(ranks):
        if r > w.shape[i]:
            raise ValueError(f"rank {r} exceeds mode-{i + 1} dimension {w.shape[i]}")
    factors = [
        _fix_column_signs(np.linalg.svd(unfold(w, i), full_matrices=False)[0][:, :r])
        for i, r in enumerate(ranks, start=1)
    ]
    core = w
    for i, a in enumerate(factors, start=1):
        core = mode_product(core, a.T, i)
    return TuckerFactors(core=core, a1=factors[0], a2=factors[1], a3=factors[2])


def ridge_constant(m: int, p: int, T: int) -> float:
    """Ridge offset sqrt(m p log(T) / (50 T)) used by the rank selector."""
    for name, value in (("m", m), ("p", p), ("T", T)):
        _require_number(name, value, 1, closed=True, integer=True)
    return math.sqrt(m * p * math.log(T) / (50.0 * T))


def select_ranks(w_init: np.ndarray, c_bar: float) -> tuple[int, int, int]:
    """Ridge-type ratio rank selector.

    Per mode i, returns the j in 1..n_i-1 minimizing
    (sigma_{j+1} + c_bar) / (sigma_j + c_bar) over the singular values of the
    mode-i unfolding (smallest j on ties), and 1 for a mode of size n_i = 1.
    """
    _require_number("c_bar", c_bar, 0)
    w_init = _require_tensor3(w_init)
    ranks = []
    for i, n_i in enumerate(w_init.shape, start=1):
        if n_i == 1:
            ranks.append(1)
            continue
        sigma = np.linalg.svd(unfold(w_init, i), compute_uv=False)
        if sigma.size < n_i:
            sigma = np.concatenate([sigma, np.zeros(n_i - sigma.size)])
        ratios = (sigma[1:n_i] + c_bar) / (sigma[: n_i - 1] + c_bar)
        ranks.append(int(np.argmin(ratios)) + 1)
    return tuple(ranks)


@dataclass
class LaplacianSet:
    """The three graph Laplacians (response, predictor, temporal)."""

    l1: np.ndarray
    l2: np.ndarray
    l3: np.ndarray

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.l1, self.l2, self.l3)

    def validate(self) -> None:
        for lap in self.as_tuple():
            if np.linalg.norm(lap - lap.T) > 1e-12 * max(1.0, np.linalg.norm(lap)):
                raise ValueError("Laplacian is not symmetric")
            if np.max(np.abs(lap.sum(axis=1))) > 1e-10:
                raise ValueError("Laplacian rows do not sum to zero")
            if np.linalg.eigvalsh(lap)[0] < -1e-8:
                raise ValueError("Laplacian is not positive semidefinite")


def laplacian_from_rows(a: np.ndarray, epsilon: float) -> np.ndarray:
    """Gaussian-kernel graph Laplacian L = D - Z over the rows of ``a``,
    with weights z_lt = exp(-||a_l - a_t||^2 / (2 epsilon^2))."""
    _require_number("epsilon", epsilon, 0)
    a = np.asarray(a, dtype=float)
    diff = a[:, None, :] - a[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    z = np.exp(-d2 / (2.0 * epsilon * epsilon))
    return np.diag(z.sum(axis=1)) - z


def build_laplacians(factors: TuckerFactors, epsilon: float) -> LaplacianSet:
    """One Laplacian per factor matrix, built from its rows."""
    return LaplacianSet(
        l1=laplacian_from_rows(factors.a1, epsilon),
        l2=laplacian_from_rows(factors.a2, epsilon),
        l3=laplacian_from_rows(factors.a3, epsilon),
    )
