"""Everything the main solver needs before iterating.

Nuclear-norm initial estimator (started at the least-squares fit with its
penalty linearized, then reweighted least-squares steps that minimize a
majorizer of the nuclear norm in closed form, then monotone accelerated
proximal gradient with singular value thresholding, adaptive momentum
restart and a scale-free stationarity stop; all of it runs in the eigenbasis
of X^T X, so that an iteration costs one m x m eigendecomposition and a
column scaling by the eigenvalues), ridge-ratio rank selection and the
truncated higher-order SVD of the initial tensor, which :func:`initialize`
runs in a fit's order for ``fit_design`` and ``rank-select`` alike, and
Gaussian-kernel graph Laplacians built from factor rows.

The iteration loops take reductions through ndarray methods and Frobenius
norms through ``tensor._frobenius``, which returns what ``np.linalg.norm``
does bit for bit, without numpy's Python-level wrappers: an iteration on a
small problem costs little more than its eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import TuckerFactors, _frobenius, _require_tensor3, fold, mode_product, unfold
from .var import DesignPair, PanelFormatError, _require_number, _require_ranks

__all__ = [
    "svt",
    "NnmConfig",
    "NnmResult",
    "nnm_estimate",
    "hosvd",
    "ridge_constant",
    "select_ranks",
    "initialize",
    "laplacian_from_rows",
    "build_laplacians",
]


def _gram_singular(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (ascending) and left singular vectors of a wide
    matrix A, from the eigendecomposition of A A^T.

    The Gram matrix is taken of A divided by a power of two near its largest
    entry, which is exact and keeps A A^T from overflowing or underflowing;
    2**1023, the largest power of two, serves entries above it.
    """
    unit = math.ldexp(1.0, min(math.frexp(np.abs(a).max(initial=0.0))[1], 1023))
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
    if sigma.size == 0 or sigma[-1] <= tau:  # sigma is ascending
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
    scale = design.yty / (n * m)
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
    """:func:`nnm_estimate`'s best iterate ``w``, folded to (m, m, p), and
    ``stop``, the exit that ended the run: "tol" (the only one that sets
    ``converged``), "max_iter" or "rounding" (a plain FISTA step that rounding
    kept from lowering F). ``iterations`` counts the steps of both phases and
    ``reweighted_steps`` those of the first, one ``objective_trace`` entry each."""

    w: np.ndarray
    stop: str
    iterations: int
    objective_trace: np.ndarray
    lambda_nn: float
    reweighted_steps: int

    @property
    def converged(self) -> bool:
        return self.stop == "tol"


def _linearized_start(
    cross: np.ndarray, ev: np.ndarray, weight: float
) -> tuple[np.ndarray, np.ndarray]:
    """The start (cross - weight P) diag(ev)^+ of :func:`nnm_estimate` and
    the least-squares fit W_LS = cross diag(ev)^+ in the eigenbasis of
    X^T X, with P the polar factor U V^T of W_LS.

    The pseudo-inverse scales the columns above numpy's rank tolerance by
    1 / ev and zeroes the rest. The rows of U^T W_LS have the singular
    values as their norms, so scaling each to unit norm gives V^T; rows at
    or below the rank tolerance, whose direction is rounding, are dropped.
    """
    inv = np.zeros_like(ev)
    keep = ev > ev[-1] * (ev.size * np.finfo(float).eps)  # the same bits, without overflow
    inv[keep] = 1.0 / ev[keep]
    w_ls = cross * inv
    _, u = _gram_singular(w_ls)
    rows = u.T @ w_ls
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    live = norms > np.max(norms) * max(w_ls.shape) * np.finfo(float).eps
    polar = u @ np.divide(rows, norms, out=np.zeros_like(rows), where=live)
    with np.errstate(over="ignore"):  # nnm_estimate passes over a start that overflows
        return (cross - weight * polar) * inv, w_ls


def nnm_estimate(design: DesignPair, cfg: NnmConfig | None = None) -> NnmResult:
    """Minimize F(W) = (1/T) sum ||y_t - W x_t||^2 + lambda ||W||_* over the
    mode-1 unfolding W: reweighted least-squares steps while they shrink the
    error fast, then monotone accelerated proximal gradient (FISTA) with
    adaptive restart and the exact Lipschitz step.

    The run starts at W0 = (Y^T X - (T lambda / 2) P) (X^T X)^+, with P the
    polar factor U V^T of the least-squares fit W_LS = Y^T X (X^T X)^+ and
    the pseudo-inverse at numpy's rank tolerance. W0 minimizes the loss plus
    the penalty linearized at W_LS. When F(W0) > F(0) the run starts at W_LS
    instead, and at 0 only when F(W_LS) > F(0) too.
    ``objective_trace[0]`` is F at the start. A lambda for which T lambda / 2
    or lambda / L (L the Lipschitz constant of the loss gradient) is not
    finite is a ValueError naming ``lambda_nn``.

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
    and elementwise work. The run also ends at ``max_iter``, and at a plain
    FISTA step that rounding keeps from lowering F, as it would repeat.
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
            stop="tol",
            iterations=0,
            objective_trace=np.array([yty / n]),
            lambda_nn=lam,
            reweighted_steps=0,
        )
    step = 1.0 / lip
    tau = lam * step
    kappa = 0.5 * n * lam
    if not (math.isfinite(tau) and math.isfinite(kappa)):
        raise ValueError(f"lambda_nn={lam} overflows T lambda/2 = {kappa} or lambda/L = {tau}")

    # The loop runs on W Q. A right rotation leaves singular values, norms
    # and inner products unchanged, so the objective, restart and stop tests
    # read the same numbers as for W, while W gram becomes (W Q) diag(ev).
    cross = cross @ q
    shrink = 1.0 - (2.0 * step / n) * ev
    push = (2.0 * step / n) * cross

    def objective(w: np.ndarray, nuclear: float) -> float:
        quad = (yty - 2.0 * float((cross * w).sum()) + float(((w * w) @ ev).sum())) / n
        return quad + lam * nuclear

    # the start is the first of W0 and W_LS with F <= F(0), else 0. As
    # F(W) >= lam max|W_ij|, a candidate whose bound exceeds F(0), a
    # non-finite one too, is passed over before its SVD or F can overflow
    f_zero = yty / n
    w, f_w, s_w, v_w = np.zeros_like(cross), f_zero, None, None
    for candidate in _linearized_start(cross, ev, kappa):
        if not lam * float(np.abs(candidate).max()) <= f_zero:
            continue
        s_c, v_c = _gram_singular(candidate)
        f_c = objective(candidate, float(s_c.sum()))
        if f_c <= f_zero:
            w, f_w, s_w, v_w = candidate, f_c, s_c, v_c
            break
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
            f_z = objective(z, float(s_z.sum()))
            if not f_z < f_w:
                # a step cannot raise F: rounding hides the decrease
                trace.append(f_w)
                break
            rel = _frobenius(z - w) / _frobenius(z)
            w, f_w, s_w, v_w = z, f_z, s_z, v_z
            trace.append(f_w)
            # a slow step means a rank-deficient optimum, where FISTA is faster
            if rel <= cfg.tol or rel > 0.5 * rel_prev:
                break
            rel_prev = rel
    reweighted_steps = iterations
    y = w
    t = 1.0
    stop = "max_iter"
    for k in range(reweighted_steps, cfg.max_iter):
        z, s_z = svt(y * shrink + push, tau)
        f_z = objective(z, float(s_z.sum()))
        delta = _frobenius(z - y)
        size = _frobenius(z)
        rel = delta / size if size > 0 else (0.0 if delta == 0 else np.inf)
        iterations = k + 1
        accepted = f_z <= f_w
        if accepted:
            if float(((y - z) * (z - w)).sum()) > 0:
                t = 1.0
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            y = z + beta * (z - w)
            w, f_w, t = z, f_z, t_next
        trace.append(f_w)
        # a small step makes Z near-stationary; a rejected Z leaves a W
        # that is better still
        if rel <= cfg.tol:
            stop = "tol"
            break
        if not accepted:
            if t == 1.0:
                # Y was W, and a plain step cannot raise F: rounding in F
                # hides any further decrease, and the step would repeat
                stop = "rounding"
                break
            y, t = w, 1.0
    return NnmResult(
        w=fold(w @ q.T, 1, (m, m, p)),
        stop=stop,
        iterations=iterations,
        objective_trace=np.asarray(trace),
        lambda_nn=lam,
        reweighted_steps=reweighted_steps,
    )


def _fix_column_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive (first
    such index on ties); makes the SVD-based factors deterministic."""
    return u * np.where(u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])] < 0, -1.0, 1.0)


def _unfolding_spectra(w: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Singular values (descending) and left singular vectors of the three
    unfoldings of w, from the eigendecomposition of each n_i x n_i Gram."""
    return [(s[::-1], u[:, ::-1]) for s, u in (_gram_singular(unfold(w, i)) for i in (1, 2, 3))]


def _require_ranks_within(ranks, dims: tuple[int, int, int]) -> tuple[int, int, int]:
    """``ranks`` as three positive ints, none above its mode's dimension."""
    ranks = _require_ranks(ranks)
    for i, (r, n) in enumerate(zip(ranks, dims)):
        if r > n:
            raise ValueError(f"rank {r} exceeds mode-{i + 1} dimension {n}")
    return ranks


def hosvd(w: np.ndarray, ranks: tuple[int, int, int], *, spectra=None) -> TuckerFactors:
    """Truncated higher-order SVD at the given multilinear ranks.

    Factor i holds the leading r_i left singular vectors of the mode-i
    unfolding, the eigenvectors of its n_i x n_i Gram matrix (sign fixed);
    the core is the tensor times the factor transposes. A tall mode, whose
    unfolding has fewer columns than r_i, is completed by the Gram's null
    eigenvectors, orthonormal columns whose core slices are zero.
    ``spectra``, ``_unfolding_spectra(w)``, lets a fit share them.
    """
    w = _require_tensor3(w)
    ranks = _require_ranks_within(ranks, w.shape)
    spectra = _unfolding_spectra(w) if spectra is None else spectra
    factors = [_fix_column_signs(u[:, :r]) for (_, u), r in zip(spectra, ranks)]
    core = w
    for i, a in enumerate(factors, start=1):
        core = mode_product(core, a.T, i)
    return TuckerFactors(core=core, a1=factors[0], a2=factors[1], a3=factors[2])


def ridge_constant(m: int, p: int, T: int) -> float:
    """Ridge offset sqrt(m p log(T) / (50 T)) used by the rank selector. It
    is 0 at T = 1, so T < 2 samples is a PanelFormatError."""
    for name, value in (("m", m), ("p", p), ("T", T)):
        _require_number(name, value, 1, closed=True, integer=True)
    if T < 2:
        raise PanelFormatError("rank selection needs at least 2 samples (p + 2 panel rows)")
    return math.sqrt(m * p * math.log(T) / (50.0 * T))


def select_ranks(w_init: np.ndarray, c_bar: float, *, spectra=None) -> tuple[int, int, int]:
    """Ridge-type ratio rank selector: per mode i, the j in 1..n_i-1 minimizing
    (sigma_{j+1} + c_bar) / (sigma_j + c_bar) over the mode-i unfolding's n_i
    singular values (smallest j on ties), or 1 when n_i = 1. They come from
    its Gram, as in :func:`hosvd` (and ``spectra`` as there), resolved to
    about sqrt(eps) sigma_1 as in :func:`svt`: far below c_bar (0.02 to 0.2
    at the benchmark's sizes)."""
    _require_number("c_bar", c_bar, 0)
    w_init = _require_tensor3(w_init)
    spectra = _unfolding_spectra(w_init) if spectra is None else spectra
    return tuple(
        int(np.argmin((s[1:] + c_bar) / (s[:-1] + c_bar))) + 1 if s.size > 1 else 1
        for s, _ in spectra
    )


def initialize(
    design: DesignPair, ranks: tuple[int, int, int] | str, nnm_cfg: NnmConfig | None = None
) -> tuple[NnmResult, tuple[int, int, int], float | None, TuckerFactors]:
    """The start of a fit, ``(nnm, ranks, c_bar, init)``. Ranks "auto" take
    c_bar = :func:`ridge_constant`, and a fixed triple (c_bar None) must fit in
    (m, m, p), before :func:`nnm_estimate` runs; :func:`select_ranks` and the
    :func:`hosvd` ``init`` share one Gram eigendecomposition per unfolding."""
    auto = isinstance(ranks, str) and ranks == "auto"
    c_bar = ridge_constant(design.m, design.p, design.n_samples) if auto else None
    ranks = ranks if auto else _require_ranks_within(ranks, (design.m, design.m, design.p))
    nnm = nnm_estimate(design, nnm_cfg)
    spectra = _unfolding_spectra(nnm.w)
    if auto:
        ranks = select_ranks(nnm.w, c_bar, spectra=spectra)
    return nnm, ranks, c_bar, hosvd(nnm.w, ranks, spectra=spectra)


def laplacian_from_rows(a: np.ndarray, epsilon: float) -> np.ndarray:
    """Gaussian-kernel graph Laplacian L = D - Z over the rows of ``a``,
    with weights z_lt = exp(-||a_l - a_t||^2 / (2 epsilon^2)). A weight whose
    exponent would exceed 746, where exp underflows to 0, is set to 0 without
    a division, so a 2 epsilon^2 that underflows gives the kernel's limit (1
    between coinciding rows, 0 elsewhere) with no overflow and no 0/0."""
    _require_number("epsilon", epsilon, 0)
    a = np.asarray(a, dtype=float)
    diff = a[:, None, :] - a[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    scale = 2.0 * epsilon * epsilon
    near = d2 <= 746.0 * scale
    quotient = np.divide(d2, scale, out=np.where(near, 0.0, np.inf), where=near & (d2 > 0))
    z = np.exp(-quotient)
    return np.diag(z.sum(axis=1)) - z


def build_laplacians(
    factors: TuckerFactors, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Laplacians (L1, L2, L3) of the response, predictor and temporal
    factors, each built from its factor's rows."""
    return tuple(laplacian_from_rows(a, epsilon) for a in (factors.a1, factors.a2, factors.a3))
