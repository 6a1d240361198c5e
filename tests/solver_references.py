"""Dense reference forms that the tests hold the package to.

Each is the plain textbook form of a quantity that the package computes a
cheaper way: the full-tensor loss gradient, the dense graph penalty
matrix, the four partial gradients of the smooth part and its value at any
point (orthonormal or not), and the (mp x mp) companion matrix whose
spectrum ``spectral_radius`` reduces.
"""

import numpy as np

from tuckervar import fold, kronecker, unfold
from tuckervar.solver import _block_gradient
from tuckervar.var import _require_transition


def grad_Q_full(w, design):
    """Gradient of the quadratic loss with respect to the full transition
    tensor; its mode-1 unfolding is (1/T) sum (W_(1) x_t - y_t) x_t^T =
    (W_(1) X^T X - Y^T X) / T, formed from the design's moments."""
    w = np.asarray(w, dtype=float)
    m, _, p = w.shape
    if (design.m, design.p) != (m, p):
        raise ValueError("design dimensions do not match the transition tensor")
    grad = (unfold(w, 1) @ design.gram - design.cross) / design.n_samples
    return fold(grad, 1, (m, m, p))


def dense_penalty(lap, alpha, gamma):
    """Lt = alpha gamma L (2 alpha L + gamma I)^{-1} as a dense matrix, by a
    linear solve (L commutes with 2 alpha L + gamma I)."""
    system = 2.0 * alpha * lap + gamma * np.eye(lap.shape[0])
    return alpha * gamma * np.linalg.solve(system, lap)


def _penalties(lap, cfg):
    return [dense_penalty(l, a_w, g) for l, a_w, g in zip(lap.as_tuple(), cfg.alpha, cfg.gamma)]


def grad_partials(state, design, lap, cfg):
    """The four partial gradients of the smooth part (loss plus graph
    penalty) at a common point, in block order (G, A1, A2, A3): the graph
    penalty's gradient 2 Lt_k A_k, from the dense Lt_k, added to the loss
    gradient for A_k."""
    point = (state.core, state.a1, state.a2, state.a3)
    factors = point[1:]
    factor_grads = [
        _block_gradient(k, *point, design) + 2.0 * lt @ factors[k - 1]
        for k, lt in enumerate(_penalties(lap, cfg), start=1)
    ]
    return (_block_gradient(0, *point, design), *factor_grads)


def psi_value(state, design, lap, cfg):
    """Smooth part: quadratic loss plus the three graph penalties
    tr(A_k^T Lt_k A_k) from the dense Lt_k, at any point (the loss is taken
    in W_(1), so the factors need not be orthonormal)."""
    w1 = state.a1 @ unfold(state.core, 1) @ kronecker(state.a3, state.a2).T
    quad = float(np.sum((w1 @ design.gram) * w1)) - 2.0 * float(np.sum(design.cross * w1))
    penalty = sum(
        float(np.trace(a.T @ lt @ a))
        for lt, a in zip(_penalties(lap, cfg), (state.a1, state.a2, state.a3))
    )
    return (design.yty + quad) / (2.0 * design.n_samples) + penalty


def companion_matrix(w):
    """(mp x mp) companion form of the lag polynomial: W_(1) as the top
    block row and the identity on the block subdiagonal. Rejects what every
    public transition-tensor function rejects."""
    w = _require_transition(w)
    m, _, p = w.shape
    c = np.eye(m * p, k=-m)
    c[:m] = unfold(w, 1)
    return c
