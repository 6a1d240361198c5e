"""Dense reference forms that the tests hold the package to.

Each is the plain textbook form of a quantity that the package computes a
cheaper way: the full-tensor loss gradient, the seven partial gradients of
the smooth part and its value at any point (orthonormal or not), and the
(mp x mp) companion matrix whose spectrum ``spectral_radius`` reduces.
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


def grad_partials(state, design, cfg):
    """The seven partial gradients of the smooth part (loss plus coupling)
    at a common point, in block order (G, A1, A2, A3, U1, U2, U3): the
    coupling gradient gamma_k (U_k - A_k) for U_k, and its negative added to
    the loss gradient for A_k."""
    point = (state.core, state.a1, state.a2, state.a3)
    us, factors = (state.u1, state.u2, state.u3), (state.a1, state.a2, state.a3)
    couplings = [g * (u - a) for g, u, a in zip(cfg.gamma, us, factors)]
    factor_grads = [_block_gradient(k, *point, design) - couplings[k - 1] for k in (1, 2, 3)]
    return (_block_gradient(0, *point, design), *factor_grads, *couplings)


def psi_value(state, design, cfg):
    """Smooth part: quadratic loss plus the three coupling penalties, at any
    point (the loss is taken in W_(1), so the factors need not be
    orthonormal)."""
    w1 = state.a1 @ unfold(state.core, 1) @ kronecker(state.a3, state.a2).T
    quad = float(np.sum((w1 @ design.gram) * w1)) - 2.0 * float(np.sum(design.cross * w1))
    coupling = sum(
        0.5 * g * float(np.sum((u - a) ** 2))
        for g, u, a in zip(cfg.gamma, (state.u1, state.u2, state.u3), (state.a1, state.a2, state.a3))
    )
    return (design.yty + quad) / (2.0 * design.n_samples) + coupling


def companion_matrix(w):
    """(mp x mp) companion form of the lag polynomial: W_(1) as the top
    block row and the identity on the block subdiagonal. Rejects what every
    public transition-tensor function rejects."""
    w = _require_transition(w)
    m, _, p = w.shape
    c = np.eye(m * p, k=-m)
    c[:m] = unfold(w, 1)
    return c
