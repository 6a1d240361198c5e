"""VAR(p) data layer: lag design matrices, prediction, stability, simulation, MSE.

A transition tensor is an (m, m, p) array whose frontal slice ``w[:, :, i]``
is the lag-(i+1) coefficient matrix. A panel is a (T, m) array with one time
step per row.
"""

from __future__ import annotations

import math
import numbers
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import unfold

__all__ = [
    "PanelFormatError",
    "DesignPair",
    "build_design",
    "one_step_predictions",
    "train_scaler",
    "spectral_radius",
    "is_stable",
    "rescale_to_spectral_radius",
    "simulate",
    "forecast",
    "mse",
    "PRNG_ALGORITHM",
]

# np.random.default_rng
PRNG_ALGORITHM = "pcg64"


class PanelFormatError(ValueError):
    """Raised for a panel CSV that cannot be parsed or a panel too large to use."""


def _require_panel(panel: np.ndarray) -> np.ndarray:
    panel = np.asarray(panel, dtype=float)
    if panel.ndim != 2:
        raise ValueError("panel must be a (T, m) array")
    if not np.isfinite(panel).all():
        raise ValueError("panel contains non-finite entries")
    return panel


def _require_number(name: str, value, low=-math.inf, closed=False, integer=False):
    """``value`` if it is a real number within the float range, not a bool,
    above ``low`` (at least ``low`` when ``closed``) and, with ``integer``,
    integral, which is then returned as an ``int``; otherwise a ValueError
    naming ``name``."""
    kind = numbers.Integral if integer else numbers.Real
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not (finite and (low <= value if closed else low < value)):
        bound = "" if low == -math.inf else f" and {'>=' if closed else '>'} {low}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return int(value) if integer else value


def _require_transition(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 3 or w.shape[0] != w.shape[1] or w.size == 0:
        raise ValueError("transition tensor must have shape (m, m, p) with m, p >= 1")
    if not np.isfinite(w).all():
        raise ValueError("transition tensor contains non-finite entries")
    return w


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class DesignPair:
    """Stacked regression form of a VAR(p) fit.

    Row t of ``x`` is the lag vector (y_{t-1}, ..., y_{t-p}) and row t of
    ``y`` is the response y_t, for T samples.

    The least-squares loss sees the data only through the moments ``gram``
    (X^T X), ``cross`` (Y^T X) and ``yty`` (tr(Y^T Y)). Each is computed on
    first use and then kept, so ``x`` and ``y`` must not be modified after
    that; the cached arrays are read-only. This class forms the moments from
    ``x`` and ``y``; :func:`build_design` returns a :class:`LaggedDesign`,
    which forms them from the panel without building ``x``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x = x
        self.y = y

    @cached_property
    def gram(self) -> np.ndarray:
        """X^T X, (mp, mp)."""
        return _read_only(self.x.T @ self.x)

    @cached_property
    def cross(self) -> np.ndarray:
        """Y^T X, (m, mp)."""
        return _read_only(self.y.T @ self.x)

    @cached_property
    def yty(self) -> float:
        """tr(Y^T Y), the sum of squared responses."""
        return float(np.einsum("ij,ij->", self.y, self.y))

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def p(self) -> int:
        return self.x.shape[1] // self.y.shape[1]


class LaggedDesign(DesignPair):
    """The design of a VAR(p) fit to a (L, m) panel Z, backed by the panel.

    ``y`` is the view ``Z[p:]``; ``x`` is built only when read. The moments
    come from the p + 1 lagged products F_k = Z[k:]^T Z[:L-k]: block (i, j),
    i <= j, of the moment matrix of the lag-embedded panel [Y, X] sums
    z_{s+k} z_s^T, k = j - i, over s = p-j .. L-1-j, which is F_k less its
    first p - j and last i terms:

        F_k - Z[k : p-i]^T Z[:p-j] - Z[L-i:]^T Z[L-j : L-k]

    Blocks (0, j >= 1) form ``cross`` and blocks (i, j >= 1) form ``gram``,
    in O((p+1) L m^2) without any T x mp array. The panel must not be
    modified after the design is built.
    """

    def __init__(self, panel: np.ndarray, p: int) -> None:
        self.panel = panel
        self.y = panel[p:]
        self._p = p

    @property
    def p(self) -> int:
        return self._p

    @cached_property
    def x(self) -> np.ndarray:
        """The (T, mp) lag matrix, most recent lag first."""
        length = self.panel.shape[0]
        return np.hstack([self.panel[self.p - lag : length - lag] for lag in range(1, self.p + 1)])

    @cached_property
    def _moments(self) -> np.ndarray:
        """[Y, X]^T [Y, X], ((p+1) m, (p+1) m), from the lagged products."""
        z, p, m = self.panel, self.p, self.m
        length = z.shape[0]
        out = np.empty(((p + 1) * m, (p + 1) * m))
        for k in range(p + 1):
            f_k = z[k:].T @ z[: length - k]
            for i in range(p + 1 - k):
                j = i + k
                head = z[k : p - i].T @ z[: p - j]
                tail = z[length - i :].T @ z[length - j : length - k]
                block = f_k - head - tail
                out[j * m : (j + 1) * m, i * m : (i + 1) * m] = block.T
                out[i * m : (i + 1) * m, j * m : (j + 1) * m] = block
        return _read_only(out)

    @property
    def gram(self) -> np.ndarray:
        return self._moments[self.m :, self.m :]

    @property
    def cross(self) -> np.ndarray:
        return self._moments[: self.m, self.m :]


# Room for a panel's sum of squares, which bounds every entry of its moments:
# the sums of up to 2**16 of them that a fit forms stay finite.
_MOMENT_ROOM = 2.0**-16 * np.finfo(float).max


def _require_moment_scale(panel: np.ndarray) -> None:
    """A PanelFormatError for a panel whose sum of squares exceeds ``_MOMENT_ROOM``."""
    flat = panel.ravel()
    with np.errstate(over="ignore"):  # an overflow is refused below
        squares = float(flat @ flat)
    if not squares <= _MOMENT_ROOM:
        raise PanelFormatError(
            f"panel entries too large for the moments of a VAR fit: their sum of squares"
            f" {squares:.3g} exceeds {_MOMENT_ROOM:.3g}; standardize them first, as"
            " tuckervar fit --standardize does"
        )


def build_design(panel: np.ndarray, p: int) -> LaggedDesign:
    """The regression pair of a VAR(p) fit to a panel, backed by the panel
    (see :class:`LaggedDesign`): its moments come from p + 1 lagged products
    of the panel, ``x`` is built only when read, and the panel must not be
    modified afterwards. A panel too large for its moments to stay finite
    is a :class:`PanelFormatError`."""
    panel = _require_panel(panel)
    if p < 1:
        raise ValueError("lag order p must be >= 1")
    length = panel.shape[0]
    if length < p + 1:
        raise ValueError(f"panel of length {length} is too short for lag order {p}")
    _require_moment_scale(panel)
    return LaggedDesign(panel, p)


def predict_one_step(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Noise-free one-step prediction: mode-1 unfolding times the lag vector.

    Not exported: it is the reference the tests hold :func:`_recursion`'s
    bits to, and the benchmark's tracer wraps it by name."""
    w = _require_transition(w)
    x = np.asarray(x, dtype=float).ravel()
    m, _, p = w.shape
    if x.size != m * p:
        raise ValueError(f"lag vector of length {x.size}, expected {m * p}")
    return unfold(w, 1) @ x


def one_step_predictions(w: np.ndarray, panel: np.ndarray, start: int) -> np.ndarray:
    """Noise-free one-step predictions of rows ``start:`` of the panel, each
    from its true lagged values: the design rows of that tail times W_(1)^T.
    No moments are formed, so unlike :func:`build_design` this takes a panel
    of any scale."""
    w = _require_transition(w)
    m, _, p = w.shape
    if start < p:
        raise ValueError(f"first predicted row {start} precedes the lag order {p}")
    panel = _require_panel(panel)
    if start >= panel.shape[0]:
        raise ValueError(f"first predicted row {start} lies past the panel's {panel.shape[0]} rows")
    if panel.shape[1] != m:
        raise ValueError(f"panel has {panel.shape[1]} variables, transition tensor expects {m}")
    return LaggedDesign(panel[start - p :], p).x @ unfold(w, 1).T


def train_scaler(train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable mean and standard deviation of a training split; a
    constant variable gets standard deviation 1, so scaling only centres it.
    Both are taken of each column divided by a power of two near its largest
    magnitude (at most 2**1023), which is exact and keeps its squares finite."""
    train = _require_panel(train)
    peak = np.abs(train).max(axis=0, initial=0.0)
    unit = np.ldexp(1.0, np.minimum(np.frexp(peak)[1], 1023))
    scaled = train / unit
    std = scaled.std(axis=0) * unit
    return scaled.mean(axis=0) * unit, np.where(std > 0, std, 1.0)


def _standardized(panel: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """(panel - mean) / std, or a PanelFormatError when an entry overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = (panel - mean) / std
    if not np.isfinite(scaled).all():
        raise PanelFormatError("panel entries overflow when scaled to standard units")
    return scaled


def _companion(top: np.ndarray, p: int) -> np.ndarray:
    """The (kp x kp) matrix with top block row ``top`` (k x kp) and the
    identity on its block subdiagonal."""
    k = top.shape[0]
    c = np.zeros((k * p, k * p))
    c[:k, :] = top
    if p > 1:
        c[k:, : k * (p - 1)] = np.eye(k * (p - 1))
    return c


def spectral_radius(w: np.ndarray) -> float:
    """Spectral radius of the companion matrix C, taken in the rank of W_(1).

    Let r count the singular values of W_(1) = [W_1 ... W_p] above
    sigma_1 * mp * eps (numpy's ``matrix_rank`` tolerance), Q (m x r) span
    its numerical range and B be the (rp x rp) companion with top block row
    [Q^T W_1 Q ... Q^T W_p Q] and the identity on its subdiagonal. With
    P = I_p (x) Q, C P = P B: the range of P is invariant and C acts on the
    quotient as a nilpotent shift, so spec(C) is spec(B) and zeros, and the
    radius is max |eig(B)| (0 when r = 0). The singular values dropped are
    no larger than the backward error of ``eigvals`` on C itself. Q is the
    leading left singular vectors when r < m and the identity when r = m,
    where B is C. A tensor of mode-1 rank r costs a QR of W_(1)^T, SVDs of
    its m x m triangle and an (rp)-square eigvals, not the (mp)-square one.
    """
    w = _require_transition(w)
    m, _, p = w.shape
    top = unfold(w, 1)
    # W_(1)^T = Q_t R, so W_(1) = R^T Q_t^T has the singular values and left
    # singular vectors of the (m x m) R^T; the vectors are needed only at r < m
    rt = np.linalg.qr(top.T, mode="r").T
    sigma = np.linalg.svd(rt, compute_uv=False)
    r = int(np.count_nonzero(sigma > sigma[0] * m * p * np.finfo(float).eps))
    if r == 0:
        return 0.0
    if r < m:
        q = np.linalg.svd(rt)[0][:, :r]
        # block i of the top row is Q^T W_{i+1} Q; W_{i+1} is columns i*m .. (i+1)*m
        top = ((q.T @ top).reshape(r, p, m) @ q).reshape(r, r * p)
    return float(np.max(np.abs(np.linalg.eigvals(_companion(top, p)))))


def is_stable(w: np.ndarray, margin: float = 1e-8) -> bool:
    """True iff the companion spectral radius is at most 1 - margin. The
    radius comes from the companion reduced to the numerical rank of W_(1)
    (see :func:`spectral_radius`), whose spectrum is the full companion's
    less zeros, so the verdict is the dense one."""
    if not 0 < margin < 1:
        raise ValueError("margin must lie in (0, 1)")
    return spectral_radius(w) <= 1.0 - margin


def rescale_to_spectral_radius(w: np.ndarray, target: float) -> np.ndarray:
    """Scale slice i by s**(i+1) so the companion spectrum scales exactly by s.

    Useful to place a ground truth just inside the stability region without
    changing its Tucker ranks (the scaling is an invertible mode-3 multiply).
    """
    w = _require_transition(w)
    _require_number("target", target, 0)
    radius = spectral_radius(w)
    if radius == 0:
        raise ValueError("cannot rescale a nilpotent transition tensor to a positive radius")
    s = target / radius
    scaled = w.copy()
    for lag in range(w.shape[2]):
        scaled[:, :, lag] *= s ** (lag + 1)
    return scaled


def _psd_factor(covariance: np.ndarray) -> np.ndarray:
    covariance = np.asarray(covariance, dtype=float)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if not np.isfinite(covariance).all():
        raise ValueError("covariance entries must be finite")
    # entrywise, on C divided by a power of two above max(1, max|C|), so
    # that C - C^T cannot overflow
    top = max(1.0, float(np.max(np.abs(covariance), initial=0.0)))
    shift = np.frexp(top)[1]
    scaled = np.ldexp(covariance, -shift)
    if np.max(np.abs(scaled - scaled.T), initial=0.0) > 1e-12 * np.ldexp(top, -shift):
        raise ValueError("covariance must be symmetric")
    if not covariance.any():
        return np.zeros_like(covariance)
    # relative to the largest eigenvalue, whose size bounds the rounding in
    # the smallest; the exact scaling leaves the ratio unchanged
    eigvals = np.linalg.eigvalsh(scaled)
    if eigvals[0] < -1e-12 * eigvals[-1]:
        raise ValueError("covariance must be positive semidefinite")
    try:
        return np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        # semidefinite: eigendecomposition-based square root
        vals, vecs = np.linalg.eigh(covariance)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def _recursion(w1: np.ndarray, lags: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """The chain y_t = W_(1) (y_{t-1}, ..., y_{t-p}) + shock_t from the (p, m)
    stack ``lags`` (most recent first), one step per row of ``shocks``, in
    reverse time: row i < steps is step steps - 1 - i, and the p rows below
    it are its lag stack, one contiguous run of mp numbers.

    Those runs are the windows of one read-only view, taken m numbers apart,
    so a step is one BLAS matrix-vector product written into its row and one
    add of its shock in place, with no slice, copy or temporary. The product
    has the operands of :func:`predict_one_step`'s ``W_(1) @ x``, so each
    step has its bits."""
    steps, (p, m) = shocks.shape[0], lags.shape
    chain = np.empty((steps + p, m))
    chain[steps:] = lags
    stacks = sliding_window_view(chain.reshape(-1)[m:], m * p)[::m]
    dot, add = w1.dot, np.add
    for row, stack, shock in zip(chain[steps - 1 :: -1], stacks[::-1], shocks):
        dot(stack, out=row)
        add(row, shock, out=row)
    return chain


def simulate(
    w: np.ndarray,
    covariance: np.ndarray,
    length: int,
    seed,
    burn_in: int = 500,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Simulate a stationary VAR(p) panel.

    The chain starts from ``initial`` (a (p, m) stack of lag values, most
    recent lag first) or from zero lags, runs ``burn_in + length`` steps with
    i.i.d. Gaussian noise of the given covariance, and returns the last
    ``length`` rows. Deterministic given the seed (pcg64 generator). The
    recursion is :func:`forecast`'s, fed noise in place of zeros: each step
    is one BLAS matrix-vector product and one add of its shock, with the
    bits of :func:`predict_one_step` plus that shock.
    """
    w = _require_transition(w)
    m, _, p = w.shape
    length = _require_number("length", length, 1, closed=True, integer=True)
    burn_in = _require_number("burn_in", burn_in, 0, closed=True, integer=True)
    if not is_stable(w):
        raise ValueError("transition tensor is not stable; refusing to simulate")
    factor = _psd_factor(covariance)
    if factor.shape[0] != m:
        raise ValueError(f"covariance is {factor.shape[0]}x{factor.shape[0]}, expected {m}x{m}")

    lags = np.zeros((p, m)) if initial is None else np.asarray(initial, dtype=float)
    if lags.shape != (p, m):
        raise ValueError(f"initial lag stack must have shape ({p}, {m})")
    if not np.isfinite(lags).all():
        raise ValueError("initial lag stack entries must be finite")

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((burn_in + length, m)) @ factor.T
    # the chain is allocated after the noise, and the noise freed before the
    # forward copy, so that at most two (burn_in + length, m) arrays are held
    chain = _recursion(unfold(w, 1), lags, noise)
    del noise
    return chain[length - 1 :: -1].copy()


def forecast(w: np.ndarray, panel: np.ndarray, horizon: int) -> np.ndarray:
    """The (horizon, m) noise-free forecasts that follow the panel's last p
    rows: :func:`simulate`'s recursion fed zeros, one BLAS matrix-vector
    product per step, each with the bits of :func:`predict_one_step` on the
    rows before it. Forecasts that overflow (an unstable ``w``) are inf or
    NaN, without a numpy warning."""
    w = _require_transition(w)
    m, _, p = w.shape
    horizon = _require_number("horizon", horizon, 1, closed=True, integer=True)
    panel = _require_panel(panel)
    if panel.shape[1] != m:
        raise ValueError(f"panel has {panel.shape[1]} variables, transition tensor expects {m}")
    if panel.shape[0] < p:
        raise ValueError(f"panel needs at least {p} rows to seed the forecast")
    with np.errstate(over="ignore", invalid="ignore"):
        chain = _recursion(unfold(w, 1), panel[-p:][::-1], np.zeros((horizon, m)))
    return chain[horizon - 1 :: -1].copy()


def mse(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mean squared error (1 / (m T0)) sum_t ||truth_t - pred_t||^2 whenever it
    is a finite double, even if single squares are not; else a PanelFormatError."""
    truth = _require_panel(truth)
    pred = _require_panel(pred)
    if truth.shape != pred.shape:
        raise ValueError(f"panel shapes differ: {truth.shape} vs {pred.shape}")
    # residuals over a power of two near the largest: exact, with finite squares
    with np.errstate(over="ignore"):  # an overflow is refused below
        resid = truth - pred
        exp = np.frexp(np.abs(resid).max(initial=0.0))[1]
        value = float(np.ldexp(np.mean(np.ldexp(resid, -exp) ** 2), 2 * exp))
    if not math.isfinite(value):
        raise PanelFormatError(
            "mean squared error overflows the float range; compare standardized panels"
        )
    return value
