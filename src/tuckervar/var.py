"""VAR(p) data layer: lag design matrices, prediction, stability, simulation, MSE.

A transition tensor is an (m, m, p) array whose frontal slice ``w[:, :, i]``
is the lag-(i+1) coefficient matrix. A panel is a (T, m) array with one time
step per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import unfold

__all__ = [
    "DesignPair",
    "build_design",
    "predict_one_step",
    "one_step_predictions",
    "train_scaler",
    "companion_matrix",
    "spectral_radius",
    "is_stable",
    "rescale_to_spectral_radius",
    "simulate",
    "mse",
    "PRNG_ALGORITHM",
]

# np.random.default_rng
PRNG_ALGORITHM = "pcg64"


def _require_panel(panel: np.ndarray) -> np.ndarray:
    panel = np.asarray(panel, dtype=float)
    if panel.ndim != 2:
        raise ValueError("panel must be a (T, m) array")
    if not np.isfinite(panel).all():
        raise ValueError("panel contains non-finite entries")
    return panel


def _require_transition(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 3 or w.shape[0] != w.shape[1]:
        raise ValueError("transition tensor must have shape (m, m, p)")
    return w


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class DesignPair:
    """Stacked regression form of a VAR(p) panel.

    Row t of ``x`` is the lag vector (y_{t-1}, ..., y_{t-p}) and row t of
    ``y`` is the response y_t, for the T = len(panel) - p usable times.

    The least-squares loss sees the data only through the moments ``gram``,
    ``cross`` and ``yty``. Each is computed on first use and then kept, so
    ``x`` and ``y`` must not be modified after that; the cached arrays are
    read-only.
    """

    x: np.ndarray
    y: np.ndarray

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
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def p(self) -> int:
        return self.x.shape[1] // self.y.shape[1]


def build_design(panel: np.ndarray, p: int) -> DesignPair:
    """Build the (X, Y) regression pair of a VAR(p) fit from a panel."""
    panel = _require_panel(panel)
    if p < 1:
        raise ValueError("lag order p must be >= 1")
    length = panel.shape[0]
    if length < p + 1:
        raise ValueError(f"panel of length {length} is too short for lag order {p}")
    x = np.hstack([panel[p - lag : length - lag] for lag in range(1, p + 1)])
    y = panel[p:]
    return DesignPair(x=x, y=y)


def predict_one_step(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Noise-free one-step prediction: mode-1 unfolding times the lag vector."""
    w = _require_transition(w)
    x = np.asarray(x, dtype=float).ravel()
    m, _, p = w.shape
    if x.size != m * p:
        raise ValueError(f"lag vector of length {x.size}, expected {m * p}")
    return unfold(w, 1) @ x


def one_step_predictions(w: np.ndarray, panel: np.ndarray, start: int) -> np.ndarray:
    """Noise-free one-step predictions of rows ``start:`` of the panel, each
    from its true lagged values: the design rows of that tail times W_(1)^T."""
    w = _require_transition(w)
    m, _, p = w.shape
    if start < p:
        raise ValueError(f"first predicted row {start} precedes the lag order {p}")
    design = build_design(panel[start - p :], p)
    if design.m != m:
        raise ValueError(f"panel has {design.m} variables, transition tensor expects {m}")
    return design.x @ unfold(w, 1).T


def train_scaler(train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable mean and standard deviation of a training split; a
    constant variable gets standard deviation 1, so scaling only centres it."""
    train = _require_panel(train)
    std = train.std(axis=0)
    return train.mean(axis=0), np.where(std > 0, std, 1.0)


def companion_matrix(w: np.ndarray) -> np.ndarray:
    """(mp x mp) companion form of the lag polynomial."""
    w = _require_transition(w)
    m, _, p = w.shape
    c = np.zeros((m * p, m * p))
    c[:m, :] = unfold(w, 1)
    if p > 1:
        c[m:, : m * (p - 1)] = np.eye(m * (p - 1))
    return c


def spectral_radius(w: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(companion_matrix(w)))))


def is_stable(w: np.ndarray, margin: float = 1e-8) -> bool:
    """True iff the companion spectral radius is at most 1 - margin."""
    if not 0 < margin < 1:
        raise ValueError("margin must lie in (0, 1)")
    return spectral_radius(w) <= 1.0 - margin


def rescale_to_spectral_radius(w: np.ndarray, target: float) -> np.ndarray:
    """Scale slice i by s**(i+1) so the companion spectrum scales exactly by s.

    Useful to place a ground truth just inside the stability region without
    changing its Tucker ranks (the scaling is an invertible mode-3 multiply).
    """
    w = _require_transition(w)
    if target <= 0:
        raise ValueError("target radius must be positive")
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
    if np.linalg.norm(covariance - covariance.T) > 1e-12 * max(1.0, np.linalg.norm(covariance)):
        raise ValueError("covariance must be symmetric")
    if not covariance.any():
        return np.zeros_like(covariance)
    eigvals = np.linalg.eigvalsh(covariance)
    if eigvals[0] < -1e-12:
        raise ValueError("covariance must be positive semidefinite")
    try:
        return np.linalg.cholesky(covariance)
    except np.linalg.LinAlgError:
        # semidefinite: eigendecomposition-based square root
        vals, vecs = np.linalg.eigh(covariance)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


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
    ``length`` rows. Deterministic given the seed (pcg64 generator).
    """
    w = _require_transition(w)
    m, _, p = w.shape
    if length < 1:
        raise ValueError("length must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if not is_stable(w):
        raise ValueError("transition tensor is not stable; refusing to simulate")
    factor = _psd_factor(covariance)
    if factor.shape[0] != m:
        raise ValueError(f"covariance is {factor.shape[0]}x{factor.shape[0]}, expected {m}x{m}")

    if initial is None:
        lags = np.zeros((p, m))
    else:
        lags = np.array(initial, dtype=float)
        if lags.shape != (p, m):
            raise ValueError(f"initial lag stack must have shape ({p}, {m})")

    rng = np.random.default_rng(seed)
    total = burn_in + length
    noise = rng.standard_normal((total, m)) @ factor.T
    w1 = unfold(w, 1)
    out = np.empty((total, m))
    for t in range(total):
        y = w1 @ lags.ravel() + noise[t]
        out[t] = y
        if p > 1:
            lags[1:] = lags[:-1].copy()
        lags[0] = y
    return out[burn_in:]


def mse(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mean squared error (1 / (m T0)) sum_t ||truth_t - pred_t||^2."""
    truth = _require_panel(truth)
    pred = _require_panel(pred)
    if truth.shape != pred.shape:
        raise ValueError(f"panel shapes differ: {truth.shape} vs {pred.shape}")
    return float(np.mean((truth - pred) ** 2))
