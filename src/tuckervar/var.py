"""VAR(p) data layer: lag design matrices, prediction, stability, simulation, MSE.

A transition tensor is an (m, m, p) array whose frontal slice ``w[:, :, i]``
is the lag-(i+1) coefficient matrix. A panel is a (T, m) array with one time
step per row.

A fit sees its panel only through the design's moment matrix
M = [Y, X]^T [Y, X], which :func:`build_design` forms in its one pass over
the panel, from p + 1 lagged products (a long panel's from its rows folded q
steps at a time: :func:`_lagged_products`, :func:`_fold_steps`); the trace
of the lag-0 product, the panel's sum of squares, checks the panel too.
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
    "train_rows",
    "held_out_mse",
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
    """Raised for a data file, panel or model, that cannot be used."""


def _as_panel(panel: np.ndarray) -> np.ndarray:
    panel = np.asarray(panel, dtype=float)
    if panel.ndim != 2:
        raise ValueError("panel must be a (T, m) array")
    return panel


def _require_panel(panel: np.ndarray) -> np.ndarray:
    panel = _as_panel(panel)
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


def _require_ranks(ranks) -> tuple[int, int, int]:
    """``ranks`` as three positive ints, or a ValueError naming ``ranks``."""
    if np.ndim(ranks) != 1 or len(ranks) != 3:
        raise ValueError(f"ranks must be three positive integers, got {ranks!r}")
    return tuple(_require_number("ranks", r, 1, closed=True, integer=True) for r in ranks)


def _require_transition(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.ndim != 3 or w.shape[0] != w.shape[1] or w.size == 0:
        raise ValueError("transition tensor must have shape (m, m, p) with m, p >= 1")
    if not np.isfinite(w).all():
        raise ValueError("transition tensor contains non-finite entries")
    return w


class DesignPair:
    """Stacked regression form of a VAR(p) fit.

    Row t of ``x`` is the lag vector (y_{t-1}, ..., y_{t-p}) and row t of
    ``y`` is the response y_t, for T samples.

    The least-squares loss sees the data only through the moment matrix
    M = [Y, X]^T [Y, X], formed on first use and then kept read-only:
    ``gram`` (X^T X) and ``cross`` (Y^T X) are views of it and ``yty``
    (tr(Y^T Y)) is the trace of its (0, 0) block, so ``x`` and ``y`` must not
    be modified once it is formed. This class forms M from ``x`` and ``y``
    stacked; :func:`build_design` returns a :class:`LaggedDesign`, which
    forms it from the panel without building ``x``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        self.x = x
        self.y = y

    @cached_property
    def _moments(self) -> np.ndarray:
        """M = [Y, X]^T [Y, X], ((p+1) m, (p+1) m), read-only."""
        moments = self._form_moments()
        moments.flags.writeable = False
        return moments

    def _form_moments(self) -> np.ndarray:
        stacked = np.hstack([self.y, self.x])
        return stacked.T @ stacked

    @property
    def gram(self) -> np.ndarray:
        """X^T X, (mp, mp)."""
        return self._moments[self.m :, self.m :]

    @property
    def cross(self) -> np.ndarray:
        """Y^T X, (m, mp)."""
        return self._moments[: self.m, self.m :]

    @property
    def yty(self) -> float:
        """tr(Y^T Y), the sum of squared responses."""
        return float(np.trace(self._moments[: self.m, : self.m]))

    @property
    def n_samples(self) -> int:
        return self.y.shape[0]

    @property
    def m(self) -> int:
        return self.y.shape[1]

    @property
    def p(self) -> int:
        return self.x.shape[1] // self.y.shape[1]


def _fold_steps(panel: np.ndarray, p: int) -> int:
    """The q of :func:`_lagged_products` for a (L, m) panel: min(2p, 192 // m,
    L // 1024) steps per row for a panel of at least 2**17 entries, else 1.

    Measured on one BLAS thread of a Xeon with 2 MiB of L2 per core: below
    ~2**17 entries the p + 1 thin products run from cache at 30-40 GF/s and
    folding gains nothing; above it each of them streams the panel, and one
    pass over it in rows ~200 wide (qm <= 192) runs at twice that. Past 2p
    steps, or under 1024 rows per step, the extra multiply-adds and the
    q(p + 1) blocks summed cost more than the width gains. m = 1 keeps q = 1,
    as its lagged products are dot products that no matrix product beats, and
    so does a panel whose rows are not one contiguous run, which the fold
    would copy."""
    length, m = panel.shape
    q = min(2 * p, 192 // m, length // 1024)
    if q < 2 or m < 2 or length * m < 2**17 or not panel.flags.c_contiguous:
        return 1
    return q


def _lagged_products(z: np.ndarray, p: int, q: int) -> list[np.ndarray]:
    """F_k = Z[k:]^T Z[:L-k], k = 0..p, from the panel folded into rows of q
    steps: Z_q = Z[:nq].reshape(n, qm), n = L // q, whose row r is
    (z_{rq}, ..., z_{rq+q-1}). Block (a, b) of C_d = Z_q[d:]^T Z_q[:n-d]
    sums z_{s+k} z_s^T over s = b (mod q), s + k < nq, for k = dq + a - b,
    so F_k is the sum of the blocks with that k, over d = 0..ceil(p/q), plus
    one product for the pairs that reach the last L - nq rows. C_0 is a
    symmetric rank-k update, and of each C_d only the rows and columns of
    blocks with k <= p are formed. q = 1 is the p + 1 products themselves."""
    length, m = z.shape
    n = length // q
    folded = z[: n * q].reshape(n, q * m)
    blocks = [[] for _ in range(p + 1)]
    for d in range(min(-(-p // q), n - 1) + 1):
        # rows a < hi and columns b >= lo hold every block with k <= p
        lo, hi = max(0, d * q - p), min(q, p + q - d * q)
        c = folded[d:, : hi * m].T @ folded[: n - d, lo * m :]
        for a in range(hi):
            for b in range(max(lo, a + d * q - p), min(q, a + d * q + 1)):
                blocks[a + d * q - b].append(c[a * m : (a + 1) * m, (b - lo) * m : (b - lo + 1) * m])
    if n * q < length:
        for k, parts in enumerate(blocks):
            start = max(n * q, k)
            parts.append(z[start:].T @ z[start - k : length - k])
    return [sum(parts[1:], parts[0]) for parts in blocks]


class LaggedDesign(DesignPair):
    """The design of a VAR(p) fit to a (L, m) panel Z, backed by the panel.

    ``y`` is the view ``Z[p:]``; ``x`` is built only when read. M comes from
    the p + 1 lagged products F_k = Z[k:]^T Z[:L-k]: its block (i, j), i <= j,
    sums z_{s+k} z_s^T, k = j - i, over s = p-j .. L-1-j, which is F_k less
    its first p - j and last i terms:

        F_k - Z[k : p-i]^T Z[:p-j] - Z[L-i:]^T Z[L-j : L-k]

    in O((p+1) L m^2) without any T x mp array. The F_k come from the panel
    folded into rows of q consecutive steps (:func:`_lagged_products`), a
    free view, so that one wide symmetric product and ceil(p/q) more replace
    p + 1 products m wide; :func:`_fold_steps` sets q from (m, p, L), and
    q = 1 on short or wide panels is the p + 1 products. Before anything is
    formed from the F_k, a panel whose sum of squares tr(F_0) is not within
    ``_MOMENT_ROOM`` is refused: a ValueError when an entry is not finite,
    else a PanelFormatError. The panel must not be modified afterwards.
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
        return _lag_rows(self.panel, self.p)

    def _form_moments(self) -> np.ndarray:
        z, p, m = self.panel, self.p, self.m
        length = z.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):  # such a panel is refused below
            products = _lagged_products(z, p, _fold_steps(z, p))
            squares = float(np.trace(products[0]))
        if not squares <= _MOMENT_ROOM:
            _require_panel(z)
            raise PanelFormatError(
                f"panel entries too large for the moments of a VAR fit: their sum of squares"
                f" {squares:.3g} exceeds {_MOMENT_ROOM:.3g}; standardize them first, as"
                " tuckervar fit --standardize does"
            )
        out = np.empty(((p + 1) * m, (p + 1) * m))
        for k, f_k in enumerate(products):
            for i in range(p + 1 - k):
                j = i + k
                head = z[k : p - i].T @ z[: p - j]
                tail = z[length - i :].T @ z[length - j : length - k]
                block = f_k - head - tail
                out[j * m : (j + 1) * m, i * m : (i + 1) * m] = block.T
                out[i * m : (i + 1) * m, j * m : (j + 1) * m] = block
        return out


def _lag_rows(panel: np.ndarray, p: int) -> np.ndarray:
    """The (L - p, mp) lag rows of a (L, m) panel: row t is (z_{t+p-1}, ...,
    z_t), most recent first."""
    length = panel.shape[0]
    return np.hstack([panel[p - lag : length - lag] for lag in range(1, p + 1)])


# Room for a panel's sum of squares S = tr(F_0), which bounds every entry of
# its moments: the sums of up to 2**16 of them that a fit forms stay finite.
# Nothing is summed past the F_k before S is checked, and S bounds their
# folded blocks and running sums too: each sums z_{s+k,i} z_{s,j} over a set
# of s, so Cauchy-Schwarz bounds it by S, as it bounds the edge terms.
_MOMENT_ROOM = 2.0**-16 * np.finfo(float).max


def _require_rows(length: int, p) -> int:
    """``p`` as an int >= 1 (else a ValueError), for ``length`` rows that hold
    a VAR(p) sample (else a PanelFormatError)."""
    p = _require_number("lag order p", p, 1, closed=True, integer=True)
    if length < p + 1:
        raise PanelFormatError(f"a VAR({p}) fit needs at least {p + 1} rows, got {length}")
    return p


def build_design(panel: np.ndarray, p: int) -> LaggedDesign:
    """The regression pair of a VAR(p) fit to a panel, backed by the panel
    (see :class:`LaggedDesign`), with its moment matrix formed in the one
    pass over the panel; ``x`` is built only when read, and the panel must
    not be modified afterwards. A non-finite panel is a ValueError; one of
    fewer than p + 1 rows, or too large for its moments to stay finite, is a
    :class:`PanelFormatError`."""
    panel = _as_panel(panel)
    design = LaggedDesign(panel, _require_rows(panel.shape[0], p))
    design._moments  # the one pass over the panel, which checks it
    return design


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
    of any scale. Only the predictions and one block of lag rows (about
    2**15 entries, in :func:`_recursion`'s blocks) are held."""
    w = _require_transition(w)
    m, _, p = w.shape
    start = _require_number("first predicted row", start, integer=True)
    if start < p:
        raise ValueError(f"first predicted row {start} precedes the lag order {p}")
    panel = _require_panel(panel)
    if start >= panel.shape[0]:
        raise ValueError(f"first predicted row {start} lies past the panel's {panel.shape[0]} rows")
    if panel.shape[1] != m:
        raise ValueError(f"panel has {panel.shape[1]} variables, transition tensor expects {m}")
    w1t, out, done = unfold(w, 1).T, np.empty((panel.shape[0] - start, m)), 0
    for b in _block_sizes(len(out), m * p):
        window = panel[start + done - p : start + done + b]
        # this block's lag rows are freed before the next block's are formed
        np.matmul(_lag_rows(window, p), w1t, out=out[done : done + b])
        done += b
    return out


def train_rows(length: int, p: int, fraction: float) -> int:
    """The int(fraction * length) leading rows of a panel that a VAR(p) fit
    trains on, the tail held out: a ValueError unless 0 < fraction < 1, and
    a PanelFormatError when short of p + 1 rows, as in :func:`build_design`."""
    if not 0 < fraction < 1:
        raise ValueError(f"train fraction must lie in (0, 1), got {fraction!r}")
    _require_rows(n_train := int(fraction * length), p)
    return n_train


def held_out_mse(w: np.ndarray, panel: np.ndarray, n_train: int) -> float:
    """The :func:`mse` of the :func:`one_step_predictions` of rows ``n_train:``,
    scored in the predictions' array: it holds one array the size of that tail."""
    pred = _require_panel(one_step_predictions(w, panel, n_train))
    return _mean_square(panel[n_train:], pred, out=pred)


def train_scaler(train: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-variable mean and standard deviation of a training split; a
    constant variable gets standard deviation 1, so scaling only centres it.
    Both are taken of each column divided by a power of two near its largest
    magnitude (at most 2**1023), which is exact and keeps its squares finite.
    That one scaled copy is then centred and squared in place, numpy's own
    ``std`` arithmetic, so only one array the size of the split is held."""
    train = _require_panel(train)
    peak = np.abs(train).max(axis=0, initial=0.0)
    unit = np.ldexp(1.0, np.minimum(np.frexp(peak)[1], 1023))
    scaled = train / unit
    mean = scaled.mean(axis=0)
    np.square(np.subtract(scaled, mean, out=scaled), out=scaled)
    std = np.sqrt(scaled.mean(axis=0)) * unit
    return mean * unit, np.where(std > 0, std, 1.0)


def _standardized(panel: np.ndarray, mean: np.ndarray, std: np.ndarray, out=None) -> np.ndarray:
    """(panel - mean) / std, written into ``out`` when given (which may be
    ``panel`` itself), or a PanelFormatError when an entry overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.subtract(panel, mean, out=out)
        np.divide(scaled, std, out=scaled)
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
    where B is C. A tensor of mode-1 rank r costs a QR of W_(1)^T, one SVD of
    its m x m triangle and an (rp)-square eigvals, not the (mp)-square one.
    """
    w = _require_transition(w)
    m, _, p = w.shape
    top = unfold(w, 1)
    # W_(1)^T = Q_t R, so W_(1) = R^T Q_t^T has the singular values and left
    # singular vectors of the (m x m) R^T
    u, sigma, _ = np.linalg.svd(np.linalg.qr(top.T, mode="r").T)
    r = int(np.count_nonzero(sigma > sigma[0] * m * p * np.finfo(float).eps))
    if r == 0:
        return 0.0
    if r < m:
        q = u[:, :r]
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


_BLOCK_ENTRIES = 2**15  # a block of the recursion holds about this many entries


def _block_sizes(count: int, width: int) -> list[int]:
    """``count`` rows of ``width`` entries in blocks of B = max(1,
    _BLOCK_ENTRIES // width) rows, the last B to 2B - 1 (all when fewer)."""
    rows = max(1, _BLOCK_ENTRIES // width)
    n = max(1, count // rows)
    return [rows] * (n - 1) + [count - (n - 1) * rows]


def _recursion(w1: np.ndarray, lags: np.ndarray, out: np.ndarray, steps: int, shocks) -> np.ndarray:
    """Run ``steps`` steps of the chain y_t = W_(1) (y_{t-1}, ..., y_{t-p}) +
    shock_t from the (p, m) stack ``lags`` (most recent first) and write the
    last ``len(out)`` forward into ``out``, in blocks of B = max(1, 2**15 // m)
    steps, the last B to 2B - 1 (all of them when fewer than B); ``shocks(b)``
    returns a block's (b, m) shocks.

    A block runs in reverse time in a buffer of the last block plus p rows:
    row i < b is step b - 1 - i, and the p rows below it are its lag stack,
    one contiguous run of mp numbers; the newest p rows are carried below the
    next block. Those runs are the windows of one read-only view, taken m
    numbers apart, so a step is one BLAS matrix-vector product written into
    its row and one add of its shock in place, with no slice, copy or
    temporary. The product has the operands of :func:`predict_one_step`'s
    ``W_(1) @ x``, so each step has its bits."""
    p, m = lags.shape
    blocks = _block_sizes(steps, m)
    chain = np.empty((blocks[-1] + p, m))
    stacks = sliding_window_view(chain.reshape(-1)[m:], m * p)[::m]
    dot, add = w1.dot, np.add
    start = len(out) - steps  # where the block's first step goes in out
    for b in blocks:
        chain[b : b + p] = lags
        for row, stack, shock in zip(chain[b - 1 :: -1], stacks[b - 1 :: -1], shocks(b)):
            dot(stack, out=row)
            add(row, shock, out=row)
        del shock  # this block's shocks, freed before the next are drawn
        kept = min(b, start + b)  # the block's last steps, the ones out takes
        if kept > 0:
            out[start + b - kept : start + b] = chain[kept - 1 :: -1]
        lags, start = chain[:p], start + b
    return out


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

    The noise is drawn in :func:`_recursion`'s blocks, burn-in included, as
    ``rng.standard_normal((b, m)) @ L.T`` per block of b steps (L the
    covariance's factor): the normals are one draw's stream, but the BLAS
    may round the product differently with its row count. Only the panel
    and O(B m) work arrays are held.
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
    return _recursion(
        unfold(w, 1), lags, np.empty((length, m)), burn_in + length,
        lambda b: rng.standard_normal((b, m)) @ factor.T,
    )


def forecast(w: np.ndarray, panel: np.ndarray, horizon: int) -> np.ndarray:
    """The (horizon, m) noise-free forecasts that follow the panel's last p
    rows: :func:`simulate`'s recursion fed zeros, one BLAS matrix-vector
    product per step, each with the bits of :func:`predict_one_step` on the
    rows before it. Forecasts that overflow (an unstable ``w``) are inf or
    NaN, without a numpy warning. The zeros come in :func:`simulate`'s
    blocks, so only the returned forecasts and O(B m) work arrays are held."""
    w = _require_transition(w)
    m, _, p = w.shape
    horizon = _require_number("horizon", horizon, 1, closed=True, integer=True)
    panel = _require_panel(panel)
    if panel.shape[1] != m:
        raise ValueError(f"panel has {panel.shape[1]} variables, transition tensor expects {m}")
    if panel.shape[0] < p:
        raise ValueError(f"panel needs at least {p} rows to seed the forecast")
    with np.errstate(over="ignore", invalid="ignore"):
        return _recursion(
            unfold(w, 1), panel[-p:][::-1], np.empty((horizon, m)), horizon, lambda b: np.zeros((b, m))
        )


def mse(truth: np.ndarray, pred: np.ndarray) -> float:
    """Mean squared error (1 / (m T0)) sum_t ||truth_t - pred_t||^2 whenever it
    is a finite double, even if single squares are not; else a PanelFormatError.
    It holds one array of residuals, which it scales and squares in place."""
    truth = _require_panel(truth)
    pred = _require_panel(pred)
    if truth.shape != pred.shape:
        raise ValueError(f"panel shapes differ: {truth.shape} vs {pred.shape}")
    return _mean_square(truth, pred)


def _mean_square(truth: np.ndarray, pred: np.ndarray, out=None) -> float:
    """The mean of (truth - pred)**2, from residuals (in ``out``, which may be
    ``pred``) divided in place by a power of two near the largest: exact, with
    finite squares."""
    with np.errstate(over="ignore"):  # an overflow is refused below
        resid = np.subtract(truth, pred, out=out)
        exp = np.frexp(max(resid.max(initial=0.0), -resid.min(initial=0.0)))[1]
        np.square(np.ldexp(resid, -exp, out=resid), out=resid)
        value = float(np.ldexp(np.mean(resid), 2 * exp))
    if not math.isfinite(value):
        raise PanelFormatError(
            "mean squared error overflows the float range; compare standardized panels"
        )
    return value
