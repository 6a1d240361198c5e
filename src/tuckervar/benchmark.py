"""Synthetic-experiment harness: scenario generation, estimation-error curves
against the sample size and the theoretical error scale, and rolling one-step
forecast evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fit import fit_design, fit_panel
from .initialization import NnmConfig
from .solver import StdgrConfig
from .tensor import TuckerFactors, tucker_reconstruct, unfold
from .var import (
    DesignPair,
    _require_number,
    _standardized,
    build_design,
    is_stable,
    mse,
    one_step_predictions,
    simulate,
    train_scaler,
)

__all__ = [
    "ScenarioSpec",
    "Scenario",
    "make_scenario",
    "upsilon",
    "ErrorCurveRow",
    "error_curve",
    "curve_csv_lines",
    "RollingReport",
    "rolling_eval",
]

FACTOR_STYLES = ("gaussian-svd", "laplacian-eigenvectors")


@dataclass
class ScenarioSpec:
    """Ground-truth recipe for one synthetic experiment.

    The core is a diagonal cube with the given superdiagonal values; factors
    are either left singular vectors of Gaussian matrices or the smallest
    eigenvectors of a random-weight graph Laplacian. Noise covariance is
    noise_scale**2 * I (``covariance``).
    """

    m: int
    p: int
    ranks: tuple[int, int, int]
    superdiag: tuple[float, ...]
    factor_style: str = "gaussian-svd"
    noise_scale: float = 1.0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    sample_sizes: tuple[int, ...] = field(default_factory=tuple)
    burn_in: int = 500

    def __post_init__(self) -> None:
        # (field, inclusive lower bound, integer); the sequences are checked entrywise
        for name, low, integer in (
            ("m", 1, True), ("p", 1, True), ("noise_scale", 0, False), ("burn_in", 0, True)
        ):
            setattr(self, name, _require_number(name, getattr(self, name), low, True, integer))
        try:
            float(self.noise_scale) ** 2  # as ``covariance`` does
        except OverflowError:
            raise ValueError(
                f"noise_scale must have a finite square, got {self.noise_scale!r}"
            ) from None
        for name, low, integer in (
            ("ranks", 1, True), ("superdiag", -math.inf, False), ("seeds", 0, True),
            ("sample_sizes", 1, True),
        ):
            values = getattr(self, name)
            try:
                values = tuple(values)
            except TypeError:
                raise ValueError(f"{name} must be a sequence of numbers, got {values!r}") from None
            setattr(self, name, tuple(_require_number(name, v, low, True, integer) for v in values))
        if len(self.ranks) != 3:
            raise ValueError("ranks must be a triple")
        if not (1 <= self.ranks[0] <= self.m and 1 <= self.ranks[1] <= self.m):
            raise ValueError("mode-1/2 ranks must lie in [1, m]")
        if not 1 <= self.ranks[2] <= self.p:
            raise ValueError("mode-3 rank must lie in [1, p]")
        if len(self.superdiag) != min(self.ranks):
            raise ValueError("superdiag must have min(ranks) entries")
        if self.factor_style not in FACTOR_STYLES:
            raise ValueError(f"factor_style must be one of {FACTOR_STYLES}")

    @property
    def core_nonzeros(self) -> int:
        return int(np.count_nonzero(self.superdiag))

    @property
    def covariance(self) -> np.ndarray:
        """The noise covariance noise_scale**2 * I."""
        return float(self.noise_scale) ** 2 * np.eye(self.m)


@dataclass
class Scenario:
    """A realized ground truth: stable transition tensor, its factorization,
    and how many 0.9-shrink passes were needed to stabilize it."""

    w: np.ndarray
    factors: TuckerFactors
    rescale_count: int
    superdiag_used: tuple[float, ...]


def _orthonormal_factor(rng: np.random.Generator, n: int, r: int, style: str) -> np.ndarray:
    if style == "gaussian-svd":
        u, _, _ = np.linalg.svd(rng.standard_normal((n, r)), full_matrices=False)
        return u
    # smallest-eigenvalue eigenvectors of a random-weight graph Laplacian
    weights = rng.uniform(0.0, 1.0, size=(n, n))
    weights = (weights + weights.T) / 2.0
    lap = np.diag(weights.sum(axis=1)) - weights
    _, vecs = np.linalg.eigh(lap)
    return vecs[:, :r]


def make_scenario(spec: ScenarioSpec, seed: int) -> Scenario:
    """Draw a ground truth for the spec, shrinking the superdiagonal by 0.9
    until the process is stable (at most 50 passes; a ValueError after)."""
    rng = np.random.default_rng(seed)
    a1 = _orthonormal_factor(rng, spec.m, spec.ranks[0], spec.factor_style)
    a2 = _orthonormal_factor(rng, spec.m, spec.ranks[1], spec.factor_style)
    a3 = _orthonormal_factor(rng, spec.p, spec.ranks[2], spec.factor_style)

    values = np.array(spec.superdiag, dtype=float)
    for attempt in range(51):
        core = np.zeros(spec.ranks)
        for i, v in enumerate(values):
            core[i, i, i] = v
        factors = TuckerFactors(core=core, a1=a1, a2=a2, a3=a3)
        w = tucker_reconstruct(factors)
        if is_stable(w, 1e-8):
            return Scenario(
                w=w,
                factors=factors,
                rescale_count=attempt,
                superdiag_used=tuple(values),
            )
        values = values * 0.9
    raise ValueError(
        f"superdiag {spec.superdiag!r} is too large: "
        "50 shrinks by 0.9 do not stabilize the scenario"
    )


def upsilon(spec: ScenarioSpec, n_samples: int) -> float:
    """Theoretical error scale 2 sqrt(s) sqrt(log(m^2 p) / T) with s the
    count of nonzero core entries."""
    _require_number("n_samples", n_samples, 1, closed=True, integer=True)
    s = spec.core_nonzeros
    return 2.0 * math.sqrt(s) * math.sqrt(math.log(spec.m * spec.m * spec.p) / n_samples)


@dataclass
class ErrorCurveRow:
    method: str
    n_samples: int
    upsilon: float
    mean_error: float
    stderr: float


def _cell_design(spec: ScenarioSpec, scenario: Scenario, n_samples: int, seed: int) -> DesignPair:
    """Regression pair for one (T, seed) cell.

    With noise the panel is a simulated stationary path. Noise-free cells
    instead pair independent random lag vectors with their exact responses:
    an autonomous noise-free path stops exciting the lag space after p steps,
    which would make the transition tensor unidentifiable.
    """
    if spec.noise_scale == 0:
        rng = np.random.default_rng([seed, n_samples])
        x = rng.standard_normal((n_samples, spec.m * spec.p))
        return DesignPair(x=x, y=x @ unfold(scenario.w, 1).T)
    panel = simulate(
        scenario.w,
        spec.covariance,
        length=n_samples + spec.p,
        seed=[seed, n_samples],
        burn_in=spec.burn_in,
    )
    return build_design(panel, spec.p)


def error_curve(
    spec: ScenarioSpec,
    cfg: StdgrConfig,
    nnm_cfg: NnmConfig | None = None,
) -> list[ErrorCurveRow]:
    """Estimation error ||W_hat - W||_F against the sample size, averaged
    over seeds, for the graph-regularized Tucker fit and the plain
    nuclear-norm estimate. A ``ValueError`` or ``RuntimeError`` in one
    (T, seed) cell is raised again, as the same type, with a message that
    names the cell."""
    for name in ("seeds", "sample_sizes"):
        if not getattr(spec, name):
            raise ValueError(f"spec.{name} must be nonempty")
    # the truth depends on the seed alone, so each is drawn once for all T
    scenarios = {seed: make_scenario(spec, seed) for seed in spec.seeds}
    rows: list[ErrorCurveRow] = []
    for n_samples in spec.sample_sizes:
        errors = {"graph_tucker": [], "nnm": []}
        for seed in spec.seeds:
            scenario = scenarios[seed]
            try:
                design = _cell_design(spec, scenario, n_samples, seed)
                report = fit_design(design, cfg, nnm_cfg)
            except (ValueError, RuntimeError) as exc:
                kind = RuntimeError if isinstance(exc, RuntimeError) else ValueError
                raise kind(f"benchmark cell failed at T={n_samples}, seed={seed}: {exc}") from exc
            errors["graph_tucker"].append(float(np.linalg.norm(report.w_hat - scenario.w)))
            errors["nnm"].append(float(np.linalg.norm(report.nnm.w - scenario.w)))
        y_scale = upsilon(spec, n_samples)
        for method, errs in errors.items():
            errs = np.asarray(errs)
            rows.append(
                ErrorCurveRow(
                    method=method,
                    n_samples=int(n_samples),
                    upsilon=y_scale,
                    mean_error=float(errs.mean()),
                    stderr=float(errs.std(ddof=1) / math.sqrt(errs.size)) if errs.size > 1 else 0.0,
                )
            )
    return rows


def curve_csv_lines(rows: list[ErrorCurveRow]) -> list[str]:
    """CSV rendering of an error curve (header exactly:
    method,T,upsilon,mean_error,stderr)."""
    lines = ["method,T,upsilon,mean_error,stderr"]
    for row in rows:
        lines.append(
            f"{row.method},{row.n_samples},{row.upsilon!r},{row.mean_error!r},{row.stderr!r}"
        )
    return lines


@dataclass
class RollingReport:
    mse: float
    n_train: int
    n_test: int
    converged: bool
    standardized: bool


def rolling_eval(
    panel: np.ndarray,
    train_fraction: float,
    p: int,
    cfg: StdgrConfig | None = None,
    nnm_cfg: NnmConfig | None = None,
    standardize: bool = False,
) -> RollingReport:
    """Fit on the leading fraction of the panel and score one-step forecasts
    over the held-out tail, using the true lagged values at each test time;
    the fit is :func:`fit_panel`'s, with ``cfg`` (its ``epsilon`` included).

    With ``standardize`` the per-variable mean and standard deviation are
    estimated on the training split only and applied to the whole panel;
    the reported MSE is in standardized units. A panel too large to
    standardize, fit or score is a ``PanelFormatError``, a ValueError.
    """
    panel = np.asarray(panel, dtype=float)
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    length = panel.shape[0]
    n_train = int(train_fraction * length)
    if n_train < p + 1:
        raise ValueError("training split too short for the lag order")

    if standardize:
        panel = _standardized(panel, *train_scaler(panel[:n_train]))

    report = fit_panel(panel[:n_train], p, cfg, nnm_cfg)
    return RollingReport(
        mse=mse(panel[n_train:], one_step_predictions(report.w_hat, panel, n_train)),
        n_train=n_train,
        n_test=length - n_train,
        converged=report.result.converged,
        standardized=standardize,
    )
