"""End-to-end estimation pipeline.

Order of operations: nuclear-norm initial estimate, ridge-ratio rank
selection (when ranks are "auto"), truncated HOSVD at those ranks, graph
Laplacians from the initial factor rows, then the block-cyclic solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initialization import (
    LaplacianSet,
    NnmConfig,
    NnmResult,
    build_laplacians,
    hosvd,
    nnm_estimate,
    ridge_constant,
    select_ranks,
)
from .solver import FitResult, StdgrConfig, solve
from .var import DesignPair, build_design

__all__ = ["FitReport", "fit_design", "fit_panel"]


@dataclass
class FitReport:
    """Everything produced by one fit: the solver result, the ranks and how
    they were chosen, the Laplacians the solver used and the nuclear-norm
    estimate it started from. The HOSVD initializer is
    ``hosvd(report.nnm.w, report.ranks)``."""

    result: FitResult
    ranks: tuple[int, int, int]
    ranks_selected: bool
    laplacians: LaplacianSet
    nnm: NnmResult

    @property
    def w_hat(self) -> np.ndarray:
        return self.result.w_hat


def fit_design(
    design: DesignPair,
    cfg: StdgrConfig | None = None,
    nnm_cfg: NnmConfig | None = None,
    epsilon: float = 0.2,
) -> FitReport:
    """Fit the transition tensor from a prepared (X, Y) regression pair.
    Ranks "auto" need at least 2 samples: the ridge constant is 0 at T = 1."""
    cfg = cfg or StdgrConfig()
    selected = cfg.ranks == "auto"
    if selected and design.n_samples < 2:
        raise ValueError("rank selection needs at least 2 samples (p + 2 panel rows)")

    nnm = nnm_estimate(design, nnm_cfg)
    if selected:
        ranks = select_ranks(nnm.w, ridge_constant(design.m, design.p, design.n_samples))
    else:
        ranks = cfg.ranks
    init = hosvd(nnm.w, ranks)
    lap = build_laplacians(init, epsilon)
    result = solve(design, lap, cfg, init)
    return FitReport(result=result, ranks=ranks, ranks_selected=selected, laplacians=lap, nnm=nnm)


def fit_panel(
    panel: np.ndarray,
    p: int,
    cfg: StdgrConfig | None = None,
    nnm_cfg: NnmConfig | None = None,
    epsilon: float = 0.2,
) -> FitReport:
    """Fit the transition tensor of a VAR(p) model from a (T, m) panel."""
    return fit_design(build_design(panel, p), cfg, nnm_cfg, epsilon)
