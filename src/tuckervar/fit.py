"""End-to-end estimation pipeline.

Order of operations: ``initialization.initialize`` (nuclear-norm estimate,
rank selection when ranks are "auto", truncated HOSVD), graph Laplacians
from the initial factor rows, then the block-cyclic solver."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initialization import NnmConfig, NnmResult, build_laplacians, initialize
from .solver import FitResult, StdgrConfig, solve
from .var import DesignPair, build_design

__all__ = ["FitReport", "fit_design", "fit_panel"]


@dataclass
class FitReport:
    """Everything produced by one fit: the solver result, the ranks and how
    they were chosen, and the nuclear-norm estimate the fit started from.
    The HOSVD initializer is ``init = hosvd(report.nnm.w, report.ranks)``,
    and the solver's Laplacians are ``build_laplacians(init, cfg.epsilon)``."""

    result: FitResult
    ranks: tuple[int, int, int]
    ranks_selected: bool
    nnm: NnmResult

    @property
    def w_hat(self) -> np.ndarray:
        return self.result.w_hat


def fit_design(
    design: DesignPair,
    cfg: StdgrConfig | None = None,
    nnm_cfg: NnmConfig | None = None,
) -> FitReport:
    """Fit the transition tensor from a prepared (X, Y) regression pair: the
    solver starts from :func:`initialize`, with Laplacians at ``cfg.epsilon``."""
    cfg = cfg or StdgrConfig()
    nnm, ranks, c_bar, init = initialize(design, cfg.ranks, nnm_cfg)
    result = solve(design, build_laplacians(init, cfg.epsilon), cfg, init)
    return FitReport(result=result, ranks=ranks, ranks_selected=c_bar is not None, nnm=nnm)


def fit_panel(
    panel: np.ndarray,
    p: int,
    cfg: StdgrConfig | None = None,
    nnm_cfg: NnmConfig | None = None,
) -> FitReport:
    """Fit the transition tensor of a VAR(p) model from a (T, m) panel (see
    :func:`fit_design`)."""
    return fit_design(build_design(panel, p), cfg, nnm_cfg)
