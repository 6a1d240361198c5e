"""End-to-end estimation pipeline.

Order of operations: nuclear-norm initial estimate, ridge-ratio rank
selection (when ranks are "auto"), truncated HOSVD at those ranks, graph
Laplacians from the initial factor rows, then the block-cyclic solver. Rank
selection and the HOSVD share one Gram eigendecomposition per unfolding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .initialization import (
    NnmConfig,
    NnmResult,
    _unfolding_spectra,
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
    """Fit the transition tensor from a prepared (X, Y) regression pair; the
    Laplacians are built with the bandwidth ``cfg.epsilon``. Ranks "auto"
    take :func:`ridge_constant` first: it refuses T < 2 before the NNM runs."""
    cfg = cfg or StdgrConfig()
    selected = cfg.ranks == "auto"
    c_bar = ridge_constant(design.m, design.p, design.n_samples) if selected else None
    nnm = nnm_estimate(design, nnm_cfg)
    spectra = _unfolding_spectra(nnm.w)
    ranks = select_ranks(nnm.w, c_bar, spectra=spectra) if selected else cfg.ranks
    init = hosvd(nnm.w, ranks, spectra=spectra)
    result = solve(design, build_laplacians(init, cfg.epsilon), cfg, init)
    return FitReport(result=result, ranks=ranks, ranks_selected=selected, nnm=nnm)


def fit_panel(
    panel: np.ndarray,
    p: int,
    cfg: StdgrConfig | None = None,
    nnm_cfg: NnmConfig | None = None,
) -> FitReport:
    """Fit the transition tensor of a VAR(p) model from a (T, m) panel (see
    :func:`fit_design`)."""
    return fit_design(build_design(panel, p), cfg, nnm_cfg)
