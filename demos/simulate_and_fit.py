"""Simulate a low-rank VAR panel and recover its transition tensor.

The pipeline: nuclear-norm initial estimate, rank selection, truncated
higher-order SVD, graph Laplacians from the factor rows, then the
block-cyclic proximal solver.

Run with: python3 demos/simulate_and_fit.py
"""

import numpy as np

from tuckervar import ScenarioSpec, StdgrConfig, fit_panel, make_scenario, simulate

# Ground truth: 15 variables, 3 lags, multilinear ranks (2, 2, 2), a diagonal
# core, and orthonormal factors drawn from Gaussian matrices.
spec = ScenarioSpec(
    m=15, p=3, ranks=(2, 2, 2), superdiag=(2.0, 2.0),
    noise_scale=0.5, seeds=(0,), sample_sizes=(1,),
)
scenario = make_scenario(spec, seed=0)
print("ground truth stabilized after", scenario.rescale_count, "shrink passes;",
      "superdiagonal:", np.round(scenario.superdiag_used, 3))

panel = simulate(scenario.w, 0.25 * np.eye(15), length=400, seed=0)
print("panel:", panel.shape)

# Fit with automatic rank selection; the box bound must cover the true
# core scale (the superdiagonal entries reach 2).
report = fit_panel(panel, p=3, cfg=StdgrConfig(ranks="auto", c=2.0))
print("selected ranks:", report.ranks)
print("initializer converged:", report.nnm.converged,
      "after", report.nnm.iterations, "iterations")
print("solver converged:", report.result.converged,
      "after", report.result.iterations, "iterations")

trace = report.result.objective_trace
print("objective: initial %.4f -> final %.4f (monotone: %s)"
      % (trace[0], trace[-1], bool(np.all(trace[1:] <= trace[:-1] + 1e-12))))

err_fit = np.linalg.norm(report.w_hat - scenario.w)
err_init = np.linalg.norm(report.nnm.w - scenario.w)
print("estimation error  ||W_hat - W||_F = %.4f" % err_fit)
print("initializer error ||W_nnm - W||_F = %.4f" % err_init)
