"""Graph-regularized sparse Tucker estimation of VAR(p) transition tensors.

A VAR(p) coefficient stack is treated as an (m, m, p) tensor and estimated
by a sparse-core Tucker decomposition with Gaussian-kernel graph Laplacian
penalties on the factor matrices, solved by a block-cyclic proximal scheme
with closed-form updates. Includes the nuclear-norm initializer, ridge-ratio
rank selection, stationary simulation and a synthetic benchmark harness.
"""

from .benchmark import (
    ErrorCurveRow,
    RollingReport,
    Scenario,
    ScenarioSpec,
    error_curve,
    make_scenario,
    rolling_eval,
    upsilon,
)
from .fit import FitReport, fit_design, fit_panel
from .initialization import (
    NnmConfig,
    NnmResult,
    build_laplacians,
    hosvd,
    laplacian_from_rows,
    nnm_estimate,
    ridge_constant,
    select_ranks,
    svt,
)
from .solver import FitResult, StdgrConfig, solve
from .tensor import TuckerFactors, fold, kronecker, mode_product, tucker_reconstruct, unfold
from .var import (
    DesignPair,
    build_design,
    forecast,
    is_stable,
    mse,
    one_step_predictions,
    rescale_to_spectral_radius,
    simulate,
    spectral_radius,
    train_scaler,
)

__version__ = "0.1.0"
