"""Ridge-ratio rank selection on the nuclear-norm initial estimate.

The selector scans, per mode, the ratio (sigma_{j+1} + c) / (sigma_j + c)
of the singular values of the unfolded initial estimate; a sharp drop marks
the rank. More data sharpens the drop.

Run with: python3 demos/rank_selection.py
"""

import numpy as np

from tuckervar import ScenarioSpec, build_design, make_scenario, simulate, unfold
from tuckervar.initialization import initialize

spec = ScenarioSpec(
    m=12, p=4, ranks=(3, 3, 3), superdiag=(1.5, 1.2, 0.9),
    noise_scale=0.3, seeds=(0,), sample_sizes=(1,),
)
scenario = make_scenario(spec, seed=1)
print("true ranks:", spec.ranks)

for length in (150, 500, 2000):
    panel = simulate(scenario.w, 0.09 * np.eye(12), length=length + 4, seed=1)
    design = build_design(panel, 4)
    # the start of a fit: c_bar, the nuclear-norm estimate, its ranks, HOSVD
    estimate, ranks, c_bar, _ = initialize(design, "auto")
    sigma = np.linalg.svd(unfold(estimate.w, 1), compute_uv=False)
    print(
        f"T={design.n_samples:5d}  c_bar={c_bar:.4f}  selected {ranks}  "
        f"mode-1 spectrum head: {np.round(sigma[:5], 3)}"
    )
