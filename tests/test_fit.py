"""fit_panel on small degenerate panels: every case either returns a finite
estimate or raises a ValueError that tuckervar itself raised, with a message;
no numpy error or warning escapes."""

import traceback
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import tuckervar
from tuckervar import StdgrConfig, fit_panel

PACKAGE = Path(tuckervar.__file__).resolve().parent


@st.composite
def small_fits(draw):
    """(panel, p, ranks): m <= 4, p <= 3, L from p + 1 to 3 mp, some
    columns constant or zero, ranks "auto" or explicit (possibly above the
    dimensions)."""
    m, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    length = draw(st.integers(p + 1, max(p + 1, 3 * m * p)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    panel = rng.standard_normal((length, m)) * draw(st.sampled_from([1.0, 1e-8, 1e8]))
    for column in draw(st.sets(st.integers(0, m - 1))):
        panel[:, column] = draw(st.sampled_from([0.0, 1.0, -3.0]))
    explicit = st.tuples(st.integers(1, m + 1), st.integers(1, m + 1), st.integers(1, p + 1))
    ranks = draw(st.one_of(st.just("auto"), explicit))
    return panel, p, ranks


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=small_fits())
def test_small_fits_succeed_or_explain(case):
    panel, p, ranks = case
    cfg = StdgrConfig(ranks=ranks, max_iter=20)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = fit_panel(panel, p, cfg)
    except ValueError as exc:
        origin = Path(traceback.extract_tb(exc.__traceback__)[-1].filename).resolve()
        assert origin.parent == PACKAGE, f"{type(exc).__name__} from {origin}: {exc}"
        assert not isinstance(exc, np.linalg.LinAlgError)
        assert str(exc)
        return
    m = panel.shape[1]
    assert report.w_hat.shape == (m, m, p)
    assert np.isfinite(report.w_hat).all()
