"""Simulation-based calibration: the posterior's stated error is the error it makes.

Each row draws its scene from the posterior's own prior and runs one short
acquisition (``conftest.calibration_draw``).  The posterior states an error,
1 - max p, and makes one, the 0-1 loss of its MAP bin.  When the law the
posterior folds is the exact law of the simulator, the two agree in mean
over rows, for every gating policy: adaptive gates and stop rules depend
only on past outcomes.  The check is z = mean(loss - stated) / its standard
error, held within ``TOLERANCE``.

The cases are B = 16 bins, a known background of 0.02 per bin and 20
cycles, where about 0.2% of cycles are censored.  Heavy censoring and an
estimated background are miscalibrated today (ROADMAP items 3 and 11),
and each of those items adds its case here when it mends it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import spadgate as sg
from conftest import calibration_draw

SEED = 77  # a dev seed; the tolerance and the seed were fixed before any run
ROWS = 600
TOLERANCE = 4.0

POLICIES = {
    "fixed": lambda b, bkg: sg.FixedGatePolicy(gate=0, num_bins=b),
    "uniform": lambda b, bkg: sg.UniformGatePolicy(num_bins=b),
    "free_running": lambda b, bkg: sg.FreeRunningPolicy(),
    "adaptive": lambda b, bkg: sg.AdaptiveGatePolicy(num_bins=b, bkg_flux=bkg),
    "adaptive_stop": lambda b, bkg: sg.AdaptiveGatePolicy(num_bins=b, bkg_flux=bkg, exposure=sg.ExposureControl()),
}


@pytest.mark.parametrize("kind", POLICIES)
def test_stated_error_matches_the_observed_loss(kind):
    stated, observed = np.array([calibration_draw(POLICIES[kind], SEED, i) for i in range(ROWS)]).T
    diff = observed - stated
    z = diff.mean() / (diff.std(ddof=1) / math.sqrt(ROWS))
    assert abs(z) < TOLERANCE, f"{kind}: states {stated.mean():.3f}, loses {observed.mean():.3f}, z {z:+.1f}"
