"""Every place a caller's privacy budget enters rejects NaN and infinity.

``epsilon <= 0`` is False for NaN and for +inf, so a plain sign test lets
both through: a GCON fit at ``epsilon=nan`` used to run to completion with
a NaN noise scale and report ``privacy_spent == (nan, delta)``.  Each site
below must raise instead, with the exception type it uses for ``epsilon=0``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines import DPGCN, DPSGDGCN, GAP, LPGNet, ProGAP
from repro.baselines.dpgcn import lapgraph_perturb
from repro.baselines.gap import calibrate_hop_sigma
from repro.core.config import GCONConfig
from repro.exceptions import ConfigurationError, PrivacyBudgetError
from repro.privacy.definitions import PrivacySpec
from repro.tuning.presets import make_gcon_factory

SITES = {
    "GCONConfig": (lambda eps: GCONConfig(epsilon=eps), ConfigurationError),
    "make_gcon_factory": (make_gcon_factory, ConfigurationError),
    "lapgraph_perturb": (
        lambda eps: lapgraph_perturb(sp.csr_matrix(np.eye(3)), eps, rng=0),
        ConfigurationError),
    "DPGCN": (lambda eps: DPGCN(epsilon=eps), ConfigurationError),
    "LPGNet": (lambda eps: LPGNet(epsilon=eps), ConfigurationError),
    "DPSGDGCN": (lambda eps: DPSGDGCN(epsilon=eps), ConfigurationError),
    "calibrate_hop_sigma": (lambda eps: calibrate_hop_sigma(eps, 1e-4, 2),
                            PrivacyBudgetError),
    "GAP": (lambda eps: GAP(epsilon=eps), ConfigurationError),
    "ProGAP": (lambda eps: ProGAP(epsilon=eps), ConfigurationError),
    "PrivacySpec": (lambda eps: PrivacySpec(eps, 1e-3), PrivacyBudgetError),
}


@pytest.mark.parametrize("epsilon", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_nonfinite_epsilon_rejected(site, epsilon):
    build, error = SITES[site]
    with pytest.raises(error, match="epsilon must be finite"):
        build(epsilon)


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["lambda_reg", "huber_delta", "xi"])
def test_nonfinite_gcon_coefficients_rejected(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        GCONConfig(**{name: value})
