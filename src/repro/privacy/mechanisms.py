"""Classical DP mechanisms: Laplace, Gaussian, randomized response.

These power the baselines: DPGCN perturbs the adjacency matrix with Laplace
noise (LapGraph), GAP/ProGAP add Gaussian noise to aggregate embeddings, and
randomized response is provided as an alternative adjacency perturbation.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.exceptions import PrivacyBudgetError
from repro.utils.random import as_rng


def laplace_mechanism(values: np.ndarray, sensitivity: float, epsilon: float,
                      rng=None) -> np.ndarray:
    """Add Laplace(sensitivity / epsilon) noise to ``values`` (epsilon-DP)."""
    if sensitivity <= 0:
        raise PrivacyBudgetError(f"sensitivity must be > 0, got {sensitivity}")
    if epsilon <= 0:
        raise PrivacyBudgetError(f"epsilon must be > 0, got {epsilon}")
    rng = as_rng(rng)
    scale = sensitivity / epsilon
    values = np.asarray(values, dtype=np.float64)
    return values + rng.laplace(0.0, scale, size=values.shape)


def gaussian_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """Classical Gaussian-mechanism noise scale ``sigma`` for (epsilon, delta)-DP.

    Uses the standard bound ``sigma = sensitivity * sqrt(2 ln(1.25/delta)) / epsilon``
    which is valid for ``epsilon <= 1``; for larger epsilon the analytic
    calibration (:func:`analytic_gaussian_sigma`) should be preferred.
    """
    if sensitivity <= 0 or epsilon <= 0 or not 0 < delta < 1:
        raise PrivacyBudgetError("invalid (sensitivity, epsilon, delta) for Gaussian mechanism")
    return sensitivity * np.sqrt(2.0 * np.log(1.25 / delta)) / epsilon


def analytic_gaussian_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """Analytic Gaussian mechanism calibration (Balle & Wang, 2018).

    Finds the smallest ``sigma`` such that the Gaussian mechanism with L2
    sensitivity ``sensitivity`` satisfies (epsilon, delta)-DP, valid for all
    ``epsilon > 0`` (unlike the classical bound).  The condition used is

    ``Phi(s/(2 sigma) - epsilon sigma / s) - e^eps Phi(-s/(2 sigma) - epsilon sigma / s) <= delta``.
    """
    if sensitivity <= 0 or epsilon <= 0 or not 0 < delta < 1:
        raise PrivacyBudgetError("invalid (sensitivity, epsilon, delta) for Gaussian mechanism")
    # Imported here: scipy.stats is slow to import, and every process that
    # imports repro would pay for it at start-up for this one function.
    from scipy import stats

    def delta_of_sigma(sigma: float) -> float:
        a = sensitivity / (2.0 * sigma)
        b = epsilon * sigma / sensitivity
        return stats.norm.cdf(a - b) - np.exp(epsilon) * stats.norm.cdf(-a - b)

    # Bracket: large sigma drives delta to 0, tiny sigma drives it to 1.
    low, high = 1e-6 * sensitivity, sensitivity
    while delta_of_sigma(high) > delta:
        high *= 2.0
        if high > 1e9 * sensitivity:  # pragma: no cover - defensive
            raise PrivacyBudgetError("failed to bracket analytic Gaussian sigma")
    result = optimize.brentq(lambda s: delta_of_sigma(s) - delta, low, high, xtol=1e-12)
    return float(result)


def gaussian_mechanism(values: np.ndarray, sensitivity: float, epsilon: float,
                       delta: float, rng=None, analytic: bool = True) -> np.ndarray:
    """Add Gaussian noise calibrated for (epsilon, delta)-DP to ``values``."""
    rng = as_rng(rng)
    sigma = (analytic_gaussian_sigma if analytic else gaussian_sigma)(sensitivity, epsilon, delta)
    values = np.asarray(values, dtype=np.float64)
    return values + rng.normal(0.0, sigma, size=values.shape)


def randomized_response_matrix(adjacency: np.ndarray, epsilon: float, rng=None) -> np.ndarray:
    """Apply randomized response to the upper triangle of a dense binary adjacency.

    Each potential undirected edge bit is kept with probability
    ``e^eps / (e^eps + 1)`` and flipped otherwise, which satisfies epsilon-edge-DP.
    Returns a symmetric binary matrix with zero diagonal.  Intended for small
    graphs only (dense ``n x n`` memory).
    """
    if epsilon <= 0:
        raise PrivacyBudgetError(f"epsilon must be > 0, got {epsilon}")
    rng = as_rng(rng)
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    keep_prob = np.exp(epsilon) / (np.exp(epsilon) + 1.0)
    upper = np.triu(adjacency, k=1)
    flips = rng.random((n, n)) >= keep_prob
    perturbed_upper = np.where(np.triu(flips, k=1), 1.0 - upper, upper)
    perturbed_upper = np.triu(perturbed_upper, k=1)
    return perturbed_upper + perturbed_upper.T
