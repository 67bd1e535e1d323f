"""Empirical privacy auditing via membership-style distinguishing attacks.

A DP guarantee upper-bounds the power of *any* distinguisher between a pair
of neighbouring inputs.  Conversely, a concrete distinguisher yields a
statistical *lower* bound on the privacy loss: if an attacker achieves true
positive rate TPR and false positive rate FPR when guessing which of two
neighbouring datasets produced an observed output, then any (ε, δ)-DP
mechanism must satisfy ``TPR <= e^ε FPR + δ``, hence

``ε >= log((TPR - δ) / FPR)``.

The auditor below runs a mechanism many times on a fixed pair of neighbouring
inputs, applies a threshold distinguisher to a scalar score of the output and
converts the observed rates — deflated by Clopper-Pearson confidence
intervals — into an empirical ε lower bound.  It is used by the test suite to
sanity check the Laplace mechanism and (at a handful of trials) the GCON
release, and by ``examples/privacy_audit.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError, PrivacyBudgetError
from repro.utils.random import as_rng


def clopper_pearson_interval(successes: int, trials: int,
                             confidence: float = 0.95) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided confidence interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigurationError(f"trials must be > 0, got {trials}")
    if not 0 <= successes <= trials:
        raise ConfigurationError(f"successes must be in [0, {trials}], got {successes}")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(f"confidence must be in (0, 1), got {confidence}")
    from scipy import stats  # slow to import; only audits need it

    alpha = 1.0 - confidence
    if successes == 0:
        lower = 0.0
    else:
        lower = float(stats.beta.ppf(alpha / 2.0, successes, trials - successes + 1))
    if successes == trials:
        upper = 1.0
    else:
        upper = float(stats.beta.ppf(1.0 - alpha / 2.0, successes + 1, trials - successes))
    return lower, upper


def epsilon_lower_bound(tpr_lower: float, fpr_upper: float, delta: float) -> float:
    """Convert (conservative) attack rates into an ε lower bound.

    Uses ``TPR <= e^ε FPR + δ``; returns 0 when the rates carry no signal.
    """
    if not 0.0 <= delta <= 1.0:
        raise PrivacyBudgetError(f"delta must be in [0, 1], got {delta}")
    numerator = tpr_lower - delta
    if numerator <= 0.0 or fpr_upper <= 0.0:
        return 0.0
    return max(0.0, float(np.log(numerator / fpr_upper)))


@dataclass(frozen=True)
class AuditResult:
    """Outcome of an empirical privacy audit."""

    empirical_epsilon: float
    claimed_epsilon: float
    delta: float
    true_positive_rate: float
    false_positive_rate: float
    trials: int
    threshold: float

    @property
    def consistent(self) -> bool:
        """True when the empirical lower bound does not exceed the claimed ε."""
        return self.empirical_epsilon <= self.claimed_epsilon + 1e-9


class PrivacyAuditor:
    """Threshold-distinguisher audit of a randomized mechanism.

    Parameters
    ----------
    mechanism:
        Callable ``(dataset, rng) -> output``; the output may be any object
        accepted by ``score_fn``.
    score_fn:
        Callable mapping a mechanism output to a scalar; higher scores should
        be (weakly) more likely under ``dataset_a`` than under ``dataset_b``
        for the audit to have power.  A natural choice for vector outputs is
        the projection onto the direction separating the two datasets' means.
    """

    def __init__(self, mechanism: Callable, score_fn: Callable[[object], float]):
        self.mechanism = mechanism
        self.score_fn = score_fn

    def run(self, dataset_a, dataset_b, *, claimed_epsilon: float, delta: float,
            trials: int = 200, confidence: float = 0.95,
            seed: int | np.random.Generator | None = 0) -> AuditResult:
        """Run ``trials`` mechanism invocations on each dataset and audit the release."""
        if trials < 2:
            raise ConfigurationError(f"trials must be >= 2, got {trials}")
        if claimed_epsilon <= 0:
            raise PrivacyBudgetError(f"claimed_epsilon must be > 0, got {claimed_epsilon}")
        rng = as_rng(seed)
        scores_a = np.array([
            float(self.score_fn(self.mechanism(dataset_a, rng))) for _ in range(trials)
        ])
        scores_b = np.array([
            float(self.score_fn(self.mechanism(dataset_b, rng))) for _ in range(trials)
        ])

        threshold, tpr, fpr = self._best_threshold(scores_a, scores_b)
        tpr_lower, _ = clopper_pearson_interval(int(round(tpr * trials)), trials, confidence)
        _, fpr_upper = clopper_pearson_interval(int(round(fpr * trials)), trials, confidence)
        empirical = epsilon_lower_bound(tpr_lower, fpr_upper, delta)
        return AuditResult(
            empirical_epsilon=empirical,
            claimed_epsilon=claimed_epsilon,
            delta=delta,
            true_positive_rate=float(tpr),
            false_positive_rate=float(fpr),
            trials=trials,
            threshold=float(threshold),
        )

    @staticmethod
    def _best_threshold(scores_a: np.ndarray, scores_b: np.ndarray) -> tuple[float, float, float]:
        """Pick the threshold maximising the log-ratio signal ``TPR / max(FPR, 1/n)``."""
        candidates = np.unique(np.concatenate([scores_a, scores_b]))
        trials = scores_a.size
        best = (float(candidates[0]), 0.0, 1.0)
        best_signal = -np.inf
        for threshold in candidates:
            tpr = float(np.mean(scores_a >= threshold))
            fpr = float(np.mean(scores_b >= threshold))
            signal = tpr / max(fpr, 1.0 / trials)
            if tpr > 0 and signal > best_signal:
                best_signal = signal
                best = (float(threshold), tpr, fpr)
        return best


def audit_laplace_mechanism(epsilon: float, sensitivity: float = 1.0, trials: int = 2000,
                            seed: int | np.random.Generator | None = 0) -> AuditResult:
    """Convenience audit of the scalar Laplace mechanism on inputs 0 and ``sensitivity``.

    The empirical ε lower bound should stay below ``epsilon``; a broken
    implementation (e.g. noise calibrated to half the sensitivity) exceeds it
    once ``trials`` is large enough.
    """
    from repro.privacy.mechanisms import laplace_mechanism

    def mechanism(value, rng):
        return laplace_mechanism(np.array([value]), sensitivity, epsilon, rng=rng)

    auditor = PrivacyAuditor(mechanism, score_fn=lambda output: float(output[0]))
    return auditor.run(
        sensitivity, 0.0, claimed_epsilon=epsilon, delta=0.0, trials=trials, seed=seed,
    )
