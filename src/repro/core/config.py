"""Configuration object for the GCON estimator (inputs of Algorithm 1)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive


def _normalize_step(step) -> float:
    """Normalise a propagation-step value to an int or ``math.inf``."""
    if step is None:
        return math.inf
    if isinstance(step, str):
        if step.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigurationError(f"invalid propagation step {step!r}")
    if step == math.inf:
        return math.inf
    if isinstance(step, float) and not step.is_integer():
        raise ConfigurationError(f"propagation steps must be integers or inf, got {step}")
    step = int(step)
    if step < 0:
        raise ConfigurationError(f"propagation steps must be >= 0, got {step}")
    return step


@dataclass
class GCONConfig:
    """Hyperparameters of GCON (Algorithm 1 inputs plus encoder settings).

    Attributes
    ----------
    epsilon, delta:
        Edge-DP privacy budget.  ``delta=None`` uses the paper's default
        ``1/|E|`` computed from the training graph at fit time.
    alpha:
        Restart probability of the PPR/APPR propagation, in ``(0, 1]``.
    propagation_steps:
        The series ``m_1, ..., m_s`` of Eq. (11); each entry is a
        non-negative integer or ``inf`` (PPR limit).
    loss:
        ``"soft_margin"`` (MultiLabel Soft Margin, Eq. 27) or
        ``"pseudo_huber"`` (Eq. 28).
    huber_delta:
        Weight ``delta_l`` of the pseudo-Huber loss.
    lambda_reg:
        Regularisation coefficient Λ of Eq. (2).
    omega:
        Budget allocator ω of Theorem 1, in ``(0, 1)``; the paper fixes 0.9.
    encoder_dim:
        Output dimension ``d1`` of the MLP feature encoder.
    encoder_hidden:
        Hidden width of the encoder MLP.
    encoder_epochs, encoder_lr, encoder_weight_decay, encoder_dropout:
        Encoder training hyperparameters (the encoder is non-private by
        design: it only touches public features/labels).
    inference_alpha:
        Restart probability ``alpha_I`` used for private inference (Eq. 16);
        ``None`` reuses ``alpha``.
    use_pseudo_labels:
        If True, expand the convex training set with encoder pseudo-labels
        for unlabeled nodes (the paper's ``n1 in {n0, n}`` tuning knob).
    pseudo_label_mode:
        ``"all"`` expands to every node (n1 = n, the paper's setting);
        ``"balanced"`` keeps a class-balanced, confidence-ranked subset,
        which trades a smaller n1 for pseudo-label class balance.
    max_iterations, gtol:
        Convex solver settings.
    xi:
        The strictly positive slack ξ of Eq. (22).
    """

    epsilon: float = 1.0
    delta: float | None = None
    alpha: float = 0.6
    propagation_steps: tuple = (2,)
    loss: str = "soft_margin"
    huber_delta: float = 0.2
    lambda_reg: float = 0.2
    omega: float = 0.9
    encoder_dim: int = 16
    encoder_hidden: int = 64
    encoder_epochs: int = 200
    encoder_lr: float = 0.01
    encoder_weight_decay: float = 1e-5
    encoder_dropout: float = 0.1
    inference_alpha: float | None = None
    use_pseudo_labels: bool = False
    pseudo_label_mode: str = "balanced"
    max_iterations: int = 500
    gtol: float = 1e-6
    xi: float = 1e-6
    non_private: bool = False

    normalized_steps: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon")
        if self.delta is not None and not 0.0 <= self.delta < 1.0:
            raise ConfigurationError(f"delta must be in [0, 1), got {self.delta}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.propagation_steps:
            raise ConfigurationError("propagation_steps must contain at least one entry")
        self.normalized_steps = tuple(_normalize_step(s) for s in self.propagation_steps)
        if self.loss not in ("soft_margin", "pseudo_huber"):
            raise ConfigurationError(
                f"loss must be 'soft_margin' or 'pseudo_huber', got {self.loss!r}"
            )
        check_positive(self.huber_delta, "huber_delta")
        check_positive(self.lambda_reg, "lambda_reg")
        if not 0.0 < self.omega < 1.0:
            raise ConfigurationError(f"omega must be in (0, 1), got {self.omega}")
        if self.encoder_dim < 1:
            raise ConfigurationError(f"encoder_dim must be >= 1, got {self.encoder_dim}")
        if self.encoder_hidden < 1:
            raise ConfigurationError(f"encoder_hidden must be >= 1, got {self.encoder_hidden}")
        if self.inference_alpha is not None and not 0.0 <= self.inference_alpha <= 1.0:
            raise ConfigurationError(
                f"inference_alpha must be in [0, 1], got {self.inference_alpha}"
            )
        if self.pseudo_label_mode not in ("all", "balanced"):
            raise ConfigurationError(
                f"pseudo_label_mode must be 'all' or 'balanced', got {self.pseudo_label_mode!r}"
            )
        check_positive(self.xi, "xi")
        if self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1, got {self.max_iterations}")

    @property
    def num_hops(self) -> int:
        """Number of concatenated propagation branches ``s``."""
        return len(self.normalized_steps)

    @property
    def effective_inference_alpha(self) -> float:
        """Restart probability used at private-inference time."""
        return self.alpha if self.inference_alpha is None else self.inference_alpha

    def preparation_key(self) -> tuple:
        """The epsilon/delta-independent knobs that determine Algorithm 1's
        preparation phase (encoder training, normalisation, propagation and
        pseudo-label selection).

        Two configurations with equal keys produce bitwise-identical
        :class:`~repro.core.model.PreparedInputs` for the same graph and seed,
        which is what lets the sweep engine reuse preparations across an
        epsilon sweep.
        """
        return (
            self.alpha,
            self.normalized_steps,
            self.encoder_dim,
            self.encoder_hidden,
            self.encoder_epochs,
            self.encoder_lr,
            self.encoder_weight_decay,
            self.encoder_dropout,
            self.use_pseudo_labels,
            self.pseudo_label_mode,
        )
