"""Privacy budget specification shared by GCON and the baselines."""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import PrivacyBudgetError
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PrivacySpec:
    """An (epsilon, delta) edge-level differential privacy budget.

    ``delta`` defaults to the paper's convention ``1 / |E|`` when constructed
    via :meth:`for_graph`.
    """

    epsilon: float
    delta: float

    def __post_init__(self) -> None:
        check_positive(self.epsilon, "epsilon", error=PrivacyBudgetError)
        if not 0.0 <= self.delta < 1.0:
            raise PrivacyBudgetError(f"delta must be in [0, 1), got {self.delta}")

    @classmethod
    def for_graph(cls, epsilon: float, graph) -> "PrivacySpec":
        """Construct a budget with ``delta = 1/|E|`` for the given graph."""
        num_edges = max(int(graph.num_edges), 1)
        return cls(epsilon=epsilon, delta=1.0 / num_edges)

    def split(self, fraction: float) -> tuple["PrivacySpec", "PrivacySpec"]:
        """Split the epsilon budget into two parts; delta is carried by both halves.

        The split is done by sequential composition on epsilon only, which is
        the convention the DPGCN/LPGNet baselines use for their two-stage
        mechanisms.
        """
        if not 0.0 < fraction < 1.0:
            raise PrivacyBudgetError(f"fraction must be in (0, 1), got {fraction}")
        first = PrivacySpec(self.epsilon * fraction, self.delta)
        second = PrivacySpec(self.epsilon * (1.0 - fraction), self.delta)
        return first, second

    def __str__(self) -> str:
        return f"(ε={self.epsilon:g}, δ={self.delta:g})"
