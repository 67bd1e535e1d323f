"""Sweep expansion: cells, deterministic per-cell seeds and result records.

A *sweep* is the cross product ``method x dataset x epsilon x repeat`` behind
every figure and table of the paper.  :func:`expand_cells` turns the axes into
a flat list of independent :class:`SweepCell` records, each carrying a
deterministic seed, so the cells can be executed in any order -- serially, by
a process pool, or resumed from a partial run -- and still reproduce the exact
numbers of a serial sweep.

Two seed-derivation modes are supported:

* ``seed_axis="repeat"`` (engine default): the seed depends only on
  ``(master_seed, dataset, method, repeat)`` via a stable hash.  Cells that
  differ only in epsilon share their seed, which is what lets workers reuse
  the epsilon-independent preparation (encoder + propagation) across an
  epsilon sweep.
* ``seed_axis="epsilon"`` (legacy): bit-for-bit the derivation of the original
  serial :class:`~repro.evaluation.runner.ExperimentRunner`, which drew a
  fresh seed per ``(dataset, method, epsilon, repeat)`` from a shared
  generator.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.random import as_rng, spawn_rngs


@dataclass
class ExperimentResult:
    """One (method, dataset, epsilon, repeat) measurement."""

    method: str
    dataset: str
    epsilon: float
    repeat: int
    micro_f1: float
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of sweep work with its deterministic seed.

    ``index`` is the cell's position in the canonical (serial) expansion
    order and fixes the ordering of the result list; ``group`` identifies the
    ``(dataset, method, repeat)`` bucket whose cells share a seed under
    ``seed_axis="repeat"`` -- the engine keeps a group on one worker so its
    epsilon axis can share one preparation.
    """

    index: int
    method: str
    dataset: str
    epsilon: float
    repeat: int
    seed: int
    group: int

    def key(self) -> tuple:
        return (self.method, self.dataset, float(self.epsilon), self.repeat)


def result_key(result: ExperimentResult) -> tuple:
    """The (method, dataset, epsilon, repeat) identity of a result record."""
    return (result.method, result.dataset, float(result.epsilon), result.repeat)


def epsilon_axis(cells: list[SweepCell]) -> list[float]:
    """The epsilon values of one sweep group, validated, in cell order.

    A group handed to the sweep-solver fast path must be exactly one epsilon
    axis: every cell shares ``(method, dataset, repeat, seed)`` and carries a
    distinct budget.  The engine's grouping guarantees this for cells produced
    by :func:`expand_cells`; hand-built cell lists are validated here so a
    mis-grouped batch fails loudly instead of solving the wrong sweep.
    """
    if not cells:
        raise ConfigurationError("an epsilon axis needs at least one cell")
    first = cells[0]
    for cell in cells[1:]:
        if (cell.method, cell.dataset, cell.repeat, cell.seed) \
                != (first.method, first.dataset, first.repeat, first.seed):
            raise ConfigurationError(
                f"cells of one epsilon axis must share (method, dataset, repeat, seed); "
                f"got {cell.key()} alongside {first.key()}"
            )
    epsilons = [float(cell.epsilon) for cell in cells]
    if len(set(epsilons)) != len(epsilons):
        raise ConfigurationError(f"duplicate epsilon values in sweep group: {epsilons}")
    return epsilons


def _stable_token(text: str) -> int:
    """A process-invariant 63-bit integer derived from ``text``.

    ``hash()`` would vary with ``PYTHONHASHSEED`` across worker processes,
    which would break bitwise reproducibility of ``--jobs N`` runs.
    """
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def derive_cell_seed(master_seed: int, dataset: str, method: str, repeat: int) -> int:
    """Deterministic, epsilon-independent per-cell seed (``seed_axis="repeat"``)."""
    entropy = [master_seed & (2**63 - 1), _stable_token(dataset),
               _stable_token(method), repeat]
    state = np.random.SeedSequence(entropy=entropy).generate_state(1, dtype=np.uint64)[0]
    return int(state % (2**31 - 1))


def expand_cells(methods, datasets, epsilons, repeats: int, seed: int = 0,
                 seed_axis: str = "repeat") -> list[SweepCell]:
    """Expand sweep axes into independent cells in canonical serial order.

    The canonical order is ``dataset -> method -> epsilon -> repeat`` (the
    nested-loop order of the original serial runner); results are always
    reported back in this order regardless of execution schedule.
    """
    methods = list(methods)
    datasets = list(datasets)
    epsilons = [float(e) for e in epsilons]
    if not methods:
        raise ConfigurationError("no methods supplied")
    if not datasets:
        raise ConfigurationError("no datasets supplied")
    if not epsilons:
        raise ConfigurationError("no epsilon values supplied")
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    if seed_axis not in ("repeat", "epsilon"):
        raise ConfigurationError(
            f"seed_axis must be 'repeat' or 'epsilon', got {seed_axis!r}"
        )

    cells: list[SweepCell] = []
    groups: dict[tuple, int] = {}
    index = 0
    master_rng = as_rng(seed) if seed_axis == "epsilon" else None
    for dataset in datasets:
        for method in methods:
            for epsilon in epsilons:
                if seed_axis == "epsilon":
                    repeat_rngs = spawn_rngs(master_rng, repeats)
                    cell_seeds = [int(rng.integers(0, 2**31 - 1)) for rng in repeat_rngs]
                else:
                    cell_seeds = [derive_cell_seed(seed, dataset, method, repeat)
                                  for repeat in range(repeats)]
                for repeat, cell_seed in enumerate(cell_seeds):
                    group_key = (dataset, method, repeat)
                    group = groups.setdefault(group_key, len(groups))
                    cells.append(SweepCell(
                        index=index, method=method, dataset=dataset,
                        epsilon=epsilon, repeat=repeat, seed=cell_seed, group=group,
                    ))
                    index += 1
    return cells
