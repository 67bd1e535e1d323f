"""The parallel sweep engine: fan independent cells out over process workers.

:class:`ParallelExperimentRunner` executes the cells produced by
:func:`repro.runtime.cells.expand_cells` with a user-supplied *cell runner* --
any callable ``(SweepCell) -> ExperimentResult``.  With ``jobs=1`` cells run
inline; with ``jobs > 1`` they are dispatched to a ``concurrent.futures``
process pool, in which case the cell runner must be picklable (a module-level
function or a dataclass such as
:class:`repro.runtime.workers.FigureCellRunner`).

Determinism: every cell carries its own seed, so the schedule cannot leak
into the numbers -- a ``--jobs 8`` run is bitwise identical to ``--jobs 1``.
Cells sharing a ``(dataset, method, repeat)`` group (same seed, different
epsilon) are dispatched as one task so they land on one worker, where a GCON
epsilon axis shares one preparation and every cell the propagation cache.

Resumability: pass a :class:`~repro.runtime.store.JsonlResultStore`; finished
cells are streamed to disk as they complete and already-recorded cells are
skipped on the next run.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait

from repro.exceptions import ConfigurationError
from repro.runtime.cells import ExperimentResult, SweepCell, result_key
from repro.runtime.progress import ProgressReporter
from repro.runtime.store import JsonlResultStore


def context_digest(context: dict) -> str:
    """Stable short digest of a sweep's numerical settings (its *context*).

    Stored with every record and required to match on resume or shard merge,
    so results computed under different settings can never silently mix.  The
    single-process engine and the distributed workers must agree on this
    derivation bit for bit — it is the fingerprint that makes their stores
    interchangeable.
    """
    payload = json.dumps(context, sort_keys=True, default=str)
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]


class SweepExecutionError(RuntimeError):
    """A cell runner raised; carries the failing cell for diagnostics."""

    def __init__(self, cell: SweepCell, cause: BaseException):
        super().__init__(
            f"cell (method={cell.method!r}, dataset={cell.dataset!r}, "
            f"epsilon={cell.epsilon:g}, repeat={cell.repeat}) failed: {cause!r}"
        )
        self.cell = cell


def run_cell_group(cell_runner, cells: list[SweepCell]) -> list[ExperimentResult]:
    """Execute one group of cells (in a worker or inline).

    Runners implementing the *group protocol* — a ``run_group(cells)`` method,
    such as the sweep-solver fast paths of
    :class:`repro.runtime.workers.FigureCellRunner` — receive the whole
    epsilon axis at once so they can share one preparation and solve all
    budgets in a single vectorised pass; plain callables run cell by cell.
    Module-level so process pools can pickle it by reference.
    """
    run_group = getattr(cell_runner, "run_group", None)
    if run_group is not None:
        return run_group(cells)
    return [cell_runner(cell) for cell in cells]


def group_dispatch(cell_runner, cells: list[SweepCell]) -> bool:
    """Whether a group goes to the runner's ``run_group`` whole.

    A sweep-solved group inherently completes all at once, but a group the
    runner would only run cell by cell (``wants_group`` returns False) is
    better run per cell by the caller: each finished cell then streams to
    the store immediately, preserving crash-resume granularity.  The serial
    engine and the distributed worker both follow this rule.
    """
    if getattr(cell_runner, "run_group", None) is None:
        return False
    wants_group = getattr(cell_runner, "wants_group", None)
    return True if wants_group is None else bool(wants_group(cells))


# The cell runner is shipped once per worker through the pool initializer
# rather than once per submitted group: a runner carrying large state (e.g.
# ExperimentRunner's in-memory graphs) would otherwise be re-pickled for
# every group.
_WORKER_RUNNER = None


def _initialize_worker(cell_runner) -> None:
    global _WORKER_RUNNER
    _WORKER_RUNNER = cell_runner


def _run_group_in_worker(cells: list[SweepCell]) -> list[ExperimentResult]:
    return run_cell_group(_WORKER_RUNNER, cells)


class ParallelExperimentRunner:
    """Executes sweep cells serially or over a process pool, resumably."""

    def __init__(self, cell_runner, jobs: int = 1,
                 store: JsonlResultStore | None = None,
                 progress: bool | ProgressReporter = False,
                 mp_context=None, resume_context: dict | None = None):
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.cell_runner = cell_runner
        self.jobs = jobs
        self.store = store
        self.progress = progress
        self.mp_context = mp_context
        # A fingerprint of the sweep's numerical settings (scale, seed, epochs,
        # ...).  Stored with every record and required to match on resume, so
        # rerunning against the same --output with different settings recomputes
        # instead of silently returning the old numbers.
        self._context_digest = (
            None if resume_context is None else context_digest(resume_context)
        )

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, cells: list[SweepCell]) -> list[ExperimentResult]:
        """Run ``cells`` and return their results in canonical cell order."""
        if not cells:
            return []
        keys = [cell.key() for cell in cells]
        if len(set(keys)) != len(keys):
            raise ConfigurationError("duplicate (method, dataset, epsilon, repeat) cells")

        finished: dict[tuple, ExperimentResult] = {}
        if self.store is not None:
            wanted = set(keys)
            for record in self.store.load():
                if self._context_digest is not None \
                        and record.extra.get("sweep_context") != self._context_digest:
                    continue
                key = result_key(record)
                if key in wanted:
                    finished[key] = record

        pending = [cell for cell in cells if cell.key() not in finished]
        reporter = self._reporter(len(cells), already_done=len(cells) - len(pending))
        if pending:
            groups = self._group(pending)
            if self.jobs == 1 or len(groups) == 1:
                self._run_serial(groups, finished, reporter)
            else:
                self._run_pool(groups, finished, reporter)
        if reporter is not None:
            reporter.finish()
        if self.store is not None:
            self.store.close()
        return [finished[key] for key in keys]

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _reporter(self, total: int, already_done: int) -> ProgressReporter | None:
        if isinstance(self.progress, ProgressReporter):
            reporter = self.progress
        elif self.progress:
            reporter = ProgressReporter(total)
        else:
            return None
        if already_done:
            reporter.update(advance=already_done, note="resumed from store")
        return reporter

    @staticmethod
    def _group(pending: list[SweepCell]) -> list[list[SweepCell]]:
        groups: dict[int, list[SweepCell]] = {}
        for cell in pending:
            groups.setdefault(cell.group, []).append(cell)
        return list(groups.values())

    def _record(self, cells: list[SweepCell], results: list[ExperimentResult],
                finished: dict, reporter: ProgressReporter | None) -> None:
        if len(results) != len(cells):
            raise SweepExecutionError(
                cells[0], ValueError(f"cell runner returned {len(results)} results "
                                     f"for {len(cells)} cells"))
        for cell, record in zip(cells, results):
            if result_key(record) != cell.key():
                raise SweepExecutionError(
                    cell, ValueError(f"cell runner returned mismatched result "
                                     f"{result_key(record)}"))
            finished[cell.key()] = record
            if self.store is not None:
                if self._context_digest is not None:
                    record.extra["sweep_context"] = self._context_digest
                self.store.append(record)
        if reporter is not None and cells:
            last = cells[-1]
            reporter.update(advance=len(cells),
                            note=f"{last.method}/{last.dataset}")

    def _run_serial(self, groups, finished, reporter) -> None:
        for group_cells in groups:
            if group_dispatch(self.cell_runner, group_cells):
                try:
                    records = run_cell_group(self.cell_runner, group_cells)
                except Exception as error:
                    raise SweepExecutionError(group_cells[0], error) from error
                self._record(group_cells, records, finished, reporter)
                continue
            for cell in group_cells:
                try:
                    record = self.cell_runner(cell)
                except Exception as error:
                    raise SweepExecutionError(cell, error) from error
                self._record([cell], [record], finished, reporter)

    def _run_pool(self, groups, finished, reporter) -> None:
        max_workers = min(self.jobs, len(groups))
        with ProcessPoolExecutor(max_workers=max_workers,
                                 mp_context=self.mp_context,
                                 initializer=_initialize_worker,
                                 initargs=(self.cell_runner,)) as pool:
            futures = {
                pool.submit(_run_group_in_worker, group_cells): group_cells
                for group_cells in groups
            }
            remaining = set(futures)
            while remaining:
                done, remaining = wait(remaining, return_when=FIRST_EXCEPTION)
                # Record every group that finished in this batch before
                # surfacing a failure: the store must keep completed work so a
                # resume after the crash does not recompute it.
                failures = []
                for future in done:
                    group_cells = futures[future]
                    error = future.exception()
                    if error is not None:
                        failures.append((group_cells, error))
                        continue
                    self._record(group_cells, future.result(), finished, reporter)
                if failures:
                    for other in remaining:
                        other.cancel()
                    group_cells, error = failures[0]
                    raise SweepExecutionError(group_cells[0], error) from error
