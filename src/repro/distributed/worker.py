"""The distributed worker loop: claim a group, run it, publish its shard.

A worker is stateless beyond its id — point any number of them (from any
machine that mounts the queue directory) at a ``--dist-dir`` and they drain
it cooperatively:

1. **claim**: walk the pending groups and take the first claimable lease
   (unleased, or expired and stolen — see :mod:`repro.distributed.lease`);
2. **execute**: rebuild the cell runner from the queue's spec and run the
   group under the single-machine engine's dispatch rule
   (:func:`~repro.runtime.engine.group_dispatch`) — a GCON epsilon axis
   takes the vectorised
   :class:`~repro.core.sweep.SweepSolver` fast path, everything else runs
   cell by cell with a heartbeat between cells;
3. **publish**: results stream into a private work-in-progress JSONL shard,
   which is renamed into place atomically only when the group is complete,
   then the done marker is written and the lease released.

A crash at any point leaves either nothing (before the rename) or a
complete shard (after), never a half-published group: the lease expires,
another worker re-claims, recomputes the bitwise-identical results and
publishes.  Workers share the content-addressed
:class:`~repro.core.persistence.PreparationStore` over the same filesystem
when ``preparation_cache`` (or ``REPRO_PREPARATION_CACHE``) is set, so only
the first worker to touch a ``(graph, seed, config)`` pays for encoder
training and propagation.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field

from repro.distributed.lease import LeaseManager
from repro.distributed.queue import GroupTask, WorkQueue
from repro.obs.trace import get_tracer
from repro.runtime.cells import result_key
from repro.runtime.engine import group_dispatch, run_cell_group
from repro.runtime.store import JsonlResultStore


def default_worker_id() -> str:
    """host-pid-nonce: unique per process, readable in queue listings."""
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class _HeartbeatPump:
    """Refreshes a lease from a daemon thread while a group executes.

    A group's vectorised solve can outlast any fixed TTL, so the heartbeat
    cannot live between cells only — the pump refreshes every ``ttl / 3``
    seconds for as long as the execution runs.  If the refresh reports the
    lease lost (the worker was partitioned long enough to be reaped), the
    pump records it and stops; the worker checks :attr:`lost` afterwards
    and abandons the group.
    """

    def __init__(self, manager, lease):
        self.manager = manager
        self.lease = lease
        self.interval = lease.ttl / 3.0
        self.lost = False
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "_HeartbeatPump":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                refreshed = self.manager.heartbeat(self.lease)
            except OSError:  # pragma: no cover - transient filesystem hiccup
                continue
            if refreshed is None:
                self.lost = True
                return
            self.lease = refreshed


@dataclass
class WorkerReport:
    """What one :meth:`DistributedWorker.run` call accomplished."""

    worker_id: str
    groups_completed: int = 0
    cells_completed: int = 0
    groups_stolen: int = 0
    groups_lost: int = 0
    groups_failed: int = 0
    groups_quarantined: int = 0
    elapsed_seconds: float = 0.0
    completed_group_ids: list = field(default_factory=list)

    def summary(self) -> str:
        text = (f"worker {self.worker_id}: {self.groups_completed} group(s), "
                f"{self.cells_completed} cell(s) in {self.elapsed_seconds:.1f}s")
        if self.groups_stolen:
            text += f", {self.groups_stolen} re-leased from expired worker(s)"
        if self.groups_lost:
            text += f", {self.groups_lost} lease(s) lost mid-run"
        if self.groups_failed:
            text += f", {self.groups_failed} failed execution(s)"
        if self.groups_quarantined:
            text += (f", {self.groups_quarantined} group(s) quarantined "
                     f"(see failed/)")
        return text


class DistributedWorker:
    """Claims and executes cell groups from a :class:`WorkQueue`.

    ``wait_for_completion=True`` (the default) keeps the worker polling
    while other workers still hold pending groups, so ``run`` returns only
    once the whole sweep is done — a crashed peer's groups are picked up
    after lease expiry.  ``False`` exits as soon as nothing is claimable.

    ``cell_runner`` overrides the runner built from the spec (tests inject
    cheap deterministic runners); ``max_groups`` bounds how many groups this
    call may execute; ``clock`` feeds the lease manager for deterministic
    expiry tests.

    ``max_attempts`` is the retry-then-quarantine budget: a group whose
    execution *raises* (as opposed to crashing the process) leaves a numbered
    breadcrumb with the captured traceback under ``failed/`` and goes back to
    the pool; once the breadcrumb count reaches ``max_attempts`` the group is
    quarantined — taken out of the claimable set for every worker — so a
    deterministically failing group cannot starve the sweep by being
    re-leased forever.  The worker itself survives failures and moves on to
    other groups.
    """

    def __init__(self, dist_dir, worker_id: str | None = None, *,
                 lease_ttl: float = 60.0, poll_interval: float = 0.5,
                 max_groups: int | None = None, wait_for_completion: bool = True,
                 cell_runner=None, preparation_cache: str | None = None,
                 max_attempts: int = 3, clock=None, log_stream=None):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.queue = WorkQueue(dist_dir)
        self.worker_id = worker_id or default_worker_id()
        self.leases = LeaseManager(self.queue.leases_dir, ttl=lease_ttl,
                                   clock=clock)
        self.poll_interval = poll_interval
        self.max_groups = max_groups
        self.wait_for_completion = wait_for_completion
        self.cell_runner = cell_runner
        self.preparation_cache = preparation_cache
        self.max_attempts = max_attempts
        self.log_stream = log_stream

    # ------------------------------------------------------------------ #
    # the loop
    # ------------------------------------------------------------------ #
    def run(self) -> WorkerReport:
        """Drain the queue; return once the sweep is complete (or bounded)."""
        spec = self.queue.load_spec()
        runner = self.cell_runner if self.cell_runner is not None \
            else spec.cell_runner(preparation_cache=self.preparation_cache)
        context = spec.context_digest()
        report = WorkerReport(worker_id=self.worker_id)
        start = time.perf_counter()
        while True:
            if self.max_groups is not None \
                    and report.groups_completed >= self.max_groups:
                break
            claim_started_ns = time.monotonic_ns()
            claim = self._claim_next(report)
            if claim is None:
                if not self.queue.runnable_ids():
                    # Sweep complete, or every remaining group is quarantined
                    # — either way there is nothing left any worker may run.
                    break
                if not self.wait_for_completion:
                    break  # someone else holds the rest
                time.sleep(self.poll_interval)
                continue
            task, lease = claim
            self._execute(task, lease, runner, context, report,
                          claim_started_ns=claim_started_ns)
        report.elapsed_seconds = time.perf_counter() - start
        return report

    def _claim_next(self, report: WorkerReport):
        for group_id in self.queue.runnable_ids():
            holder = self.leases.read(group_id)
            lease = self.leases.acquire(group_id, self.worker_id)
            if lease is None:
                continue
            if self.queue.is_done(group_id):
                # Completed between our listing and the claim.
                self.leases.release(lease)
                continue
            if holder is not None and self.leases.is_expired(holder) \
                    and holder.worker_id != self.worker_id:
                report.groups_stolen += 1
                self._log(f"re-leased {group_id} from expired "
                          f"worker {holder.worker_id}")
            return self.queue.read_task(group_id), lease
        return None

    # ------------------------------------------------------------------ #
    # executing one group
    # ------------------------------------------------------------------ #
    def _execute(self, task: GroupTask, lease, runner, context: str,
                 report: WorkerReport, *,
                 claim_started_ns: int | None = None) -> None:
        """Trace wrapper: one ``dist.group`` trace per executed group.

        The worker shares the process-global tracer (:func:`get_tracer`);
        ``repro trace`` and tests read its store.  Tracing failures never
        fail the group — the root is always ended in ``finally``.
        """
        tracer = get_tracer()
        root = tracer.start_trace("dist.group", attrs={
            "group_id": task.group_id, "worker_id": self.worker_id,
            "cells": len(task.cells)})
        if claim_started_ns is not None:
            # The claim walk (lease scan + acquire) happened just before
            # this trace existed; backfill it from its captured start.
            tracer.add_span("lease.claim", parent=root,
                            start_ns=claim_started_ns,
                            end_ns=tracer.clock_ns())
        outcome = "failed"
        try:
            with tracer.activate(root):
                outcome = self._execute_group(task, lease, runner, context,
                                              report, tracer)
        finally:
            root.attrs["outcome"] = outcome
            tracer.end(root,
                       status="ok" if outcome == "completed" else "error")

    def _execute_group(self, task: GroupTask, lease, runner, context: str,
                       report: WorkerReport, tracer) -> str:
        """Run one claimed group; returns the outcome recorded on the trace:
        ``completed`` / ``failed`` / ``quarantined`` / ``lost``."""
        cells = list(task.cells)
        wip = self.queue.wip_shard_path(task.group_id, self.worker_id)
        wip.unlink(missing_ok=True)
        store = JsonlResultStore(wip)
        failing = cells[0]
        pump = _HeartbeatPump(self.leases, lease)
        try:
            with pump, tracer.span("group.run"):
                if group_dispatch(runner, cells):
                    records = run_cell_group(runner, cells)
                    self._append(store, cells, records, context)
                else:
                    records = []
                    for cell in cells:
                        if pump.lost:
                            break
                        failing = cell
                        with tracer.span("cell.run",
                                         attrs={"cell": cell.key()}):
                            record = runner(cell)
                        records.append(record)
                        self._append(store, [cell], [record], context)
        except Exception as error:
            store.close()
            wip.unlink(missing_ok=True)
            attempt = self.queue.record_failure(
                task.group_id, self.worker_id,
                f"cell {failing.key()}: {error!r}", traceback.format_exc())
            report.groups_failed += 1
            self._log(f"execution of {task.group_id} failed "
                      f"(attempt {attempt}/{self.max_attempts}): {error!r}")
            if attempt >= self.max_attempts:
                self.queue.quarantine(task.group_id, self.worker_id,
                                      f"cell {failing.key()}: {error!r}",
                                      attempt, traceback.format_exc())
                report.groups_quarantined += 1
                self._log(f"quarantined {task.group_id} after "
                          f"{attempt} failed attempt(s)")
                self.leases.release(pump.lease)
                return "quarantined"
            self.leases.release(pump.lease)
            return "failed"
        store.close()
        if pump.lost:
            # Partitioned long enough to be reaped: abandon the group, the
            # new holder recomputes bitwise-identical results.
            report.groups_lost += 1
            self._log(f"lost lease on {task.group_id}; abandoning")
            wip.unlink(missing_ok=True)
            return "lost"
        with tracer.span("shard.publish"):
            published = self._publish(task.group_id, wip)
            if published:
                self.queue.mark_done(task.group_id, self.worker_id,
                                     len(records))
                self.queue.clean_wips(task.group_id)
        if not published:
            report.groups_lost += 1
            self.leases.release(pump.lease)
            return "lost"
        self.leases.release(pump.lease)
        report.groups_completed += 1
        report.cells_completed += len(records)
        report.completed_group_ids.append(task.group_id)
        first = cells[0]
        self._log(f"completed {task.group_id} "
                  f"({first.method}/{first.dataset}, {len(records)} cells)")
        return "completed"

    def _publish(self, group_id: str, wip) -> bool:
        """Atomically promote our wip shard; False if a racing holder beat us.

        The loser of a re-lease race may find its wip already swept away by
        the winner's ``clean_wips`` — harmless, because both computed the
        same records from the same seeds; the winner's published shard (and
        done marker) stand.
        """
        try:
            os.replace(wip, self.queue.shard_path(group_id))
        except FileNotFoundError:
            if not self.queue.shard_path(group_id).exists():
                raise
            self._log(f"{group_id} was already published by another worker")
            return False
        return True

    def _append(self, store: JsonlResultStore, cells, records,
                context: str) -> None:
        if len(records) != len(cells):
            raise ValueError(f"cell runner returned {len(records)} results "
                             f"for {len(cells)} cells")
        for cell, record in zip(cells, records):
            if result_key(record) != cell.key():
                raise ValueError(f"cell runner returned mismatched result "
                                 f"{result_key(record)} for cell {cell.key()}")
            record.extra["sweep_context"] = context
            store.append(record)

    def _log(self, message: str) -> None:
        if self.log_stream is not None:
            print(f"[{self.worker_id}] {message}", file=self.log_stream,
                  flush=True)
