"""The filesystem-backed work queue: one sweep, many machines, no server.

A queue is a directory on a filesystem every participating machine can
reach (local disk for multi-process runs, NFS/Lustre for multi-machine):

.. code-block:: text

    dist_dir/
      spec.json             the submitted SweepSpec + its content digest
      tasks/<gid>.json      one task per cell group (a whole epsilon axis)
      leases/<gid>.lease    active claims: worker id + heartbeat (lease.py)
      shards/<gid>.jsonl    completed per-group result shards
      done/<gid>.json       completion markers (worker id, record count)
      failed/<gid>.attempt-*.json      numbered failure breadcrumbs (+ traceback)
      failed/<gid>.quarantined.json    terminal marker after max_attempts failures

The unit of work is a cell *group* — every cell of one
``(dataset, method, repeat)`` bucket, i.e. one epsilon axis — so the
vectorised :class:`~repro.core.sweep.SweepSolver` fast path keeps working
per shard and a claimed group amortises one preparation across all budgets.

Everything is content-addressed and idempotent: group ids derive from the
spec digest plus the group's cell identities, task files are only ever
created (never mutated), shards are published by atomic rename, and done
markers are plain idempotent writes — so resubmitting a sweep is a no-op,
two workers racing on the same group converge on bitwise-identical shards,
and a crashed process leaves nothing that needs repair.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.distributed.spec import (
    SweepSpec,
    _decode_epsilon,
    _integer,
    _number,
    check_fields,
    decode_json_object,
)
from repro.exceptions import ConfigurationError
from repro.runtime.cells import SweepCell
from repro.utils.fs import atomic_write_text

TASK_FORMAT_VERSION = 1

# The JSON value each task field, and each of its cells' fields, must hold.
_TASK_CHECKS = {
    "group_id": lambda value: isinstance(value, str),
    "spec_digest": lambda value: isinstance(value, str),
    "cells": lambda value: isinstance(value, list) and all(
        isinstance(cell, dict) for cell in value),
}
_CELL_CHECKS = {
    "index": _integer, "method": lambda value: isinstance(value, str),
    "dataset": lambda value: isinstance(value, str),
    "epsilon": lambda value: _number(value) or value == "inf",
    "repeat": _integer, "seed": _integer, "group": _integer,
}


def _slug(text: str) -> str:
    """A filesystem-safe token from a method/dataset name."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_") or "x"


@dataclass(frozen=True)
class GroupTask:
    """One queued unit of work: a whole epsilon axis of cells."""

    group_id: str
    spec_digest: str
    cells: tuple

    @property
    def key(self) -> tuple:
        first = self.cells[0]
        return (first.dataset, first.method, first.repeat)

    def to_json(self) -> str:
        return json.dumps({
            "format": TASK_FORMAT_VERSION,
            "group_id": self.group_id,
            "spec_digest": self.spec_digest,
            "cells": [{
                "index": cell.index, "method": cell.method,
                "dataset": cell.dataset,
                "epsilon": cell.epsilon if math.isfinite(cell.epsilon) else "inf",
                "repeat": cell.repeat, "seed": cell.seed, "group": cell.group,
            } for cell in self.cells],
        }, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GroupTask":
        """Parse :meth:`to_json` output; a task of another format, or one
        that is not a JSON object of exactly this format's fields (and cells
        of exactly theirs), each of its JSON type, raises
        :class:`ConfigurationError`."""
        payload = decode_json_object(text, "group task")
        version = payload.pop("format", TASK_FORMAT_VERSION)
        if version != TASK_FORMAT_VERSION:
            raise ConfigurationError(f"unsupported task format {version}")
        check_fields(payload, _TASK_CHECKS, "group task")
        if not payload["cells"]:
            raise ConfigurationError("a group task must contain at least one cell")
        for raw in payload["cells"]:
            check_fields(raw, _CELL_CHECKS, "group task cell")
        cells = tuple(SweepCell(**dict(raw, epsilon=_decode_epsilon(raw["epsilon"])))
                      for raw in payload["cells"])
        return cls(group_id=payload["group_id"],
                   spec_digest=payload["spec_digest"], cells=cells)


def group_id_for(spec_digest: str, cells) -> str:
    """Deterministic, human-scannable id of one cell group.

    The readable prefix names the ``(dataset, method, repeat)`` bucket; the
    hash suffix covers the spec digest and the full cell identities, so two
    different sweeps (or a regrouped sweep) can never collide on an id.
    """
    first = cells[0]
    identity = json.dumps([spec_digest] + [
        [cell.index, cell.method, cell.dataset, repr(cell.epsilon),
         cell.repeat, cell.seed] for cell in cells
    ], sort_keys=True)
    suffix = hashlib.sha256(identity.encode("utf-8")).hexdigest()[:12]
    return f"{_slug(first.dataset)}-{_slug(first.method)}-r{first.repeat}-{suffix}"


class WorkQueue:
    """Filesystem layout plus the atomic operations the protocol needs."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    # -- paths --------------------------------------------------------- #
    @property
    def spec_path(self) -> Path:
        return self.root / "spec.json"

    @property
    def tasks_dir(self) -> Path:
        return self.root / "tasks"

    @property
    def leases_dir(self) -> Path:
        return self.root / "leases"

    @property
    def shards_dir(self) -> Path:
        return self.root / "shards"

    @property
    def done_dir(self) -> Path:
        return self.root / "done"

    @property
    def failed_dir(self) -> Path:
        return self.root / "failed"

    def task_path(self, group_id: str) -> Path:
        return self.tasks_dir / f"{group_id}.json"

    def shard_path(self, group_id: str) -> Path:
        return self.shards_dir / f"{group_id}.jsonl"

    def wip_shard_path(self, group_id: str, worker_id: str) -> Path:
        return self.shards_dir / f"{group_id}.jsonl.wip-{_slug(worker_id)}"

    def done_path(self, group_id: str) -> Path:
        return self.done_dir / f"{group_id}.json"

    # -- spec ---------------------------------------------------------- #
    def initialize(self, spec: SweepSpec) -> bool:
        """Write ``spec`` into the queue; True if this call created it.

        Idempotent on resubmission of the same spec; a *different* spec in
        an already-initialised directory is refused — one queue directory
        hosts exactly one sweep.
        """
        digest = spec.digest()
        if self.spec_path.exists():
            existing = self.load_spec()
            if existing.digest() != digest:
                raise ConfigurationError(
                    f"{self.root} already hosts a different sweep "
                    f"({existing.digest()[:12]} != {digest[:12]}); "
                    f"use a fresh --dist-dir per sweep")
            return False
        for directory in (self.tasks_dir, self.leases_dir, self.shards_dir,
                          self.done_dir, self.failed_dir):
            directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.spec_path, spec.to_json() + "\n")
        return True

    def load_spec(self) -> SweepSpec:
        if not self.spec_path.exists():
            raise ConfigurationError(
                f"{self.root} is not an initialised queue (no spec.json); "
                f"submit a sweep first")
        return SweepSpec.from_json(self.spec_path.read_text(encoding="utf-8"))

    # -- tasks --------------------------------------------------------- #
    def enqueue(self, task: GroupTask) -> bool:
        """Persist ``task`` if absent; True if this call enqueued it."""
        path = self.task_path(task.group_id)
        if path.exists():
            return False
        self.tasks_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, task.to_json() + "\n")
        return True

    def read_task(self, group_id: str) -> GroupTask:
        return GroupTask.from_json(
            self.task_path(group_id).read_text(encoding="utf-8"))

    def task_ids(self) -> list[str]:
        if not self.tasks_dir.exists():
            return []
        return sorted(path.stem for path in self.tasks_dir.glob("*.json"))

    # -- completion ---------------------------------------------------- #
    def done_ids(self) -> set[str]:
        if not self.done_dir.exists():
            return set()
        return {path.stem for path in self.done_dir.glob("*.json")}

    def is_done(self, group_id: str) -> bool:
        return self.done_path(group_id).exists()

    def pending_ids(self) -> list[str]:
        """Task ids without a done marker, in stable (sorted) order."""
        done = self.done_ids()
        return [gid for gid in self.task_ids() if gid not in done]

    def mark_done(self, group_id: str, worker_id: str, num_records: int) -> None:
        """Publish the completion marker (idempotent: last writer wins, and
        every writer computed bitwise-identical records)."""
        self.done_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.done_path(group_id), json.dumps({
            "group_id": group_id, "worker_id": worker_id,
            "num_records": num_records,
        }, sort_keys=True) + "\n")

    def clean_wips(self, group_id: str) -> None:
        """Drop leftover work-in-progress shards of ``group_id`` (crashed or
        out-raced workers); the published shard is the only one that counts."""
        for path in self.shards_dir.glob(f"{group_id}.jsonl.wip-*"):
            path.unlink(missing_ok=True)

    # -- failure breadcrumbs and quarantine ---------------------------- #
    # Task files are immutable, so the retry budget of a group is not a
    # counter *in* the task file but the count of its attempt breadcrumbs
    # under failed/: every failed execution leaves one, numbered, with the
    # captured traceback.  Once the count reaches the worker's max_attempts
    # the group is quarantined — a terminal marker that takes it out of the
    # claimable set, so a deterministically failing group stops being
    # re-leased forever and the rest of the sweep can finish.
    def quarantine_path(self, group_id: str) -> Path:
        return self.failed_dir / f"{group_id}.quarantined.json"

    def record_failure(self, group_id: str, worker_id: str, error: str,
                       traceback_text: str = "") -> int:
        """Leave one attempt breadcrumb; returns the attempt number it records.

        Two workers racing on the same attempt number both leave their file
        (the names differ by worker id), which only over-counts attempts —
        quarantine triggers at the latest after ``max_attempts`` real
        failures, never before a genuine one.
        """
        self.failed_dir.mkdir(parents=True, exist_ok=True)
        attempt = self.attempts(group_id) + 1
        atomic_write_text(
            self.failed_dir / f"{group_id}.attempt-{attempt:03d}-{_slug(worker_id)}.json",
            json.dumps({"group_id": group_id, "worker_id": worker_id,
                        "attempt": attempt, "error": error,
                        "traceback": traceback_text}, sort_keys=True, indent=2) + "\n")
        return attempt

    def attempts(self, group_id: str) -> int:
        """How many failed executions of ``group_id`` left breadcrumbs."""
        if not self.failed_dir.exists():
            return 0
        return sum(1 for _ in self.failed_dir.glob(f"{group_id}.attempt-*.json"))

    def quarantine(self, group_id: str, worker_id: str, error: str,
                   attempts: int, traceback_text: str = "") -> None:
        """Write the terminal quarantine marker (idempotent: every writer saw
        the same deterministic failure)."""
        self.failed_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_text(self.quarantine_path(group_id), json.dumps({
            "group_id": group_id, "worker_id": worker_id, "attempts": attempts,
            "error": error, "traceback": traceback_text,
        }, sort_keys=True, indent=2) + "\n")

    def is_quarantined(self, group_id: str) -> bool:
        return self.quarantine_path(group_id).exists()

    def quarantined_ids(self) -> set[str]:
        if not self.failed_dir.exists():
            return set()
        return {path.name[:-len(".quarantined.json")]
                for path in self.failed_dir.glob("*.quarantined.json")}

    def runnable_ids(self) -> list[str]:
        """Pending groups a worker may still claim (not done, not quarantined)."""
        quarantined = self.quarantined_ids()
        return [gid for gid in self.pending_ids() if gid not in quarantined]

    def failure_count(self) -> int:
        """Number of attempt breadcrumbs on record (quarantine markers excluded)."""
        if not self.failed_dir.exists():
            return 0
        return sum(1 for _ in self.failed_dir.glob("*.attempt-*.json"))
