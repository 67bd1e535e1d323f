"""Atomic filesystem leases: claim files with worker ids and heartbeats.

A lease is a JSON claim file created with ``O_CREAT | O_EXCL`` — the one
filesystem primitive that is atomic on local disks and on the network
filesystems (NFSv3+, Lustre, CIFS) a multi-machine sweep shares — so exactly
one worker can hold a group at a time.  The holder refreshes a heartbeat
timestamp inside the file; a lease whose heartbeat is older than its TTL is
*expired* and may be stolen by any other worker:

1. the stealer atomically renames the stale file to a private reap token
   (two concurrent stealers race on the rename; exactly one wins, the loser
   gets ``FileNotFoundError`` and walks away);
2. the winner deletes the token and claims the group with a fresh exclusive
   create, exactly like a first claim.

Every acquisition is stamped with a fresh *nonce*, so two claims by the same
worker id (a restart, a zombie thread of a previous incarnation) are
distinguishable.  All mutating operations verify the nonce, never just the
worker id:

* :meth:`LeaseManager.heartbeat` refuses to refresh a lease that is already
  expired (it is up for grabs; refreshing it would race a stealer's reap)
  and re-reads the file after the atomic rewrite — if the file no longer
  carries our nonce, a stealer won the window and the refresh reports the
  lease as lost instead of silently resurrecting it.
* :meth:`LeaseManager.release` never does check-then-unlink.  It atomically
  renames the claim file to a private token (mirroring the reap protocol),
  inspects the token, and — if the claim turns out to belong to a newer
  acquisition — restores it instead of deleting it.

A partitioned-but-alive worker therefore loses its lease rather than
wedging the sweep; when it reconnects, :meth:`LeaseManager.heartbeat`
reports the loss and the worker abandons the group.  Because every cell
carries a deterministic seed, the work the zombie already did is bitwise
identical to the re-claimer's — double execution wastes time, never
correctness.

Expiry compares the heartbeat against this machine's wall clock, so
machines sharing a queue need loosely synchronised clocks (NTP-level skew
is fine for the minute-scale TTLs used here).  The clock is injectable for
deterministic tests.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.utils.fs import atomic_write_text


@dataclass(frozen=True)
class Lease:
    """One worker's claim on one group.

    ``nonce`` identifies the *acquisition*, not the worker: a worker that
    loses a lease and re-acquires it holds a new nonce, so stale handles
    from the previous incarnation can never mutate the new claim.
    """

    group_id: str
    worker_id: str
    acquired_at: float
    heartbeat_at: float
    ttl: float
    nonce: str = ""

    def to_json(self) -> str:
        return json.dumps({
            "group_id": self.group_id, "worker_id": self.worker_id,
            "acquired_at": self.acquired_at, "heartbeat_at": self.heartbeat_at,
            "ttl": self.ttl, "nonce": self.nonce,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Lease":
        """Parse a claim file; keys it does not know (such as the ``meta``
        payload older writers added) are ignored."""
        payload = json.loads(text)
        return cls(group_id=str(payload["group_id"]),
                   worker_id=str(payload["worker_id"]),
                   acquired_at=float(payload["acquired_at"]),
                   heartbeat_at=float(payload["heartbeat_at"]),
                   ttl=float(payload["ttl"]),
                   nonce=str(payload.get("nonce", "")))


class LeaseManager:
    """Acquire, refresh, steal and release leases under one directory."""

    def __init__(self, root: str | os.PathLike, ttl: float = 60.0, clock=None):
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self.root = Path(root)
        self.ttl = float(ttl)
        self.clock = clock if clock is not None else time.time

    def path_for(self, group_id: str) -> Path:
        return self.root / f"{group_id}.lease"

    # ------------------------------------------------------------------ #
    # claiming
    # ------------------------------------------------------------------ #
    def acquire(self, group_id: str, worker_id: str) -> Lease | None:
        """Claim ``group_id`` for ``worker_id``; ``None`` if validly held.

        An expired lease is stolen (see the module docstring for the
        race-free protocol); a fresh lease held by someone else — including
        a past incarnation of this very worker id — is respected.
        """
        lease = self._try_create(group_id, worker_id)
        if lease is not None:
            return lease
        current = self.read(group_id)
        if current is None:
            # The holder released (or was reaped) between our create attempt
            # and the read; try once more, then let the caller's next poll
            # retry.
            return self._try_create(group_id, worker_id)
        if not self.is_expired(current):
            return None
        if not self._reap(group_id):
            return None
        return self._try_create(group_id, worker_id)

    def _try_create(self, group_id: str, worker_id: str) -> Lease | None:
        now = self.clock()
        lease = Lease(group_id=group_id, worker_id=worker_id,
                      acquired_at=now, heartbeat_at=now, ttl=self.ttl,
                      nonce=uuid.uuid4().hex)
        self.root.mkdir(parents=True, exist_ok=True)
        try:
            handle = os.open(self.path_for(group_id),
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None
        try:
            os.write(handle, (lease.to_json() + "\n").encode("utf-8"))
        finally:
            os.close(handle)
        return lease

    def _reap(self, group_id: str) -> bool:
        """Atomically retire an expired lease file; True if *we* retired it."""
        token = self.root / f".reap-{group_id}-{uuid.uuid4().hex}"
        try:
            os.replace(self.path_for(group_id), token)
        except FileNotFoundError:
            return False  # a concurrent stealer won the rename
        token.unlink(missing_ok=True)
        return True

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    def read(self, group_id: str) -> Lease | None:
        """The current lease on ``group_id``, ``None`` if absent/corrupt."""
        try:
            text = self.path_for(group_id).read_text(encoding="utf-8")
            return Lease.from_json(text)
        except (OSError, ValueError, KeyError):
            return None

    def is_expired(self, lease: Lease) -> bool:
        return self.clock() - lease.heartbeat_at > lease.ttl

    def holder(self, group_id: str) -> str | None:
        """The worker id validly holding ``group_id``, ``None`` otherwise."""
        lease = self.read(group_id)
        if lease is None or self.is_expired(lease):
            return None
        return lease.worker_id

    # ------------------------------------------------------------------ #
    # holding
    # ------------------------------------------------------------------ #
    def heartbeat(self, lease: Lease) -> Lease | None:
        """Refresh ``lease``; ``None`` if it was lost (stolen or released).

        Verified at both edges of the rewrite: the claim file must carry our
        acquisition nonce *before* the refresh (a reaped or re-acquired
        group is abandoned, never resurrected — an already-expired lease is
        up for grabs and refusing to touch it keeps the stealer's reap
        race-free), and is re-read *after* the atomic rename — if a stealer
        claimed the group inside the write window, the file no longer
        carries our nonce and the refresh reports the lease as lost.
        """
        current = self.read(lease.group_id)
        if current is None or current.worker_id != lease.worker_id \
                or current.nonce != lease.nonce:
            return None
        if self.is_expired(current):
            return None
        refreshed = Lease(group_id=lease.group_id, worker_id=lease.worker_id,
                          acquired_at=lease.acquired_at,
                          heartbeat_at=self.clock(), ttl=lease.ttl,
                          nonce=lease.nonce)
        atomic_write_text(self.path_for(lease.group_id),
                          refreshed.to_json() + "\n")
        verify = self.read(lease.group_id)
        if verify is None or verify.nonce != lease.nonce:
            return None  # a stealer won the write window; the lease is lost
        return refreshed

    def release(self, lease: Lease) -> None:
        """Drop ``lease`` if still ours; a lost lease is released silently.

        Never check-then-unlink: the claim file is atomically renamed to a
        private token first (mirroring :meth:`_reap`), then verified.  If
        the token turns out to carry a *different* acquisition — the lease
        expired and was re-claimed between our last heartbeat and this call
        — the claim is restored instead of deleted, so releasing a stale
        handle can never destroy the new holder's valid lease.
        """
        path = self.path_for(lease.group_id)
        token = self.root / f".release-{lease.group_id}-{uuid.uuid4().hex}"
        try:
            os.replace(path, token)
        except FileNotFoundError:
            return  # already released or reaped; nothing to drop
        try:
            current = Lease.from_json(token.read_text(encoding="utf-8"))
        except (OSError, ValueError, KeyError):
            current = None  # corrupt claim: drop it like a reap would
        if current is not None and (current.worker_id != lease.worker_id
                                    or current.nonce != lease.nonce):
            # Not our acquisition: put the rightful claim back.  ``link``
            # fails atomically if an even newer claim appeared while the
            # file was renamed away — in that window the group looked
            # unclaimed — and in that case the newest claim is kept and the
            # displaced holder learns the loss at its next heartbeat.
            try:
                os.link(token, path)
            except FileExistsError:
                pass
            except OSError:
                # Filesystem without hard links: fall back to the rename.
                try:
                    os.replace(token, path)
                    return
                except FileNotFoundError:
                    return
        token.unlink(missing_ok=True)
