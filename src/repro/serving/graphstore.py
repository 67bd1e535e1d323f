"""Versioned serving graphs: epochs, an edge-delta log, atomic advance.

The serving stack used to treat its graph as frozen for the life of the
process; this module makes mutation a first-class, *versioned* operation so
the feature caches above it can stay honest:

* **An epoch is a content-addressed graph version.**  Epoch 0 is the graph
  the store was built with; every applied :class:`EdgeDelta` produces epoch
  ``n+1`` with its own :func:`~repro.core.propagation.graph_fingerprint`
  digest.  Two stores that applied the same deltas to the same graph agree
  on digests; equal epoch counters alone do not mean equal graphs.
* **Mutation is an append-only delta log.**  A delta is a batch of edge
  inserts and deletes, applied by
  :func:`~repro.graphs.adjacency.apply_edge_delta`, the same edit behind
  the DP neighbouring-pair machinery's
  :meth:`~repro.graphs.graph.GraphDataset.with_edge` /
  :meth:`~repro.graphs.graph.GraphDataset.without_edge` (nodes in range,
  no duplicate inserts, no phantom deletes, no self-loops); validation is
  all-or-nothing, so a bad batch leaves the current epoch untouched.
* **Epoch advance is atomic.**  The new graph is built as a fresh copy and
  committed under the store lock in one assignment; readers either see the
  old epoch in full or the new epoch in full, never a half-applied batch.
  In-flight requests that pinned the old epoch keep scoring against it —
  the store retains a bounded history window (``max_history`` epochs) so a
  pinned session evicted mid-update can still be rebuilt bitwise.

:class:`GraphStore` is deliberately independent of models and sessions: the
:class:`~repro.serving.service.InferenceService` keys its sessions by
``(model digest, graph epoch, mode)`` and asks the store for the graph (and
the delta endpoints) behind any epoch it still serves.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace

import numpy as np

from repro.core.propagation import graph_fingerprint
from repro.exceptions import ConfigurationError, GraphDataError
from repro.graphs.adjacency import apply_edge_delta
from repro.graphs.graph import GraphDataset
from repro.graphs.perturbations import sample_absent_edge, sample_present_edge
from repro.utils.random import as_rng

DEFAULT_GRAPH_HISTORY = 4
# Sampled edges (inserts plus deletes) one update may ask for.  Sampling
# copies the graph once per edge: on pubmed (19,717 nodes, 2 cores) 1,000
# edges take 6-8 s, well inside the 60 s update deadline, while a larger
# count would hold the one update slot long after its client gave up.
MAX_SAMPLED_EDGES = 1000


def _normalize_edges(pairs, what: str) -> tuple:
    """Validate an edge batch into a canonical ``((u, v), ...)`` with u < v."""
    out = []
    seen = set()
    for pair in pairs:
        if (not isinstance(pair, (tuple, list)) or len(pair) != 2
                or any(isinstance(end, bool) or not isinstance(end, (int, np.integer))
                       for end in pair)):
            raise GraphDataError(
                f"{what} entries must be [u, v] integer pairs, got {pair!r}")
        u, v = int(pair[0]), int(pair[1])
        if u == v:
            raise GraphDataError(f"{what} edge ({u}, {v}) is a self-loop")
        if u < 0 or v < 0:
            raise GraphDataError(f"{what} edge ({u}, {v}) has a negative node")
        edge = (u, v) if u < v else (v, u)
        if edge in seen:
            raise GraphDataError(f"duplicate {what} edge {edge} in one batch")
        seen.add(edge)
        out.append(edge)
    return tuple(out)


class EdgeDelta:
    """One validated batch of undirected edge inserts and deletes."""

    __slots__ = ("inserts", "deletes")

    def __init__(self, inserts=(), deletes=()):
        self.inserts = _normalize_edges(inserts, "insert")
        self.deletes = _normalize_edges(deletes, "delete")
        overlap = set(self.inserts) & set(self.deletes)
        if overlap:
            raise GraphDataError(
                f"edges {sorted(overlap)} appear in both insert and delete")

    @property
    def size(self) -> int:
        return len(self.inserts) + len(self.deletes)

    @property
    def endpoints(self) -> np.ndarray:
        """Sorted unique node ids incident to any edge in the batch — the
        seed set of the incremental re-propagation."""
        flat = [node for edge in (*self.inserts, *self.deletes)
                for node in edge]
        return np.unique(np.asarray(flat, dtype=np.int64))

    def as_dict(self) -> dict:
        return {"insert": [list(edge) for edge in self.inserts],
                "delete": [list(edge) for edge in self.deletes]}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"EdgeDelta(+{len(self.inserts)} edge(s), "
                f"-{len(self.deletes)} edge(s))")


class GraphStore:
    """The serving graph as a sequence of epochs plus their delta log.

    Thread-safe; every public method takes the store lock.  ``apply`` does
    its (validating, copy-on-write) graph construction *inside* the lock,
    so every read waits for it: one batched sparse edit, the dataset checks
    and the digest.  Updates are admission-controlled to one in flight by
    the HTTP layer, so holding the lock for the batch keeps the epoch
    sequence linear.
    """

    def __init__(self, graph: GraphDataset, *, key: str = "default",
                 max_history: int = DEFAULT_GRAPH_HISTORY):
        if max_history < 1:
            raise ConfigurationError(
                f"max_history must be >= 1, got {max_history}")
        self.key = str(key)
        self.max_history = int(max_history)
        self._lock = threading.Lock()
        self._epoch = 0
        self._graphs: OrderedDict[int, GraphDataset] = OrderedDict({0: graph})
        self._digests: dict[int, str] = {
            0: graph_fingerprint(graph.adjacency)}
        # Kept apart from the history window, which evicts old digests:
        # served manifests' training graph_digest is checked against it.
        self.base_digest = self._digests[0]
        self._log: list[dict] = []  # append-only; one entry per epoch advance

    # ------------------------------------------------------------------ #
    # readers
    # ------------------------------------------------------------------ #
    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    @property
    def digest(self) -> str:
        with self._lock:
            return self._digests[self._epoch]

    def current(self) -> tuple[int, GraphDataset]:
        """The current ``(epoch, graph)`` pair, read atomically."""
        with self._lock:
            return self._epoch, self._graphs[self._epoch]

    def graph_at(self, epoch: int) -> GraphDataset:
        with self._lock:
            graph = self._graphs.get(int(epoch))
            if graph is None:
                retained = sorted(self._graphs)
                raise ConfigurationError(
                    f"graph epoch {epoch} is not retained (history keeps "
                    f"{retained}); the session pinned to it can no longer "
                    f"be rebuilt")
            return graph

    def digest_at(self, epoch: int) -> str:
        with self._lock:
            digest = self._digests.get(int(epoch))
        if digest is None:
            raise ConfigurationError(f"graph epoch {epoch} is not retained")
        return digest

    def retained_epochs(self) -> list[int]:
        with self._lock:
            return sorted(self._graphs)

    def delta_log(self, since: int = 0) -> list[dict]:
        """Log entries for epochs ``> since`` (the full log by default)."""
        with self._lock:
            return [dict(entry) for entry in self._log
                    if entry["epoch"] > int(since)]

    def endpoints_between(self, old_epoch: int, new_epoch: int) -> np.ndarray:
        """Union of delta endpoints over ``old_epoch < epoch <= new_epoch``.

        This is the seed set that makes incremental re-propagation correct
        across *several* missed epochs: a node outside the union kept its
        entire neighbour list through every intermediate delta.
        """
        old_epoch, new_epoch = int(old_epoch), int(new_epoch)
        if old_epoch > new_epoch:
            raise ConfigurationError(
                f"epoch order inverted: {old_epoch} > {new_epoch}")
        with self._lock:
            if new_epoch > self._epoch:
                raise ConfigurationError(
                    f"epoch {new_epoch} has not happened (current "
                    f"{self._epoch})")
            nodes = [node for entry in self._log
                     if old_epoch < entry["epoch"] <= new_epoch
                     for edge in (*entry["insert"], *entry["delete"])
                     for node in edge]
        return np.unique(np.asarray(nodes, dtype=np.int64))

    def status(self) -> dict:
        """The ``GET /v1/graph/status`` payload for this store."""
        with self._lock:
            graph = self._graphs[self._epoch]
            last = self._log[-1] if self._log else None
            return {
                "key": self.key,
                "epoch": self._epoch,
                "digest": self._digests[self._epoch],
                "nodes": graph.num_nodes,
                "edges": graph.num_edges,
                "updates": len(self._log),
                "retained_epochs": sorted(self._graphs),
                "last_update_unix": (last["applied_unix"] if last else None),
            }

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def sample_delta(self, inserts: int = 0, deletes: int = 0,
                     seed=None) -> EdgeDelta:
        """Sample a random delta against the *current* epoch.

        Inserts are drawn from the current non-edges, deletes from the
        current edges, each without replacement, so the sampled batch is
        always valid to apply — the server-side sampling that lets the CLI
        and the CI smoke drive updates without shipping an edge list.  At
        most :data:`MAX_SAMPLED_EDGES` edges in all.
        """
        if inserts < 0 or deletes < 0:
            raise ConfigurationError("sample counts must be >= 0")
        if inserts + deletes > MAX_SAMPLED_EDGES:
            raise ConfigurationError(
                f"at most {MAX_SAMPLED_EDGES} sampled edges per update, got "
                f"{inserts} inserts + {deletes} deletes")
        rng = as_rng(seed)
        with self._lock:
            base = self._graphs[self._epoch]
        added = base
        insert_edges = []
        for _ in range(int(inserts)):
            u, v = sample_absent_edge(added, rng)
            added = added.with_edge(u, v)
            insert_edges.append((u, v))
        removed = base
        delete_edges = []
        for _ in range(int(deletes)):
            u, v = sample_present_edge(removed, rng)
            removed = removed.without_edge(u, v)
            delete_edges.append((u, v))
        return EdgeDelta(insert_edges, delete_edges)

    def apply(self, delta: EdgeDelta) -> dict:
        """Validate and commit one delta; returns the new log entry.

        All-or-nothing: :func:`~repro.graphs.adjacency.apply_edge_delta`
        checks the whole batch (nodes in range, inserts absent, deletes
        present) before it builds the new adjacency in one sparse add, and
        only a fully valid batch advances the epoch.  The commit itself is
        a couple of dict inserts plus one integer assignment — atomic under
        the lock.
        """
        if not isinstance(delta, EdgeDelta):
            raise ConfigurationError(
                f"apply takes an EdgeDelta, got {type(delta).__name__}")
        if delta.size == 0:
            raise GraphDataError("an edge delta must contain at least one edge")
        with self._lock:
            base = self._graphs[self._epoch]
            work = replace(base, adjacency=apply_edge_delta(
                base.adjacency, delta.inserts, delta.deletes))
            new_epoch = self._epoch + 1
            entry = {
                "epoch": new_epoch,
                "previous_epoch": self._epoch,
                "insert": [list(edge) for edge in delta.inserts],
                "delete": [list(edge) for edge in delta.deletes],
                "endpoints": [int(node) for node in delta.endpoints],
                "digest": graph_fingerprint(work.adjacency),
                "applied_unix": time.time(),
            }
            self._graphs[new_epoch] = work
            self._digests[new_epoch] = entry["digest"]
            self._log.append(entry)
            self._epoch = new_epoch
            while len(self._graphs) > self.max_history:
                evicted, _graph = self._graphs.popitem(last=False)
                self._digests.pop(evicted, None)
            return dict(entry)
