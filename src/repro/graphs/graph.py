"""The :class:`GraphDataset` container used throughout the library.

A dataset is the tuple ``D = <V, E, X, Y>`` of the paper's problem setting
(Section III): an undirected simple graph over ``n`` nodes, a dense feature
matrix ``X`` of shape ``(n, d0)``, integer class labels ``Y`` of shape
``(n,)`` and train/validation/test index splits.  The edge set is stored as a
symmetric ``scipy.sparse.csr_matrix`` without self-loops; edge-level DP
treats a single undirected edge as one record.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphDataError
from repro.graphs.adjacency import apply_edge_delta
from repro.utils.math import one_hot


@dataclass
class GraphDataset:
    """An attributed graph with node labels and index splits.

    Attributes
    ----------
    adjacency:
        Symmetric binary sparse matrix of shape ``(n, n)`` with zero diagonal.
    features:
        Dense node feature matrix of shape ``(n, d0)``.
    labels:
        Integer class labels of shape ``(n,)`` in ``[0, num_classes)``.
    train_idx, val_idx, test_idx:
        Disjoint integer index arrays into the node set.
    name:
        Human-readable dataset name (e.g. ``"cora_ml"``).
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray
    train_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    val_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    test_idx: np.ndarray = field(default_factory=lambda: np.array([], dtype=np.int64))
    name: str = "graph"

    def __post_init__(self) -> None:
        self.adjacency = sp.csr_matrix(self.adjacency, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.train_idx = np.asarray(self.train_idx, dtype=np.int64)
        self.val_idx = np.asarray(self.val_idx, dtype=np.int64)
        self.test_idx = np.asarray(self.test_idx, dtype=np.int64)
        self.validate()

    # ------------------------------------------------------------------ #
    # validation and basic statistics
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`GraphDataError` if the dataset is inconsistent."""
        n = self.adjacency.shape[0]
        if self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise GraphDataError(f"adjacency must be square, got {self.adjacency.shape}")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise GraphDataError(
                f"features must have shape (n, d0) with n={n}, got {self.features.shape}"
            )
        if self.labels.shape != (n,):
            raise GraphDataError(f"labels must have shape ({n},), got {self.labels.shape}")
        if self.labels.size and self.labels.min() < 0:
            raise GraphDataError("labels must be non-negative integers")
        if self.adjacency.diagonal().sum() != 0:
            raise GraphDataError("adjacency must not contain self-loops")
        diff = (self.adjacency - self.adjacency.T)
        if diff.nnz and np.abs(diff.data).max() > 1e-9:
            raise GraphDataError("adjacency must be symmetric (undirected graph)")
        for split_name in ("train_idx", "val_idx", "test_idx"):
            idx = getattr(self, split_name)
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise GraphDataError(f"{split_name} contains out-of-range node indices")

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.adjacency.nnz // 2)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def degrees(self) -> np.ndarray:
        """Node degrees (not counting self-loops)."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def label_matrix(self) -> np.ndarray:
        """One-hot encoded label matrix ``Y`` of shape ``(n, c)``."""
        return one_hot(self.labels, self.num_classes)

    # ------------------------------------------------------------------ #
    # edge-level neighbouring datasets
    # ------------------------------------------------------------------ #
    def edges(self) -> np.ndarray:
        """Return the undirected edge list as an ``(m, 2)`` array with u < v."""
        coo = sp.triu(self.adjacency, k=1).tocoo()
        return np.stack([coo.row, coo.col], axis=1).astype(np.int64)

    def without_edge(self, u: int, v: int) -> "GraphDataset":
        """Return the edge-level neighbouring dataset with edge (u, v) removed."""
        return replace(self, adjacency=apply_edge_delta(self.adjacency, deletes=[(u, v)]))

    def with_edge(self, u: int, v: int) -> "GraphDataset":
        """Return the edge-level neighbouring dataset with edge (u, v) added."""
        return replace(self, adjacency=apply_edge_delta(self.adjacency, inserts=[(u, v)]))

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def subgraph(self, nodes: np.ndarray, name: str | None = None) -> "GraphDataset":
        """Return the induced subgraph on ``nodes`` (splits are re-indexed)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        mapping = -np.ones(self.num_nodes, dtype=np.int64)
        mapping[nodes] = np.arange(nodes.size)
        sub_adj = self.adjacency[nodes][:, nodes].tocsr()

        def remap(idx: np.ndarray) -> np.ndarray:
            remapped = mapping[idx]
            return remapped[remapped >= 0]

        return GraphDataset(
            adjacency=sub_adj,
            features=self.features[nodes],
            labels=self.labels[nodes],
            train_idx=remap(self.train_idx),
            val_idx=remap(self.val_idx),
            test_idx=remap(self.test_idx),
            name=name or f"{self.name}_sub",
        )

    def summary(self) -> dict[str, float]:
        """Return headline statistics (the columns of the paper's Table II)."""
        from repro.graphs.homophily import homophily_ratio

        return {
            "name": self.name,
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "features": self.num_features,
            "classes": self.num_classes,
            "homophily": homophily_ratio(self),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GraphDataset(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges}, features={self.num_features}, "
            f"classes={self.num_classes})"
        )
