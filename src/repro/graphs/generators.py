"""Synthetic citation-graph generators.

The paper evaluates on four public benchmark graphs (Cora-ML, CiteSeer,
PubMed, Actor).  Those files are not available in this offline environment,
so this module provides a calibrated synthetic substitute: a degree-corrected
planted-partition generator whose knobs map directly onto the quantities the
paper's experiments depend on --

* number of nodes, undirected edges, feature dimensionality, classes
  (Table II columns),
* homophily ratio (Definition 7), which controls how much signal graph
  convolution adds over a plain MLP,
* a power-law degree propensity, reproducing the skewed degree distributions
  of citation graphs,
* class-conditional sparse bag-of-words features whose informativeness
  controls the MLP baseline's accuracy.

The behaviour the paper measures (utility orderings of DP mechanisms across
privacy budgets, sensitivity trade-offs in α and m) depends on these graph
properties rather than on the identity of the concrete citation network, so
the substitution preserves the relevant phenomena (see DESIGN.md §2).

Every draw consumes the generator's stream exactly as ``Generator.choice``
would, so a seed names one graph, byte for byte, and the graph digests
recorded in published manifests stay valid.  ``choice(..., p=p)`` re-checks
``p`` and rebuilds its CDF on every call, which made each edge draw cost
O(n) and dominated generating the larger presets.  The edge sampler builds
each CDF once per graph, the way ``choice`` builds it (``cumsum``, then
divide by the last entry), and draws a node as
``cdf.searchsorted(rng.random(), side="right")``.  The two-distinct-members
draw replays ``choice``'s ``replace=False`` loop: two uniforms, and on a
collision one more against a CDF rebuilt with the first pick zeroed.
Uniforms are never drawn ahead in blocks: how many an attempt uses depends
on its branch.  ``choice`` without ``p`` is ``integers(0, k, size=...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.graphs.adjacency import build_adjacency
from repro.graphs.graph import GraphDataset
from repro.graphs.splits import fractional_split, per_class_split
from repro.utils.random import as_rng


@dataclass(frozen=True)
class CitationGraphSpec:
    """Parameters of a synthetic citation graph.

    Attributes
    ----------
    name:
        Dataset name used in summaries and experiment reports.
    num_nodes, num_edges, num_features, num_classes:
        The four Table-II size columns.
    homophily:
        Target edge homophily (probability that an edge connects same-label
        endpoints).  Node homophily (Definition 7) tracks this closely.
    degree_exponent:
        Exponent of the power-law degree propensity (larger = more skewed).
    feature_active:
        Expected number of non-zero (bag-of-words) features per node.
    feature_signal:
        Probability that an active feature is drawn from the node's class
        topic rather than from the background vocabulary.  Controls how
        accurate a graph-free MLP can be.
    class_imbalance:
        Dirichlet concentration for class proportions (large = balanced).
    split:
        Either ``"planetoid"`` (20 per class / 500 val / 1000 test) or
        ``"fractional"`` (60/20/20), matching Appendix P.
    """

    name: str
    num_nodes: int
    num_edges: int
    num_features: int
    num_classes: int
    homophily: float
    degree_exponent: float = 0.9
    feature_active: int = 18
    feature_signal: float = 0.8
    class_imbalance: float = 12.0
    split: str = "planetoid"
    train_per_class: int = 20
    num_val: int = 500
    num_test: int = 1000

    def __post_init__(self) -> None:
        if self.num_nodes < self.num_classes:
            raise ConfigurationError("num_nodes must be at least num_classes")
        if self.num_edges < 0:
            raise ConfigurationError("num_edges must be non-negative")
        if not 0.0 <= self.homophily <= 1.0:
            raise ConfigurationError(f"homophily must be in [0, 1], got {self.homophily}")
        if not 0.0 <= self.feature_signal <= 1.0:
            raise ConfigurationError("feature_signal must be in [0, 1]")
        if self.split not in ("planetoid", "fractional"):
            raise ConfigurationError(f"unknown split protocol {self.split!r}")

    def scaled(self, scale: float) -> "CitationGraphSpec":
        """Return a down-scaled copy (node/edge/val/test counts multiplied by ``scale``).

        Used by tests and benchmarks to keep runtimes small while preserving
        density, homophily and feature statistics.
        """
        if not 0.0 < scale <= 1.0:
            raise ConfigurationError(f"scale must be in (0, 1], got {scale}")
        if scale == 1.0:
            return self
        nodes = max(self.num_classes * (self.train_per_class + 2), int(self.num_nodes * scale))
        edges = max(nodes, int(self.num_edges * scale))
        features = max(16, int(self.num_features * min(1.0, scale * 4)))
        return CitationGraphSpec(
            name=self.name,
            num_nodes=nodes,
            num_edges=edges,
            num_features=features,
            num_classes=self.num_classes,
            homophily=self.homophily,
            degree_exponent=self.degree_exponent,
            feature_active=min(self.feature_active, max(4, features // 8)),
            feature_signal=self.feature_signal,
            class_imbalance=self.class_imbalance,
            split=self.split,
            train_per_class=self.train_per_class,
            num_val=max(20, int(self.num_val * scale)),
            num_test=max(40, int(self.num_test * scale)),
        )


def _sample_labels(spec: CitationGraphSpec, rng: np.random.Generator) -> np.ndarray:
    """Sample integer labels with mildly imbalanced class proportions."""
    proportions = rng.dirichlet([spec.class_imbalance] * spec.num_classes)
    labels = rng.choice(spec.num_classes, size=spec.num_nodes, p=proportions)
    # Guarantee every class has enough members for the planetoid split.
    needed = spec.train_per_class + 2
    for cls in range(spec.num_classes):
        members = np.flatnonzero(labels == cls)
        shortfall = needed - members.size
        if shortfall > 0:
            donors = rng.permutation(np.flatnonzero(labels != cls))[:shortfall]
            labels[donors] = cls
    return labels.astype(np.int64)


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` builds from the probabilities ``p``."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One index, as ``rng.choice(len(cdf), p=p)`` draws it."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _draw_pair(p: np.ndarray, cdf: np.ndarray,
               rng: np.random.Generator) -> tuple[int, int]:
    """Two distinct indices in draw order, as
    ``rng.choice(len(p), size=2, replace=False, p=p)`` draws them."""
    i, j = cdf.searchsorted(rng.random(2), side="right")
    if i != j:
        return int(i), int(j)
    rest = p.copy()
    rest[i] = 0.0
    return int(i), _draw(_cdf(rest), rng)


def _sample_edges(spec: CitationGraphSpec, labels: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Sample undirected edges with target homophily and power-law degrees."""
    propensity = rng.pareto(1.0 / max(spec.degree_exponent, 1e-6), size=spec.num_nodes) + 1.0
    by_class: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for cls in range(spec.num_classes):
        members = np.flatnonzero(labels == cls)
        if members.size >= 2:
            weights = propensity[members]
            probs = weights / weights.sum()
            by_class[cls] = (members, probs, _cdf(probs))
    all_cdf = _cdf(propensity / propensity.sum())
    class_sizes = np.bincount(labels, minlength=spec.num_classes).astype(np.float64)
    class_cdf = _cdf(class_sizes / class_sizes.sum())

    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    max_attempts = 60 * max(spec.num_edges, 1)
    attempts = 0
    while len(edges) < spec.num_edges and attempts < max_attempts:
        attempts += 1
        if rng.random() < spec.homophily:
            cls = _draw(class_cdf, rng)
            if cls not in by_class:
                continue
            members, probs, cdf = by_class[cls]
            i, j = _draw_pair(probs, cdf, rng)
            u, v = int(members[i]), int(members[j])
        else:
            u = _draw(all_cdf, rng)
            v = _draw(all_cdf, rng)
            if labels[u] == labels[v] or u == v:
                continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _sample_features(spec: CitationGraphSpec, labels: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Sample class-conditional sparse binary bag-of-words features."""
    d0 = spec.num_features
    # Concentrated per-class vocabularies: citation-graph bags-of-words have a
    # relatively small set of highly class-indicative terms, so the topic size
    # is capped rather than splitting the whole vocabulary evenly.
    topic_size = max(4, min(d0 // spec.num_classes, 48))
    class_topics = [
        rng.choice(d0, size=min(topic_size, d0), replace=False)
        for _ in range(spec.num_classes)
    ]
    features = np.zeros((spec.num_nodes, d0), dtype=np.float64)
    active = max(1, min(spec.feature_active, d0))
    for node in range(spec.num_nodes):
        topic = class_topics[labels[node]]
        count = max(1, rng.poisson(active))
        n_topic = int((rng.random(count) < spec.feature_signal).sum())
        if n_topic:
            features[node, topic[rng.integers(0, topic.size, size=n_topic)]] = 1.0
        if count > n_topic:
            features[node, rng.integers(0, d0, size=count - n_topic)] = 1.0
    return features


def generate_citation_graph(spec: CitationGraphSpec, seed: int | np.random.Generator | None = 0,
                            ) -> GraphDataset:
    """Generate a synthetic citation graph matching ``spec``.

    The returned :class:`GraphDataset` already carries train/val/test splits
    according to the spec's split protocol.
    """
    rng = as_rng(seed)
    labels = _sample_labels(spec, rng)
    edge_list = _sample_edges(spec, labels, rng)
    adjacency = build_adjacency(edge_list, spec.num_nodes)
    features = _sample_features(spec, labels, rng)
    if spec.split == "planetoid":
        train_idx, val_idx, test_idx = per_class_split(
            labels,
            train_per_class=spec.train_per_class,
            num_val=spec.num_val,
            num_test=spec.num_test,
            rng=rng,
        )
    else:
        train_idx, val_idx, test_idx = fractional_split(spec.num_nodes, rng=rng)
    return GraphDataset(
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_idx=train_idx,
        val_idx=val_idx,
        test_idx=test_idx,
        name=spec.name,
    )
