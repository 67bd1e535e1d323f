"""Tests for synthetic generators, named dataset presets, splits, homophily and IO."""

import dataclasses

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.graphs import generators
from repro.graphs.datasets import (
    dataset_statistics,
    get_spec,
    list_datasets,
    load_dataset,
    reference_statistics,
)
from repro.graphs.generators import CitationGraphSpec, generate_citation_graph
from repro.graphs.homophily import edge_homophily_ratio, homophily_ratio
from repro.graphs.io import load_graph, save_graph
from repro.graphs.splits import fractional_split, per_class_split


class TestCitationGraphSpec:
    def test_invalid_homophily(self):
        with pytest.raises(ConfigurationError):
            CitationGraphSpec(name="x", num_nodes=50, num_edges=100, num_features=10,
                              num_classes=3, homophily=1.5)

    def test_scaled_preserves_classes_and_ratio(self):
        spec = get_spec("cora_ml")
        scaled = spec.scaled(0.2)
        assert scaled.num_classes == spec.num_classes
        assert scaled.homophily == spec.homophily
        assert scaled.num_nodes < spec.num_nodes

    def test_scale_one_is_identity(self):
        spec = get_spec("citeseer")
        assert spec.scaled(1.0) is spec

    def test_scale_out_of_range(self):
        with pytest.raises(ConfigurationError):
            get_spec("cora_ml").scaled(0.0)


class TestGenerator:
    def test_shapes_and_counts(self, tiny_spec, tiny_graph):
        assert tiny_graph.num_nodes == tiny_spec.num_nodes
        assert tiny_graph.num_features == tiny_spec.num_features
        assert tiny_graph.num_classes == tiny_spec.num_classes
        # Edge count is approximate (rejection sampling) but close.
        assert tiny_graph.num_edges >= 0.8 * tiny_spec.num_edges

    def test_homophily_close_to_target(self, tiny_spec, tiny_graph):
        assert abs(edge_homophily_ratio(tiny_graph) - tiny_spec.homophily) < 0.12

    def test_heterophilous_target(self, heterophilous_graph):
        assert edge_homophily_ratio(heterophilous_graph) < 0.4

    def test_deterministic_given_seed(self, tiny_spec):
        first = generate_citation_graph(tiny_spec, seed=5)
        second = generate_citation_graph(tiny_spec, seed=5)
        np.testing.assert_array_equal(first.labels, second.labels)
        np.testing.assert_array_equal(first.adjacency.toarray(), second.adjacency.toarray())

    def test_different_seeds_differ(self, tiny_spec):
        first = generate_citation_graph(tiny_spec, seed=1)
        second = generate_citation_graph(tiny_spec, seed=2)
        assert not np.array_equal(first.adjacency.toarray(), second.adjacency.toarray())

    def test_features_are_binary_and_nonempty(self, tiny_graph):
        values = np.unique(tiny_graph.features)
        assert set(values) <= {0.0, 1.0}
        assert tiny_graph.features.sum(axis=1).min() >= 1

    def test_every_class_has_enough_training_nodes(self, tiny_spec, tiny_graph):
        for cls in range(tiny_spec.num_classes):
            members = np.count_nonzero(tiny_graph.labels[tiny_graph.train_idx] == cls)
            assert members == tiny_spec.train_per_class


def _choice_sample_edges(spec, labels, rng):
    """The edge sampler written on ``rng.choice``: the oracle the CDF-based
    sampler must match uniform for uniform."""
    n = spec.num_nodes
    propensity = rng.pareto(1.0 / max(spec.degree_exponent, 1e-6), size=n) + 1.0
    by_class = {}
    class_probs = {}
    for cls in range(spec.num_classes):
        members = np.flatnonzero(labels == cls)
        by_class[cls] = members
        weights = propensity[members]
        class_probs[cls] = weights / weights.sum() if members.size else weights
    all_probs = propensity / propensity.sum()
    class_sizes = np.array([by_class[c].size for c in range(spec.num_classes)], dtype=np.float64)
    class_weights = class_sizes / class_sizes.sum()

    seen = set()
    edges = []
    max_attempts = 60 * max(spec.num_edges, 1)
    attempts = 0
    while len(edges) < spec.num_edges and attempts < max_attempts:
        attempts += 1
        if rng.random() < spec.homophily:
            cls = int(rng.choice(spec.num_classes, p=class_weights))
            members = by_class[cls]
            if members.size < 2:
                continue
            u, v = rng.choice(members, size=2, replace=False, p=class_probs[cls])
        else:
            u = int(rng.choice(n, p=all_probs))
            v = int(rng.choice(n, p=all_probs))
            if labels[u] == labels[v] or u == v:
                continue
        u, v = int(u), int(v)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def _choice_sample_features(spec, labels, rng):
    """The feature sampler written on ``rng.choice`` (the oracle)."""
    d0 = spec.num_features
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
        from_topic = rng.random(count) < spec.feature_signal
        n_topic = int(from_topic.sum())
        dims = []
        if n_topic:
            dims.extend(rng.choice(topic, size=n_topic, replace=True).tolist())
        n_bg = count - n_topic
        if n_bg:
            dims.extend(rng.choice(d0, size=n_bg, replace=True).tolist())
        features[node, np.unique(dims)] = 1.0
    return features


def _graph_arrays(graph):
    adjacency = graph.adjacency
    return {"indptr": adjacency.indptr, "indices": adjacency.indices,
            "data": adjacency.data, "features": graph.features,
            "labels": graph.labels, "train_idx": graph.train_idx,
            "val_idx": graph.val_idx, "test_idx": graph.test_idx}


_PRESET_CASES = [(name, 0.06, seed) for name in list_datasets() for seed in (0, 1, 7)]
_PRESET_CASES += [(name, 0.25, 3) for name in list_datasets()]


class TestGeneratorMatchesChoice:
    """The CDF-based draws replay ``Generator.choice`` byte for byte: the
    same graph from the same seed, and the same number of uniforms used."""

    def _assert_matches_oracle(self, spec, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        graph = generate_citation_graph(spec, rng)
        oracle_rng = np.random.default_rng(seed)
        with monkeypatch.context() as patch:
            patch.setattr(generators, "_sample_edges", _choice_sample_edges)
            patch.setattr(generators, "_sample_features", _choice_sample_features)
            expected = generate_citation_graph(spec, oracle_rng)
        for name, array in _graph_arrays(expected).items():
            actual = _graph_arrays(graph)[name]
            assert actual.dtype == array.dtype, name
            assert actual.shape == array.shape, name
            assert actual.tobytes() == array.tobytes(), name
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("name,scale,seed", _PRESET_CASES)
    def test_presets(self, name, scale, seed, monkeypatch):
        self._assert_matches_oracle(get_spec(name).scaled(scale), seed, monkeypatch)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_tiny_specs(self, tiny_spec, seed, monkeypatch):
        heterophilous = dataclasses.replace(tiny_spec, name="tiny_hetero", homophily=0.2)
        self._assert_matches_oracle(tiny_spec, seed, monkeypatch)
        self._assert_matches_oracle(heterophilous, seed, monkeypatch)

    def test_pair_draw_replays_choice_collisions(self):
        # One dominant member: the first two uniforms usually pick it twice,
        # and choice then draws once more with that member's mass zeroed.
        p = np.array([0.91, 0.04, 0.03, 0.02])
        cdf = generators._cdf(p)
        rng, oracle = np.random.default_rng(11), np.random.default_rng(11)
        probe = np.random.default_rng()
        collisions = 0
        for _ in range(400):
            probe.bit_generator.state = rng.bit_generator.state
            first, second = cdf.searchsorted(probe.random(2), side="right")
            collisions += int(first == second)
            expected = oracle.choice(p.size, size=2, replace=False, p=p)
            assert generators._draw_pair(p, cdf, rng) == tuple(expected.tolist())
        assert collisions > 200
        assert rng.bit_generator.state == oracle.bit_generator.state


class TestDatasetRegistry:
    def test_list_datasets(self):
        assert set(list_datasets()) == {"cora_ml", "citeseer", "pubmed", "actor"}

    def test_unknown_dataset_raises(self):
        with pytest.raises(ConfigurationError):
            load_dataset("not-a-dataset")

    def test_name_normalisation(self):
        assert get_spec("Cora-ML").name == "cora_ml"

    def test_scaled_load_has_expected_size(self):
        graph = load_dataset("citeseer", scale=0.1, seed=0)
        spec = get_spec("citeseer")
        assert graph.num_nodes == pytest.approx(spec.num_nodes * 0.1, rel=0.2)

    def test_reference_statistics_match_table2(self):
        reference = reference_statistics()
        assert reference["cora_ml"]["nodes"] == 2995
        assert reference["pubmed"]["features"] == 500
        assert reference["actor"]["classes"] == 5
        assert reference["citeseer"]["homophily"] == pytest.approx(0.71)

    def test_dataset_statistics_contains_all(self):
        stats = dataset_statistics(["cora_ml", "actor"], scale=0.05, seed=0)
        assert [s["name"] for s in stats] == ["cora_ml", "actor"]


class TestHomophily:
    def test_path_graph_homophily(self, path_graph):
        # path 0-0-0-1-1-1: only the middle edge (2,3) crosses classes.
        assert homophily_ratio(path_graph) == pytest.approx(1.0 - (0.5 + 0.5) / 6)
        assert edge_homophily_ratio(path_graph) == pytest.approx(4 / 5)

    def test_bounds(self, tiny_graph):
        value = homophily_ratio(tiny_graph)
        assert 0.0 <= value <= 1.0


class TestSplits:
    def test_per_class_split_counts(self):
        labels = np.repeat(np.arange(4), 50)
        train, val, test = per_class_split(labels, train_per_class=5, num_val=20, num_test=30,
                                           rng=0)
        assert train.size == 20
        assert val.size == 20 and test.size == 30
        assert len(np.intersect1d(train, val)) == 0
        assert len(np.intersect1d(train, test)) == 0
        assert len(np.intersect1d(val, test)) == 0

    def test_per_class_split_small_graph_degrades_gracefully(self):
        labels = np.repeat(np.arange(2), 10)
        train, val, test = per_class_split(labels, train_per_class=3, num_val=500, num_test=1000,
                                           rng=0)
        assert train.size == 6
        assert val.size + test.size == 14

    def test_fractional_split_partitions_everything(self):
        train, val, test = fractional_split(100, rng=0)
        together = np.concatenate([train, val, test])
        assert np.array_equal(np.sort(together), np.arange(100))

    def test_fractional_split_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            fractional_split(10, fractions=(0.5, 0.2, 0.2))


class TestGraphIO:
    def test_round_trip(self, tiny_graph, tmp_path):
        path = save_graph(tiny_graph, tmp_path / "graph.npz")
        loaded = load_graph(path)
        np.testing.assert_array_equal(loaded.adjacency.toarray(), tiny_graph.adjacency.toarray())
        np.testing.assert_array_equal(loaded.features, tiny_graph.features)
        np.testing.assert_array_equal(loaded.labels, tiny_graph.labels)
        np.testing.assert_array_equal(loaded.train_idx, tiny_graph.train_idx)
        assert loaded.name == tiny_graph.name

    def test_creates_parent_directories(self, path_graph, tmp_path):
        target = tmp_path / "nested" / "dir" / "graph.npz"
        save_graph(path_graph, target)
        assert target.exists()
