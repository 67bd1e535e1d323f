"""Tests for the versioned serving-graph store: epochs, the edge-delta log,
atomic (all-or-nothing) advance and the bounded rebuild history."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.propagation import graph_fingerprint
from repro.exceptions import ConfigurationError, GraphDataError
from repro.graphs.adjacency import build_adjacency
from repro.graphs.graph import GraphDataset
from repro.graphs.perturbations import sample_absent_edge, sample_present_edge
from repro.serving import EdgeDelta, GraphStore, graphstore
from repro.serving.graphstore import MAX_SAMPLED_EDGES


@pytest.fixture()
def store(tiny_graph):
    return GraphStore(tiny_graph, key="tiny")


@pytest.fixture(scope="module")
def dense_graph():
    """90 nodes and 1,500 edges: room to sample the full limit of inserts
    (2,505 non-edges) or of deletes."""
    rng = np.random.default_rng(11)
    pairs = np.array([(u, v) for u in range(90) for v in range(u + 1, 90)])
    edges = pairs[rng.choice(len(pairs), size=1500, replace=False)]
    nodes = np.arange(90)
    return GraphDataset(adjacency=build_adjacency(edges, 90),
                        features=np.eye(90), labels=nodes % 2,
                        train_idx=nodes[:30], val_idx=nodes[30:60],
                        test_idx=nodes[60:], name="dense90")


def _absent(graph, seed=0):
    return sample_absent_edge(graph, rng=seed)


def _present(graph, seed=0):
    return sample_present_edge(graph, rng=seed)


class TestEdgeDelta:
    def test_edges_are_canonicalised(self):
        delta = EdgeDelta(inserts=[(5, 2)], deletes=[[9, 7]])
        assert delta.inserts == ((2, 5),)
        assert delta.deletes == ((7, 9),)
        assert delta.size == 2
        assert delta.endpoints.tolist() == [2, 5, 7, 9]
        assert delta.as_dict() == {"insert": [[2, 5]], "delete": [[7, 9]]}

    def test_rejects_self_loops(self):
        with pytest.raises(GraphDataError, match="self-loop"):
            EdgeDelta(inserts=[(3, 3)])

    def test_rejects_negative_nodes(self):
        with pytest.raises(GraphDataError, match="negative"):
            EdgeDelta(deletes=[(-1, 2)])

    def test_rejects_non_integer_pairs(self):
        with pytest.raises(GraphDataError, match="integer pairs"):
            EdgeDelta(inserts=[(0.5, 2)])
        with pytest.raises(GraphDataError, match="integer pairs"):
            EdgeDelta(inserts=[(True, 2)])
        with pytest.raises(GraphDataError, match="integer pairs"):
            EdgeDelta(inserts=[(1, 2, 3)])

    def test_rejects_duplicates_in_one_batch(self):
        with pytest.raises(GraphDataError, match="duplicate"):
            EdgeDelta(inserts=[(1, 2), (2, 1)])

    def test_rejects_insert_delete_overlap(self):
        with pytest.raises(GraphDataError, match="both insert and delete"):
            EdgeDelta(inserts=[(1, 2)], deletes=[(2, 1)])

    def test_numpy_integers_are_accepted(self):
        delta = EdgeDelta(inserts=[(np.int64(1), np.int64(4))])
        assert delta.inserts == ((1, 4),)


class TestApply:
    def test_apply_advances_epoch_and_digest(self, store, tiny_graph):
        assert store.epoch == 0
        assert store.digest == graph_fingerprint(tiny_graph.adjacency)
        u, v = _absent(tiny_graph)
        entry = store.apply(EdgeDelta(inserts=[(u, v)]))
        assert store.epoch == 1
        assert entry["epoch"] == 1
        assert entry["previous_epoch"] == 0
        epoch, graph = store.current()
        assert epoch == 1
        assert graph.num_edges == tiny_graph.num_edges + 1
        assert store.digest == graph_fingerprint(graph.adjacency)
        assert store.digest != graph_fingerprint(tiny_graph.adjacency)

    def test_apply_is_all_or_nothing(self, store, tiny_graph):
        """A batch with one bad edge leaves the epoch and graph untouched."""
        good = _absent(tiny_graph, seed=1)
        present = _present(tiny_graph, seed=1)
        with pytest.raises(GraphDataError, match="already present"):
            store.apply(EdgeDelta(inserts=[good, present]))
        assert store.epoch == 0
        assert store.current()[1].num_edges == tiny_graph.num_edges
        assert store.delta_log() == []

    def test_phantom_delete_rejected(self, store, tiny_graph):
        absent = _absent(tiny_graph, seed=2)
        with pytest.raises(GraphDataError, match="not present"):
            store.apply(EdgeDelta(deletes=[absent]))
        assert store.epoch == 0

    def test_empty_delta_rejected(self, store):
        with pytest.raises(GraphDataError, match="at least one edge"):
            store.apply(EdgeDelta())

    def test_non_delta_rejected(self, store):
        with pytest.raises(ConfigurationError, match="EdgeDelta"):
            store.apply({"insert": [[0, 1]]})

    def test_same_deltas_reproduce_the_same_digests(self, tiny_graph):
        first = GraphStore(tiny_graph)
        second = GraphStore(tiny_graph)
        delta = first.sample_delta(inserts=2, deletes=1, seed=9)
        first.apply(delta)
        second.apply(EdgeDelta(delta.inserts, delta.deletes))
        assert first.digest == second.digest

    @pytest.mark.parametrize("name", ["tiny", "cora_ml"])
    @given(seed=st.integers(0, 10_000), inserts=st.integers(0, 4),
           deletes=st.integers(0, 4))
    @settings(max_examples=15, deadline=None)
    def test_batch_digest_matches_an_edge_by_edge_replay(
            self, edit_graphs, name, seed, inserts, deletes):
        """What the perfbench replay gate compares: one batched apply
        hashes like the same edges applied one by one."""
        assume(inserts + deletes > 0)
        graph = edit_graphs[name]
        store = GraphStore(graph)
        delta = store.sample_delta(inserts, deletes, seed=seed)
        entry = store.apply(delta)
        replayed = graph
        for u, v in delta.inserts:
            replayed = replayed.with_edge(u, v)
        for u, v in delta.deletes:
            replayed = replayed.without_edge(u, v)
        assert entry["digest"] == graph_fingerprint(replayed.adjacency)


class TestHistory:
    def test_history_is_bounded_and_pins_rebuildable_epochs(self, tiny_graph):
        store = GraphStore(tiny_graph, max_history=3)
        for seed in range(4):
            store.apply(store.sample_delta(inserts=1, seed=seed))
        assert store.epoch == 4
        assert store.retained_epochs() == [2, 3, 4]
        assert store.graph_at(2) is not None
        with pytest.raises(ConfigurationError, match="not retained"):
            store.graph_at(0)
        with pytest.raises(ConfigurationError, match="not retained"):
            store.digest_at(1)

    def test_max_history_must_be_positive(self, tiny_graph):
        with pytest.raises(ConfigurationError):
            GraphStore(tiny_graph, max_history=0)

    def test_delta_log_since_filters(self, store, tiny_graph):
        for seed in range(3):
            store.apply(store.sample_delta(inserts=1, seed=seed))
        assert [entry["epoch"] for entry in store.delta_log()] == [1, 2, 3]
        assert [entry["epoch"] for entry in store.delta_log(since=2)] == [3]


class TestEndpointsBetween:
    def test_union_across_several_epochs(self, store):
        first = store.apply(store.sample_delta(inserts=1, deletes=1, seed=0))
        second = store.apply(store.sample_delta(inserts=1, seed=1))
        expected = sorted(set(first["endpoints"]) | set(second["endpoints"]))
        assert store.endpoints_between(0, 2).tolist() == expected
        assert store.endpoints_between(1, 2).tolist() == \
            sorted(second["endpoints"])
        assert store.endpoints_between(2, 2).size == 0

    def test_rejects_inverted_or_future_epochs(self, store):
        store.apply(store.sample_delta(inserts=1, seed=0))
        with pytest.raises(ConfigurationError, match="inverted"):
            store.endpoints_between(1, 0)
        with pytest.raises(ConfigurationError, match="has not happened"):
            store.endpoints_between(0, 5)


class TestSampleDelta:
    def test_sampled_delta_is_deterministic_and_applicable(self, store):
        first = store.sample_delta(inserts=3, deletes=2, seed=42)
        second = store.sample_delta(inserts=3, deletes=2, seed=42)
        assert first.as_dict() == second.as_dict()
        assert first.size == 5
        entry = store.apply(first)  # valid by construction
        assert entry["epoch"] == 1

    def test_negative_counts_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.sample_delta(inserts=-1)

    @pytest.mark.parametrize("inserts, deletes", [
        (MAX_SAMPLED_EDGES + 1, 0), (0, MAX_SAMPLED_EDGES + 1),
        (MAX_SAMPLED_EDGES, 1), (10 ** 9, 10 ** 9)])
    def test_counts_past_the_limit_are_rejected_before_sampling(
            self, store, monkeypatch, inserts, deletes):
        def never(graph, rng):
            raise AssertionError("sampled an edge past the limit")

        monkeypatch.setattr(graphstore, "sample_absent_edge", never)
        monkeypatch.setattr(graphstore, "sample_present_edge", never)
        with pytest.raises(ConfigurationError,
                           match=f"at most {MAX_SAMPLED_EDGES} sampled edges "
                                 f"per update, got {inserts} inserts "
                                 f"\\+ {deletes} deletes"):
            store.sample_delta(inserts=inserts, deletes=deletes)
        assert store.epoch == 0

    @pytest.mark.parametrize("inserts, deletes", [
        (MAX_SAMPLED_EDGES, 0), (0, MAX_SAMPLED_EDGES), (600, 400)])
    def test_counts_at_the_limit_sample_a_valid_delta(
            self, dense_graph, inserts, deletes):
        store = GraphStore(dense_graph, key="dense")
        delta = store.sample_delta(inserts=inserts, deletes=deletes, seed=5)
        assert (len(delta.inserts), len(delta.deletes)) == (inserts, deletes)
        adjacency = dense_graph.adjacency
        assert all(adjacency[u, v] == 0 for u, v in delta.inserts)
        assert all(adjacency[u, v] == 1 for u, v in delta.deletes)
        assert store.apply(delta)["epoch"] == 1
        assert store.graph_at(1).num_edges \
            == dense_graph.num_edges + inserts - deletes


class TestStatus:
    def test_status_shape_tracks_updates(self, store, tiny_graph):
        status = store.status()
        assert status["key"] == "tiny"
        assert status["epoch"] == 0
        assert status["nodes"] == tiny_graph.num_nodes
        assert status["edges"] == tiny_graph.num_edges
        assert status["updates"] == 0
        assert status["retained_epochs"] == [0]
        assert status["last_update_unix"] is None

        store.apply(store.sample_delta(inserts=2, seed=0))
        status = store.status()
        assert status["epoch"] == 1
        assert status["edges"] == tiny_graph.num_edges + 2
        assert status["updates"] == 1
        assert status["retained_epochs"] == [0, 1]
        assert status["last_update_unix"] is not None
