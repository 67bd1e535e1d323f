"""Tests for adjacency construction, normalisation and the batched edge edit."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphDataError
from repro.graphs.adjacency import (
    add_self_loops,
    apply_edge_delta,
    build_adjacency,
    general_normalize,
    row_stochastic_normalize,
    symmetric_normalize,
)


class TestBuildAdjacency:
    def test_symmetric_binary(self):
        adjacency = build_adjacency(np.array([[0, 1], [1, 2]]), 4)
        dense = adjacency.toarray()
        np.testing.assert_array_equal(dense, dense.T)
        assert set(np.unique(dense)) <= {0.0, 1.0}
        assert dense[0, 1] == 1 and dense[2, 1] == 1 and dense[0, 3] == 0

    def test_duplicates_and_reverse_orientation_collapse(self):
        adjacency = build_adjacency(np.array([[0, 1], [1, 0], [0, 1]]), 3)
        assert adjacency.nnz == 2
        assert adjacency[0, 1] == 1.0

    def test_empty_edge_list(self):
        adjacency = build_adjacency(np.empty((0, 2)), 5)
        assert adjacency.shape == (5, 5)
        assert adjacency.nnz == 0

    def test_self_loop_rejected(self):
        with pytest.raises(GraphDataError):
            build_adjacency(np.array([[1, 1]]), 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphDataError):
            build_adjacency(np.array([[0, 9]]), 3)


class TestNormalisations:
    def test_row_stochastic_rows_sum_to_one(self, triangle_adjacency):
        normalized = row_stochastic_normalize(triangle_adjacency)
        np.testing.assert_allclose(np.asarray(normalized.sum(axis=1)).ravel(), np.ones(4))

    def test_row_stochastic_matches_paper_definition(self, triangle_adjacency):
        with_loops = add_self_loops(triangle_adjacency).toarray()
        degrees = with_loops.sum(axis=1)
        expected = with_loops / degrees[:, None]
        np.testing.assert_allclose(row_stochastic_normalize(triangle_adjacency).toarray(), expected)

    def test_symmetric_normalization_is_symmetric(self, triangle_adjacency):
        normalized = symmetric_normalize(triangle_adjacency).toarray()
        np.testing.assert_allclose(normalized, normalized.T)

    def test_general_normalize_special_cases(self, triangle_adjacency):
        np.testing.assert_allclose(
            general_normalize(triangle_adjacency, 0.0).toarray(),
            row_stochastic_normalize(triangle_adjacency).toarray(),
        )
        np.testing.assert_allclose(
            general_normalize(triangle_adjacency, 0.5).toarray(),
            symmetric_normalize(triangle_adjacency).toarray(),
        )

    def test_general_normalize_rejects_bad_r(self, triangle_adjacency):
        with pytest.raises(GraphDataError):
            general_normalize(triangle_adjacency, 1.5)

    def test_isolated_node_handled(self):
        adjacency = sp.csr_matrix((3, 3))
        normalized = row_stochastic_normalize(adjacency)
        # With self-loops every node has degree 1.
        np.testing.assert_allclose(normalized.toarray(), np.eye(3))


def _assert_same_bytes(actual, expected):
    """Same shape, and the same bytes *and* dtypes in all three CSR arrays —
    everything the serving graph's epoch digest hashes."""
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def _sample_batch(adjacency, seed, num_inserts, num_deletes):
    """Distinct absent pairs to insert and present edges to delete, each in a
    random orientation, plus the dense matrix the batch should produce."""
    rng = np.random.default_rng(seed)
    dense = adjacency.toarray()
    upper = np.triu(np.ones(dense.shape, dtype=bool), k=1)
    absent = np.argwhere(upper & (dense == 0))
    present = np.argwhere(upper & (dense != 0))
    inserts = absent[rng.choice(len(absent), num_inserts, replace=False)]
    deletes = present[rng.choice(len(present), num_deletes, replace=False)]
    after = dense.copy()
    for pairs, value in ((inserts, 1.0), (deletes, 0.0)):
        after[pairs[:, 0], pairs[:, 1]] = value
        after[pairs[:, 1], pairs[:, 0]] = value
    flips = rng.random(num_inserts + num_deletes) < 0.5
    oriented = [(int(v), int(u)) if flip else (int(u), int(v))
                for (u, v), flip in zip(np.concatenate([inserts, deletes]), flips)]
    return oriented[:num_inserts], oriented[num_inserts:], after


class TestEdgeEdits:
    def test_remove_then_add_round_trip(self, triangle_adjacency):
        removed = apply_edge_delta(triangle_adjacency, deletes=[(0, 1)])
        assert removed[0, 1] == 0 and removed[1, 0] == 0
        restored = apply_edge_delta(removed, inserts=[(1, 0)])
        _assert_same_bytes(restored, triangle_adjacency)

    def test_remove_missing_edge_raises(self, triangle_adjacency):
        with pytest.raises(GraphDataError, match="not present"):
            apply_edge_delta(triangle_adjacency, deletes=[(0, 3)])

    def test_add_existing_edge_raises(self, triangle_adjacency):
        with pytest.raises(GraphDataError, match="already present"):
            apply_edge_delta(triangle_adjacency, inserts=[(0, 1)])

    def test_self_loop_edits_rejected(self, triangle_adjacency):
        with pytest.raises(GraphDataError, match="self-loop"):
            apply_edge_delta(triangle_adjacency, deletes=[(2, 2)])
        with pytest.raises(GraphDataError, match="self-loop"):
            apply_edge_delta(triangle_adjacency, inserts=[(2, 2)])

    @pytest.mark.parametrize("edge", [(0, 4), (-1, 2), (0, 2 ** 70), (-(2 ** 70), 1)])
    def test_out_of_range_nodes_rejected(self, triangle_adjacency, edge):
        with pytest.raises(GraphDataError, match="outside"):
            apply_edge_delta(triangle_adjacency, inserts=[edge])

    def test_pair_twice_in_one_batch_rejected(self, triangle_adjacency):
        with pytest.raises(GraphDataError, match="twice"):
            apply_edge_delta(triangle_adjacency, inserts=[(0, 3)], deletes=[(3, 0)])

    def test_empty_batch_returns_a_copy(self, triangle_adjacency):
        copy = apply_edge_delta(triangle_adjacency)
        assert copy is not triangle_adjacency
        _assert_same_bytes(copy, triangle_adjacency)

    def test_unsorted_rows_come_back_canonical(self):
        # Row 1 stores its columns as [2, 0]: a column-permuted subgraph
        # slice can produce such rows.
        unsorted = sp.csr_matrix((np.ones(4), [1, 2, 0, 1], [0, 1, 3, 4]), shape=(3, 3))
        expected = sp.csr_matrix(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0.0]]))
        _assert_same_bytes(apply_edge_delta(unsorted, inserts=[(0, 2)]), expected)


@pytest.mark.parametrize("name", ["tiny", "cora_ml"])
class TestEdgeDeltaProperties:
    @given(seed=st.integers(0, 2 ** 32 - 1), num_inserts=st.integers(0, 6),
           num_deletes=st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_matches_a_dense_rebuild_byte_for_byte(self, edit_graphs, name, seed,
                                                   num_inserts, num_deletes):
        adjacency = edit_graphs[name].adjacency
        inserts, deletes, after = _sample_batch(adjacency, seed, num_inserts, num_deletes)
        _assert_same_bytes(apply_edge_delta(adjacency, inserts, deletes),
                           sp.csr_matrix(after))

    @given(seed=st.integers(0, 2 ** 32 - 1), num_inserts=st.integers(0, 4),
           num_deletes=st.integers(0, 4), position=st.integers(0, 8),
           bad=st.sampled_from(["already present", "not present", "outside",
                                "self-loop"]))
    @settings(max_examples=20, deadline=None)
    def test_one_bad_edge_rejects_the_batch_and_leaves_the_input(
            self, edit_graphs, name, seed, num_inserts, num_deletes, position, bad):
        adjacency = edit_graphs[name].adjacency
        before = adjacency.copy()
        inserts, deletes, after = _sample_batch(adjacency, seed, num_inserts, num_deletes)
        dense = adjacency.toarray()
        n = dense.shape[0]
        rng = np.random.default_rng(seed)
        if bad == "already present":  # an edge the batch keeps
            candidates = np.argwhere((dense != 0) & (after != 0))
        else:  # a non-edge the batch does not insert
            candidates = np.argwhere((dense == 0) & (after == 0) & ~np.eye(n, dtype=bool))
        u, v = (int(end) for end in candidates[rng.integers(len(candidates))])
        edge = {"outside": (u, n + v), "self-loop": (u, u)}.get(bad, (u, v))
        target = deletes if bad == "not present" else inserts
        target.insert(position % (len(target) + 1), edge)
        with pytest.raises(GraphDataError, match=bad):
            apply_edge_delta(adjacency, inserts, deletes)
        _assert_same_bytes(adjacency, before)
