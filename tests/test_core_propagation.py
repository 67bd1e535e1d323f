"""Tests for PPR/APPR propagation (Eq. 9-11) including Lemma-1 invariants."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.propagation import Propagator
from repro.exceptions import ConfigurationError
from repro.graphs.adjacency import row_stochastic_normalize
from repro.graphs.generators import CitationGraphSpec, generate_citation_graph


def random_graph(seed: int, nodes: int = 40, edges: int = 90):
    spec = CitationGraphSpec(name="rand", num_nodes=nodes, num_edges=edges, num_features=8,
                             num_classes=3, homophily=0.6, train_per_class=2, num_val=5,
                             num_test=10)
    return generate_citation_graph(spec, seed=seed)


class TestPropagationMatrices:
    def test_r0_is_identity(self, tiny_graph):
        propagator = Propagator(tiny_graph.adjacency, alpha=0.5)
        np.testing.assert_allclose(propagator.propagation_matrix(0), np.eye(tiny_graph.num_nodes))

    def test_recursion_matches_closed_form(self, triangle_adjacency):
        """R_m from the iterative recursion equals Eq. (6)'s explicit polynomial."""
        alpha = 0.3
        propagator = Propagator(triangle_adjacency, alpha=alpha)
        transition = propagator.transition.toarray()
        for m in (1, 2, 3, 5):
            explicit = alpha * sum(
                (1 - alpha) ** i * np.linalg.matrix_power(transition, i) for i in range(m)
            ) + (1 - alpha) ** m * np.linalg.matrix_power(transition, m)
            np.testing.assert_allclose(propagator.propagation_matrix(m), explicit, atol=1e-12)

    def test_ppr_limit_matches_matrix_inverse(self, triangle_adjacency):
        alpha = 0.4
        propagator = Propagator(triangle_adjacency, alpha=alpha)
        transition = propagator.transition.toarray()
        expected = alpha * np.linalg.inv(np.eye(4) - (1 - alpha) * transition)
        np.testing.assert_allclose(propagator.propagation_matrix(math.inf), expected, atol=1e-10)

    def test_finite_m_converges_to_ppr(self, triangle_adjacency):
        propagator = Propagator(triangle_adjacency, alpha=0.4)
        far = propagator.propagation_matrix(200)
        limit = propagator.propagation_matrix(math.inf)
        np.testing.assert_allclose(far, limit, atol=1e-8)

    def test_alpha_one_is_identity_for_all_steps(self, triangle_adjacency):
        propagator = Propagator(triangle_adjacency, alpha=1.0)
        for m in (1, 5, math.inf):
            np.testing.assert_allclose(propagator.propagation_matrix(m), np.eye(4), atol=1e-12)


class TestLemma1Invariants:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("steps", [1, 2, 4, math.inf])
    def test_rows_sum_to_one(self, seed, steps):
        graph = random_graph(seed)
        propagator = Propagator(graph.adjacency, alpha=0.4)
        matrix = propagator.propagation_matrix(steps)
        np.testing.assert_allclose(matrix.sum(axis=1), np.ones(graph.num_nodes), atol=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("steps", [1, 2, 4, math.inf])
    def test_entries_nonnegative(self, seed, steps):
        graph = random_graph(seed)
        propagator = Propagator(graph.adjacency, alpha=0.4)
        assert propagator.propagation_matrix(steps).min() >= -1e-12

    @pytest.mark.parametrize("steps", [1, 2, 4, math.inf])
    def test_column_sums_bounded_by_lemma1(self, steps):
        """Column i of R_m sums to at most max((k_i + 1)/2, 1) (Lemma 1, p = 1/2)."""
        graph = random_graph(3)
        propagator = Propagator(graph.adjacency, alpha=0.3)
        matrix = propagator.propagation_matrix(steps)
        degrees = graph.degrees
        bounds = np.maximum((degrees + 1) / 2.0, 1.0)
        assert np.all(matrix.sum(axis=0) <= bounds + 1e-9)


class TestFeaturePropagation:
    def test_propagate_matches_matrix_product(self, triangle_adjacency, rng):
        propagator = Propagator(triangle_adjacency, alpha=0.5)
        features = rng.normal(size=(4, 3))
        for m in (0, 1, 3, math.inf):
            expected = propagator.propagation_matrix(m) @ features
            np.testing.assert_allclose(propagator.propagate(features, m), expected, atol=1e-10)

    def test_concat_scaling(self, triangle_adjacency, rng):
        propagator = Propagator(triangle_adjacency, alpha=0.5)
        features = rng.normal(size=(4, 2))
        concat = propagator.propagate_concat(features, [0, 2])
        assert concat.shape == (4, 4)
        np.testing.assert_allclose(concat[:, :2], features / 2.0)

    def test_concat_preserves_row_norm_bound(self, tiny_graph):
        """Rows of Z keep L2 norm <= 1 when input rows have norm <= 1."""
        from repro.utils.math import row_normalize_l2

        features = row_normalize_l2(np.random.default_rng(0).normal(size=(tiny_graph.num_nodes, 8)))
        propagator = Propagator(tiny_graph.adjacency, alpha=0.4)
        concat = propagator.propagate_concat(features, [1, 2, math.inf])
        assert np.linalg.norm(concat, axis=1).max() <= 1.0 + 1e-9

    def test_wrong_feature_rows_raise(self, triangle_adjacency):
        propagator = Propagator(triangle_adjacency, alpha=0.5)
        with pytest.raises(ConfigurationError):
            propagator.propagate(np.zeros((7, 2)), 1)

    def test_invalid_steps_raise(self, triangle_adjacency):
        propagator = Propagator(triangle_adjacency, alpha=0.5)
        with pytest.raises(ConfigurationError):
            propagator.propagate(np.zeros((4, 2)), -1)
        with pytest.raises(ConfigurationError):
            propagator.propagate(np.zeros((4, 2)), 1.5)

    def test_invalid_alpha(self, triangle_adjacency):
        with pytest.raises(ConfigurationError):
            Propagator(triangle_adjacency, alpha=0.0)


class TestInferenceOperator:
    def test_zero_steps_is_identity(self, triangle_adjacency):
        propagator = Propagator(triangle_adjacency, alpha=0.5)
        operator = propagator.inference_matrix(0, 0.3)
        np.testing.assert_allclose(operator.toarray(), np.eye(4))

    def test_single_hop_mixture(self, triangle_adjacency):
        propagator = Propagator(triangle_adjacency, alpha=0.5)
        operator = propagator.inference_matrix(2, 0.25).toarray()
        expected = 0.75 * propagator.transition.toarray() + 0.25 * np.eye(4)
        np.testing.assert_allclose(operator, expected)

    def test_inference_concat_shape_and_scaling(self, triangle_adjacency, rng):
        propagator = Propagator(triangle_adjacency, alpha=0.5)
        features = rng.normal(size=(4, 3))
        out = propagator.inference_concat(features, [0, 2], 0.5)
        assert out.shape == (4, 6)
        np.testing.assert_allclose(out[:, :3], features / 2.0)

    def test_invalid_inference_alpha(self, triangle_adjacency):
        propagator = Propagator(triangle_adjacency, alpha=0.5)
        with pytest.raises(ConfigurationError):
            propagator.inference_matrix(1, 1.5)


class TestPropagationCache:
    def _cache_and_propagator(self, adjacency, alpha=0.5):
        from repro.core.propagation import PropagationCache

        cache = PropagationCache()
        return cache, cache.propagator(adjacency, alpha)

    def test_cached_matches_uncached_bitwise(self, triangle_adjacency, rng):
        cache, cached = self._cache_and_propagator(triangle_adjacency)
        plain = Propagator(triangle_adjacency, alpha=0.5)
        features = rng.normal(size=(4, 3))
        for steps in (0, 1, 3, math.inf):
            assert np.array_equal(cached.propagate(features, steps),
                                  plain.propagate(features, steps))

    def test_transition_hit_on_second_propagator(self, triangle_adjacency):
        cache, _ = self._cache_and_propagator(triangle_adjacency)
        assert cache.stats["transition"] == {"hits": 0, "misses": 1}
        cache.propagator(triangle_adjacency, 0.8)
        assert cache.stats["transition"] == {"hits": 1, "misses": 1}

    def test_feature_cache_hit_and_miss(self, triangle_adjacency, rng):
        cache, propagator = self._cache_and_propagator(triangle_adjacency)
        features = rng.normal(size=(4, 3))
        first = propagator.propagate(features, 2)
        assert cache.stats["features"] == {"hits": 0, "misses": 1}
        second = propagator.propagate(features, 2)
        assert cache.stats["features"] == {"hits": 1, "misses": 1}
        assert np.array_equal(first, second)
        # Different step count or different features are misses.
        propagator.propagate(features, 3)
        propagator.propagate(features + 1.0, 2)
        assert cache.stats["features"] == {"hits": 1, "misses": 3}

    def test_ppr_solver_shared_across_repeats(self, triangle_adjacency, rng):
        cache, propagator = self._cache_and_propagator(triangle_adjacency)
        features = rng.normal(size=(4, 2))
        propagator.propagate(features, math.inf)
        # A second propagator over the same (graph, alpha) reuses the LU solve
        # even for fresh feature matrices.
        other = cache.propagator(triangle_adjacency, 0.5)
        other.propagate(rng.normal(size=(4, 2)), math.inf)
        assert cache.stats["solver"] == {"hits": 1, "misses": 1}

    def test_cached_result_is_a_private_copy(self, triangle_adjacency, rng):
        cache, propagator = self._cache_and_propagator(triangle_adjacency)
        features = rng.normal(size=(4, 3))
        first = propagator.propagate(features, 2)
        first[:] = 0.0  # caller mutates its copy
        second = propagator.propagate(features, 2)
        assert not np.array_equal(first, second)

    def test_clear_resets_entries_and_counters(self, triangle_adjacency, rng):
        cache, propagator = self._cache_and_propagator(triangle_adjacency)
        propagator.propagate(rng.normal(size=(4, 2)), 1)
        cache.clear()
        info = cache.info()
        assert all(layer["entries"] == 0 and layer["hits"] == 0 and layer["misses"] == 0
                   for layer in info.values())

    def test_fingerprint_is_content_based(self, triangle_adjacency):
        from repro.core.propagation import graph_fingerprint

        copy = triangle_adjacency.copy()
        assert graph_fingerprint(copy) == graph_fingerprint(triangle_adjacency)
        modified = triangle_adjacency.copy()
        modified[0, 1] = 0.0
        modified.eliminate_zeros()
        assert graph_fingerprint(modified) != graph_fingerprint(triangle_adjacency)

    def test_propagation_cache_context_scopes_caching(self, triangle_adjacency):
        from repro.core import propagation as P

        # Engine-scoped by default: plain library use gets no cache...
        assert P.cached_propagator(triangle_adjacency, 0.5).cache is None
        # ...opting in via the context manager activates one...
        cache = P.PropagationCache()
        with P.propagation_cache(cache):
            propagator = P.cached_propagator(triangle_adjacency, 0.5)
            assert propagator.cache is cache
        with P.propagation_cache(P.get_default_cache()):
            propagator = P.cached_propagator(triangle_adjacency, 0.5)
            assert propagator.cache is P.get_default_cache()
        # ...and the default is restored on exit.
        assert P.cached_propagator(triangle_adjacency, 0.5).cache is None


# --------------------------------------------------------------------------- #
# one shared APPR recursion == the per-step recursion it replaced
# --------------------------------------------------------------------------- #
def _per_step_oracle(adjacency, alpha: float, features, steps_list) -> np.ndarray:
    """The scaled concatenation of Eq. (11) as computed before the shared
    recursion: one independent Eq. (9) loop per entry of ``steps_list`` and
    one LU solve per ``∞`` entry.  Kept here as the bitwise oracle."""
    transition = row_stochastic_normalize(adjacency, add_loops=True)
    features = np.asarray(features, dtype=np.float64)
    blocks = []
    for steps in steps_list:
        if steps == 0 or (steps == math.inf and alpha == 1.0):
            blocks.append(features.copy())
        elif steps == math.inf:
            system = sp.identity(transition.shape[0], format="csc") \
                - (1.0 - alpha) * transition.tocsc()
            blocks.append(alpha * spla.splu(system.tocsc()).solve(features))
        else:
            aggregated = features.copy()
            for _ in range(int(steps)):
                aggregated = (1.0 - alpha) * (transition @ aggregated) + alpha * features
            blocks.append(aggregated)
    return np.concatenate(blocks, axis=1) / len(blocks)


def _random_adjacency(seed: int, nodes: int, density: float):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((nodes, nodes)) < density, k=1)
    return sp.csr_matrix((upper | upper.T).astype(np.float64))


def _bitwise_equal(actual, expected) -> bool:
    return (actual.shape == expected.shape
            and actual.tobytes() == expected.tobytes())


_STEPS_LISTS = st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, math.inf]),
                        min_size=1, max_size=6)
_ALPHAS = st.sampled_from([0.1, 0.5, 0.8, 1.0])


class TestSharedRecursionMatchesPerStep:
    """Every block of one shared recursion is bitwise the block the old
    per-step loop computed, whatever the order, repeats and limits of the
    steps list, with and without the propagation cache."""

    @given(seed=st.integers(0, 10_000), nodes=st.integers(2, 30),
           density=st.floats(0.0, 0.5), steps_list=_STEPS_LISTS, alpha=_ALPHAS)
    @settings(max_examples=60, deadline=None)
    def test_propagate_concat(self, seed, nodes, density, steps_list, alpha):
        from repro.core.propagation import PropagationCache

        adjacency = _random_adjacency(seed, nodes, density)
        features = np.random.default_rng(seed + 1).normal(size=(nodes, 3))
        expected = _per_step_oracle(adjacency, alpha, features, steps_list)
        plain = Propagator(adjacency, alpha).propagate_concat(features, steps_list)
        assert _bitwise_equal(plain, expected)
        # Cached: a cold miss, a partial hit (a prefix was cached first) and
        # a full hit all equal the oracle.
        cache = PropagationCache()
        cached = cache.propagator(adjacency, alpha)
        assert _bitwise_equal(cached.propagate_concat(features, steps_list[:1]),
                              _per_step_oracle(adjacency, alpha, features,
                                               steps_list[:1]))
        for _ in range(2):
            assert _bitwise_equal(cached.propagate_concat(features, steps_list),
                                  expected)

    @given(seed=st.integers(0, 10_000), nodes=st.integers(3, 30),
           density=st.floats(0.05, 0.5), steps_list=_STEPS_LISTS, alpha=_ALPHAS,
           use_cache=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_public_incremental(self, seed, nodes, density, steps_list, alpha,
                                use_cache):
        from repro.core.propagation import (
            PropagationCache,
            incremental_inference_features,
        )

        adjacency = _random_adjacency(seed, nodes, density)
        features = np.random.default_rng(seed + 1).normal(size=(nodes, 3))
        old = _per_step_oracle(adjacency, alpha, features, steps_list)
        # Toggle one node pair: an insert or a delete.
        rng = np.random.default_rng(seed + 2)
        u, v = (int(node) for node in rng.choice(nodes, size=2, replace=False))
        changed = adjacency.tolil()
        changed[u, v] = changed[v, u] = 1.0 - changed[u, v]
        changed = changed.tocsr()
        changed.eliminate_zeros()
        propagator = (PropagationCache().propagator(changed, alpha) if use_cache
                      else Propagator(changed, alpha))
        new, touched = incremental_inference_features(
            propagator, features, old, [u, v], steps_list, mode="public")
        assert _bitwise_equal(new, _per_step_oracle(changed, alpha, features,
                                                    steps_list))
        assert touched.size == (0 if set(steps_list) == {0} else nodes)

    def test_kept_blocks_are_not_overwritten_by_later_iterates(self, tiny_graph):
        propagator = Propagator(tiny_graph.adjacency, alpha=0.5)
        features = np.random.default_rng(0).normal(size=(tiny_graph.num_nodes, 4))
        blocks = propagator._propagate_appr(features, [1, 2, 5])
        assert sorted(blocks) == [1, 2, 5]
        assert len({id(block) for block in blocks.values()}) == 3
        for steps, block in blocks.items():
            assert _bitwise_equal(
                block, _per_step_oracle(tiny_graph.adjacency, 0.5, features, [steps]))

    def test_cache_counts_each_distinct_step_once(self, triangle_adjacency, rng):
        from repro.core.propagation import PropagationCache

        cache = PropagationCache()
        propagator = cache.propagator(triangle_adjacency, 0.5)
        features = rng.normal(size=(4, 2))
        propagator.propagate_concat(features, [4, 2, 2, 0])
        assert cache.stats["features"] == {"hits": 0, "misses": 2}
        propagator.propagate_concat(features, [2, 3])
        assert cache.stats["features"] == {"hits": 1, "misses": 3}
        assert cache.info()["features"]["entries"] == 3


# --------------------------------------------------------------------------- #
# one Eq. (16) product == the per-block products it replaced
# --------------------------------------------------------------------------- #
def _per_block_inference_oracle(adjacency, features, steps_list,
                                inference_alpha: float) -> np.ndarray:
    """Private-inference features (Eq. 16) as computed before the shared
    product: one operator and one product per entry of ``steps_list``.
    Kept here as the bitwise oracle."""
    transition = row_stochastic_normalize(adjacency, add_loops=True)
    identity = sp.identity(transition.shape[0], format="csr")
    blocks = []
    for steps in steps_list:
        operator = identity if steps == 0 else (
            (1.0 - inference_alpha) * transition
            + inference_alpha * identity).tocsr()
        blocks.append(np.asarray(operator @ features))
    return np.concatenate(blocks, axis=1) / len(blocks)


class TestInferenceConcatMatchesPerBlock:
    @given(seed=st.integers(0, 10_000), nodes=st.integers(2, 30),
           density=st.floats(0.0, 0.5), steps_list=_STEPS_LISTS,
           inference_alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_the_per_block_loop(self, seed, nodes, density,
                                                 steps_list, inference_alpha):
        adjacency = _random_adjacency(seed, nodes, density)
        rng = np.random.default_rng(seed + 1)
        features = rng.normal(size=(nodes, 3))
        # Signed zeros: the identity product turns -0.0 into +0.0, so an
        # m = 0 block that copied X would differ here.
        features[rng.random(features.shape) < 0.2] = -0.0
        expected = _per_block_inference_oracle(adjacency, features,
                                               steps_list, inference_alpha)
        actual = Propagator(adjacency, 0.5).inference_concat(
            features, steps_list, inference_alpha)
        assert _bitwise_equal(actual, expected)

    def test_builds_one_operator_per_kind_of_block(self, tiny_graph,
                                                   monkeypatch):
        propagator = Propagator(tiny_graph.adjacency, alpha=0.5)
        built = []
        build = propagator.inference_matrix

        def counting(steps, inference_alpha):
            built.append(steps)
            return build(steps, inference_alpha)

        monkeypatch.setattr(propagator, "inference_matrix", counting)
        features = np.random.default_rng(0).normal(
            size=(tiny_graph.num_nodes, 4))
        out = propagator.inference_concat(features, [4, 0, 2, 4, 0], 0.3)
        assert out.shape == (tiny_graph.num_nodes, 20)
        # One identity product and one Eq. (16) product serve all five blocks.
        assert sorted(step != 0 for step in built) == [False, True]

    @pytest.mark.parametrize("steps_list", [
        [0], [3], [0, 0], [2, 0, 1], [math.inf, 1], [4, 4, 4]],
        ids=lambda steps_list: "-".join(map(str, steps_list)))
    def test_named_steps_lists_equal_the_per_block_loop(self, tiny_graph,
                                                        steps_list):
        # The property above draws such lists at random; these shapes (only
        # the identity, repeats, unsorted, infinite m) are pinned outright.
        features = np.random.default_rng(3).normal(
            size=(tiny_graph.num_nodes, 5))
        features[::7, 1] = -0.0
        expected = _per_block_inference_oracle(tiny_graph.adjacency,
                                               features, steps_list, 0.3)
        actual = Propagator(tiny_graph.adjacency, alpha=0.5).inference_concat(
            features, steps_list, 0.3)
        assert _bitwise_equal(actual, expected)

    def test_zero_block_is_the_identity_product_not_a_copy(
            self, triangle_adjacency):
        features = np.array([[-0.0, 1.0], [2.0, -0.0],
                             [-0.0, -0.0], [3.0, 4.0]])
        out = Propagator(triangle_adjacency, alpha=0.5).inference_concat(
            features, [0], 0.3)
        assert np.array_equal(out, features)
        assert not np.signbit(out).any()  # the sparse product drops -0.0
        assert np.signbit(features).sum() == 4

    def test_empty_steps_list_is_rejected(self, triangle_adjacency):
        with pytest.raises(ConfigurationError, match="at least one entry"):
            Propagator(triangle_adjacency, alpha=0.5).inference_concat(
                np.ones((4, 2)), [], 0.3)
