"""Property tests for incremental re-propagation after live edge deltas.

The acceptance bar of the graph-mutation subsystem: for insert, delete and
mixed edge batches, :func:`incremental_inference_features` on the *new*
graph is **bitwise identical** to recomputing
:func:`repro.core.inference.inference_features` from scratch, while every
row outside the reported touched set is byte-copied from the old epoch's
matrix.  The claims are exercised property-style across sampling seeds.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.inference import inference_features
from repro.core.propagation import (
    PropagationCache,
    Propagator,
    incremental_inference_features,
)
from repro.exceptions import ConfigurationError
from repro.graphs.perturbations import sample_absent_edge, sample_present_edge
from repro.utils.math import row_normalize_l2
from repro.utils.random import as_rng

ALPHA = 0.8
INFERENCE_ALPHA = 0.6


def _encoded(graph, seed: int = 11) -> np.ndarray:
    """A stand-in for the encoder output: any row-normalised dense matrix.

    The propagation algebra never looks inside the feature values, so a
    random matrix exercises exactly the same code paths as a trained
    encoder while keeping the tests fast and deterministic."""
    rng = np.random.default_rng(seed)
    return row_normalize_l2(rng.standard_normal((graph.num_nodes, 6)))


def _delta(graph, kind: str, seed: int):
    """Apply a small edge-delta batch of the given kind; return
    ``(new_graph, endpoints)``."""
    rng = as_rng(seed)
    perturbed = graph
    endpoints: set[int] = set()
    inserts = {"insert": 3, "mixed": 2}.get(kind, 0)
    deletes = {"delete": 3, "mixed": 2}.get(kind, 0)
    for _ in range(inserts):
        u, v = sample_absent_edge(perturbed, rng)
        perturbed = perturbed.with_edge(u, v)
        endpoints.update((u, v))
    for _ in range(deletes):
        u, v = sample_present_edge(perturbed, rng)
        perturbed = perturbed.without_edge(u, v)
        endpoints.update((u, v))
    return perturbed, sorted(endpoints)


class TestBitwiseEquivalence:
    """incremental == full recompute, bit for bit, across seeds and kinds."""

    @pytest.mark.parametrize("kind", ["insert", "delete", "mixed"])
    @pytest.mark.parametrize("mode,steps_list", [
        ("private", [2]),
        ("private", [0, 2, 4]),
        ("public", [2]),
        ("public", [0, 2, 4]),
        ("public", [2, math.inf]),
    ])
    @given(seed=st.integers(0, 500))
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_incremental_matches_full_recompute(self, tiny_graph, kind, mode,
                                                steps_list, seed):
        encoded = _encoded(tiny_graph)
        inference_alpha = INFERENCE_ALPHA if mode == "private" else None
        old = inference_features(Propagator(tiny_graph.adjacency, ALPHA),
                                 encoded, steps_list, mode=mode,
                                 inference_alpha=inference_alpha)
        new_graph, endpoints = _delta(tiny_graph, kind, seed)
        propagator = Propagator(new_graph.adjacency, ALPHA)
        incremental, touched = incremental_inference_features(
            propagator, encoded, old, endpoints, steps_list, mode=mode,
            inference_alpha=inference_alpha)
        full = inference_features(propagator, encoded, steps_list, mode=mode,
                                  inference_alpha=inference_alpha)
        assert np.array_equal(incremental, full)
        untouched = np.setdiff1d(np.arange(tiny_graph.num_nodes), touched)
        assert np.array_equal(incremental[untouched], old[untouched])

    def test_private_touches_exactly_the_endpoints(self, tiny_graph):
        encoded = _encoded(tiny_graph)
        old = inference_features(Propagator(tiny_graph.adjacency, ALPHA),
                                 encoded, [0, 2, 4], mode="private",
                                 inference_alpha=INFERENCE_ALPHA)
        new_graph, endpoints = _delta(tiny_graph, "mixed", seed=3)
        _features, touched = incremental_inference_features(
            Propagator(new_graph.adjacency, ALPHA), encoded, old, endpoints,
            [0, 2, 4], mode="private", inference_alpha=INFERENCE_ALPHA)
        assert touched.tolist() == endpoints

    def test_identity_block_is_never_touched(self, tiny_graph):
        encoded = _encoded(tiny_graph)
        old = inference_features(Propagator(tiny_graph.adjacency, ALPHA),
                                 encoded, [0], mode="public")
        new_graph, endpoints = _delta(tiny_graph, "mixed", seed=5)
        features, touched = incremental_inference_features(
            Propagator(new_graph.adjacency, ALPHA), encoded, old, endpoints,
            [0], mode="public")
        assert touched.size == 0
        assert np.array_equal(features, old)

    def test_empty_endpoints_return_a_copy(self, tiny_graph):
        encoded = _encoded(tiny_graph)
        propagator = Propagator(tiny_graph.adjacency, ALPHA)
        old = inference_features(propagator, encoded, [2], mode="public")
        features, touched = incremental_inference_features(
            propagator, encoded, old, [], [2], mode="public")
        assert touched.size == 0
        assert features is not old
        assert np.array_equal(features, old)

    @pytest.mark.parametrize("steps_list", [[3], [math.inf]],
                             ids=["m3", "inf"])
    def test_infinite_steps_recompute_every_row(self, tiny_graph, steps_list):
        """Public blocks recompute every row, finite m and the PPR limit
        alike."""
        encoded = _encoded(tiny_graph)
        old = inference_features(Propagator(tiny_graph.adjacency, ALPHA),
                                 encoded, steps_list, mode="public")
        new_graph, endpoints = _delta(tiny_graph, "insert", seed=6)
        propagator = Propagator(new_graph.adjacency, ALPHA)
        features, touched = incremental_inference_features(
            propagator, encoded, old, endpoints, steps_list, mode="public")
        assert touched.size == tiny_graph.num_nodes
        full = inference_features(propagator, encoded, steps_list,
                                  mode="public")
        assert np.array_equal(features, full)

    def test_public_blocks_bypass_the_features_cache(self, tiny_graph):
        """A rebuild's public blocks are never read again, so parking them
        in the propagation cache's features layer would only hold memory."""
        encoded = _encoded(tiny_graph)
        steps_list = [2, math.inf]
        old = inference_features(Propagator(tiny_graph.adjacency, ALPHA),
                                 encoded, steps_list, mode="public")
        new_graph, endpoints = _delta(tiny_graph, "mixed", seed=8)
        cache = PropagationCache()
        features, _touched = incremental_inference_features(
            cache.propagator(new_graph.adjacency, ALPHA), encoded, old,
            endpoints, steps_list, mode="public")
        assert cache.info()["features"]["entries"] == 0
        full = inference_features(Propagator(new_graph.adjacency, ALPHA),
                                  encoded, steps_list, mode="public")
        assert np.array_equal(features, full)


class TestValidation:
    def test_rejects_shape_mismatch(self, tiny_graph):
        encoded = _encoded(tiny_graph)
        propagator = Propagator(tiny_graph.adjacency, ALPHA)
        wrong = np.zeros((tiny_graph.num_nodes, 5))
        with pytest.raises(ConfigurationError):
            incremental_inference_features(propagator, encoded, wrong, [0, 1],
                                           [2], mode="public")

    def test_rejects_out_of_range_endpoints(self, tiny_graph):
        encoded = _encoded(tiny_graph)
        propagator = Propagator(tiny_graph.adjacency, ALPHA)
        old = inference_features(propagator, encoded, [2], mode="public")
        with pytest.raises(ConfigurationError):
            incremental_inference_features(propagator, encoded, old,
                                           [tiny_graph.num_nodes], [2],
                                           mode="public")

    def test_rejects_bad_mode_and_missing_alpha(self, tiny_graph):
        encoded = _encoded(tiny_graph)
        propagator = Propagator(tiny_graph.adjacency, ALPHA)
        old = inference_features(propagator, encoded, [2], mode="public")
        with pytest.raises(ConfigurationError):
            incremental_inference_features(propagator, encoded, old, [0],
                                           [2], mode="both")
        with pytest.raises(ConfigurationError):
            incremental_inference_features(propagator, encoded, old, [0],
                                           [2], mode="private")

    def test_rejects_empty_steps_list(self, tiny_graph):
        encoded = _encoded(tiny_graph)
        propagator = Propagator(tiny_graph.adjacency, ALPHA)
        old = inference_features(propagator, encoded, [2], mode="public")
        with pytest.raises(ConfigurationError):
            incremental_inference_features(propagator, encoded, old, [0], [],
                                           mode="public")
