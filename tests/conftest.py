"""Shared fixtures for the test suite: small synthetic graphs and RNGs."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.adjacency import build_adjacency
from repro.graphs.datasets import load_dataset
from repro.graphs.generators import CitationGraphSpec, generate_citation_graph
from repro.graphs.graph import GraphDataset


@pytest.fixture(scope="session")
def tiny_spec() -> CitationGraphSpec:
    """A very small homophilous citation-graph spec used across tests."""
    return CitationGraphSpec(
        name="tiny",
        num_nodes=150,
        num_edges=450,
        num_features=64,
        num_classes=4,
        homophily=0.8,
        feature_active=8,
        feature_signal=0.6,
        train_per_class=10,
        num_val=20,
        num_test=50,
    )


@pytest.fixture(scope="session")
def tiny_graph(tiny_spec) -> GraphDataset:
    """A deterministic small homophilous graph with splits."""
    return generate_citation_graph(tiny_spec, seed=7)


@pytest.fixture(scope="session")
def edit_graphs(tiny_graph) -> dict[str, GraphDataset]:
    """The graphs the edge-edit property tests run on: ``tiny`` and the
    748-node ``cora_ml`` preset."""
    return {"tiny": tiny_graph, "cora_ml": load_dataset("cora_ml", scale=0.25, seed=0)}


@pytest.fixture(scope="session")
def heterophilous_graph() -> GraphDataset:
    """A small heterophilous graph (low homophily ratio)."""
    spec = CitationGraphSpec(
        name="tiny_hetero",
        num_nodes=150,
        num_edges=450,
        num_features=64,
        num_classes=4,
        homophily=0.2,
        feature_active=8,
        feature_signal=0.6,
        train_per_class=10,
        num_val=20,
        num_test=50,
    )
    return generate_citation_graph(spec, seed=3)


@pytest.fixture()
def path_graph() -> GraphDataset:
    """A deterministic 6-node path graph with trivial features and labels."""
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5]])
    adjacency = build_adjacency(edges, 6)
    features = np.eye(6)
    labels = np.array([0, 0, 0, 1, 1, 1])
    return GraphDataset(
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_idx=np.array([0, 3]),
        val_idx=np.array([1, 4]),
        test_idx=np.array([2, 5]),
        name="path6",
    )


@pytest.fixture()
def triangle_adjacency() -> sp.csr_matrix:
    """Adjacency of a triangle plus one pendant node."""
    edges = np.array([[0, 1], [1, 2], [0, 2], [2, 3]])
    return build_adjacency(edges, 4)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
