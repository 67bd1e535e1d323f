"""Graph dataset substrate: containers, normalisation, generators and splits."""

from repro.graphs.graph import GraphDataset
from repro.graphs.adjacency import (
    build_adjacency,
    add_self_loops,
    row_stochastic_normalize,
    symmetric_normalize,
    apply_edge_delta,
)
from repro.graphs.homophily import homophily_ratio
from repro.graphs.generators import generate_citation_graph, CitationGraphSpec
from repro.graphs.datasets import load_dataset, list_datasets, dataset_statistics
from repro.graphs.splits import per_class_split, fractional_split
from repro.graphs.statistics import (
    GraphStatistics,
    compute_statistics,
    degree_histogram,
    edge_homophily_ratio,
    average_clustering,
    component_sizes,
    graph_density,
)
from repro.graphs.perturbations import (
    NeighboringPair,
    sample_neighboring_pair,
    iter_neighboring_pairs,
    remove_random_edges,
    add_random_edges,
    rewire_edges,
    edge_flip_distance,
)
from repro.graphs.planetoid import load_planetoid, write_planetoid, PlanetoidLoadReport
from repro.graphs.random_graphs import (
    erdos_renyi_graph,
    barabasi_albert_graph,
    planted_partition_graph,
    ring_of_cliques,
)

__all__ = [
    "GraphDataset",
    "build_adjacency",
    "add_self_loops",
    "row_stochastic_normalize",
    "symmetric_normalize",
    "apply_edge_delta",
    "homophily_ratio",
    "generate_citation_graph",
    "CitationGraphSpec",
    "load_dataset",
    "list_datasets",
    "dataset_statistics",
    "per_class_split",
    "fractional_split",
    "GraphStatistics",
    "compute_statistics",
    "degree_histogram",
    "edge_homophily_ratio",
    "average_clustering",
    "component_sizes",
    "graph_density",
    "NeighboringPair",
    "sample_neighboring_pair",
    "iter_neighboring_pairs",
    "remove_random_edges",
    "add_random_edges",
    "rewire_edges",
    "edge_flip_distance",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "planted_partition_graph",
    "ring_of_cliques",
    "load_planetoid",
    "write_planetoid",
    "PlanetoidLoadReport",
]
