"""Adjacency-matrix construction and normalisation utilities.

The paper's propagation uses the row-stochastic normalisation
``Ã = D^{-1}(A + I)`` (Section IV-C2 with r = 0); the non-private GCN
baseline uses the symmetric normalisation ``D^{-1/2}(A + I)D^{-1/2}`` of Kipf
& Welling.  Both are provided here, along with the batched edge edit behind
edge-level neighbouring graphs and live serving-graph updates.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import GraphDataError


def build_adjacency(edge_list: np.ndarray, num_nodes: int) -> sp.csr_matrix:
    """Build a symmetric binary adjacency matrix from an undirected edge list.

    Parameters
    ----------
    edge_list:
        Array of shape ``(m, 2)``; each row is an undirected edge.  Duplicate
        edges and both orientations are tolerated; self-loops are rejected.
    num_nodes:
        Number of nodes ``n``.
    """
    edge_list = np.asarray(edge_list, dtype=np.int64)
    if edge_list.size == 0:
        return sp.csr_matrix((num_nodes, num_nodes), dtype=np.float64)
    if edge_list.ndim != 2 or edge_list.shape[1] != 2:
        raise GraphDataError(f"edge_list must have shape (m, 2), got {edge_list.shape}")
    if np.any(edge_list < 0) or np.any(edge_list >= num_nodes):
        raise GraphDataError("edge_list contains out-of-range node indices")
    if np.any(edge_list[:, 0] == edge_list[:, 1]):
        raise GraphDataError("edge_list must not contain self-loops")
    rows = np.concatenate([edge_list[:, 0], edge_list[:, 1]])
    cols = np.concatenate([edge_list[:, 1], edge_list[:, 0]])
    data = np.ones(rows.shape[0], dtype=np.float64)
    adjacency = sp.coo_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes)).tocsr()
    # Collapse duplicates to binary entries.
    adjacency.data[:] = 1.0
    adjacency.sum_duplicates()
    adjacency.data[:] = 1.0
    return adjacency


def add_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return ``A + I`` (the paper's ``Â``)."""
    n = adjacency.shape[0]
    return (sp.csr_matrix(adjacency) + sp.identity(n, format="csr")).tocsr()


def row_stochastic_normalize(adjacency: sp.spmatrix, add_loops: bool = True) -> sp.csr_matrix:
    """Row-stochastic message-passing matrix ``Ã = D^{-1}(A + I)``.

    This is the ``r = 0`` normalisation used by GCON (Section IV-C2): every
    row sums to one, which is the property Lemma 1 relies on.
    """
    matrix = add_self_loops(adjacency) if add_loops else sp.csr_matrix(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv[nonzero] = 1.0 / degrees[nonzero]
    return sp.diags(inv).dot(matrix).tocsr()


def symmetric_normalize(adjacency: sp.spmatrix, add_loops: bool = True) -> sp.csr_matrix:
    """Symmetric normalisation ``D^{-1/2}(A + I)D^{-1/2}`` (Kipf & Welling GCN)."""
    matrix = add_self_loops(adjacency) if add_loops else sp.csr_matrix(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    diag = sp.diags(inv_sqrt)
    return diag.dot(matrix).dot(diag).tocsr()


def general_normalize(adjacency: sp.spmatrix, r: float, add_loops: bool = True) -> sp.csr_matrix:
    """General normalisation ``D^{r-1}(A + I)D^{-r}`` with ``r`` in ``[0, 1]``.

    ``r = 0`` recovers :func:`row_stochastic_normalize` and ``r = 0.5`` the
    symmetric normalisation.
    """
    if not 0.0 <= r <= 1.0:
        raise GraphDataError(f"r must be in [0, 1], got {r}")
    matrix = add_self_loops(adjacency) if add_loops else sp.csr_matrix(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        left = np.where(degrees > 0, degrees ** (r - 1.0), 0.0)
        right = np.where(degrees > 0, degrees ** (-r), 0.0)
    return sp.diags(left).dot(matrix).dot(sp.diags(right)).tocsr()


def apply_edge_delta(adjacency: sp.spmatrix, inserts=(), deletes=()) -> sp.csr_matrix:
    """Return a copy of ``adjacency`` with a batch of undirected edges
    inserted and deleted.

    All-or-nothing: every node must lie in ``[0, n)``, no pair may be a
    self-loop or appear twice, every insert must be absent and every delete
    present, else :class:`GraphDataError` is raised and nothing is built.
    The range check runs on the Python ints, so a node id too large for
    int64 is a clean error rather than an overflow.  Each pair is looked up
    once, then the whole batch lands as one sparse add; the result is the
    canonical CSR (sorted indices, float64 data, no stored zeros).
    """
    matrix = sp.csr_matrix(adjacency, dtype=np.float64)
    n = matrix.shape[0]
    pairs = [(int(u), int(v)) for u, v in inserts]
    num_inserts = len(pairs)
    pairs += [(int(u), int(v)) for u, v in deletes]
    seen = set()
    for u, v in pairs:
        if u == v:
            raise GraphDataError(f"edge ({u}, {v}) is a self-loop")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphDataError(f"edge ({u}, {v}) has a node outside [0, {n})")
        edge = (min(u, v), max(u, v))
        if edge in seen:
            raise GraphDataError(f"edge {edge} appears twice in one batch")
        seen.add(edge)
    if not pairs:
        return matrix.copy()
    ends = np.asarray(pairs, dtype=np.int64)
    values = np.asarray(matrix[ends[:, 0], ends[:, 1]]).ravel()
    inserting = np.arange(len(pairs)) < num_inserts
    wrong = np.flatnonzero(inserting == (values != 0))
    if wrong.size:
        u, v = pairs[wrong[0]]
        state = "already present" if inserting[wrong[0]] else "not present"
        raise GraphDataError(f"edge ({u}, {v}) is {state}")
    # A delete adds its entry's negated value, which cancels to an exact zero.
    change = np.where(inserting, 1.0, -values)
    delta = sp.csr_matrix(
        (np.concatenate([change, change]),
         (np.concatenate([ends[:, 0], ends[:, 1]]),
          np.concatenate([ends[:, 1], ends[:, 0]]))),
        shape=matrix.shape)
    out = matrix + delta
    out.eliminate_zeros()
    out.sort_indices()  # a no-op unless the input rows were unsorted
    return out
