"""PPR / APPR feature propagation (Section IV-C2 and IV-C3 of the paper).

The propagation matrix (Eq. 9) is

* ``R_0 = I``,
* ``R_m = alpha * sum_{i<m} (1-alpha)^i Ã^i + (1-alpha)^m Ã^m`` for finite m
  (APPR), computed via the recursion ``R_m = (1-alpha) Ã R_{m-1} + alpha I``,
* ``R_inf = alpha (I - (1-alpha) Ã)^{-1}`` (PPR), computed with a sparse
  linear solve.

``Ã = D^{-1}(A + I)`` is the row-stochastic normalisation with self-loops.
The aggregate features are ``Z_m = R_m X`` (Eq. 10) and the final model input
is the scaled concatenation ``Z = (1/s)(Z_{m_1} ⊕ ... ⊕ Z_{m_s})`` (Eq. 11).
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.exceptions import ConfigurationError
from repro.graphs.adjacency import row_stochastic_normalize
from repro.utils.lru import LRUDict


def graph_fingerprint(adjacency: sp.spmatrix) -> str:
    """A stable content hash of a sparse adjacency (shape + sparsity pattern + data).

    Used as the cache key for per-graph artefacts: two adjacency objects with
    identical content map to the same key even across processes, while ``id``
    based keys would not survive worker boundaries or garbage collection.
    """
    matrix = sp.csr_matrix(adjacency)
    digest = hashlib.sha1()
    digest.update(str(matrix.shape).encode())
    digest.update(np.ascontiguousarray(matrix.indptr).tobytes())
    digest.update(np.ascontiguousarray(matrix.indices).tobytes())
    digest.update(np.ascontiguousarray(matrix.data).tobytes())
    return digest.hexdigest()


def _features_fingerprint(features: np.ndarray) -> str:
    digest = hashlib.sha1()
    digest.update(str(features.shape).encode())
    digest.update(str(features.dtype).encode())
    digest.update(np.ascontiguousarray(features).tobytes())
    return digest.hexdigest()


def _checked_steps(steps):
    """A propagation step count as an ``int``, or ``math.inf``."""
    if steps == math.inf:
        return math.inf
    if not float(steps).is_integer() or steps < 0:
        raise ConfigurationError(f"steps must be a non-negative integer or inf, got {steps}")
    return int(steps)


class PropagationCache:
    """Memoizes the per-graph propagation artefacts across experiment cells.

    Three layers, each keyed by the graph's content fingerprint:

    * ``transition`` -- the row-stochastic ``Ã = D^{-1}(A + I)`` (independent
      of alpha, epsilon and seed);
    * ``solver``     -- the sparse LU factorisation of ``I - (1-alpha) Ã``
      behind the exact PPR limit, per ``(graph, alpha)``;
    * ``features``   -- the propagated ``Z_m = R_m X`` per
      ``(graph, alpha, steps, fingerprint(X))``.

    An epsilon sweep or a repeat loop re-deriving identical propagations hits
    the cache instead of recomputing; cached values are bitwise identical to a
    fresh computation, so enabling the cache never changes results.
    """

    def __init__(self, max_graphs: int = 8, max_feature_entries: int = 16):
        self._transitions = LRUDict(max_graphs)
        self._solvers = LRUDict(max_graphs)
        self._features = LRUDict(max_feature_entries)
        self.stats = {
            layer: {"hits": 0, "misses": 0}
            for layer in ("transition", "solver", "features")
        }

    # ------------------------------------------------------------------ #
    # layers
    # ------------------------------------------------------------------ #
    def transition(self, adjacency: sp.spmatrix, key: str | None = None):
        """Return ``(graph_key, Ã)``, normalising at most once per graph."""
        key = key if key is not None else graph_fingerprint(adjacency)
        cached = self._transitions.get_or_none(key)
        if cached is not None:
            self.stats["transition"]["hits"] += 1
            return key, cached
        self.stats["transition"]["misses"] += 1
        transition = row_stochastic_normalize(adjacency, add_loops=True)
        self._transitions.put(key, transition)
        return key, transition

    def solver(self, graph_key: str, alpha: float, transition: sp.spmatrix):
        """Return the cached sparse LU factorisation of ``I - (1-alpha) Ã``."""
        key = (graph_key, float(alpha))
        cached = self._solvers.get_or_none(key)
        if cached is not None:
            self.stats["solver"]["hits"] += 1
            return cached
        self.stats["solver"]["misses"] += 1
        system = sp.identity(transition.shape[0], format="csc") \
            - (1.0 - alpha) * transition.tocsc()
        solver = spla.splu(system.tocsc())
        self._solvers.put(key, solver)
        return solver

    def propagated_features(self, graph_key: str, alpha: float, steps,
                            features: np.ndarray, compute) -> dict:
        """Return ``{m: Z_m}`` for each distinct ``m`` of ``steps``.

        Each ``Z_m`` is its own ``(graph, alpha, m, X)`` entry.  The misses
        are computed by one ``compute(missing_steps)`` call, which returns
        ``{m: Z_m}`` for exactly those steps.
        """
        fingerprint = _features_fingerprint(features)
        blocks, missing = {}, []
        for step in steps:
            cached = self._features.get_or_none(
                (graph_key, float(alpha), step, fingerprint))
            if cached is None:
                self.stats["features"]["misses"] += 1
                missing.append(step)
            else:
                self.stats["features"]["hits"] += 1
                blocks[step] = cached.copy()
        if missing:
            for step, result in compute(missing).items():
                self._features.put((graph_key, float(alpha), step, fingerprint),
                                   result)
                blocks[step] = result.copy()
        return blocks

    # ------------------------------------------------------------------ #
    # convenience
    # ------------------------------------------------------------------ #
    def propagator(self, adjacency: sp.spmatrix, alpha: float,
                   key: str | None = None) -> "Propagator":
        """A :class:`Propagator` whose hot paths consult this cache.

        ``key`` is the adjacency's :func:`graph_fingerprint` when the caller
        already holds it (a graph store's epoch digest); otherwise the
        adjacency is hashed here.
        """
        return Propagator(adjacency, alpha, cache=self, graph_key=key)

    def clear(self) -> None:
        self._transitions.clear()
        self._solvers.clear()
        self._features.clear()
        for counters in self.stats.values():
            counters["hits"] = counters["misses"] = 0

    def info(self) -> dict:
        """Hit/miss counters plus current entry counts per layer."""
        return {
            "transition": dict(self.stats["transition"], entries=len(self._transitions)),
            "solver": dict(self.stats["solver"], entries=len(self._solvers)),
            "features": dict(self.stats["features"], entries=len(self._features)),
        }


_DEFAULT_CACHE = PropagationCache()
# Caching is engine-scoped: the sweep workers (and anything else
# that opts in via `propagation_cache(...)`) activate it around their fits,
# while a standalone `GCON.fit` keeps the original propagate-and-forget
# behaviour -- no global retention of LU factorisations or feature matrices
# in single-model library use.
_ACTIVE_CACHE: PropagationCache | None = None


def get_default_cache() -> PropagationCache:
    """The process-wide cache used by :func:`cached_propagator` by default."""
    return _DEFAULT_CACHE


@contextmanager
def propagation_cache(cache: PropagationCache | None):
    """Temporarily swap the active propagation cache (``None`` disables caching)."""
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    try:
        yield cache
    finally:
        _ACTIVE_CACHE = previous


def cached_propagator(adjacency: sp.spmatrix, alpha: float) -> "Propagator":
    """A :class:`Propagator` backed by the active cache (plain if disabled)."""
    if _ACTIVE_CACHE is None:
        return Propagator(adjacency, alpha)
    return _ACTIVE_CACHE.propagator(adjacency, alpha)


class Propagator:
    """Computes PPR/APPR propagation of node features over a fixed graph."""

    def __init__(self, adjacency: sp.spmatrix, alpha: float,
                 cache: PropagationCache | None = None,
                 graph_key: str | None = None):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.cache = cache
        if cache is not None:
            self._graph_key, self.transition = cache.transition(adjacency,
                                                                key=graph_key)
        else:
            self._graph_key = None
            self.transition = row_stochastic_normalize(adjacency, add_loops=True)
        self.num_nodes = self.transition.shape[0]
        self._ppr_solver = None

    # ------------------------------------------------------------------ #
    # feature propagation
    # ------------------------------------------------------------------ #
    def propagate(self, features: np.ndarray, steps: float) -> np.ndarray:
        """Return ``Z_m = R_m X`` for a single propagation step count ``m``.

        ``steps`` may be a non-negative integer or ``math.inf`` (PPR limit).
        """
        return self._propagate_steps(features, [steps])[steps]

    def propagate_concat(self, features: np.ndarray, steps_list) -> np.ndarray:
        """Return the scaled concatenation ``Z`` of Eq. (11) over ``steps_list``."""
        steps_list = list(steps_list)
        if not steps_list:
            raise ConfigurationError("steps_list must contain at least one entry")
        blocks = self._propagate_steps(features, steps_list)
        return (np.concatenate([blocks[steps] for steps in steps_list], axis=1)
                / len(steps_list))

    def _propagate_steps(self, features: np.ndarray, steps_list) -> dict:
        """``{m: R_m X}`` for every distinct ``m`` of ``steps_list``."""
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != self.num_nodes:
            raise ConfigurationError(
                f"features have {features.shape[0]} rows but the graph has "
                f"{self.num_nodes} nodes"
            )
        wanted = sorted({_checked_steps(steps) for steps in steps_list})
        blocks = {0: features.copy()} if wanted[0] == 0 else {}
        positive = [m for m in wanted if m > 0]
        if not positive:
            return blocks
        if self.cache is None:
            blocks.update(self._propagate_positive(features, positive))
        else:
            blocks.update(self.cache.propagated_features(
                self._graph_key, self.alpha, positive, features,
                lambda missing: self._propagate_positive(features, missing)))
        return blocks

    def _propagate_positive(self, features: np.ndarray, steps) -> dict:
        """``{m: R_m X}`` for sorted, distinct ``m > 0``, past any cache:
        every finite ``m`` from one APPR recursion, ``∞`` from the LU solve."""
        blocks = self._propagate_appr(features,
                                      [m for m in steps if m != math.inf])
        if steps[-1] == math.inf:
            blocks[math.inf] = self._propagate_ppr(features)
        return blocks

    def _propagate_appr(self, features: np.ndarray, steps) -> dict:
        """Finite-step APPR via the recursion of Eq. (9), ``{m: R_m X}`` for
        every ``m`` of the sorted, distinct positive ``steps`` from one pass.

        Each iterate is a fresh ``Ã @ agg`` scaled and shifted in place:
        the same per-element multiply and add as ``(1-alpha) * (Ã @ agg) +
        alpha * X``, so every block is bitwise equal to recursing for its
        ``m`` alone.  The next iterate never writes into a kept one.
        """
        blocks = {}
        if not steps:
            return blocks
        decayed = 1.0 - self.alpha
        restart = self.alpha * features
        aggregated = features
        for step in range(1, steps[-1] + 1):
            aggregated = self.transition @ aggregated
            aggregated *= decayed
            aggregated += restart
            if step in steps:
                blocks[step] = aggregated
        return blocks

    def _propagate_ppr(self, features: np.ndarray) -> np.ndarray:
        """Exact personalised-PageRank limit via a sparse LU solve (Eq. 5)."""
        if self.alpha == 1.0:
            return features.copy()
        if self.cache is not None:
            solver = self.cache.solver(self._graph_key, self.alpha, self.transition)
            return self.alpha * solver.solve(features)
        if self._ppr_solver is None:
            system = sp.identity(self.num_nodes, format="csc") \
                - (1.0 - self.alpha) * self.transition.tocsc()
            self._ppr_solver = spla.splu(system.tocsc())
        solution = self._ppr_solver.solve(features)
        return self.alpha * solution

    # ------------------------------------------------------------------ #
    # explicit propagation matrices (small graphs / testing)
    # ------------------------------------------------------------------ #
    def propagation_matrix(self, steps: float) -> np.ndarray:
        """Return the dense ``R_m`` matrix (Eq. 9).  Intended for small graphs."""
        identity = np.eye(self.num_nodes)
        return self.propagate(identity, steps)

    def inference_matrix(self, steps: float, inference_alpha: float) -> sp.csr_matrix:
        """The single-hop private-inference operator ``R̂_m`` of Eq. (16)."""
        if not 0.0 <= inference_alpha <= 1.0:
            raise ConfigurationError(
                f"inference_alpha must be in [0, 1], got {inference_alpha}"
            )
        if steps == 0:
            return sp.identity(self.num_nodes, format="csr")
        return ((1.0 - inference_alpha) * self.transition
                + inference_alpha * sp.identity(self.num_nodes, format="csr")).tocsr()

    def inference_concat(self, features: np.ndarray, steps_list, inference_alpha: float,
                         ) -> np.ndarray:
        """Private-inference features (Eq. 16), scaled by 1/s to match training.

        The paper's Eq. (16) omits the 1/s factor used at training time
        (Eq. 11); we keep the factor so that the feature scale the classifier
        sees at inference matches the scale it was trained on (for s = 1 the
        two coincide).
        """
        steps_list = list(steps_list)
        if not steps_list:
            raise ConfigurationError("steps_list must contain at least one entry")
        features = np.asarray(features, dtype=np.float64)
        # Every m > 0 block is the same single-hop product, so it is built
        # once; the m = 0 block stays the identity product (X itself would
        # keep a -0.0 that the sparse product turns into +0.0).
        products = {}
        for steps in steps_list:
            if (steps != 0) not in products:
                operator = self.inference_matrix(steps, inference_alpha)
                products[steps != 0] = np.asarray(operator @ features)
        return (np.concatenate([products[steps != 0] for steps in steps_list],
                               axis=1) / len(steps_list))


# --------------------------------------------------------------------------- #
# incremental re-propagation (live graph mutation)
# --------------------------------------------------------------------------- #
def incremental_inference_features(propagator: Propagator,
                                   encoded: np.ndarray,
                                   old_features: np.ndarray,
                                   endpoints,
                                   steps_list,
                                   mode: str = "private",
                                   inference_alpha: float | None = None,
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """Re-propagation after an edge-delta batch.

    ``propagator`` is built on the *new* graph; ``old_features`` is the
    previous epoch's aggregated matrix for the same ``encoded`` inputs (the
    encoder output does not depend on edges, so it carries across epochs);
    ``endpoints`` is the set of nodes incident to any inserted or deleted
    edge between the two epochs.

    Returns ``(new_features, touched_rows)``.  The contract — pinned by the
    property tests and the CI graph-smoke job — is that ``new_features`` is
    *bitwise identical* to recomputing
    :func:`repro.core.inference.inference_features` from scratch on the new
    graph, while every row outside ``touched_rows`` is byte-copied from
    ``old_features``.

    A row-stochastic row ``Ã[i]`` depends on node i's own degree and
    neighbour set alone, so only the delta endpoints' operator rows change.
    Private inference (Eq. 16) applies that operator once, so exactly the
    endpoint rows are recomputed, once for every ``m > 0`` block.  Public
    APPR (Eq. 9) spreads the change ``m-1`` hops and the PPR limit
    everywhere; on real graphs that reaches most rows (70–77% of pubmed at
    m=4), where a restricted recursion is slower than a whole one, so public
    blocks recompute every row: every finite ``m`` of ``steps_list`` from
    one shared APPR recursion, ``∞`` from the LU solve.  They bypass the
    propagation cache's features layer: an entry per epoch would never be
    read again.
    """
    steps_list = list(steps_list)
    if not steps_list:
        raise ConfigurationError("steps_list must contain at least one entry")
    encoded = np.asarray(encoded, dtype=np.float64)
    num_nodes = propagator.num_nodes
    if encoded.shape[0] != num_nodes:
        raise ConfigurationError(
            f"encoded features have {encoded.shape[0]} rows but the graph "
            f"has {num_nodes} nodes")
    width = encoded.shape[1]
    scale = len(steps_list)
    if old_features.shape != (num_nodes, width * scale):
        raise ConfigurationError(
            f"old features have shape {old_features.shape}; expected "
            f"({num_nodes}, {width * scale}) for {scale} concat block(s)")
    if mode not in ("private", "public"):
        raise ConfigurationError(
            f"mode must be 'private' or 'public', got {mode!r}")
    if mode == "private" and inference_alpha is None:
        raise ConfigurationError("private inference requires inference_alpha")

    endpoints = np.unique(np.asarray(list(endpoints), dtype=np.int64))
    new_features = old_features.copy()
    if endpoints.size == 0:
        return new_features, np.array([], dtype=np.int64)
    if endpoints.min() < 0 or endpoints.max() >= num_nodes:
        raise ConfigurationError(
            f"delta endpoints must be in [0, {num_nodes}), got "
            f"[{int(endpoints.min())}, {int(endpoints.max())}]")

    positive = sorted({_checked_steps(steps) for steps in steps_list} - {0})
    if not positive:  # the identity block is X/s in every epoch
        return new_features, np.array([], dtype=np.int64)
    if mode == "private":
        # Eq. 16 is single-hop for every m > 0: only the endpoint rows of R̂
        # differ, and they are the same rows whatever the step count.  The
        # operator rows are assembled directly — never the full n×n R̂ — so
        # the cost is proportional to the touched set.  Bitwise safety:
        # sparse addition canonicalises (sorts) column indices exactly like
        # the full ``inference_matrix`` construction, so each row's matmul
        # accumulation order matches the reference path.
        if not 0.0 <= inference_alpha <= 1.0:
            raise ConfigurationError(
                f"inference_alpha must be in [0, 1], got {inference_alpha}")
        rows = endpoints
        eye_rows = sp.csr_matrix(
            (np.ones(rows.size), (np.arange(rows.size), rows)),
            shape=(rows.size, num_nodes))
        operator_rows = ((1.0 - inference_alpha) * propagator.transition[rows]
                         + inference_alpha * eye_rows)
        block_rows = np.asarray(operator_rows @ encoded) / scale
        blocks = dict.fromkeys(positive, block_rows)
    else:
        rows = slice(None)
        blocks = {steps: block / scale for steps, block in
                  propagator._propagate_positive(encoded, positive).items()}
    for block, steps in enumerate(steps_list):
        if steps != 0:
            new_features[rows, block * width:(block + 1) * width] = blocks[steps]
    touched = np.zeros(num_nodes, dtype=bool)
    touched[rows] = True
    return new_features, np.flatnonzero(touched)
