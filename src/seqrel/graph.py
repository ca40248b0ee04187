"""Relation-graph construction over node feature matrices.

Nodes are feature rows; edges come from pairwise similarity, either by
threshold (every pair scoring strictly above epsilon) or k-nearest
union. Bipartite connection of query rows to a fixed set of compressed
rows reuses the same threshold rule with a top-m fallback so that no
query ends up isolated.

All constructions are exact O(N^2 D) with blocked matrix products; edge
lists come out deduplicated and sorted with src < dst.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DataError, DimensionError, ParameterError

COSINE = "cosine"
PEARSON = "pearson"
METRICS = (COSINE, PEARSON)
_BLOCK = 512


def _empty_edges() -> np.ndarray:
    return np.zeros((0, 2), dtype=np.int64)


@dataclass
class RelationGraph:
    """Undirected graph: feature rows plus a sorted (E, 2) edge array."""

    features: np.ndarray
    edges: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        n = self.num_nodes
        if self.edges.size:
            if self.edges.min() < 0 or self.edges.max() >= n:
                raise DataError(f"edge endpoint out of range [0, {n})")
            if np.any(self.edges[:, 0] >= self.edges[:, 1]):
                raise DataError("edges must satisfy src < dst (no self-loops)")

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]


def prep_rows(x: np.ndarray, metric: str) -> np.ndarray:
    """Rows scaled so that a dot product equals the similarity score.

    Zero-norm (or zero-variance, for pearson) rows become all-zero, which
    scores 0 against everything.
    """
    x = np.asarray(x, dtype=np.float64)
    if metric == PEARSON:
        x = x - x.mean(axis=1, keepdims=True)
    elif metric != COSINE:
        raise ParameterError(f"unknown similarity metric {metric!r}")
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    out = np.divide(x, norms, out=np.zeros_like(x), where=norms > 0.0)
    return out


def similarity_matrix(a: np.ndarray, b: np.ndarray, metric: str = COSINE) -> np.ndarray:
    """(len(a), len(b)) pairwise scores, clipped to [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise DimensionError(f"similarity width mismatch: {a.shape[1]} vs {b.shape[1]}")
    sims = prep_rows(a, metric) @ prep_rows(b, metric).T
    return np.clip(sims, -1.0, 1.0)


def build_epsilon_graph(x: np.ndarray, metric: str, epsilon: float) -> RelationGraph:
    """Edge (i, j) iff similarity strictly exceeds epsilon, i < j."""
    if not -1.0 <= epsilon <= 1.0:
        raise ParameterError(f"epsilon must be in [-1, 1], got {epsilon}")
    x = np.asarray(x, dtype=np.float64)
    rows = prep_rows(x, metric)
    n = rows.shape[0]
    chunks = []
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        sims = np.clip(rows[start:stop] @ rows.T, -1.0, 1.0)
        src, dst = np.nonzero(sims > epsilon)
        src = src + start
        keep = src < dst
        if keep.any():
            chunks.append(np.column_stack([src[keep], dst[keep]]))
    edges = np.concatenate(chunks) if chunks else _empty_edges()
    return RelationGraph(x, edges)


def build_knn_graph(x: np.ndarray, metric: str, k: int) -> RelationGraph:
    """Union k-nearest graph: (i, j) iff either node ranks the other in
    its top k by similarity. Equal scores rank the lower index first."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if not 1 <= k < n:
        raise ParameterError(f"k must satisfy 1 <= k < N, got k={k}, N={n}")
    rows = prep_rows(x, metric)
    pairs = set()
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        sims = np.clip(rows[start:stop] @ rows.T, -1.0, 1.0)
        sims[np.arange(stop - start), np.arange(start, stop)] = -np.inf
        # stable sort on -sims keeps lower column index first among ties
        order = np.argsort(-sims, axis=1, kind="stable")[:, :k]
        for local_i in range(stop - start):
            i = start + local_i
            for j in order[local_i]:
                j = int(j)
                pairs.add((i, j) if i < j else (j, i))
    edges = np.array(sorted(pairs), dtype=np.int64) if pairs else _empty_edges()
    return RelationGraph(x, edges)


def connect_from_sims(sims: np.ndarray, epsilon: float,
                      fallback_m: int = 1) -> np.ndarray:
    """Bipartite edges (query_row, compressed_row) from precomputed
    similarities.

    Each query links to every compressed row scoring strictly above
    epsilon; a query with no qualifying link gets its fallback_m most
    similar compressed rows instead (ties prefer the lower index).
    """
    sims = np.asarray(sims, dtype=np.float64)
    if sims.shape[1] < 1:
        raise ParameterError("need at least one compressed node")
    if fallback_m < 1:
        raise ParameterError(f"fallback_m must be >= 1, got {fallback_m}")
    m = min(fallback_m, sims.shape[1])
    hits = sims > epsilon
    misses = np.nonzero(~hits.any(axis=1))[0]
    if misses.size:
        # argmax and the stable sort both keep the first of equal scores
        top = (np.argmax(sims[misses], axis=1)[:, None] if m == 1
               else np.argsort(-sims[misses], axis=1, kind="stable")[:, :m])
        hits[misses[:, None], top] = True
    src, dst = np.nonzero(hits)
    return np.column_stack([src, dst]) if src.size else _empty_edges()


def connect_prepped(x_query: np.ndarray, comp_prepped: np.ndarray, metric: str,
                    epsilon: float, fallback_m: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(similarities, bipartite edges) of query rows against compressed
    rows already passed through prep_rows; see connect_from_sims. The
    similarities match similarity_matrix(x_query, x_comp, metric) bit for
    bit."""
    q = prep_rows(x_query, metric)
    if q.shape[1] != comp_prepped.shape[1]:
        raise DimensionError(f"similarity width mismatch: {q.shape[1]} vs "
                             f"{comp_prepped.shape[1]}")
    sims = np.clip(q @ comp_prepped.T, -1.0, 1.0)
    return sims, connect_from_sims(sims, epsilon, fallback_m)


def connect_to_compressed(x_query: np.ndarray, x_comp: np.ndarray, metric: str,
                          epsilon: float, fallback_m: int = 1) -> np.ndarray:
    """Bipartite edges (query_row, compressed_row); see connect_from_sims."""
    x_query = np.asarray(x_query, dtype=np.float64)
    comp_prepped = prep_rows(x_comp, metric)
    out = [_empty_edges()]
    for start in range(0, x_query.shape[0], _BLOCK):
        edges = connect_prepped(x_query[start:start + _BLOCK], comp_prepped, metric,
                                epsilon, fallback_m)[1]
        edges[:, 0] += start
        out.append(edges)
    return np.concatenate(out)
