"""Coreset compression of a relation graph via class-balanced k-means.

Original nodes are clustered per class (classification) or in one pool
(regression). Each cluster becomes one compressed node whose feature and
label rows are transported through the assignment matrix: the cluster
average in centroid mode, or the medoid member row in medoid mode. The
compressed adjacency reuses the threshold graph rule on the compressed
features, keeping one similarity definition end to end.

Lloyd's assignments are exact: every pass returns the labels of the full
pass, which scores each point against every center as
fl(x2 - 2 x.c + c2) and takes the first minimum. From the second pass on,
points are grouped by their previous label a, and a center c_j is dropped
for the whole group when the triangle bound (Elkan, "Using the triangle
inequality to accelerate k-means", ICML 2003) shows it cannot win:

- Bound. If every member lies within R of c_a and S = |c_a - c_j|, each
  member has |x - c_j|^2 - |x - c_a|^2 >= S^2 - 2 R S. When that exceeds
  2e, the full pass's value for c_j is above its value for c_a even after
  rounding, so c_j is neither its pick nor a tie. With R and S^2 taken
  from computed values widened by e, the test is
  S^2 - e > (R + sqrt(R^2 + 2e))^2, whose right side is raised by a
  relative 2^-20 to cover the few roundings in computing it.
- Slack e bounds |fl(x2 - 2 x.c + c2) - |x - c|^2| for any summation
  order. A D-term dot product is off by at most gamma_D |x||c|, and each
  sum of squares by gamma_D |x|^2 or |c|^2, where gamma_D = D u / (1 - D u)
  and u = eps/2 (Higham, Accuracy and Stability of Numerical Algorithms,
  section 3.1). The two additions add u each on at most (|x| + |c|)^2. So
  the error is below (D + 3) u (|x| + |c|)^2 <= 4 (D + 3) u M^2 to first
  order, where M^2 is the largest computed row sum of squares over the
  pool's points and centers. The code takes e = 16 (D + 8) eps M^2, at
  least eight times that, which also covers M itself being rounded; a
  D * tiny term covers products that underflow. The same e holds for the
  members' own distances and the center-to-center distances.
- Update. Each iteration gathers every cluster's rows, one cluster at a
  time. Their sum in member order gives the new center, and while they are
  in cache the members' own distances fl(x2 - 2 x.c + c.c) to it give the
  radius R. No regrouped copy of the pool is kept between passes.
- Fallback. Members are scored against the kept centers in one product per
  group, over its rows gathered again. Its values and the full pass's are
  each within e of the exact ones, so a point whose best and second-best
  values differ by more than 4e has the full pass's pick. A point within 4e takes its label from the
  full pass's own expression over its whole block of _ASSIGN_BLOCK rows,
  because on OpenBLAS a product over a subset of rows or columns of
  x @ C.T does not keep the full product's bits.
- Cost. The bounded pass runs only when its products, plus a fixed cost
  per group, do fewer multiply-adds than the full pass. Two rules check
  this before any product. At the update, one kept center per group must
  pay; otherwise the own distances are not computed. Before the pass, the
  pairs the bound keeps (each group's size times its candidates, from the
  radii and the center-to-center distances) must pay. The full pass runs
  otherwise, and on small pools it always does. SSE values from a bounded
  pass may differ from the full pass's in the last bits.

k-means++ seeding (Arthur and Vassilvitskii, "k-means++: the advantages of
careful seeding", SODA 2007) keeps the full loop's centers: that loop
rescans the pool per center and draws the next one by
rng.choice(n, p=d2 / d2.sum()), with d2 each point's smallest value of
fl(x2 - 2 x.c + c2) so far. On large pools each point also keeps near, the
center that gave its d2, and a new center c rescores only the points the
same triangle bound cannot rule out:

- Bound. With r = |x - c_near| <= sqrt(d2 + e) and S^2 >= cc - e for the
  computed center-to-center value cc, a point is skipped when
  cc - e >= (sqrt(d2 + e) + sqrt(d2 + 3e))^2, raised by a relative 2^-20.
  Then |x - c|^2 >= (S - r)^2 >= d2 + 3e, so the full loop's value for c
  is at least its value for c_near and cannot lower its d2. The rest are
  scored over a gather of their rows, whose bits may differ from the full
  gemv's. Each kept d2 and the full loop's are minima over the same
  centers of values within e of exact, so they differ by at most eta = 2e.
- Pick. Generator.choice(n, p) draws one u = rng.random() and returns
  searchsorted(cumsum(p) / cumsum(p)[-1], u, "right"). With S the sum of
  the kept d2, each partial sum is within n eta of the full loop's, so each
  cdf entry is within 2 n eta / (S - n eta), plus 2 (n + 4) eps for the
  roundings of either cdf. The kept pick is taken only when S > 2 n eta,
  which also makes the full loop's total positive (so it too draws u), and
  when u lies more than delta, twice that bound, from both cdf edges of
  the pick; then it is the full loop's pick.
- Fallback. Otherwise d2 is recomputed with the full loop's passes over
  every center so far, the full loop's rule picks with the same u (or
  draws itself when the total is small), and the full loop seeds the rest.
- Cost. Bounded seeding runs when one fixed cost per center,
  _CLUSTER_STEP_MADDS, is less than a full pass over the pool; small pools
  always take the full loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DimensionError,
    EmptyInputError,
    InfeasibleBalanceError,
    ParameterError,
)
from .graph import build_epsilon_graph, similarity_matrix
from .ioutil import read_json, write_json_atomic

CENTROID = "centroid"
MEDOID = "medoid"
MODES = (CENTROID, MEDOID)


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


# ---------------------------------------------------------------------------
# k-means on one pool


def _sq_dists_to(x: np.ndarray, x2: np.ndarray, center: np.ndarray) -> np.ndarray:
    d2 = x2 - 2.0 * (x @ center) + float(center @ center)
    return np.maximum(d2, 0.0)


def _kmeanspp(x: np.ndarray, x2: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n, dim = x.shape
    centers = np.empty((k, dim))
    centers[0] = x[int(rng.integers(n))]
    d2 = _sq_dists_to(x, x2, centers[0])
    start = 1
    if _bounded_pays(n, dim, k, k, 0):  # one step per center, even if every row is skipped
        start, d2 = _seed_bounded(x, x2, centers, d2, rng)
    for j in range(start, k):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = x[pick]
        np.minimum(d2, _sq_dists_to(x, x2, centers[j]), out=d2)
    return centers


def _seed_bounded(x, x2, centers, d2, rng):
    """The full seeding loop's centers from the second on, each new center
    rescoring only the points the triangle bound leaves it (see the module
    docstring). Returns the index of the next center to pick and the full
    loop's d2 for the centers before it, or (k, None) when every center is
    picked here."""
    n, dim = x.shape
    k = centers.shape[0]
    slack = (16.0 * (dim + 8) * np.finfo(np.float64).eps * x2.max()
             + dim * np.finfo(np.float64).tiny)
    c2 = np.empty(k)
    c2[0] = centers[0] @ centers[0]
    near = np.zeros(n, dtype=np.intp)
    reach = _seed_reach(d2, slack)
    for j in range(1, k):
        cum = np.cumsum(d2)
        if not cum[-1] > 4.0 * n * slack:  # S > 2 n eta
            return j, _seed_full_d2(x, x2, centers[:j])
        u = rng.random()  # the one draw rng.choice(n, p) makes
        pick = _seed_pick(cum, u, 2.0 * slack)
        if pick is None:
            d2 = _seed_full_d2(x, x2, centers[:j])
            cdf = np.cumsum(d2 / d2.sum())
            cdf /= cdf[-1]
            centers[j] = x[int(np.searchsorted(cdf, u, side="right"))]
            np.minimum(d2, _sq_dists_to(x, x2, centers[j]), out=d2)
            return j + 1, d2
        centers[j] = x[pick]
        c2[j] = centers[j] @ centers[j]
        _seed_rescore(x, x2, centers[:j + 1], c2[:j + 1], d2, near, reach, slack)
    return k, None


def _seed_pick(cum, u, eta):
    """rng.choice(n, p=d2 / d2.sum())'s pick for its draw u, from `cum`, the
    cumulative sum of kept values each within eta of d2, when both cdf edges
    of the pick lie more than delta from u; None otherwise."""
    n, total = cum.size, cum[-1]
    delta = 2.0 * (2.0 * n * eta / (total - n * eta) + 2.0 * (n + 4) * np.finfo(np.float64).eps)
    pick = int(np.searchsorted(cum, u * total, side="right"))
    if pick == n or u - (cum[pick - 1] / total if pick else 0.0) <= delta:
        return None
    return pick if cum[pick] / total - u > delta else None


def _seed_rescore(x, x2, centers, c2, d2, near, reach, slack):
    """Lower d2 (with near and reach) by the last of `centers` at every
    point the bound cannot rule out; returns the points scored."""
    j = centers.shape[0] - 1
    cc = c2[:j] - 2.0 * (centers[:j] @ centers[j]) + c2[j]
    cand = np.flatnonzero(cc[near] < reach)
    for start in range(0, cand.size, _ASSIGN_BLOCK):  # a bounded gather
        rows = cand[start:start + _ASSIGN_BLOCK]
        new = _sq_dists_to(x[rows], x2[rows], centers[j])
        better = new < d2[rows]
        rows = rows[better]
        d2[rows], near[rows], reach[rows] = new[better], j, _seed_reach(new[better], slack)
    return cand


def _seed_reach(d2, slack):
    """Per point, the computed center-to-center value below which a new
    center may lower its d2: (sqrt(d2 + e) + sqrt(d2 + 3e))^2, raised by a
    relative 2^-20, plus e."""
    return (np.sqrt(d2 + slack) + np.sqrt(d2 + 3.0 * slack)) ** 2 * (1.0 + 2.0 ** -20) + slack


def _seed_full_d2(x, x2, centers):
    """The full seeding loop's d2 after `centers`, pass by pass."""
    d2 = _sq_dists_to(x, x2, centers[0])
    for c in centers[1:]:
        np.minimum(d2, _sq_dists_to(x, x2, c), out=d2)
    return d2


_ASSIGN_BLOCK = 8192
# the numpy calls that score one cluster in a bounded pass take about as
# long as 2**20 multiply-adds of a large BLAS product (tens of microseconds)
_CLUSTER_STEP_MADDS = 1 << 20


def _assign_block(x, x2, centers, c2, start, stop):
    d2 = x2[start:stop, None] - 2.0 * (x[start:stop] @ centers.T) + c2[None, :]
    lab = np.argmin(d2, axis=1)
    return lab, d2[np.arange(stop - start), lab]


def _assign_points(x: np.ndarray, x2: np.ndarray, centers: np.ndarray):
    """Nearest center per point (ties to the lower center index)."""
    n = x.shape[0]
    c2 = (centers * centers).sum(axis=1)
    labels = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    for start in range(0, n, _ASSIGN_BLOCK):
        stop = min(start + _ASSIGN_BLOCK, n)
        labels[start:stop], best[start:stop] = _assign_block(x, x2, centers, c2, start, stop)
    return labels, np.maximum(best, 0.0)


class _Groups(NamedTuple):
    """Points grouped by label: the stable sort order, the labels present,
    and where each one's run starts and its length."""

    labels: np.ndarray
    order: np.ndarray
    uniq: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


def _group(labels: np.ndarray) -> _Groups:
    order = np.argsort(labels, kind="stable")
    uniq, starts = np.unique(labels[order], return_index=True)
    return _Groups(labels, order, uniq, starts, np.diff(np.append(starts, labels.size)))


def _cluster_sums(x: np.ndarray, groups: _Groups):
    """Each label present, its members' indices and rows, and the rows'
    sum. The rows are gathered one cluster at a time and summed in member
    order, which keeps the bits of the segment of
    `np.add.reduceat(x[order], starts, axis=0)` without a copy of the pool."""
    for a, start, size in zip(groups.uniq, groups.starts, groups.sizes):
        idx = groups.order[start:start + size]
        rows = x[idx]
        yield a, idx, rows, np.add.reduceat(rows, [0], axis=0)[0]


def _bounded_pays(n, dim, k, clusters, pairs):
    """Whether scoring `pairs` (point, center) pairs in one product per
    cluster costs less than the full pass's n*k pairs."""
    return dim * pairs + _CLUSTER_STEP_MADDS * clusters < dim * n * k


def _assign_bounded(x: np.ndarray, x2: np.ndarray, centers: np.ndarray,
                    groups: _Groups, own: np.ndarray):
    """`_assign_points`' labels, each cluster of the previous partition
    scored against only the centers the triangle bound leaves it (see the
    module docstring), given `own`, each point's value for its previous
    center. None when the bound would not save work."""
    n, dim = x.shape
    k = centers.shape[0]
    uniq, starts, sizes = groups.uniq, groups.starts, groups.sizes
    c2 = (centers * centers).sum(axis=1)
    slack = (16.0 * (dim + 8) * np.finfo(np.float64).eps * max(x2.max(), c2.max())
             + dim * np.finfo(np.float64).tiny)
    radius = np.sqrt(np.maximum.reduceat(np.maximum(own[groups.order], 0.0), starts) + slack)
    reach = (radius + np.sqrt(radius * radius + 2.0 * slack)) ** 2 * (1.0 + 2.0 ** -20)
    cc2 = c2[uniq, None] - 2.0 * (centers[uniq] @ centers.T) + c2[None, :]
    cand = cc2 - slack <= reach[:, None]
    if not _bounded_pays(n, dim, k, uniq.size, int(sizes @ cand.sum(axis=1))):
        return None
    labels = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    near = []
    for a, start, size, row in zip(uniq, starts, sizes, cand):
        idx = groups.order[start:start + size]
        keep = np.flatnonzero(row)
        if keep.size == 1:
            labels[idx], best[idx] = a, own[idx]
            continue
        # (candidates, members): this product shape runs fastest on the
        # gathered rows
        d2 = x2[None, idx] - 2.0 * (centers[keep] @ x[idx].T) + c2[keep, None]
        two = np.partition(d2, 1, axis=0)
        labels[idx], best[idx] = keep[np.argmin(d2, axis=0)], two[0]
        near.append(idx[two[1] - two[0] <= 4.0 * slack])
    near = np.concatenate(near) if near else np.empty(0, dtype=np.intp)
    for start in np.unique(near // _ASSIGN_BLOCK) * _ASSIGN_BLOCK:
        stop = min(start + _ASSIGN_BLOCK, n)
        lab, d2 = _assign_block(x, x2, centers, c2, start, stop)
        rows = near[(near >= start) & (near < stop)]
        labels[rows], best[rows] = lab[rows - start], d2[rows - start]
    return labels, np.maximum(best, 0.0)


def _assign(x, x2, centers, groups: _Groups | None, own: np.ndarray | None):
    if own is not None:
        bounded = _assign_bounded(x, x2, centers, groups, own)
        if bounded is not None:
            return bounded
    return _assign_points(x, x2, centers)


def kmeans_pool(x: np.ndarray, k: int, rng: np.random.Generator,
                max_iters: int = 100) -> tuple[np.ndarray, list[float]]:
    """Lloyd's algorithm with k-means++ seeding on one point pool.

    Returns (cluster index per point, per-iteration SSE trace). An empty
    cluster is re-seeded to the point farthest from its old centroid.

    Seeding picks the centers of a full rescan of the pool per center and
    leaves the rng in the same state. On large pools each new center
    rescores only the points the triangle bound leaves it, and a pick is
    taken only when its margin certifies it; otherwise d2 is recomputed by
    full passes and the full loop picks from there.

    Every iteration's labels are those of a full pass over every center,
    exact ties included. From the second assignment on, each cluster of the
    previous partition is scored only against the centers that the
    triangle bound, widened by a rounding slack e, cannot rule out. A point
    whose two best candidates lie within 4e of each other is re-scored by
    the full pass over its block. The full pass runs whenever the bound
    would not save work. The center update gathers one cluster's rows at a
    time and takes the members' distances to the new center from them, so
    no pass holds a copy of the pool. SSE values may differ from the full
    pass's in the last bits. The module docstring gives the bounds, e, eta,
    delta, the fallbacks and the cost rules.
    """
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"cluster count must satisfy 1 <= k <= n, got k={k}, n={n}")
    if k == n:
        return np.arange(n, dtype=np.intp), [0.0]
    x = np.asarray(x, dtype=np.float64)
    x2 = np.empty(n)
    for start in range(0, n, _ASSIGN_BLOCK):  # without a temporary the size of the pool
        rows = x[start:start + _ASSIGN_BLOCK]
        x2[start:start + _ASSIGN_BLOCK] = (rows * rows).sum(axis=1)
    centers = _kmeanspp(x, x2, k, rng)
    labels = np.full(n, -1, dtype=np.intp)
    groups = own = None
    trace: list[float] = []
    for _ in range(max_iters):
        new_labels, best = _assign(x, x2, centers, groups, own)
        trace.append(float(best.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        groups = _group(labels)
        # the bounded pass needs each point's value for its new center;
        # skip it when even one center per cluster costs a full pass
        own = np.empty(n) if _bounded_pays(n, x.shape[1], k, groups.uniq.size, n) else None
        for a, idx, rows, total in _cluster_sums(x, groups):
            c = centers[a] = total / idx.size
            if own is not None:  # while the rows are in cache
                own[idx] = x2[idx] - 2.0 * (rows @ c) + c @ c
        for j in np.setdiff1d(np.arange(k), groups.uniq):
            farthest = int(np.argmax(_sq_dists_to(x, x2, centers[j])))
            centers[j] = x[farthest]
    else:
        labels, _ = _assign(x, x2, centers, groups, own)
    # the iteration budget can end right after a reseed; steal the farthest
    # point from any multi-member cluster so the partition stays total
    counts = np.bincount(labels, minlength=k)
    for j in np.nonzero(counts == 0)[0]:
        d2 = _sq_dists_to(x, x2, centers[j])
        movable = counts[labels] > 1
        pick = int(np.argmax(np.where(movable, d2, -np.inf)))
        counts[labels[pick]] -= 1
        labels[pick] = j
        counts[j] += 1
    return labels, trace


# ---------------------------------------------------------------------------
# class-balanced clustering


def class_allotments(class_counts: dict[int, int], k: int,
                     pos_ratio: float | None) -> dict[int, int]:
    """Clusters per class. Binary: positives get round(pos_ratio*k).
    Multi-class: proportional, remainder to the largest classes."""
    classes = sorted(class_counts)
    if k < len(classes):
        raise InfeasibleBalanceError(f"k={k} is smaller than {len(classes)} classes")
    if classes == [0, 1]:
        if pos_ratio is None or not 0.0 < pos_ratio < 1.0:
            raise ParameterError(f"binary labels need pos_ratio in (0,1), got {pos_ratio}")
        k_pos = round_half_up(pos_ratio * k)
        if not 1 <= k_pos <= k - 1:
            raise InfeasibleBalanceError(
                f"pos_ratio {pos_ratio} with k={k} leaves a class without clusters")
        allot = {0: k - k_pos, 1: k_pos}
    else:
        total = sum(class_counts.values())
        allot = {c: max(1, int(np.floor(k * class_counts[c] / total))) for c in classes}
        by_size = sorted(classes, key=lambda c: (-class_counts[c], c))
        spare = k - sum(allot.values())
        i = 0
        while spare > 0:
            allot[by_size[i % len(by_size)]] += 1
            spare -= 1
            i += 1
        while spare < 0:
            donor = max(classes, key=lambda c: (allot[c], class_counts[c]))
            if allot[donor] <= 1:
                raise InfeasibleBalanceError(f"cannot allot {k} clusters over {classes}")
            allot[donor] -= 1
            spare += 1
    for c in classes:
        if class_counts[c] < allot[c]:
            raise InfeasibleBalanceError(
                f"class {c} has {class_counts[c]} nodes but needs {allot[c]} clusters")
    return allot


def balanced_kmeans(x: np.ndarray, labels: np.ndarray | None, k: int, *,
                    pos_ratio: float | None, rng: np.random.Generator,
                    max_iters: int = 100) -> tuple[list[np.ndarray], dict]:
    """Cluster per class (labels given) or in a single pool (labels None).

    Returns (member index arrays, info). Clusters are ordered class by
    class ascending; member arrays are sorted original indices.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0:
        raise EmptyInputError("nothing to compress")
    members: list[np.ndarray] = []
    info: dict = {"sse": {}, "allotments": {}}
    if labels is None:
        pools = [("all", None, k)]
    else:
        labels = np.asarray(labels)
        classes = sorted(int(c) for c in np.unique(labels))
        counts = {c: int((labels == c).sum()) for c in classes}
        allot = class_allotments(counts, k, pos_ratio)
        pools = [(str(c), np.nonzero(labels == c)[0], allot[c]) for c in classes]
    for name, idx, size in pools:
        pool_labels, trace = kmeans_pool(x if idx is None else x[idx], size, rng, max_iters)
        # a stable sort leaves each cluster's members ascending
        order = np.argsort(pool_labels, kind="stable")
        bounds = np.cumsum(np.bincount(pool_labels, minlength=size))[:-1]
        members.extend(np.split(order if idx is None else idx[order], bounds))
        info["sse"][name] = trace
        info["allotments"][name] = size
    return members, info


# ---------------------------------------------------------------------------
# assignment matrix


@dataclass
class AssignmentMatrix:
    """Hard-partition node->cluster map with transport weights.

    Centroid mode weights every member of cluster j at 1/|C_j|; medoid
    mode keeps a single weight of 1 on the medoid row. Columns sum to 1
    in both modes.
    """

    n: int
    mode: str  # centroid | medoid
    members: list[np.ndarray]
    medoids: np.ndarray  # (K,) original index per cluster

    @property
    def k(self) -> int:
        return len(self.members)

    def to_dense(self) -> np.ndarray:
        phi = np.zeros((self.n, self.k))
        for j, idx in enumerate(self.members):
            if self.mode == "centroid":
                phi[idx, j] = 1.0 / idx.size
            else:
                phi[self.medoids[j], j] = 1.0
        return phi


def _medoid_of(x: np.ndarray, idx: np.ndarray) -> int:
    """Member with the highest cosine similarity to the cluster mean;
    ties go to the lowest original index."""
    rows = x[idx]
    sims = similarity_matrix(rows, rows.mean(axis=0, keepdims=True))[:, 0]
    return int(idx[int(np.argmax(sims))])


def build_assignment(members: list[np.ndarray], mode: str, x: np.ndarray) -> AssignmentMatrix:
    if mode not in MODES:
        raise ParameterError(f"unknown assignment mode {mode!r}")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    seen = np.zeros(n, dtype=bool)
    for idx in members:
        if idx.size == 0:
            raise ParameterError("empty cluster in partition")
        if seen[idx].any():
            raise ParameterError("partition assigns a node twice")
        seen[idx] = True
    if not seen.all():
        raise ParameterError("partition does not cover all nodes")
    medoids = np.array([_medoid_of(x, idx) for idx in members], dtype=np.intp)
    return AssignmentMatrix(n=n, mode=mode, members=members, medoids=medoids)


def compress_features_labels(assign: AssignmentMatrix, x: np.ndarray,
                             y: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Transport features and labels through the assignment: cluster
    averages (centroid) or medoid rows (medoid). Also reports whether
    the compressed labels are still exactly one-hot."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    if x.shape[0] != assign.n or y.shape[0] != assign.n:
        raise DimensionError(f"assignment covers {assign.n} rows, got features "
                             f"{x.shape[0]} and labels {y.shape[0]}")
    k = assign.k
    x_tilde = np.empty((k, x.shape[1]))
    y_tilde = np.empty((k, y.shape[1]))
    for j, idx in enumerate(assign.members):
        if assign.mode == "centroid":
            x_tilde[j] = x[idx].mean(axis=0)
            y_tilde[j] = y[idx].mean(axis=0)
        else:
            x_tilde[j] = x[assign.medoids[j]]
            y_tilde[j] = y[assign.medoids[j]]
    onehot = bool(y_tilde.shape[1] > 1
                  and np.all((y_tilde == 0.0) | (y_tilde == 1.0))
                  and np.all(y_tilde.sum(axis=1) == 1.0))
    return x_tilde, y_tilde, onehot


def compress_adjacency(x_tilde: np.ndarray, metric: str, epsilon: float) -> np.ndarray:
    return build_epsilon_graph(x_tilde, metric, epsilon).edges


# ---------------------------------------------------------------------------
# compressed graph artifact


@dataclass
class CompressedGraph:
    mode: str
    task: str  # classification | regression
    metric: str
    epsilon: float
    features: np.ndarray  # (K, D)
    labels: np.ndarray  # (K, c) or (K, 1)
    edges: np.ndarray  # (E, 2), src < dst
    members: list[list[str]]  # original record ids per compressed node
    medoid_ids: list[str]
    label_onehot: bool

    @property
    def k(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def degrees(self) -> np.ndarray:
        """Undirected degree per compressed node."""
        return np.bincount(self.edges.ravel(), minlength=self.k).astype(np.intp)


def trace_representatives(cg: CompressedGraph, j: int) -> tuple[str, list[str]]:
    """Representative (medoid) record id and the full member id list."""
    if not 0 <= j < cg.k:
        raise IndexError(f"compressed node {j} out of range [0, {cg.k})")
    return cg.medoid_ids[j], list(cg.members[j])


def compress_graph(x: np.ndarray, labels, ids: list[str], *, k: int, mode: str,
                   task: str, metric: str, epsilon: float, pos_ratio: float | None,
                   rng: np.random.Generator, max_iters: int = 100,
                   per_class: bool = True) -> tuple[CompressedGraph, dict]:
    """Full compression: cluster, assign, transport, rebuild adjacency.

    Classification clusters each class separately unless per_class is
    off (single pool yields soft compressed labels). Regression always
    uses a single pool.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if len(ids) != n:
        raise DimensionError(f"{n} feature rows but {len(ids)} ids")
    if not 1 <= k < n:
        raise ParameterError(f"compressed size must satisfy 1 <= K < N, got K={k}, N={n}")
    if task == "classification":
        class_labels = np.asarray(labels, dtype=np.intp)
        num_classes = int(class_labels.max()) + 1
        y = np.eye(num_classes)[class_labels]
        pool_labels = class_labels if per_class else None
    else:
        y = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
        pool_labels = None
    members, info = balanced_kmeans(x, pool_labels, k, pos_ratio=pos_ratio,
                                    rng=rng, max_iters=max_iters)
    assign = build_assignment(members, mode, x)
    x_tilde, y_tilde, onehot = compress_features_labels(assign, x, y)
    edges = compress_adjacency(x_tilde, metric, epsilon)
    cg = CompressedGraph(
        mode=mode, task=task, metric=metric, epsilon=epsilon,
        features=x_tilde, labels=y_tilde, edges=edges,
        members=[[ids[i] for i in idx] for idx in assign.members],
        medoid_ids=[ids[i] for i in assign.medoids],
        label_onehot=onehot,
    )
    return cg, info


# ---------------------------------------------------------------------------
# serialization


def compressed_to_dict(cg: CompressedGraph) -> dict:
    return {
        "kind": "compressed-graph",
        "mode": cg.mode,
        "task": cg.task,
        "metric": cg.metric,
        "epsilon": cg.epsilon,
        "features": cg.features.tolist(),
        "labels": cg.labels.tolist(),
        "edges": cg.edges.tolist(),
        "members": cg.members,
        "medoid_ids": cg.medoid_ids,
        "label_onehot": cg.label_onehot,
    }


def compressed_from_dict(d: dict) -> CompressedGraph:
    edges = np.array(d["edges"], dtype=np.int64).reshape(-1, 2)
    return CompressedGraph(
        mode=d["mode"], task=d["task"], metric=d["metric"], epsilon=d["epsilon"],
        features=np.array(d["features"], dtype=np.float64),
        labels=np.array(d["labels"], dtype=np.float64),
        edges=edges, members=[list(m) for m in d["members"]],
        medoid_ids=list(d["medoid_ids"]), label_onehot=d["label_onehot"],
    )


def save_compressed(path, cg: CompressedGraph) -> None:
    write_json_atomic(path, compressed_to_dict(cg))


def load_compressed(path) -> CompressedGraph:
    return compressed_from_dict(read_json(path))
