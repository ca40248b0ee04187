"""Naive reference implementations used to check the real ones.

Everything here is deliberately written as plain per-pair / per-element
loops with no shared code paths with the package. Slow and obvious wins.
The exceptions build on the package on purpose: `taped_lstm_oracle`
composes the tape's elementary primitives, so its gradients check the
hand-written backward of `tensor.lstm_scan`, `propagate_oracle` is the
conv's weight-free half as a per-edge gather and segment sum, before the
linear convs aggregated through one dense operator,
`full_attach_view_oracle` and `per_epoch_training_oracle` are the
earlier, unhoisted forms of code that now takes a shortcut,
`finetune_oracle` is fine-tuning with every conv propagating a view,
`connect_from_sims_oracle` is the fallback top-m as a stable sort of the
whole row, `taped_forward_oracle` is training's conv, which the serving
conv matches to rounding, `predict_view` is the served prediction on a
hand-made view, and `lloyd_oracle`, `_kmeanspp` and `cluster_sums_oracle` are
`compress.kmeans_pool`, its seeding and its cluster sums before the
triangle bound: every assignment and every seeding step a full pass over
the pool. `parameter`, `sigmoid`, `tanh` and `concat_cols` are tape
primitives that only the tests use.
"""

import numpy as np

from seqrel import gnn as G
from seqrel import tensor as T
from seqrel.exceptions import DimensionError
from seqrel.graph import connect_prepped, prep_rows


def sim_oracle(x, y, metric):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if metric == "pearson":
        x = x - x.mean()
        y = y - y.mean()
    nx = float(np.sqrt((x * x).sum()))
    ny = float(np.sqrt((y * y).sum()))
    if nx == 0.0 or ny == 0.0:
        return 0.0
    # both scores are bounded by 1 in exact arithmetic; the float dot can
    # overshoot by an ulp, which would break exact tie handling
    return min(max(float(np.dot(x, y) / (nx * ny)), -1.0), 1.0)


def epsilon_graph_oracle(x, metric, eps):
    n = len(x)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if sim_oracle(x[i], x[j], metric) > eps:
                edges.append((i, j))
    return edges


def knn_graph_oracle(x, metric, k):
    n = len(x)
    pairs = set()
    for i in range(n):
        scored = sorted((-sim_oracle(x[i], x[j], metric), j) for j in range(n) if j != i)
        for _, j in scored[:k]:
            pairs.add((min(i, j), max(i, j)))
    return sorted(pairs)


def connect_oracle(x_query, x_comp, metric, eps, m=1):
    edges = []
    for q in range(len(x_query)):
        sims = [sim_oracle(x_query[q], x_comp[j], metric) for j in range(len(x_comp))]
        hit = [j for j, s in enumerate(sims) if s > eps]
        if not hit:
            scored = sorted((-s, j) for j, s in enumerate(sims))
            hit = sorted(j for _, j in scored[:min(m, len(x_comp))])
        edges.extend((q, j) for j in hit)
    return edges


def connect_from_sims_oracle(sims, eps, m=1):
    """`graph.connect_from_sims` with every fallback query's top m taken
    from a stable sort of its whole negated row, as before m = 1 took an
    argmax."""
    hits = sims > eps
    misses = np.nonzero(~hits.any(axis=1))[0]
    if misses.size:
        order = np.argsort(-sims[misses], axis=1, kind="stable")[:, :min(m, sims.shape[1])]
        hits[misses[:, None], order] = True
    return np.argwhere(hits)


def compress_oracle(phi_columns, x, y):
    """phi_columns: list of member-index lists, one per compressed node.
    Returns (x_tilde, y_tilde) built entry by entry from the assignment
    weights 1/|C_j|."""
    k = len(phi_columns)
    x_tilde = np.zeros((k, x.shape[1]))
    y_tilde = np.zeros((k, y.shape[1]))
    for j, members in enumerate(phi_columns):
        w = 1.0 / len(members)
        for i in members:
            for d in range(x.shape[1]):
                x_tilde[j, d] += w * x[i, d]
            for d in range(y.shape[1]):
                y_tilde[j, d] += w * y[i, d]
    return x_tilde, y_tilde


def auprc_oracle(scores, labels):
    """Area under the precision-recall step curve: sweep thresholds from
    high to low, grouping tied scores, no interpolation."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    total_pos = sum(labels)
    area = 0.0
    tp = 0
    fp = 0
    prev_recall = 0.0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            if labels[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        recall = tp / total_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return area


def recall_at_precision_oracle(scores, labels, p):
    """Max recall over prefix cuts (tied scores kept together) whose
    precision is at least p."""
    order = sorted(range(len(scores)), key=lambda i: -scores[i])
    total_pos = sum(labels)
    best = 0.0
    tp = 0
    fp = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            if labels[order[j]] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        if tp / (tp + fp) >= p:
            best = max(best, tp / total_pos)
        i = j
    return best


def gnn_forward_oracle(kind, x, neighbor_lists, w, att=None, alpha=0.2):
    """One message-passing layer + ReLU, computed row by row.

    kind: gcn | sage_mean | sage_max | gat. neighbor_lists[i] holds i's
    neighbors (no self). For gcn/gat the node itself joins its own
    neighborhood; degrees count neighbors plus the self-loop. sage uses
    w split into stacked [self; neighbor] blocks. No conv bias.
    """
    n, d = x.shape
    out_dim = w.shape[1]
    out = np.zeros((n, out_dim))
    for i in range(n):
        nbrs = list(neighbor_lists[i])
        if kind == "gcn":
            pool = nbrs + [i]
            deg_i = len(nbrs) + 1
            acc = np.zeros(d)
            for j in pool:
                deg_j = len(neighbor_lists[j]) + 1
                acc += x[j] / np.sqrt(deg_i * deg_j)
            h = acc @ w
        elif kind == "sage_mean":
            agg = np.zeros(d) if not nbrs else np.mean([x[j] for j in nbrs], axis=0)
            h = np.concatenate([x[i], agg]) @ w
        elif kind == "sage_max":
            agg = np.zeros(d) if not nbrs else np.max([x[j] for j in nbrs], axis=0)
            h = np.concatenate([x[i], agg]) @ w
        elif kind == "gat":
            pool = nbrs + [i]
            zi = x[i] @ w
            scores = []
            for j in pool:
                zj = x[j] @ w
                e = float((np.concatenate([zi, zj]).reshape(1, -1) @ att)[0, 0])
                scores.append(e if e > 0 else alpha * e)
            scores = np.array(scores)
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            h = np.zeros(out_dim)
            for wgt, j in zip(weights, pool):
                h += wgt * (x[j] @ w)
        else:
            raise ValueError(kind)
        out[i] = np.maximum(h, 0.0)
    return out


def parameter(values) -> T.Tensor:
    return T.Tensor(values, requires_grad=True)


def sigmoid(a: T.Tensor) -> T.Tensor:
    out = T.logistic(a.data)
    return T._make(out, [(a, lambda g: g * out * (1.0 - out))])


def tanh(a: T.Tensor) -> T.Tensor:
    out = np.tanh(a.data)
    return T._make(out, [(a, lambda g: g * (1.0 - out * out))])


def concat_cols(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    if a.rows != b.rows:
        raise DimensionError(f"concat_cols row mismatch: {a.shape} vs {b.shape}")
    split = a.cols
    data = np.concatenate([a.data, b.data], axis=1)
    return T._make(data, [
        (a, lambda g: g[:, :split]),
        (b, lambda g: np.ascontiguousarray(g[:, split:])),
    ])


def masked_sigmoid(x):
    """The logistic function in two branches, exp of a non-positive number
    in each, so nothing overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def per_gate_weights(w_gates, b_gates):
    """Split the fused (width+H, 4H) gate matrix and (1, 4H) bias into the
    w_i..w_g / b_i..b_g blocks, in gate order i, f, o, g."""
    hidden = w_gates.shape[1] // 4
    out = {}
    for k, gate in enumerate("ifog"):
        out[f"w_{gate}"] = w_gates[:, k * hidden:(k + 1) * hidden]
        out[f"b_{gate}"] = b_gates[:, k * hidden:(k + 1) * hidden]
    return out


def lstm_oracle(weights, steps):
    """One LSTM pass over a (T, width) event matrix with four separate gate
    matrices w_i..w_g and biases b_i..b_g, each step concatenating the input
    with the hidden state; returns the final (1, H) hidden state."""
    hidden = weights["w_i"].shape[1]
    h = np.zeros((1, hidden))
    c = np.zeros((1, hidden))
    for t in range(steps.shape[0]):
        z = np.concatenate([steps[t:t + 1], h], axis=1)
        i = masked_sigmoid(z @ weights["w_i"] + weights["b_i"])
        f = masked_sigmoid(z @ weights["w_f"] + weights["b_f"])
        o = masked_sigmoid(z @ weights["w_o"] + weights["b_o"])
        g = np.tanh(z @ weights["w_g"] + weights["b_g"])
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


def taped_lstm_oracle(gates, steps):
    """The pass of `lstm_oracle` over a (B, T, width) batch, built from
    matmul, concat_cols, add, sigmoid, tanh and mul over four per-gate
    weight tensors w_i..w_g and biases b_i..b_g; returns the final (B, H)
    hidden-state tensor, recorded when the gate tensors are on a tape."""
    batch, hidden = steps.shape[0], gates["w_i"].cols
    h = T.constant(np.zeros((batch, hidden)))
    c = T.constant(np.zeros((batch, hidden)))
    for t in range(steps.shape[1]):
        z = concat_cols(T.constant(steps[:, t, :]), h)
        i, f, o, g = (T.add(T.matmul(z, gates[f"w_{k}"]), gates[f"b_{k}"]) for k in "ifog")
        c = T.add(T.mul(sigmoid(f), c), T.mul(sigmoid(i), tanh(g)))
        h = T.mul(sigmoid(o), tanh(c))
    return h


def propagate_oracle(view, kind):
    """`gnn.propagate` as a gather of every edge landing on a target row,
    scaled per edge for gcn, and a segment sum (max for sage_max) per
    target; gat returns the same plan as `gnn.propagate`."""
    x = view.features
    if kind == "gat":
        return G.propagate(view, kind)
    idx_of = np.full(view.num_nodes, -1, dtype=np.intp)
    idx_of[view.targets] = np.arange(view.targets.size, dtype=np.intp)
    keep = idx_of[view.edge_dst] >= 0
    src, dst = view.edge_src[keep], view.edge_dst[keep]
    dst_t, n_t = idx_of[dst], view.targets.size
    if kind == "gcn":
        d = view.degrees.astype(np.float64)
        coef = 1.0 / np.sqrt(d[src] * d[dst])
        agg = T.segment_reduce(np.add, x[src] * coef.reshape(-1, 1), dst_t, n_t)
        return agg + x[view.targets] * (1.0 / d[view.targets]).reshape(-1, 1)
    if kind == "sage_mean":
        counts = np.maximum(np.bincount(dst_t, minlength=n_t), 1).astype(np.float64)
        neigh = T.segment_reduce(np.add, x[src], dst_t, n_t) / counts[:, None]
    else:
        neigh = T.segment_reduce(np.maximum, x[src], dst_t, n_t)
    return np.concatenate([x[view.targets], neigh], axis=1)


def taped_forward_oracle(params, kind, view):
    """Training's taped conv on a view, `gnn._dense(gnn.propagate(view))`,
    with batch products: the serving conv `gnn.gnn_forward` matches it to
    rounding."""
    return G._dense(params, kind, G.propagate(view, kind))


def predict_view(model, view):
    """A model's served predictions for a view's targets: `gnn.gnn_forward`
    and the head."""
    params = {k: T.Tensor(v) for k, v in model.weights.items()}
    return G.predict_tensor(params, G.gnn_forward(params, model.kind, view),
                            model.task).data


def full_attach_view_oracle(cg, x_query, connect_edges):
    """Queries appended after all K compressed rows, with edges sorted by
    (dst, src): the view before attachment kept only connected rows."""
    k, b = cg.k, x_query.shape[0]
    connect_edges = np.asarray(connect_edges, dtype=np.int64).reshape(-1, 2)
    src, dst = connect_edges[:, 1], k + connect_edges[:, 0]
    order = np.lexsort((src, dst))
    return G.GraphView(
        features=np.concatenate([cg.features, x_query]),
        edge_src=src[order], edge_dst=dst[order],
        degrees=np.concatenate([cg.degrees() + 1,
                                np.bincount(connect_edges[:, 0], minlength=b) + 1]),
        targets=k + np.arange(b, dtype=np.intp))


def per_epoch_training_oracle(model, cg, *, lr=5e-3, epochs=50, val=None,
                              patience=10, fallback_m=1, propagate=propagate_oracle):
    """`gnn.train_on_compressed` as it was before propagation was hoisted:
    every epoch and every validation pass runs the whole conv on its view,
    propagated by `propagate` (`gnn.propagate` isolates the hoisting)."""
    loss_kind = "ce" if cg.task == "classification" and cg.label_onehot else "mse"
    params = {k: T.Tensor(v) for k, v in model.weights.items()}
    opt = T.Adam(list(params.values()), lr=lr)
    view = G.compressed_view(cg)

    def loss(v, target, kind):
        prop = propagate(v, model.kind)
        pred = G.predict_tensor(params, G._dense(params, model.kind, prop), model.task)
        return T.LOSSES[kind](pred, T.constant(target))

    stopper = None
    if val is not None:
        x_val, y_val = val
        edges = G.connect_to_compressed(x_val, cg.features, cg.metric, cg.epsilon,
                                        fallback_m)
        val_view = full_attach_view_oracle(cg, x_val, edges)
        val_target, val_kind = G.label_targets(y_val, cg.task, cg.labels.shape[1])
        stopper = T.EarlyStopping(model.weights, patience)
    history = {"loss": [], "loss_kind": loss_kind, "val_loss": [], "best_epoch": 0}
    for epoch in range(epochs):
        history["loss"].append(opt.minimize(lambda: loss(view, cg.labels, loss_kind)))
        if stopper is None:
            continue
        history["val_loss"].append(loss(val_view, val_target, val_kind).item())
        if stopper.update(epoch, history["val_loss"][-1]):
            break
    if stopper is not None:
        model.weights = stopper.best
        history["best_epoch"] = stopper.best_epoch
    return history


def finetune_oracle(model, h_real, y_real, cg, *, metric=None, epsilon=None,
                    fallback_m=1, batch_size=64, epochs=1, lr=5e-3, rng):
    """`gnn.finetune_correlation` with every conv kind propagating each
    batch's compact view, as all four did before the linear convs took the
    dense prototype operator."""
    h_real = np.asarray(h_real, dtype=np.float64)
    n = h_real.shape[0]
    metric = cg.metric if metric is None else metric
    epsilon = cg.epsilon if epsilon is None else epsilon
    targets, loss_kind = G.label_targets(y_real, model.task, cg.labels.shape[1])
    params = {k: T.Tensor(v) for k, v in model.weights.items()}
    opt = T.Adam(list(params.values()), lr=lr)
    history = {"loss": [], "loss_kind": loss_kind}
    comp_deg, comp_prepped = cg.degrees(), prep_rows(cg.features, metric)
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            take = order[start:start + batch_size]
            _, edges = connect_prepped(h_real[take], comp_prepped, metric,
                                       epsilon, fallback_m)
            view = G.attach_view(cg, h_real[take], edges, comp_degrees=comp_deg)

            def loss():
                h = G._dense(params, model.kind, propagate_oracle(view, model.kind))
                pred = G.predict_tensor(params, h, model.task)
                return T.LOSSES[loss_kind](pred, T.constant(targets[take]))

            total += opt.minimize(loss) * take.size
        history["loss"].append(total / n)
    return history


def _sq_dists_to(x, x2, center):
    d2 = x2 - 2.0 * (x @ center) + float(center @ center)
    return np.maximum(d2, 0.0)


def _kmeanspp(x, x2, k, rng):
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = _sq_dists_to(x, x2, centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total > 0.0:
            pick = int(rng.choice(n, p=d2 / total))
        else:
            pick = int(rng.integers(n))
        centers[j] = x[pick]
        np.minimum(d2, _sq_dists_to(x, x2, centers[j]), out=d2)
    return centers


def _assign_points(x, x2, centers, block=8192):
    n = x.shape[0]
    c2 = (centers * centers).sum(axis=1)
    labels = np.empty(n, dtype=np.intp)
    best = np.empty(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = x2[start:stop, None] - 2.0 * (x[start:stop] @ centers.T) + c2[None, :]
        lab = np.argmin(d2, axis=1)
        labels[start:stop] = lab
        best[start:stop] = d2[np.arange(stop - start), lab]
    return labels, np.maximum(best, 0.0)


def cluster_sums_oracle(x, labels, k):
    """Row sums and counts per cluster, summed over the row-major gather."""
    order = np.argsort(labels, kind="stable")
    uniq, starts = np.unique(labels[order], return_index=True)
    sums = np.zeros((k, x.shape[1]))
    sums[uniq] = np.add.reduceat(x[order], starts, axis=0)
    counts = np.zeros(k, dtype=np.intp)
    counts[uniq] = np.diff(np.append(starts, labels.size))
    return sums, counts


def lloyd_oracle(x, k, rng, max_iters=100):
    """`compress.kmeans_pool` with a full assignment pass every iteration.
    Returns (labels, SSE trace, the labels each center update used)."""
    n = x.shape[0]
    if k == n:
        return np.arange(n, dtype=np.intp), [0.0], []
    x = np.asarray(x, dtype=np.float64)
    x2 = (x * x).sum(axis=1)
    centers = _kmeanspp(x, x2, k, rng)
    labels = np.full(n, -1, dtype=np.intp)
    trace, steps = [], []
    for _ in range(max_iters):
        new_labels, best = _assign_points(x, x2, centers)
        trace.append(float(best.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        steps.append(labels.copy())
        sums, counts = cluster_sums_oracle(x, labels, k)
        occupied = counts > 0
        centers[occupied] = sums[occupied] / counts[occupied, None]
        for j in np.nonzero(~occupied)[0]:
            farthest = int(np.argmax(_sq_dists_to(x, x2, centers[j])))
            centers[j] = x[farthest]
    else:
        labels, _ = _assign_points(x, x2, centers)
    counts = np.bincount(labels, minlength=k)
    for j in np.nonzero(counts == 0)[0]:
        d2 = _sq_dists_to(x, x2, centers[j])
        movable = counts[labels] > 1
        pick = int(np.argmax(np.where(movable, d2, -np.inf)))
        counts[labels[pick]] -= 1
        labels[pick] = j
        counts[j] += 1
    return labels, trace, steps
