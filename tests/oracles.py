"""Naive reference implementations used to check the real ones.

Everything here is deliberately written as plain per-pair / per-element
loops with no shared code paths with the package. Slow and obvious wins.
The exceptions build on the package on purpose: `taped_lstm_oracle`
composes the tape's elementary primitives, so its gradients check the
hand-written backward of `tensor.lstm_scan`, and `full_attach_view_oracle`
and `per_epoch_training_oracle` are the earlier, unhoisted forms of code
that now takes a shortcut.
"""

import numpy as np

from seqrel import gnn as G
from seqrel import tensor as T


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
        z = T.concat_cols(T.constant(steps[:, t, :]), h)
        i, f, o, g = (T.add(T.matmul(z, gates[f"w_{k}"]), gates[f"b_{k}"]) for k in "ifog")
        c = T.add(T.mul(T.sigmoid(f), c), T.mul(T.sigmoid(i), T.tanh(g)))
        h = T.mul(T.sigmoid(o), T.tanh(c))
    return h


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
                              patience=10, fallback_m=1):
    """`gnn.train_on_compressed` as it was before propagation was hoisted:
    every epoch and every validation pass runs the whole conv on its view."""
    loss_kind = "ce" if cg.task == "classification" and cg.label_onehot else "mse"
    params = {k: T.Tensor(v) for k, v in model.weights.items()}
    opt = T.Adam(list(params.values()), lr=lr)
    view = G.compressed_view(cg)

    def loss(v, target, kind):
        pred = G.predict_tensor(params, G.gnn_forward(params, model.kind, v), model.task)
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
