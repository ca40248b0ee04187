"""One-layer message-passing models over relation graphs.

Four convolution kinds share a single forward path: symmetric-normalized
sum (gcn), self/neighbor concatenation with mean or max pooling
(sage_mean, sage_max), and single-head attention (gat, leaky-relu slope
0.2). One convolution, then ReLU; convolutions carry no bias, the
affine prediction head does.

Views are directed: an edge (src, dst) moves a message from src to dst.
Training on a compressed graph symmetrizes its undirected edges; query
attachment keeps only compressed-to-query edges, and only the compressed
rows those edges reference, so a node's output depends solely on its own
features and its in-neighbors. That is what makes single-sample scoring
independent of the original corpus size.

Training's conv splits in two: `propagate`, the half that needs no
weights, and the dense half `_dense`. Training propagates each view once
and runs only the dense half in its epochs. gcn and sage_mean aggregate in
one place, `propagate_queries`, for views and fine-tune batches alike, and
sage_max pools in one place, `_max_pool`. Its batch products are fast, but
a row's last bits can depend on the other rows.

Serving runs `gnn_forward` and the head `predict_tensor`, which compute
every target row on its own: per-target sums in (dst, src) order
(`_sum_pool`), `_max_pool`, gat's per-target softmax and one-row products
(`tensor.row_matmul`). So a query's output has the same bits in a block of
queries as alone, and `gnn_forward` matches training's conv to rounding.
Both are taped, so gradients flow through either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .compress import CompressedGraph
from .exceptions import (
    DimensionError,
    EmptyInputError,
    ParameterError,
    TaskMismatchError,
)
from .graph import _BLOCK, connect_prepped, connect_to_compressed, prep_rows
from .ioutil import read_json, write_json_atomic

CONV_KINDS = ("gcn", "sage_mean", "sage_max", "gat")
LEAKY_SLOPE = 0.2


@dataclass
class GnnModel:
    kind: str
    task: str  # classification | regression
    in_dim: int
    hidden_dim: int
    out_dim: int
    weights: dict[str, np.ndarray]


def init_gnn(kind: str, task: str, in_dim: int, hidden_dim: int, out_dim: int,
             rng: np.random.Generator) -> GnnModel:
    if kind not in CONV_KINDS:
        raise ParameterError(f"unknown conv kind {kind!r}, expected one of {CONV_KINDS}")
    weights: dict[str, np.ndarray] = {}
    conv_in = 2 * in_dim if kind.startswith("sage") else in_dim
    weights["w_conv"] = T.glorot_uniform(rng, conv_in, hidden_dim)
    if kind == "gat":
        weights["att_self"] = T.glorot_uniform(rng, hidden_dim, 1)
        weights["att_neigh"] = T.glorot_uniform(rng, hidden_dim, 1)
    weights["w_head"] = T.glorot_uniform(rng, hidden_dim, out_dim)
    weights["b_head"] = np.zeros((1, out_dim))
    return GnnModel(kind, task, in_dim, hidden_dim, out_dim, weights)


# ---------------------------------------------------------------------------
# message-passing views


@dataclass
class GraphView:
    """Directed edges sorted by (dst, src), plus per-node degrees
    (in-degree + 1 self-loop) and the ascending target rows to produce."""

    features: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    degrees: np.ndarray
    targets: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]


def _sort_edges(src: np.ndarray, dst: np.ndarray):
    order = np.lexsort((src, dst))
    return src[order], dst[order]


def compressed_view(cg: CompressedGraph) -> GraphView:
    """Symmetric view of the compressed graph; every node is a target."""
    e = cg.edges
    src = np.concatenate([e[:, 0], e[:, 1]])
    dst = np.concatenate([e[:, 1], e[:, 0]])
    src, dst = _sort_edges(src, dst)
    return GraphView(
        features=cg.features, edge_src=src, edge_dst=dst,
        degrees=cg.degrees() + 1, targets=np.arange(cg.k, dtype=np.intp))


def attach_view(cg: CompressedGraph, x_query: np.ndarray,
                connect_edges: np.ndarray,
                comp_degrees: np.ndarray | None = None) -> GraphView:
    """Compact view of queries wired to the compressed graph.

    Rows are the compressed nodes that some edge references, in ascending
    order, followed by the queries, which are the targets. Queries receive
    messages only from compressed nodes and query-to-query edges never
    exist, so a query's output is independent of what else is in the
    batch, and a compressed node no query reads costs nothing. Compressed
    degrees still count the compressed adjacency; pass cg.degrees() as
    comp_degrees to skip recounting per call."""
    x_query = np.asarray(x_query, dtype=np.float64)
    if x_query.shape[1] != cg.dim:
        raise DimensionError(f"query width {x_query.shape[1]} != compressed width {cg.dim}")
    b = x_query.shape[0]
    connect_edges = np.asarray(connect_edges, dtype=np.int64).reshape(-1, 2)
    used = np.zeros(cg.k, dtype=bool)
    used[connect_edges[:, 1]] = True
    rows = np.flatnonzero(used)
    # ranks are monotone, so the edges keep the full view's (dst, src) order
    src, dst = _sort_edges(np.searchsorted(rows, connect_edges[:, 1]),
                           rows.size + connect_edges[:, 0])
    q_deg = np.bincount(connect_edges[:, 0], minlength=b)
    if comp_degrees is None:
        comp_degrees = cg.degrees()
    return GraphView(
        features=np.concatenate([cg.features[rows], x_query]),
        edge_src=src, edge_dst=dst,
        degrees=np.concatenate([comp_degrees[rows] + 1, q_deg + 1]),
        targets=rows.size + np.arange(b, dtype=np.intp))


# ---------------------------------------------------------------------------
# forward


def _params_of(model: GnnModel) -> dict[str, T.Tensor]:
    return {k: T.Tensor(v) for k, v in model.weights.items()}


def propagate(view: GraphView, kind: str):
    """The weight-free half of training's conv over the view's target rows.

    gcn and sage_mean: `propagate_queries` on the target rows, the edges
    that reach them and the rows that send those, scaled by degree^-½ for
    gcn; the conv is then relu(P @ w_conv). Rows that send nothing are left
    out, so a compact view gives the full view's bits. sage_max pools the
    view's rows along those edges directly (`_max_pool`). gat: the plan its
    attention runs on, (features, src, dst, run starts, targets), with
    self-loops added and edges sorted by (dst, src)."""
    x = view.features
    if kind == "gat":
        loops = np.arange(view.num_nodes, dtype=np.intp)
        src, dst = _sort_edges(np.concatenate([view.edge_src, loops]),
                               np.concatenate([view.edge_dst, loops]))
        return x, src, dst, np.unique(dst, return_index=True)[1], view.targets
    if kind not in CONV_KINDS:
        raise ParameterError(f"unknown conv kind {kind!r}")
    dst, src = _target_edges(view)
    if kind == "sage_max":
        return np.concatenate([x[view.targets], _max_pool(x, dst, src, view.targets.size)],
                              axis=1)
    sends = np.zeros(view.num_nodes, dtype=bool)
    sends[src] = True
    rows = np.flatnonzero(sends)
    sending = x[rows]
    if kind == "gcn":
        sending = sending / np.sqrt(view.degrees[rows].astype(np.float64))[:, None]
    return propagate_queries(kind, x[view.targets],
                             np.stack([dst, np.searchsorted(rows, src)], axis=1), sending)


def _target_edges(view: GraphView):
    """(target position, src) of the edges that reach the view's targets,
    in the view's (dst, src) order: one conv reads only those messages."""
    target_of = np.full(view.num_nodes, -1, dtype=np.intp)
    target_of[view.targets] = np.arange(view.targets.size, dtype=np.intp)
    dst = target_of[view.edge_dst]
    keep = dst >= 0
    return dst[keep], view.edge_src[keep]


def query_operator(kind: str, edges: np.ndarray, b: int, k: int):
    """The linear convs' neighbor sum for b queries as one dense (b, k)
    operator on k sending rows, plus each query's divisor.

    gcn: op[q, j] = d_q^-½ per edge (q, j), with d_q = q's edges + 1,
    applied to S = diag(degree^-½) X_send; the result is op @ S + X_q / d_q.
    sage_mean: the edge-count matrix and max(count_q, 1), by which op @
    X_send is divided."""
    q = edges[:, 0]
    counts = np.bincount(q, minlength=b).astype(np.float64)
    d = counts + 1.0 if kind == "gcn" else np.maximum(counts, 1.0)
    w = 1.0 / np.sqrt(d[q]) if kind == "gcn" else np.ones(q.size)
    return np.bincount(q * k + edges[:, 1], weights=w, minlength=b * k).reshape(b, k), d


def propagate_queries(kind: str, x_query: np.ndarray, edges: np.ndarray,
                      comp_rows: np.ndarray) -> np.ndarray:
    """The one gcn and sage aggregation: row q of x_query receives
    comp_rows[j] along each edge (q, j), edges sorted by q. comp_rows is S
    (see `query_operator`) for gcn, the raw sending rows for sage.
    sage_max pools by max (`_max_pool`)."""
    b = x_query.shape[0]
    if kind == "sage_max":
        return np.concatenate([x_query, _max_pool(comp_rows, edges[:, 0], edges[:, 1], b)],
                              axis=1)
    op, d = query_operator(kind, edges, b, comp_rows.shape[0])
    if kind == "gcn":
        return op @ comp_rows + x_query * (1.0 / d)[:, None]
    return np.concatenate([x_query, (op @ comp_rows) / d[:, None]], axis=1)


def _max_pool(rows: np.ndarray, q: np.ndarray, src: np.ndarray, b: int) -> np.ndarray:
    """sage_max's neighbor half: for each of b queries, the column max of
    rows[src] over its edges (q sorted), zero rows for a query without
    edges. Blocks of _BLOCK queries bound the gathered rows."""
    out = np.zeros((b, rows.shape[1]))
    # each block's edge range; a single block needs no search
    cuts = ([0, q.size] if b <= _BLOCK
            else np.searchsorted(q, np.arange(0, b + _BLOCK, _BLOCK)))
    for start, lo, hi in zip(range(0, b, _BLOCK), cuts[:-1], cuts[1:]):
        out[start:start + _BLOCK] = T.segment_reduce(np.maximum, rows[src[lo:hi]],
                                                     q[lo:hi] - start, min(_BLOCK, b - start))
    return out


def _sum_pool(rows: np.ndarray, q: np.ndarray, src: np.ndarray, b: int) -> np.ndarray:
    """For each of b targets, the sum of rows[src] over its edges (q
    sorted), one target at a time in edge order, so that a target's sum
    depends only on its own edges; zero rows for a target without edges."""
    out = np.zeros((b, rows.shape[1]))
    cuts = np.searchsorted(q, np.arange(b + 1))
    for t in np.flatnonzero(cuts[1:] > cuts[:-1]):
        out[t] = np.add.reduce(rows[src[cuts[t]:cuts[t + 1]]], axis=0)
    return out


def _attend(params: dict[str, T.Tensor], plan, product=T.matmul) -> T.Tensor:
    """gat's taped attention over a plan from `propagate`, before the ReLU;
    `product` computes the node projections and their logits."""
    x, src, dst, starts, targets = plan
    n = x.shape[0]
    z = product(T.constant(x), params["w_conv"])
    s_self = product(z, params["att_self"])
    s_neigh = product(z, params["att_neigh"])
    e = T.leaky_relu(T.add(T.gather_rows(s_self, dst), T.gather_rows(s_neigh, src)),
                     alpha=LEAKY_SLOPE)
    # max-shift per destination for stable exponentials; softmax is
    # shift-invariant so treating the shift as a constant is exact
    shift = np.maximum.reduceat(e.data[:, 0], starts)[dst]
    ex = T.exp(T.sub(e, T.constant(shift.reshape(-1, 1))))
    denom = T.segment_sum(ex, dst, n)
    alpha = T.div(ex, T.gather_rows(denom, dst))
    h_all = T.segment_sum(T.mul(T.gather_rows(z, src), alpha), dst, n)
    return T.gather_rows(h_all, targets)


def _dense(params: dict[str, T.Tensor], kind: str, propagated) -> T.Tensor:
    """The half of training's conv that holds the weights, on `propagate`'s
    output."""
    width = (propagated[0] if kind == "gat" else propagated).shape[1]
    if width != params["w_conv"].rows:
        raise DimensionError(f"propagated width {width} != conv input "
                             f"{params['w_conv'].rows}")
    if kind == "gat":
        return T.relu(_attend(params, propagated))
    return T.relu(T.matmul(T.constant(propagated), params["w_conv"]))


def gnn_forward(params: dict[str, T.Tensor], kind: str, view: GraphView) -> T.Tensor:
    """The serving conv: representations of the view's target rows,
    (len(targets), F_w), each computed from its own in-edges alone.

    Every kernel gives a target the bits it gets with no other target in
    the view: per-target sums in (dst, src) order (`_sum_pool`),
    `_max_pool`, gat's per-target softmax, and the one-row product
    `T.row_matmul`. So a query scored in a block of queries gets the bits
    it gets alone. Training runs `_dense(propagate(view))`, whose batch
    products this matches to rounding; the gradients are the same."""
    if kind == "gat":
        return T.relu(_attend(params, propagate(view, "gat"), T.row_matmul))
    if kind not in CONV_KINDS:
        raise ParameterError(f"unknown conv kind {kind!r}")
    x, b = view.features, view.targets.size
    dst, src = _target_edges(view)
    own = x[view.targets]
    if kind == "sage_max":
        agg = np.concatenate([own, _max_pool(x, dst, src, b)], axis=1)
    else:
        counts = np.bincount(dst, minlength=b).astype(np.float64)
        if kind == "gcn":
            d = counts + 1.0
            sums = _sum_pool(x / np.sqrt(view.degrees.astype(np.float64))[:, None],
                             dst, src, b)
            agg = sums / np.sqrt(d)[:, None] + own * (1.0 / d)[:, None]
        else:
            agg = np.concatenate([own, _sum_pool(x, dst, src, b)
                                  / np.maximum(counts, 1.0)[:, None]], axis=1)
    return T.relu(T.row_matmul(T.constant(agg), params["w_conv"]))


def predict_tensor(params: dict[str, T.Tensor], h: T.Tensor, task: str) -> T.Tensor:
    """The affine head, one row at a time (`T.row_matmul`), then a row
    softmax for classification: a row's prediction depends on that row
    alone."""
    if h.cols != params["w_head"].rows:
        raise DimensionError(f"representation width {h.cols} != head input "
                             f"{params['w_head'].rows}")
    logits = T.add(T.row_matmul(h, params["w_head"]), params["b_head"])
    if task == "classification":
        return T.row_softmax(logits)
    return logits


def forward_view(model: GnnModel, view: GraphView) -> np.ndarray:
    return gnn_forward(_params_of(model), model.kind, view).data


# ---------------------------------------------------------------------------
# training


def label_targets(labels, task: str, num_classes: int) -> tuple[np.ndarray, str]:
    """Targets for real labels and the loss that scores them: one-hot rows
    under cross entropy for classification, one column under MSE for
    regression."""
    if task == "classification":
        return np.eye(num_classes)[np.asarray(labels, dtype=np.intp)], "ce"
    return np.asarray(labels, dtype=np.float64).reshape(-1, 1), "mse"


def _loss(params: dict[str, T.Tensor], model: GnnModel, propagated,
          target: np.ndarray, loss_kind: str) -> T.Tensor:
    pred = predict_tensor(params, _dense(params, model.kind, propagated), model.task)
    return T.LOSSES[loss_kind](pred, T.constant(target))


def train_on_compressed(model: GnnModel, cg: CompressedGraph, *,
                        lr: float = 5e-3, epochs: int = 50,
                        val: tuple[np.ndarray, np.ndarray] | None = None,
                        patience: int = 10, fallback_m: int = 1) -> dict:
    """Full-batch training on the compressed graph.

    Loss: cross entropy when the compressed labels are exactly one-hot,
    mean squared error when averaging produced soft labels, and always
    MSE for regression. With a validation pair (embeddings, labels) the
    epoch budget turns into early stopping on validation loss.
    """
    if model.task != cg.task:
        raise TaskMismatchError(f"model task {model.task} != compressed task {cg.task}")
    if model.in_dim != cg.dim:
        raise DimensionError(f"model input {model.in_dim} != compressed width {cg.dim}")
    loss_kind = "mse"
    if cg.task == "classification" and cg.label_onehot:
        loss_kind = "ce"
    params = _params_of(model)
    opt = T.Adam(list(params.values()), lr=lr)
    prop = propagate(compressed_view(cg), model.kind)

    stopper = None
    if val is not None:
        x_val, y_val = val
        edges = connect_to_compressed(x_val, cg.features, cg.metric, cg.epsilon, fallback_m)
        val_prop = propagate(attach_view(cg, x_val, edges), model.kind)
        val_target, val_loss_kind = label_targets(y_val, cg.task, cg.labels.shape[1])
        stopper = T.EarlyStopping(model.weights, patience)

    history: dict = {"loss": [], "loss_kind": loss_kind, "val_loss": [], "best_epoch": 0}
    for epoch in range(epochs):
        history["loss"].append(opt.minimize(
            lambda: _loss(params, model, prop, cg.labels, loss_kind)))
        if stopper is None:
            continue
        val_loss = _loss(params, model, val_prop, val_target, val_loss_kind).item()
        history["val_loss"].append(val_loss)
        if stopper.update(epoch, val_loss):
            break
    if stopper is not None:
        model.weights = stopper.best
        history["best_epoch"] = stopper.best_epoch
    return history


def finetune_correlation(model: GnnModel, h_real: np.ndarray, y_real, cg: CompressedGraph,
                         *, metric: str | None = None, epsilon: float | None = None,
                         fallback_m: int = 1, batch_size: int = 64, epochs: int = 1,
                         lr: float = 5e-3, rng: np.random.Generator) -> dict:
    """Refine the model by predicting real nodes from compressed messages.

    Real embeddings are batched; each batch connects to the compressed
    rows, prepared once, and the loss compares real-node predictions
    against their labels. Compressed features are inputs only and are
    never updated. gcn and sage propagate each batch straight from the
    prototype rows (`propagate_queries`); only gat builds a compact view
    of it.
    """
    h_real = np.asarray(h_real, dtype=np.float64)
    n = h_real.shape[0]
    if cg.k < 1:
        raise EmptyInputError("cannot fine-tune against an empty compressed graph")
    if n == 0:
        raise EmptyInputError("cannot fine-tune on zero real rows")
    if model.in_dim != cg.dim:
        raise DimensionError(f"model input {model.in_dim} != compressed width {cg.dim}")
    metric = cg.metric if metric is None else metric
    epsilon = cg.epsilon if epsilon is None else epsilon
    targets, loss_kind = label_targets(y_real, model.task, cg.labels.shape[1])
    params = _params_of(model)
    opt = T.Adam(list(params.values()), lr=lr)
    history: dict = {"loss": [], "loss_kind": loss_kind}
    comp_deg, comp_prepped = cg.degrees(), prep_rows(cg.features, metric)
    comp_rows = (cg.features / np.sqrt(comp_deg + 1.0)[:, None] if model.kind == "gcn"
                 else cg.features)
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            take = order[start:start + batch_size]
            x = h_real[take]
            _, edges = connect_prepped(x, comp_prepped, metric, epsilon, fallback_m)
            if model.kind == "gat":
                prop = propagate(attach_view(cg, x, edges, comp_degrees=comp_deg), "gat")
            else:
                prop = propagate_queries(model.kind, x, edges, comp_rows)
            total += opt.minimize(
                lambda: _loss(params, model, prop, targets[take], loss_kind)) * take.size
        history["loss"].append(total / n)
    return history


# ---------------------------------------------------------------------------
# serialization


def gnn_to_dict(model: GnnModel) -> dict:
    return {
        "kind": "relation-model",
        "conv": model.kind,
        "task": model.task,
        "in_dim": model.in_dim,
        "hidden_dim": model.hidden_dim,
        "out_dim": model.out_dim,
        "weights": {k: v.tolist() for k, v in model.weights.items()},
    }


def gnn_from_dict(d: dict) -> GnnModel:
    return GnnModel(
        kind=d["conv"], task=d["task"], in_dim=d["in_dim"],
        hidden_dim=d["hidden_dim"], out_dim=d["out_dim"],
        weights={k: np.array(v, dtype=np.float64) for k, v in d["weights"].items()},
    )


def save_gnn(path, model: GnnModel) -> None:
    write_json_atomic(path, gnn_to_dict(model))


def load_gnn(path) -> GnnModel:
    return gnn_from_dict(read_json(path))
