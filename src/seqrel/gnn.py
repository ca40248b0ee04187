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

The conv splits in two: `propagate`, the half that needs no weights, and
the dense half. Training propagates each view once and runs only the
dense half in its epochs.
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
from .graph import connect_prepped, connect_to_compressed, prep_rows
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
    (in-degree + 1 self-loop) and the target rows to produce."""

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


def _target_edges(view: GraphView):
    """Edges landing on a target row, with dst remapped to target position.

    A single conv layer only ever reads messages arriving at the rows it
    outputs, so aggregation can skip every other destination.
    """
    idx_of = np.full(view.num_nodes, -1, dtype=np.intp)
    idx_of[view.targets] = np.arange(view.targets.size, dtype=np.intp)
    keep = idx_of[view.edge_dst] >= 0
    return view.edge_src[keep], view.edge_dst[keep], idx_of[view.edge_dst[keep]]


def propagate(view: GraphView, kind: str):
    """The weight-free half of the conv over the view's target rows.

    gcn: the symmetric-normalized neighbor sum plus the self term; sage:
    the self rows beside the mean- or max-pooled neighbor rows (zero rows
    without neighbors). For these the conv is relu(P @ w_conv). gat: the
    plan its attention runs on, (features, src, dst, run starts, targets),
    with self-loops added and edges sorted by (dst, src)."""
    x = view.features
    if kind == "gat":
        loops = np.arange(view.num_nodes, dtype=np.intp)
        src, dst = _sort_edges(np.concatenate([view.edge_src, loops]),
                               np.concatenate([view.edge_dst, loops]))
        return x, src, dst, np.unique(dst, return_index=True)[1], view.targets
    if kind not in CONV_KINDS:
        raise ParameterError(f"unknown conv kind {kind!r}")
    src_t, dst_orig, dst_t = _target_edges(view)
    n_t = view.targets.size
    if kind == "gcn":
        d = view.degrees.astype(np.float64)
        coef = 1.0 / np.sqrt(d[src_t] * d[dst_orig])
        agg = T.segment_reduce(np.add, x[src_t] * coef.reshape(-1, 1), dst_t, n_t)
        return agg + x[view.targets] * (1.0 / d[view.targets]).reshape(-1, 1)
    if kind == "sage_mean":
        counts = np.maximum(np.bincount(dst_t, minlength=n_t), 1).astype(np.float64)
        neigh = T.segment_reduce(np.add, x[src_t], dst_t, n_t) / counts[:, None]
    else:
        neigh = T.segment_reduce(np.maximum, x[src_t], dst_t, n_t)
    return np.concatenate([x[view.targets], neigh], axis=1)


def _attend(params: dict[str, T.Tensor], plan) -> T.Tensor:
    """gat's taped attention over a plan from `propagate`, before the ReLU."""
    x, src, dst, starts, targets = plan
    n = x.shape[0]
    z = T.matmul(T.constant(x), params["w_conv"])
    s_self = T.matmul(z, params["att_self"])
    s_neigh = T.matmul(z, params["att_neigh"])
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
    """The half of the conv that holds the weights, on `propagate`'s output."""
    width = (propagated[0] if kind == "gat" else propagated).shape[1]
    if width != params["w_conv"].rows:
        raise DimensionError(f"propagated width {width} != conv input "
                             f"{params['w_conv'].rows}")
    if kind == "gat":
        return T.relu(_attend(params, propagated))
    return T.relu(T.matmul(T.constant(propagated), params["w_conv"]))


def gnn_forward(params: dict[str, T.Tensor], kind: str, view: GraphView) -> T.Tensor:
    """Representations of the view's target rows, (len(targets), F_w)."""
    return _dense(params, kind, propagate(view, kind))


def predict_tensor(params: dict[str, T.Tensor], h: T.Tensor, task: str) -> T.Tensor:
    if h.cols != params["w_head"].rows:
        raise DimensionError(f"representation width {h.cols} != head input "
                             f"{params['w_head'].rows}")
    logits = T.add(T.matmul(h, params["w_head"]), params["b_head"])
    if task == "classification":
        return T.row_softmax(logits)
    return logits


def forward_view(model: GnnModel, view: GraphView) -> np.ndarray:
    return gnn_forward(_params_of(model), model.kind, view).data


def predict_view(model: GnnModel, view: GraphView) -> np.ndarray:
    params = _params_of(model)
    return predict_tensor(params, gnn_forward(params, model.kind, view), model.task).data


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
    never updated.
    """
    if cg.k < 1:
        raise EmptyInputError("cannot fine-tune against an empty compressed graph")
    if model.in_dim != cg.dim:
        raise DimensionError(f"model input {model.in_dim} != compressed width {cg.dim}")
    metric = cg.metric if metric is None else metric
    epsilon = cg.epsilon if epsilon is None else epsilon
    h_real = np.asarray(h_real, dtype=np.float64)
    n = h_real.shape[0]
    targets, loss_kind = label_targets(y_real, model.task, cg.labels.shape[1])
    params = _params_of(model)
    opt = T.Adam(list(params.values()), lr=lr)
    history: dict = {"loss": [], "loss_kind": loss_kind}
    comp_deg, comp_prepped = cg.degrees(), prep_rows(cg.features, metric)
    for _ in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch_size):
            take = order[start:start + batch_size]
            _, edges = connect_prepped(h_real[take], comp_prepped, metric,
                                       epsilon, fallback_m)
            prop = propagate(attach_view(cg, h_real[take], edges, comp_degrees=comp_deg),
                             model.kind)
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
