"""Recurrent sequence encoder: gated cell over encoded events plus the
relation model's affine prediction head, used for training only.

The cell is a standard single-layer LSTM. Each event vector is
concatenated with the previous hidden state; input/forget/output gates
and the candidate update produce the next cell and hidden state. The
final hidden state is the sequence embedding.

All four gates share one (schema width + H, 4H) weight `w_gates` and one
(1, 4H) bias `b_gates`, in column blocks ordered i, f, o, g. One scan,
`tensor.lstm_scan`, runs the cell for scoring, embedding and training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import (
    CLASSIFICATION,
    REGRESSION,
    FieldSchema,
    Record,
    SequenceDataset,
    encode_dataset,
    encode_record,
    fit_field_schema,
)
from .exceptions import ArtifactError, TaskMismatchError
from .gnn import label_targets, predict_tensor
from .ioutil import read_json, write_json_atomic

GATES = ("i", "f", "o", "g")


@dataclass
class EncoderModel:
    schema: FieldSchema
    task: str  # classification | regression
    num_classes: int  # head width; 1 for regression
    hidden_dim: int
    weights: dict[str, np.ndarray]


def init_encoder(schema: FieldSchema, task: str, num_classes: int,
                 hidden_dim: int, rng: np.random.Generator) -> EncoderModel:
    if task == REGRESSION:
        num_classes = 1
    width = schema.width + hidden_dim
    weights = {
        "w_gates": np.concatenate(
            [T.glorot_uniform(rng, width, hidden_dim) for _ in GATES], axis=1),
        "b_gates": np.zeros((1, 4 * hidden_dim)),
    }
    weights["w_head"] = T.glorot_uniform(rng, hidden_dim, num_classes)
    weights["b_head"] = np.zeros((1, num_classes))
    return EncoderModel(schema, task, num_classes, hidden_dim, weights)


# ---------------------------------------------------------------------------
# forward pass: one scan for scoring, embedding and training


def encode_sequence(model: EncoderModel, record: Record) -> np.ndarray:
    """Final hidden state for one record, shape (hidden_dim,)."""
    steps = encode_record(model.schema, record)
    w = model.weights
    return T.lstm_scan(steps[None], T.Tensor(w["w_gates"]), T.Tensor(w["b_gates"])).data[0]


def embed_all(model: EncoderModel, dataset: SequenceDataset) -> np.ndarray:
    """Row i is exactly encode_sequence(record i); a pure per-record map."""
    return np.stack([encode_sequence(model, r) for r in dataset.records])


def encoder_loss(params: dict[str, T.Tensor], steps: np.ndarray,
                 targets: np.ndarray, task: str) -> T.Tensor:
    """Head loss over the scan of a (B, T, width) batch of events."""
    pred = predict_tensor(params, T.lstm_scan(steps, params["w_gates"], params["b_gates"]), task)
    return T.LOSSES["ce" if task == CLASSIFICATION else "mse"](pred, T.constant(targets))


def _as_tensors(model: EncoderModel) -> dict[str, T.Tensor]:
    """Tensor views sharing the model's weight buffers."""
    return {k: T.Tensor(v) for k, v in model.weights.items()}


def _mean_loss(params, encoded, targets, task, batch_size) -> float:
    total = 0.0
    for start in range(0, encoded.shape[0], batch_size):
        stop = min(start + batch_size, encoded.shape[0])
        loss = encoder_loss(params, encoded[start:stop], targets[start:stop], task)
        total += loss.item() * (stop - start)
    return total / encoded.shape[0]


def train_encoder(train: SequenceDataset, val: SequenceDataset, *,
                  hidden_dim: int, rng: np.random.Generator,
                  lr: float = 1e-5, batch_size: int = 64,
                  max_epochs: int = 50, patience: int = 10) -> tuple[EncoderModel, dict]:
    """Mini-batch Adam with early stopping on validation loss.

    Stops once the epochs since the best validation loss exceed
    `patience` and restores the best snapshot. Returns the model and a
    history dict with per-epoch losses.
    """
    if train.task != val.task:
        raise TaskMismatchError(f"train task {train.task} != val task {val.task}")
    task = train.task
    schema = fit_field_schema(train)
    num_classes = 1
    if task == CLASSIFICATION:
        labels = [int(r.label) for r in train.records] + [int(r.label) for r in val.records]
        num_classes = max(labels) + 1

    model = init_encoder(schema, task, num_classes, hidden_dim, rng)
    params = _as_tensors(model)
    opt = T.Adam(list(params.values()), lr=lr)

    x_train = encode_dataset(schema, train)
    y_train, _ = label_targets(train.labels_array(), task, num_classes)
    x_val = encode_dataset(schema, val)
    y_val, _ = label_targets(val.labels_array(), task, num_classes)

    history: dict = {"train_loss": [], "val_loss": [], "best_epoch": 0}
    stopper = T.EarlyStopping(model.weights, patience)
    n = x_train.shape[0]
    for epoch in range(max_epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        for start in range(0, n, batch_size):
            take = order[start:start + batch_size]
            epoch_total += opt.minimize(
                lambda: encoder_loss(params, x_train[take], y_train[take], task)) * take.size
        history["train_loss"].append(epoch_total / n)
        val_loss = _mean_loss(params, x_val, y_val, task, batch_size)
        history["val_loss"].append(val_loss)
        if stopper.update(epoch, val_loss):
            break
    model.weights = stopper.best
    history["best_epoch"] = stopper.best_epoch
    return model, history


# ---------------------------------------------------------------------------
# serialization


def encoder_to_dict(model: EncoderModel) -> dict:
    return {
        "kind": "sequence-encoder",
        "task": model.task,
        "num_classes": model.num_classes,
        "hidden_dim": model.hidden_dim,
        "schema": model.schema.to_dict(),
        "weights": {k: v.tolist() for k, v in model.weights.items()},
    }


def encoder_from_dict(d: dict) -> EncoderModel:
    """Read either gate layout and check every shape against the schema.

    Files written before the gates were fused hold four per-gate matrices
    w_i..w_g and biases b_i..b_g; they are concatenated in gate order, which
    is exact.
    """
    schema = FieldSchema.from_dict(d["schema"])
    hidden, num_classes = d["hidden_dim"], d["num_classes"]
    try:
        weights = {k: np.array(v, dtype=np.float64) for k, v in d["weights"].items()}
        if "w_gates" not in weights and "b_gates" not in weights:
            for kind in "wb":
                weights[f"{kind}_gates"] = np.concatenate(
                    [weights.pop(f"{kind}_{gate}") for gate in GATES], axis=1)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"malformed encoder weights: {exc!r}") from exc
    expected = {"w_gates": (schema.width + hidden, 4 * hidden), "b_gates": (1, 4 * hidden),
                "w_head": (hidden, num_classes), "b_head": (1, num_classes)}
    shapes = {k: v.shape for k, v in weights.items()}
    if shapes != expected:
        raise ArtifactError(f"encoder weight shapes {shapes}, expected {expected}")
    return EncoderModel(schema=schema, task=d["task"], num_classes=num_classes,
                        hidden_dim=hidden, weights=weights)


def save_encoder(path, model: EncoderModel) -> None:
    write_json_atomic(path, encoder_to_dict(model))


def load_encoder(path) -> EncoderModel:
    return encoder_from_dict(read_json(path))
