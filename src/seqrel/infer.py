"""Low-latency scoring against a deployed artifact bundle.

A bundle packages the sequence encoder (optional), the trained relation
model, the compressed graph, and the connection rule. Scoring embeds each
record (or accepts a precomputed embedding), wires it to similar compressed
nodes, and runs one message-passing step; the original training corpus is
never needed.

Scoring runs in blocks: `score_batch` cuts its records into blocks of
SCORE_BLOCK, and `score` is a block of one. A block embeds its records one
by one, connects them in one similarity product, and runs one view, one
conv and one head. A record's output has the same bits in any block as
alone: `graph.connect_prepped` gives each row its one-row edges, and the
serving conv and the head compute each row from its own edges only. Each
score carries one latency: its block's wall time divided by the block's
size, so a single score's is the wall time of the call.

Explanations rank compressed nodes by embedding similarity and trace them
back to representative training sequences.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import compress as C
from . import data as D
from . import encoder as E
from . import gnn as G
from . import tensor as T
from .exceptions import (ArtifactError, BundleIntegrityError, DataError,
                         NumericFailureError, ParameterError, SeqrelError)
from .graph import METRICS, connect_prepped, prep_rows
from .ioutil import read_json, write_json_atomic

BUNDLE_FORMAT_VERSION = 1
SCORE_BLOCK = 64  # records per score_batch block


@dataclass
class DeployBundle:
    """Immutable inference artifact; treat all fields as read-only.

    Construction validates the parts and derives all per-call scoring state,
    so scoring and explaining never write to the bundle."""

    encoder: "E.EncoderModel | None"
    gnn: G.GnnModel
    cg: C.CompressedGraph
    metric: str
    epsilon: float
    fallback_m: int
    task: str
    # per-call scoring reuses these; derived from cg and gnn, never serialized
    _comp_prepped: np.ndarray = field(init=False, repr=False, compare=False)
    _comp_degrees: np.ndarray = field(init=False, repr=False, compare=False)
    _params: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate_bundle(self)
        self._comp_prepped = prep_rows(self.cg.features, self.metric)
        self._comp_degrees = self.cg.degrees()
        self._params = {k: T.Tensor(v) for k, v in self.gnn.weights.items()}


@dataclass
class ScoreResult:
    id: "str | None"
    score: float
    output: list
    latency_s: float


@dataclass
class Explanation:
    cluster: int
    representative_id: str
    similarity: float
    connected: bool


def build_bundle(encoder, gnn, cg, metric=None, epsilon=None,
                 fallback_m: int = 1) -> DeployBundle:
    return DeployBundle(
        encoder=encoder, gnn=gnn, cg=cg,
        metric=cg.metric if metric is None else metric,
        epsilon=cg.epsilon if epsilon is None else epsilon,
        fallback_m=fallback_m, task=cg.task)


def _validate_bundle(b: DeployBundle) -> None:
    if b.metric not in METRICS:
        raise BundleIntegrityError(f"unknown metric {b.metric!r}")
    if not np.isfinite(b.epsilon):
        raise BundleIntegrityError("epsilon must be finite")
    if b.fallback_m < 1:
        raise BundleIntegrityError("fallback_m must be at least 1")
    if b.cg.k < 1:
        raise BundleIntegrityError("compressed graph is empty")
    if b.gnn.in_dim != b.cg.dim:
        raise BundleIntegrityError(
            f"relation model expects width {b.gnn.in_dim}, compressed graph "
            f"provides {b.cg.dim}")
    if b.encoder is not None and b.encoder.hidden_dim != b.cg.dim:
        raise BundleIntegrityError(
            f"encoder emits width {b.encoder.hidden_dim}, compressed graph "
            f"provides {b.cg.dim}")
    tasks = {b.task, b.gnn.task, b.cg.task}
    if b.encoder is not None:
        tasks.add(b.encoder.task)
    if len(tasks) != 1:
        raise BundleIntegrityError(f"task mismatch across bundle parts: {tasks}")
    if b.task == D.CLASSIFICATION and b.gnn.out_dim != b.cg.labels.shape[1]:
        raise BundleIntegrityError(
            f"relation model emits {b.gnn.out_dim} classes, compressed labels "
            f"have {b.cg.labels.shape[1]}")
    arrays = {f"relation model weight {k!r}": v for k, v in b.gnn.weights.items()}
    if b.encoder is not None:
        arrays.update({f"encoder weight {k!r}": v for k, v in b.encoder.weights.items()})
    arrays["compressed features"] = b.cg.features
    arrays["compressed labels"] = b.cg.labels
    for name, values in arrays.items():
        if not np.isfinite(values).all():
            raise BundleIntegrityError(f"non-finite values in {name}")


def _embed_input(b: DeployBundle, record):
    """Return (record id or None, embedding row (1, D))."""
    if isinstance(record, D.Record):
        if b.encoder is None:
            raise BundleIntegrityError(
                "bundle has no encoder; provide precomputed embeddings")
        rid, h = record.id, E.encode_sequence(b.encoder, record)
    else:
        h = np.asarray(record, dtype=np.float64).reshape(-1)
        if h.shape[0] != b.cg.dim:
            raise BundleIntegrityError(
                f"embedding has width {h.shape[0]}, bundle expects {b.cg.dim}")
        rid = None
    if not np.isfinite(h).all():
        raise DataError("embedding has non-finite values")
    return rid, h.reshape(1, -1)


def _positive_score(b: DeployBundle, row: np.ndarray) -> float:
    if b.task == D.CLASSIFICATION:
        return float(row[-1] if row.shape[0] == 2 else row.max())
    return float(row[0])


def score(b: DeployBundle, record) -> ScoreResult:
    """Embed, connect, and run one relation-model step for a single input:
    a block of one; latency_s is the block's wall time."""
    return _score_block(b, [record])[0]


def score_batch(b: DeployBundle, records) -> tuple:
    """Score any iterable of records in blocks of SCORE_BLOCK; returns
    (results, latency aggregate with count, mean_s and p99_s over the
    per-record latency_s). A record's latency_s is its block's wall time
    divided by the block's size. An error names the offending record, by
    id or as #<position>."""
    records = iter(records)
    results = []
    while block := list(itertools.islice(records, SCORE_BLOCK)):
        results += _score_block(b, block, first=len(results))
    if not results:
        return results, {"count": 0, "mean_s": 0.0, "p99_s": 0.0}
    lat = np.array([r.latency_s for r in results])
    agg = {"count": len(results), "mean_s": float(lat.mean()),
           "p99_s": float(np.percentile(lat, 99))}
    return results, agg


def _score_block(b: DeployBundle, records: list, first: "int | None" = None) -> list:
    """Score a block: embed each record, connect the block in one product,
    then one view, one conv and one head for all of it. Each row comes out
    with the bits it gets in a block of one: connect gives every row its
    one-row edges, and the conv and the head compute each row on its own
    (`G.gnn_forward`). `first` is the batch position of records[0]; with
    it, an error names the offending record, and a block's embedding errors
    surface before its output errors."""
    start = time.perf_counter()
    ids, rows = [], []
    for i, record in enumerate(records):
        try:
            rid, h = _embed_input(b, record)
        except SeqrelError as exc:
            raise _named(exc, record, first, i)
        ids.append(rid)
        rows.append(h)
    x = np.concatenate(rows)
    _, edges = connect_prepped(x, b._comp_prepped, b.metric, b.epsilon, b.fallback_m)
    # an overflow surfaces as the non-finite check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        view = G.attach_view(b.cg, x, edges, comp_degrees=b._comp_degrees)
        out = G.predict_tensor(b._params, G.gnn_forward(b._params, b.gnn.kind, view),
                               b.task).data
    if not np.isfinite(out).all():
        i = int(np.argmin(np.isfinite(out).all(axis=1)))
        exc = NumericFailureError(f"relation model output is not finite: {out[i].tolist()}")
        raise _named(exc, records[i], first, i)
    latency = (time.perf_counter() - start) / len(records)
    return [ScoreResult(id=rid, score=_positive_score(b, row), output=row.tolist(),
                        latency_s=latency) for rid, row in zip(ids, out)]


def _named(exc: SeqrelError, record, first: "int | None", i: int) -> SeqrelError:
    """exc as raised for a single score (first None), else prefixed with
    the record's id, or its batch position first + i."""
    if first is None:
        return exc
    rid = record.id if isinstance(record, D.Record) else f"#{first + i}"
    named = type(exc)(f"record {rid}: {exc}")
    named.__cause__ = exc
    return named


def explain(b: DeployBundle, record, top_r: int = 5) -> list:
    """Rank compressed nodes by similarity to the input's embedding and trace
    each to its representative training sequence."""
    if top_r < 1:
        raise ParameterError(f"top_r must be at least 1, got {top_r}")
    _, h = _embed_input(b, record)
    sims, edges = connect_prepped(h, b._comp_prepped, b.metric, b.epsilon, b.fallback_m)
    sims = sims[0]
    connected = set(edges[:, 1].tolist())
    order = np.argsort(-sims, kind="stable")[:min(top_r, b.cg.k)]
    return [Explanation(cluster=int(j), representative_id=b.cg.medoid_ids[j],
                        similarity=float(sims[j]), connected=j in connected)
            for j in order]


# ---------------------------------------------------------------------------
# serialization


def bundle_to_dict(b: DeployBundle) -> dict:
    return {
        "format_version": BUNDLE_FORMAT_VERSION,
        "kind": "deploy-bundle",
        "task": b.task,
        "connection": {"metric": b.metric, "epsilon": b.epsilon,
                       "fallback_m": b.fallback_m},
        "encoder": None if b.encoder is None else E.encoder_to_dict(b.encoder),
        "gnn": G.gnn_to_dict(b.gnn),
        "compressed_graph": C.compressed_to_dict(b.cg),
    }


def bundle_from_dict(obj: dict) -> DeployBundle:
    try:
        if obj["format_version"] != BUNDLE_FORMAT_VERSION:
            raise BundleIntegrityError(
                f"unsupported bundle format_version {obj['format_version']!r}")
        if obj.get("kind") != "deploy-bundle":
            raise BundleIntegrityError(f"not a deploy bundle: {obj.get('kind')!r}")
        conn = obj["connection"]
        return DeployBundle(
            encoder=None if obj["encoder"] is None
            else E.encoder_from_dict(obj["encoder"]),
            gnn=G.gnn_from_dict(obj["gnn"]),
            cg=C.compressed_from_dict(obj["compressed_graph"]),
            metric=conn["metric"], epsilon=float(conn["epsilon"]),
            fallback_m=int(conn["fallback_m"]), task=obj["task"])
    except BundleIntegrityError:
        raise
    except (ArtifactError, KeyError, TypeError, ValueError) as exc:
        raise BundleIntegrityError(f"malformed bundle: {exc}") from exc


def save_bundle(path, b: DeployBundle) -> None:
    write_json_atomic(path, bundle_to_dict(b))


def load_bundle(path) -> DeployBundle:
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise BundleIntegrityError("bundle file does not hold a JSON object")
    return bundle_from_dict(obj)
