"""Low-latency scoring against a deployed artifact bundle.

A bundle packages the sequence encoder (optional), the trained relation
model, the compressed graph, and the connection rule. Scoring embeds one
record (or accepts a precomputed embedding), wires it to similar compressed
nodes, and runs one message-passing step; the original training corpus is
never needed. Each score carries one latency, the wall time of the whole
call. Explanations rank compressed nodes by embedding similarity and trace
them back to representative training sequences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import compress as C
from . import data as D
from . import encoder as E
from . import gnn as G
from .exceptions import (ArtifactError, BundleIntegrityError, DataError,
                         NumericFailureError, ParameterError, SeqrelError)
from .graph import METRICS, connect_prepped, prep_rows
from .ioutil import read_json, write_json_atomic

BUNDLE_FORMAT_VERSION = 1


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
    # per-call scoring reuses these; derived from cg, never serialized
    _comp_prepped: np.ndarray = field(init=False, repr=False, compare=False)
    _comp_degrees: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate_bundle(self)
        self._comp_prepped = prep_rows(self.cg.features, self.metric)
        self._comp_degrees = self.cg.degrees()


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


def _embed_and_connect(b: DeployBundle, record):
    """Embed one input and wire it to the compressed nodes.

    Returns (record id or None, embedding row (1, D), similarity row (K,),
    edges). The similarity row matches similarity_matrix(h, cg.features,
    metric) bit for bit."""
    rid, h = _embed_input(b, record)
    sims, edges = connect_prepped(h, b._comp_prepped, b.metric, b.epsilon, b.fallback_m)
    return rid, h, sims[0], edges


def score(b: DeployBundle, record) -> ScoreResult:
    """Embed, connect, and run one relation-model step for a single input;
    latency_s is the wall time of the whole call."""
    start = time.perf_counter()
    rid, h, _, edges = _embed_and_connect(b, record)
    # an overflow surfaces as the non-finite check below, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out = G.predict_view(b.gnn, G.attach_view(b.cg, h, edges,
                                                  comp_degrees=b._comp_degrees))
    if not np.isfinite(out[0]).all():
        raise NumericFailureError(f"relation model output is not finite: {out[0].tolist()}")
    return ScoreResult(id=rid, score=_positive_score(b, out[0]),
                       output=out[0].tolist(),
                       latency_s=time.perf_counter() - start)


def score_batch(b: DeployBundle, records) -> tuple:
    """Score records one by one; returns (results, latency aggregate with
    count, mean_s and p99_s over the per-record latency_s)."""
    results = []
    for idx, record in enumerate(records):
        try:
            results.append(score(b, record))
        except SeqrelError as exc:
            rid = record.id if isinstance(record, D.Record) else f"#{idx}"
            raise type(exc)(f"record {rid}: {exc}") from exc
    if not results:
        return results, {"count": 0, "mean_s": 0.0, "p99_s": 0.0}
    lat = np.array([r.latency_s for r in results])
    agg = {"count": len(results), "mean_s": float(lat.mean()),
           "p99_s": float(np.percentile(lat, 99))}
    return results, agg


def explain(b: DeployBundle, record, top_r: int = 5) -> list:
    """Rank compressed nodes by similarity to the input's embedding and trace
    each to its representative training sequence."""
    if top_r < 1:
        raise ParameterError(f"top_r must be at least 1, got {top_r}")
    _, _, sims, edges = _embed_and_connect(b, record)
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
