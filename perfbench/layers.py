"""Which public functions the traced run wraps, and the per-layer metrics
computed from their spans.

Each per-layer metric names the workloads on which its layer runs; there it
must be positive. On the other workloads it reads 0, because the layer does
no work there. README.md maps each metric to the end-to-end metric it
should move.
"""

from __future__ import annotations

import numpy as np

from seqrel import compress as C
from seqrel import data as D
from seqrel import encoder as E
from seqrel import gnn as G
from seqrel import graph as GR
from seqrel import infer as I
from seqrel import ioutil as IO
from seqrel import pipeline as P
from seqrel import tensor as T

from spans import Summary

FS, FE, MS = "fraud_seq", "fraud_emb100k", "mobility_seq"
SEQ = (FS, MS)
ALL = (FS, FE, MS)
NONE = ()

BUILD, REBUILD = "bench.build", "bench.rebuild"
SETUP, SERVE = "bench.setup", "bench.serve"
STAGES = {"encoder.train_encoder": "encoder", "gnn.train_on_compressed": "gnn_train",
          "gnn.finetune_correlation": "finetune"}


# ---------------------------------------------------------------------------
# counts taken at call boundaries: (args, result) -> dict


def _epochs(args, out):
    return {"epochs": len(out[1]["train_loss"])}


def _rows(args, out):
    return {"rows": out.shape[0]}


def _pools(args, out):
    members, info = out
    sizes = [m.size for m in members]
    return {"iters": {pool: len(trace) for pool, trace in info["sse"].items()},
            "size_min": min(sizes), "size_max": max(sizes)}


def _adjacency(args, out):
    k = np.asarray(args[0]).shape[0]
    return {"edges": out.shape[0], "isolated": k - np.unique(out).size}


def _gnn_epochs(args, out):
    return {"epochs": len(out["loss"])}


def _view(args, out):
    return {"nodes": out.num_nodes}


def _connect(args, out):
    sims, epsilon = args[0], args[1]
    return {"rows": sims.shape[0], "edges": out.shape[0],
            "fallback": int((~(sims > epsilon).any(axis=1)).sum())}


def targets():
    """(owner, attribute, span name, counter) for every traced function."""
    t = []
    for stage in ("run_train_encoder", "run_embed", "run_compress",
                  "run_train_gnn", "run_finetune"):
        t.append((P, stage, f"pipeline.{stage}", None))
    t += [
        (D, "read_sequences", "data.read_sequences", None),
        (D, "save_embeddings", "data.save_embeddings", None),
        (D, "load_embeddings", "data.load_embeddings", None),
        (IO, "read_json", "ioutil.read_json", None),
        (IO, "write_json_atomic", "ioutil.write_json_atomic", None),
        (E, "train_encoder", "encoder.train_encoder", _epochs),
        (E, "embed_all", "encoder.embed_all", _rows),
        (E, "encode_sequence", "encoder.encode_sequence", None),
        (T.Tape, "backward", "tensor.Tape.backward", None),
        (C, "balanced_kmeans", "compress.balanced_kmeans", _pools),
        (C, "build_assignment", "compress.build_assignment", None),
        (C, "compress_features_labels", "compress.compress_features_labels", None),
        (C, "compress_adjacency", "compress.compress_adjacency", _adjacency),
        (G, "train_on_compressed", "gnn.train_on_compressed", _gnn_epochs),
        (G, "finetune_correlation", "gnn.finetune_correlation", None),
        (G, "attach_view", "gnn.attach_view", _view),
        (G, "gnn_forward", "gnn.gnn_forward", None),
        (G, "predict_tensor", "gnn.predict_tensor", None),
        (GR, "connect_from_sims", "graph.connect_from_sims", _connect),
        (I, "build_bundle", "infer.build_bundle", None),
        (I, "save_bundle", "infer.save_bundle", None),
        (I, "load_bundle", "infer.load_bundle", None),
        (I, "score", "infer.score", None),
        (I, "score_batch", "infer.score_batch", None),
        (I, "explain", "infer.explain", None),
    ]
    return t


# ---------------------------------------------------------------------------
# per-layer metrics: name -> (unit, workloads where the layer runs)

PER_LAYER = {
    "pipeline.train_encoder_s": ("s", SEQ),
    "pipeline.embed_s": ("s", SEQ),
    "pipeline.compress_s": ("s", SEQ),
    "pipeline.train_gnn_s": ("s", SEQ),
    "pipeline.finetune_s": ("s", SEQ),
    "data.read_sequences_s": ("s", SEQ),
    "data.embeddings_io_s": ("s", SEQ),
    "ioutil.read_json_s": ("s", SEQ),
    "ioutil.write_json_s": ("s", ALL),
    "infer.load_bundle_s": ("s", ALL),
    "infer.load_read_json_s": ("s", ALL),
    "encoder.train_s": ("s", SEQ),
    "encoder.epochs_run": ("count", SEQ),
    "encoder.epoch_s": ("s", SEQ),
    "encoder.embed_us_per_seq": ("us", SEQ),
    "encoder.encode_us": ("us", SEQ),
    "tensor.backward_s": ("s", ALL),
    "tensor.backward_s.encoder": ("s", SEQ),
    "tensor.backward_s.gnn_train": ("s", ALL),
    "tensor.backward_s.finetune": ("s", ALL),
    "compress.kmeans_s": ("s", ALL),
    "compress.lloyd_iters": ("count", ALL),
    "compress.lloyd_iters.class0": ("count", (FS, FE)),
    "compress.lloyd_iters.class1": ("count", (FS, FE)),
    "compress.lloyd_iters.single": ("count", (MS,)),
    "compress.assign_s": ("s", ALL),
    "compress.transport_s": ("s", ALL),
    "compress.adjacency_s": ("s", ALL),
    "compress.edges": ("count", ALL),
    "compress.cluster_size_min": ("count", ALL),
    "compress.cluster_size_max": ("count", ALL),
    "compress.isolated_prototypes": ("count", NONE),
    "gnn.train_s": ("s", ALL),
    "gnn.train_epochs": ("count", ALL),
    "gnn.finetune_s": ("s", ALL),
    "gnn.finetune_batches": ("count", ALL),
    "gnn.attach_us": ("us", ALL),
    "gnn.conv_us": ("us", ALL),
    "gnn.head_us": ("us", ALL),
    "gnn.view_nodes": ("count", ALL),
    "infer.score_self_us": ("us", ALL),
    "graph.connect_us": ("us", ALL),
    "graph.edges_per_query_mean": ("count", ALL),
    "graph.edges_per_query_p99": ("count", ALL),
    "graph.fallback_queries": ("count", ALL),
    "graph.fallback_share": ("share", ALL),
}


def _p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def summarise(sm: Summary) -> dict:
    """Every per-layer metric, as a plain number, from one traced run."""
    total, select = sm.total, sm.select
    m = {}
    for stage in ("train_encoder", "embed", "compress", "train_gnn", "finetune"):
        m[f"pipeline.{stage}_s"] = total(f"pipeline.run_{stage}", BUILD)
    m["data.read_sequences_s"] = total("data.read_sequences", BUILD)
    m["data.embeddings_io_s"] = (total("data.save_embeddings", BUILD)
                                 + total("data.load_embeddings", BUILD))
    m["ioutil.read_json_s"] = total("ioutil.read_json", BUILD)
    m["ioutil.write_json_s"] = total("ioutil.write_json_atomic", BUILD)
    m["infer.load_bundle_s"] = _p50(sm.seconds(select("infer.load_bundle", SETUP)))
    m["infer.load_read_json_s"] = _p50(sm.seconds(
        select("ioutil.read_json", SETUP, parent="infer.load_bundle")))

    train = select("encoder.train_encoder", BUILD)
    m["encoder.train_s"] = sum(sm.seconds(train))
    m["encoder.epochs_run"] = sum(sm.spans[i].counts["epochs"] for i in train)
    m["encoder.epoch_s"] = (m["encoder.train_s"] / m["encoder.epochs_run"]
                            if m["encoder.epochs_run"] else 0.0)
    embed = select("encoder.embed_all", BUILD)
    rows = sum(sm.spans[i].counts["rows"] for i in embed)
    m["encoder.embed_us_per_seq"] = sum(sm.seconds(embed)) / rows * 1e6 if rows else 0.0
    m["encoder.encode_us"] = _p50(sm.seconds(
        select("encoder.encode_sequence", SERVE, parent="infer.score"))) * 1e6

    backward = {stage: 0.0 for stage in STAGES.values()}
    finetune_batches = 0
    for i in select("tensor.Tape.backward", BUILD):
        stage = STAGES.get(sm.ancestor(i, STAGES))
        if stage is not None:
            backward[stage] += sm.spans[i].seconds
            finetune_batches += stage == "finetune"
    m["tensor.backward_s"] = total("tensor.Tape.backward", BUILD)
    for stage, seconds in backward.items():
        m[f"tensor.backward_s.{stage}"] = seconds

    pools = [sm.spans[i].counts for i in select("compress.balanced_kmeans", BUILD)]
    iters = {}
    for p in pools:
        for pool, n in p["iters"].items():
            iters[pool] = iters.get(pool, 0) + n
    m["compress.kmeans_s"] = total("compress.balanced_kmeans", BUILD)
    m["compress.lloyd_iters"] = sum(iters.values())
    m["compress.lloyd_iters.class0"] = iters.get("0", 0)
    m["compress.lloyd_iters.class1"] = iters.get("1", 0)
    m["compress.lloyd_iters.single"] = iters.get("all", 0)
    m["compress.assign_s"] = total("compress.build_assignment", BUILD)
    m["compress.transport_s"] = total("compress.compress_features_labels", BUILD)
    adjacency = select("compress.compress_adjacency", BUILD)
    m["compress.adjacency_s"] = sum(sm.seconds(adjacency))
    m["compress.edges"] = sum(sm.spans[i].counts["edges"] for i in adjacency)
    m["compress.cluster_size_min"] = min((p["size_min"] for p in pools), default=0)
    m["compress.cluster_size_max"] = max((p["size_max"] for p in pools), default=0)
    m["compress.isolated_prototypes"] = sum(
        sm.spans[i].counts["isolated"] for i in adjacency)

    gnn_train = select("gnn.train_on_compressed", BUILD)
    m["gnn.train_s"] = sum(sm.seconds(gnn_train))
    m["gnn.train_epochs"] = sum(sm.spans[i].counts["epochs"] for i in gnn_train)
    m["gnn.finetune_s"] = total("gnn.finetune_correlation", BUILD)
    m["gnn.finetune_batches"] = finetune_batches

    def per_query(name):
        return select(name, SERVE, parent="infer.score")

    m["gnn.attach_us"] = _p50(sm.seconds(per_query("gnn.attach_view"))) * 1e6
    m["gnn.conv_us"] = _p50(sm.seconds(per_query("gnn.gnn_forward"))) * 1e6
    m["gnn.head_us"] = _p50(sm.seconds(per_query("gnn.predict_tensor"))) * 1e6
    m["gnn.view_nodes"] = _p50([sm.spans[i].counts["nodes"]
                                for i in per_query("gnn.attach_view")])
    m["infer.score_self_us"] = _p50(sm.self_seconds(select("infer.score", SERVE))) * 1e6
    connect = per_query("graph.connect_from_sims")
    m["graph.connect_us"] = _p50(sm.seconds(connect)) * 1e6
    edges = [sm.spans[i].counts["edges"] for i in connect]
    m["graph.edges_per_query_mean"] = float(np.mean(edges)) if edges else 0.0
    m["graph.edges_per_query_p99"] = float(np.percentile(edges, 99)) if edges else 0.0
    fallback = sum(sm.spans[i].counts["fallback"] for i in connect)
    queries = sum(sm.spans[i].counts["rows"] for i in connect)
    m["graph.fallback_queries"] = fallback
    m["graph.fallback_share"] = fallback / queries if queries else 0.0
    return m
