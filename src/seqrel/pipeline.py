"""End-to-end pipeline stages over file artifacts.

Each stage reads its declared inputs, writes exactly its declared outputs
(atomically), and records a JSON run manifest with the full config, seed,
input hashes, and wall-clock timings. Stages draw from independent
seed-derived RNG streams, so running the steps separately or via run_all
produces byte-identical artifacts. Manifests contain timings and are the
one output exempt from byte-equality.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from . import compress as C
from . import data as D
from . import encoder as E
from . import gnn as G
from . import infer as I
from .config import PipelineConfig
from .exceptions import ArtifactError, TaskMismatchError
from .ioutil import sha256_file, write_json_atomic
from .metrics import ScoredSet, auprc, recall_at_precision, rmse, smape

MANIFEST_VERSION = 1
STAGE_TAGS = {"encoder": 1, "compress": 2, "gnn": 3, "finetune": 4}

ENCODER_FILE = "encoder.json"
EMBEDDINGS_FILE = "train_embeddings.csv"
COMPRESSED_FILE = "compressed.json"
GNN_FILE = "gnn.json"
FINETUNED_FILE = "gnn_finetuned.json"
BUNDLE_FILE = "bundle.json"
EVAL_FILE = "eval_report.json"

PRODUCERS = {
    ENCODER_FILE: "train-encoder",
    EMBEDDINGS_FILE: "embed",
    COMPRESSED_FILE: "compress",
    GNN_FILE: "train-gnn",
    FINETUNED_FILE: "finetune",
    BUNDLE_FILE: "finetune",
}


def stage_rng(seed: int, stage: str) -> np.random.Generator:
    return np.random.default_rng([seed, STAGE_TAGS[stage]])


def require_file(path, producer: "str | None" = None) -> Path:
    p = Path(path)
    if not p.exists():
        producer = producer or PRODUCERS.get(p.name)
        hint = f"; produce it with the `{producer}` command" if producer else ""
        raise ArtifactError(f"missing input artifact {p}{hint}")
    return p


def write_manifest(out_dir, command: str, cfg, timings: dict,
                   inputs, outputs) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    flat = cfg if isinstance(cfg, dict) else cfg.to_flat_dict()
    manifest = {
        "format_version": MANIFEST_VERSION,
        "command": command,
        "config": flat,
        "seed": flat.get("seed", 0),
        "timings": timings,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": sorted(str(p) for p in outputs),
    }
    path = out_dir / f"manifest_{command.replace('-', '_')}.json"
    write_json_atomic(path, manifest)
    return path


def _load_labels(path, task: str):
    ids, x, labels = D.load_embeddings(path)
    kind = np.int64 if task == D.CLASSIFICATION else np.float64
    return ids, x, np.asarray(labels, dtype=kind)


# ---------------------------------------------------------------------------
# stages


def run_train_encoder(cfg: PipelineConfig, train_path, val_path, out_dir) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train = D.read_sequences(require_file(train_path))
    val = D.read_sequences(require_file(val_path))
    start = time.perf_counter()
    model, history = E.train_encoder(
        train, val, hidden_dim=cfg.embed_dim, rng=stage_rng(cfg.seed, "encoder"),
        lr=cfg.encoder_lr, batch_size=cfg.batch_size,
        max_epochs=cfg.encoder_epochs, patience=cfg.patience)
    elapsed = time.perf_counter() - start
    if model.task != cfg.task:
        raise TaskMismatchError(
            f"config task {cfg.task!r} but data looks like {model.task!r}")
    out = out_dir / ENCODER_FILE
    E.save_encoder(out, model)
    write_manifest(out_dir, "train-encoder", cfg, {"train_s": elapsed},
                   [train_path, val_path], [out])
    return {"history": history, "encoder_path": out}


def run_embed(cfg: PipelineConfig, encoder_path, data_path, out_dir,
              out_name: str = EMBEDDINGS_FILE) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = E.load_encoder(require_file(encoder_path, "train-encoder"))
    ds = D.read_sequences(require_file(data_path))
    start = time.perf_counter()
    x = E.embed_all(model, ds)
    elapsed = time.perf_counter() - start
    out = out_dir / out_name
    D.save_embeddings(out, ds.ids, x, [r.label for r in ds.records])
    write_manifest(out_dir, "embed", cfg, {"embed_s": elapsed},
                   [encoder_path, data_path], [out])
    return {"embeddings_path": out, "count": len(ds.records)}


def run_compress(cfg: PipelineConfig, embeddings_path, out_dir) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ids, x, labels = _load_labels(require_file(embeddings_path, "embed"), cfg.task)
    start = time.perf_counter()
    cg, info = C.compress_graph(
        x, labels, ids, k=cfg.clusters, mode=cfg.mode, task=cfg.task,
        metric=cfg.metric, epsilon=cfg.epsilon, pos_ratio=cfg.pos_ratio,
        rng=stage_rng(cfg.seed, "compress"), per_class=cfg.per_class)
    elapsed = time.perf_counter() - start
    out = out_dir / COMPRESSED_FILE
    C.save_compressed(out, cg)
    write_manifest(out_dir, "compress", cfg, {"compress_s": elapsed},
                   [embeddings_path], [out])
    return {"compressed_path": out, "k": cg.k, "info": info,
            "compress_s": elapsed}


def run_train_gnn(cfg: PipelineConfig, compressed_path, out_dir,
                  val_embeddings_path=None) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cg = C.load_compressed(require_file(compressed_path, "compress"))
    if cg.task != cfg.task:
        raise TaskMismatchError(
            f"config task {cfg.task!r} but compressed graph is {cg.task!r}")
    val = None
    inputs = [compressed_path]
    if val_embeddings_path is not None:
        _, x_val, y_val = _load_labels(
            require_file(val_embeddings_path, "embed"), cfg.task)
        val = (x_val, y_val)
        inputs.append(val_embeddings_path)
    out_classes = cg.labels.shape[1] if cfg.task == D.CLASSIFICATION else 1
    model = G.init_gnn(cfg.conv, cfg.task, cg.dim, cfg.gnn_hidden, out_classes,
                       stage_rng(cfg.seed, "gnn"))
    start = time.perf_counter()
    history = G.train_on_compressed(model, cg, lr=cfg.gnn_lr,
                                    epochs=cfg.gnn_epochs, val=val,
                                    patience=cfg.patience,
                                    fallback_m=cfg.fallback_m)
    elapsed = time.perf_counter() - start
    out = out_dir / GNN_FILE
    G.save_gnn(out, model)
    write_manifest(out_dir, "train-gnn", cfg, {"train_s": elapsed},
                   inputs, [out])
    return {"gnn_path": out, "history": history, "train_s": elapsed}


def run_finetune(cfg: PipelineConfig, compressed_path, gnn_path,
                 embeddings_path, out_dir, encoder_path=None) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cg = C.load_compressed(require_file(compressed_path, "compress"))
    model = G.load_gnn(require_file(gnn_path, "train-gnn"))
    _, x, y = _load_labels(require_file(embeddings_path, "embed"), cfg.task)
    encoder = None
    inputs = [compressed_path, gnn_path, embeddings_path]
    if encoder_path is not None:
        encoder = E.load_encoder(require_file(encoder_path, "train-encoder"))
        inputs.append(encoder_path)
    start = time.perf_counter()
    history = G.finetune_correlation(
        model, x, y, cg, metric=cfg.metric, epsilon=cfg.epsilon,
        fallback_m=cfg.fallback_m, batch_size=cfg.batch_size,
        epochs=cfg.finetune_epochs, lr=cfg.finetune_lr,
        rng=stage_rng(cfg.seed, "finetune"))
    elapsed = time.perf_counter() - start
    out_model = out_dir / FINETUNED_FILE
    G.save_gnn(out_model, model)
    bundle = I.build_bundle(encoder, model, cg, metric=cfg.metric,
                            epsilon=cfg.epsilon, fallback_m=cfg.fallback_m)
    out_bundle = out_dir / BUNDLE_FILE
    I.save_bundle(out_bundle, bundle)
    write_manifest(out_dir, "finetune", cfg, {"finetune_s": elapsed},
                   inputs, [out_model, out_bundle])
    return {"finetuned_path": out_model, "bundle_path": out_bundle,
            "history": history}


def evaluate_scores(task: str, scores, labels) -> dict:
    s = ScoredSet(scores, labels)
    if task == D.CLASSIFICATION:
        return {"auprc": auprc(s), "recall_at_precision": recall_at_precision(s)}
    return {"rmse": rmse(s), "smape": smape(s)}


def run_eval(cfg: PipelineConfig, bundle_path, test_path, out_dir,
             embeddings: bool = False) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle = I.load_bundle(require_file(bundle_path, "finetune"))
    if embeddings:
        _, x, labels = _load_labels(require_file(test_path), cfg.task)
        records = list(x)
    else:
        ds = D.read_sequences(require_file(test_path))
        labels = ds.labels_array()
        if cfg.task == D.CLASSIFICATION:
            labels = labels.astype(np.int64)
        records = ds.records
    results, agg = I.score_batch(bundle, records)
    metrics = evaluate_scores(cfg.task, [r.score for r in results], labels)
    report = {
        "format_version": 1,
        "task": cfg.task,
        "count": len(results),
        "metrics": metrics,
        "config": cfg.to_flat_dict(),
        "seed": cfg.seed,
    }
    out = out_dir / EVAL_FILE
    write_json_atomic(out, report)
    write_manifest(out_dir, "eval", cfg, {"latency": agg},
                   [bundle_path, test_path], [out])
    return {"report": report, "latency": agg, "report_path": out}


def run_all(cfg: PipelineConfig, train_path, val_path, test_path,
            out_dir) -> dict:
    """Full pipeline: encoder, embeddings, compression, relation model,
    fine-tuning, bundle, evaluation. Shares the per-step code paths so the
    artifacts match a step-by-step run byte for byte."""
    out_dir = Path(out_dir)
    started = time.perf_counter()
    enc = run_train_encoder(cfg, train_path, val_path, out_dir)
    emb = run_embed(cfg, enc["encoder_path"], train_path, out_dir)
    comp = run_compress(cfg, emb["embeddings_path"], out_dir)
    gnn = run_train_gnn(cfg, comp["compressed_path"], out_dir)
    fine = run_finetune(cfg, comp["compressed_path"], gnn["gnn_path"],
                        emb["embeddings_path"], out_dir,
                        encoder_path=enc["encoder_path"])
    ev = run_eval(cfg, fine["bundle_path"], test_path, out_dir)
    write_manifest(out_dir, "run-all", cfg,
                   {"total_s": time.perf_counter() - started},
                   [train_path, val_path, test_path],
                   [out_dir / name for name in
                    (ENCODER_FILE, EMBEDDINGS_FILE, COMPRESSED_FILE, GNN_FILE,
                     FINETUNED_FILE, BUNDLE_FILE, EVAL_FILE)])
    return {"eval": ev["report"], "latency": ev["latency"],
            "bundle_path": fine["bundle_path"]}
