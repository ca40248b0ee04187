"""The benchmark's workloads: inputs made from a seed, the build through
seqrel's public functions, and the serving queries.

Why each workload exists is written down in README.md next to this file.
Every workload serves queries drawn from the corpus's own mixture plus a
fixed out-of-distribution share, so that both connection branches run:
threshold edges for the first, the top-m fallback for the second.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from seqrel import compress as C
from seqrel import config as CFG
from seqrel import data as D
from seqrel import gnn as G
from seqrel import infer as I
from seqrel import pipeline as P
from seqrel import synth as S

NAMES = ("fraud_seq", "fraud_emb100k", "mobility_seq")
OOD_SHARE = 0.1
SEQ_QUERIES = 500  # in-distribution queries of a seq workload: test records
# the out-of-distribution draws use their own generator seed, offset from
# the workload seed so the two never coincide
OOD_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str  # "seq": gen-synth corpus through pipeline.run_*; "emb": blob mixture
    profile: str
    overrides: tuple  # (key, value) pairs over the profile
    n: int  # sequences (seq) or embedding rows (emb)
    dim: int = 0  # embedding width (emb)
    components: int = 20  # mixture components (emb)
    queries: int = 0  # in-distribution queries (emb)
    max_iters: int = 25  # Lloyd iteration cap (emb)
    builds: int = 1  # build_s is the median of this many builds; serving
    # runs in one slice after each


FULL = {
    "fraud_seq": Spec("fraud_seq", "seq", "fraud", (("encoder_epochs", 1),), n=6000),
    "fraud_emb100k": Spec("fraud_emb100k", "emb", "fraud", (), n=100_000, dim=256,
                          queries=2000),
    # a 5 s build moves by a quarter from one build to the next on a shared
    # host; the median of three moves less
    "mobility_seq": Spec("mobility_seq", "seq", "mobility", (("encoder_epochs", 2),),
                         n=6000, builds=3),
}

# shrunk copies that finish in seconds; same layers, same branches
SMOKE = {
    "fraud_seq": replace(FULL["fraud_seq"], n=240, overrides=(
        ("encoder_epochs", 1), ("embed_dim", 16), ("clusters", 20),
        ("gnn_epochs", 5))),
    "fraud_emb100k": replace(FULL["fraud_emb100k"], n=3000, dim=32, queries=200,
                             overrides=(("clusters", 40), ("gnn_epochs", 5))),
    "mobility_seq": replace(FULL["mobility_seq"], n=240, overrides=(
        ("encoder_epochs", 1), ("embed_dim", 16), ("clusters", 10),
        ("gnn_epochs", 5))),
}

SIZES = {"full": FULL, "smoke": SMOKE}


@dataclass
class Inputs:
    task: str
    cfg: CFG.PipelineConfig
    queries: list  # Records (seq) or embedding rows (emb)
    in_dist: np.ndarray  # bool per query: drawn from the corpus's mixture
    labels: np.ndarray  # labels of the in-distribution queries
    train_ids: set  # ids a medoid may resolve to
    files: dict  # corpus files (seq)
    x: "np.ndarray | None" = None  # training rows (emb)
    y: "np.ndarray | None" = None
    ids: "list | None" = None


def workload_config(spec: Spec, seed: int) -> CFG.PipelineConfig:
    return CFG.apply_overrides(CFG.profile_config(spec.profile),
                               {**dict(spec.overrides), "seed": seed})


def prepare(spec: Spec, seed: int, work: Path) -> Inputs:
    cfg = workload_config(spec, seed)
    if spec.kind == "seq":
        return _prepare_seq(spec, cfg, seed, work)
    return _prepare_emb(spec, cfg, seed)


def build(spec: Spec, inputs: Inputs, out: Path) -> Path:
    """Inputs to a bundle saved under `out`; returns the bundle path."""
    if spec.kind == "seq":
        return _build_seq(inputs, out)
    return _build_emb(spec, inputs, out)


# ---------------------------------------------------------------------------
# gen-synth corpora through the pipeline stages


def _prepare_seq(spec: Spec, cfg, seed: int, work: Path) -> Inputs:
    gen = S.GeneratorConfig(n_sequences=spec.n, num_events=8, n_numeric=3,
                            n_categorical=2, task=cfg.task, seed=seed)
    corpus = S.generate(gen)
    files = S.write_synth(corpus, work / "corpus")
    test = corpus.splits["test"].records[:SEQ_QUERIES]
    # out of distribution: fresh archetypes whose every field lies outside
    # the training schema (numbers below the fitted minimum, categories never
    # seen); only the fallback rule connects them under both profiles
    other = S.generate(replace(gen, seed=seed + OOD_SEED_OFFSET))
    n_ood = max(1, round(OOD_SHARE * len(test) / (1.0 - OOD_SHARE)))
    ood = [D.Record(id=f"ood{i:06d}", events=[
               {k: f"unseen-{v}" if isinstance(v, str) else v - 2.0
                for k, v in e.items()} for e in r.events], label=r.label)
           for i, r in enumerate(other.splits["test"].records[:n_ood])]
    labels = np.array([r.label for r in test], dtype=np.float64)
    return Inputs(task=cfg.task, cfg=cfg, queries=test + ood,
                  in_dist=np.arange(len(test) + len(ood)) < len(test),
                  labels=labels, train_ids=set(corpus.splits["train"].ids),
                  files=files)


def _build_seq(inputs: Inputs, out: Path) -> Path:
    cfg, files = inputs.cfg, inputs.files
    enc = P.run_train_encoder(cfg, files["train"], files["val"], out)
    emb = P.run_embed(cfg, enc["encoder_path"], files["train"], out)
    comp = P.run_compress(cfg, emb["embeddings_path"], out)
    gnn = P.run_train_gnn(cfg, comp["compressed_path"], out)
    fine = P.run_finetune(cfg, comp["compressed_path"], gnn["gnn_path"],
                          emb["embeddings_path"], out,
                          encoder_path=enc["encoder_path"])
    return fine["bundle_path"]


# ---------------------------------------------------------------------------
# blob mixture of precomputed embeddings (the acceptance criterion 5 shape)


def _mixture(rng, centers, n, noise=0.3):
    comp = rng.integers(0, centers.shape[0], size=n)
    return centers[comp] + noise * rng.normal(size=(n, centers.shape[1])), comp


def _prepare_emb(spec: Spec, cfg, seed: int) -> Inputs:
    rng = np.random.default_rng([seed, 0])
    centers = rng.normal(size=(spec.components, spec.dim))
    # a quarter of the components carry most positives
    propensity = np.where(np.arange(spec.components) < spec.components // 4,
                          0.34, 0.02)
    x, comp = _mixture(rng, centers, spec.n)
    y = (rng.random(spec.n) < propensity[comp]).astype(np.int64)
    q_in, q_comp = _mixture(rng, centers, spec.queries)
    q_labels = (rng.random(spec.queries) < propensity[q_comp]).astype(np.float64)
    n_ood = round(OOD_SHARE * spec.queries / (1.0 - OOD_SHARE))
    ood_rng = np.random.default_rng([seed + OOD_SEED_OFFSET, 0])
    q_ood, _ = _mixture(ood_rng, ood_rng.normal(size=centers.shape), n_ood)
    queries = list(np.concatenate([q_in, q_ood]))
    ids = [f"e{i:06d}" for i in range(spec.n)]
    return Inputs(task=cfg.task, cfg=cfg, queries=queries,
                  in_dist=np.arange(len(queries)) < spec.queries,
                  labels=q_labels, train_ids=set(ids), files={}, x=x, y=y,
                  ids=ids)


def _build_emb(spec: Spec, inputs: Inputs, out: Path) -> Path:
    cfg = inputs.cfg
    cg, _ = C.compress_graph(
        inputs.x, inputs.y, inputs.ids, k=cfg.clusters, mode=cfg.mode,
        task=cfg.task, metric=cfg.metric, epsilon=cfg.epsilon,
        pos_ratio=cfg.pos_ratio, rng=P.stage_rng(cfg.seed, "compress"),
        max_iters=spec.max_iters, per_class=cfg.per_class)
    model = G.init_gnn(cfg.conv, cfg.task, cg.dim, cfg.gnn_hidden,
                       cg.labels.shape[1], P.stage_rng(cfg.seed, "gnn"))
    G.train_on_compressed(model, cg, lr=cfg.gnn_lr, epochs=cfg.gnn_epochs,
                          patience=cfg.patience, fallback_m=cfg.fallback_m)
    G.finetune_correlation(
        model, inputs.x, inputs.y, cg, metric=cfg.metric, epsilon=cfg.epsilon,
        fallback_m=cfg.fallback_m, batch_size=cfg.batch_size,
        epochs=cfg.finetune_epochs, lr=cfg.finetune_lr,
        rng=P.stage_rng(cfg.seed, "finetune"))
    bundle = I.build_bundle(None, model, cg, metric=cfg.metric,
                            epsilon=cfg.epsilon, fallback_m=cfg.fallback_m)
    path = out / "bundle.json"
    I.save_bundle(path, bundle)
    return path
