"""Synthetic labeled sequence corpora with planted group structure.

Sequences are sampled from a small set of archetypes. Each archetype fixes
per-field event distributions and a label propensity (classification) or a
demand level (regression), so records of the same archetype carry mutually
informative labels. That shared structure is exactly what the relation graph
is meant to exploit, and a built-in probe verifies it is learnable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import data as D
from .exceptions import ConfigError
from .ioutil import write_json_atomic
from .metrics import ScoredSet, auprc, rmse

RISKY_FRACTION = 0.25
MAX_PROPENSITY = 0.9
SPLIT_NAMES = ("train", "val", "test")


@dataclass
class GeneratorConfig:
    n_sequences: int = 5000
    num_events: int = 8
    n_numeric: int = 3
    n_categorical: int = 2
    vocab_size: int = 6
    n_archetypes: int = 10
    pos_rate: float = 0.10
    noise_scale: float = 0.3
    task: str = D.CLASSIFICATION
    seed: int = 0

    def validate(self) -> None:
        if self.task not in (D.CLASSIFICATION, D.REGRESSION):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.n_sequences < 6:
            raise ConfigError("n_sequences must be at least 6 for 4:1:1 splits")
        if self.num_events < 1:
            raise ConfigError("num_events must be positive")
        if self.n_numeric < 0 or self.n_categorical < 0 \
                or self.n_numeric + self.n_categorical == 0:
            raise ConfigError("need at least one event field")
        if self.n_categorical > 0 and self.vocab_size < 2:
            raise ConfigError("vocab_size must be at least 2")
        if self.n_archetypes < 2:
            raise ConfigError("n_archetypes must be at least 2")
        if not 0.0 < self.pos_rate < 1.0:
            raise ConfigError("pos_rate must lie strictly between 0 and 1")
        if self.noise_scale < 0.0:
            raise ConfigError("noise_scale must be nonnegative")


@dataclass
class SynthResult:
    config: GeneratorConfig
    splits: dict
    archetype_of: dict
    archetype_info: dict

    @property
    def full_ids(self) -> list:
        out = []
        for name in SPLIT_NAMES:
            out.extend(self.splits[name].ids)
        return out


def _propensities(cfg: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """High/low label propensities per archetype whose mixture mean is the
    requested positive rate."""
    a = cfg.n_archetypes
    n_risky = min(a - 1, max(1, round(RISKY_FRACTION * a)))
    rho = n_risky / a
    p_hi = min(MAX_PROPENSITY, cfg.pos_rate / rho)
    p_lo = (cfg.pos_rate - rho * p_hi) / (1.0 - rho)
    if not 0.0 <= p_lo < 1.0:
        raise ConfigError(
            f"pos_rate {cfg.pos_rate} unreachable with {a} archetypes")
    risky = rng.choice(a, size=n_risky, replace=False)
    props = np.full(a, p_lo)
    props[risky] = p_hi
    return props


def generate(cfg: GeneratorConfig) -> SynthResult:
    """Sample a dataset per the config and split it 4:1:1 by generation order."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n, t_len = cfg.n_sequences, cfg.num_events
    n_num, n_cat, vocab_n = cfg.n_numeric, cfg.n_categorical, cfg.vocab_size
    arch_n = cfg.n_archetypes

    means = rng.uniform(0.15, 0.85, size=(arch_n, n_num))
    drift = rng.uniform(-0.3, 0.3, size=(arch_n, n_num))
    base_tok = rng.integers(0, max(1, vocab_n),
                            size=(arch_n, max(1, n_cat)))[:, :n_cat]
    if cfg.task == D.CLASSIFICATION:
        props = _propensities(cfg, rng)
        info = {"propensity": [float(p) for p in props]}
    else:
        levels = rng.uniform(1.0, 10.0, size=arch_n)
        info = {"level": [float(v) for v in levels]}

    arch_of = rng.integers(0, arch_n, size=n)
    steps = np.linspace(0.0, 1.0, t_len) if t_len > 1 else np.zeros(1)
    values = means[arch_of][:, None, :] + drift[arch_of][:, None, :] * steps[None, :, None]
    values = np.clip(values + cfg.noise_scale * rng.normal(size=(n, t_len, n_num)),
                     0.0, 1.0)
    flip_p = min(0.95, cfg.noise_scale)
    flips = rng.random(size=(n, t_len, n_cat)) < flip_p
    rand_tok = rng.integers(0, max(1, vocab_n),
                            size=(n, t_len, max(1, n_cat)))[:, :, :n_cat]
    pattern = (base_tok[arch_of][:, None, :]
               + np.arange(t_len)[None, :, None]) % max(1, vocab_n)
    tokens = np.where(flips, rand_tok, pattern)

    if cfg.task == D.CLASSIFICATION:
        labels = (rng.random(n) < props[arch_of]).astype(np.int64)
    else:
        labels = np.maximum(0.05, levels[arch_of] + cfg.noise_scale * rng.normal(size=n))

    num_names = [f"num{j}" for j in range(n_num)]
    cat_names = [f"cat{j}" for j in range(n_cat)]
    vocab = [f"v{j}" for j in range(vocab_n)]
    values_l = values.tolist()
    tokens_l = tokens.tolist()
    records = []
    for i in range(n):
        events = []
        for step in range(t_len):
            ev = dict(zip(num_names, values_l[i][step]))
            for j, name in enumerate(cat_names):
                ev[name] = vocab[tokens_l[i][step][j]]
            events.append(ev)
        label = int(labels[i]) if cfg.task == D.CLASSIFICATION else float(labels[i])
        records.append(D.Record(id=f"s{i:06d}", events=events, label=label))

    splits = dict(zip(SPLIT_NAMES, D.split_dataset(D.SequenceDataset(records))))
    archetype_of = {r.id: int(arch_of[i]) for i, r in enumerate(records)}
    return SynthResult(config=cfg, splits=splits, archetype_of=archetype_of,
                       archetype_info=info)


def realized_positive_rate(result: SynthResult) -> float:
    labels = np.concatenate([result.splits[s].labels_array() for s in SPLIT_NAMES])
    return float(labels.mean())


def write_synth(result: SynthResult, out_dir) -> dict:
    """Write train/val/test JSONL plus the ground-truth sidecar.

    The sidecar (archetype assignments and per-archetype parameters) exists
    for diagnostics only; the pipeline never reads it.
    """
    from pathlib import Path

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in SPLIT_NAMES:
        paths[name] = out_dir / f"{name}.jsonl"
        D.write_sequences(paths[name], result.splits[name])
    sidecar = {
        "format_version": 1,
        "task": result.config.task,
        "config": asdict(result.config),
        "archetype_of": result.archetype_of,
        "archetype_info": result.archetype_info,
    }
    if result.config.task == D.CLASSIFICATION:
        sidecar["realized_positive_rate"] = realized_positive_rate(result)
    paths["sidecar"] = out_dir / "archetypes.json"
    write_json_atomic(paths["sidecar"], sidecar)
    return paths


def write_demand_csv(path, *, n_rows: int = 3000, hours: int = 24,
                     n_archetypes: int = 8, noise_scale: float = 0.3,
                     seed: int = 0) -> dict:
    """Hourly demand CSV (id, h0..h{T-1}, target), one row per series.

    Rows are sampled from archetypal daily profiles (level, amplitude,
    phase); the target is the next hour of the same profile, so rows of one
    archetype predict each other. Returns the archetype assignment for
    diagnostics.
    """
    if n_rows < 6:
        raise ConfigError("n_rows must be at least 6 for 4:1:1 splits")
    if hours < 2:
        raise ConfigError("hours must be at least 2")
    if n_archetypes < 2:
        raise ConfigError("n_archetypes must be at least 2")
    if noise_scale < 0.0:
        raise ConfigError("noise_scale must be nonnegative")
    rng = np.random.default_rng(seed)
    level = rng.uniform(2.0, 10.0, size=n_archetypes)
    amp = rng.uniform(0.5, 3.0, size=n_archetypes)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=n_archetypes)
    arch = rng.integers(0, n_archetypes, size=n_rows)
    t = np.arange(hours + 1)
    wave = np.sin(2.0 * np.pi * t[None, :] / hours + phase[arch][:, None])
    series = level[arch][:, None] + amp[arch][:, None] * wave
    series = np.maximum(
        0.0, series + noise_scale * rng.normal(size=(n_rows, hours + 1)))
    header = "id," + ",".join(f"h{i}" for i in range(hours)) + ",target"
    lines = [header]
    rows = series.tolist()
    for i in range(n_rows):
        cells = [f"d{i:06d}"] + [repr(v) for v in rows[i]]
        lines.append(",".join(cells))
    from .ioutil import write_text_atomic

    write_text_atomic(path, "\n".join(lines) + "\n")
    return {"archetype_of": {f"d{i:06d}": int(a) for i, a in enumerate(arch)},
            "level": level.tolist()}


def relational_signal_probe(result: SynthResult) -> dict:
    """Check the planted structure is learnable: predicting test labels from
    the true archetype's training statistics must beat a constant baseline."""
    train, test = result.splits["train"], result.splits["test"]
    arch = result.archetype_of
    y_train = train.labels_array()
    y_test = test.labels_array()
    by_arch = {}
    for i, rid in enumerate(train.ids):
        by_arch.setdefault(arch[rid], []).append(y_train[i])
    global_mean = float(y_train.mean())
    arch_mean = {a: float(np.mean(v)) for a, v in by_arch.items()}
    scores = np.array([arch_mean.get(arch[rid], global_mean) for rid in test.ids])

    if result.config.task == D.CLASSIFICATION:
        arch_score = auprc(ScoredSet(scores, y_test))
        base_score = auprc(ScoredSet(np.full_like(y_test, global_mean), y_test))
        passes = arch_score > base_score
        metric = "auprc"
    else:
        arch_score = rmse(ScoredSet(scores, y_test))
        base_score = rmse(ScoredSet(np.full_like(y_test, global_mean), y_test))
        passes = arch_score < base_score
        metric = "rmse"
    return {"probe_metric": metric, "archetype_score": arch_score,
            "baseline_score": base_score, "passes": bool(passes)}
