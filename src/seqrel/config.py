"""Pipeline configuration: named parameter profiles, flat key=value config
files, and typed override handling.

Every run artifact echoes the full flat config so results stay diffable and
reproducible from the manifest alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from . import data as D
from .compress import MODES
from .exceptions import ConfigError, ParseError
from .gnn import CONV_KINDS
from .graph import METRICS


@dataclass
class PipelineConfig:
    task: str = D.CLASSIFICATION
    metric: str = "cosine"
    epsilon: float = 0.95
    clusters: int = 500
    pos_ratio: float = 0.3
    mode: str = "centroid"
    conv: str = "gcn"
    embed_dim: int = 256
    gnn_hidden: int = 32
    encoder_lr: float = 1e-5
    gnn_lr: float = 5e-3
    finetune_lr: float = 5e-3
    batch_size: int = 64
    patience: int = 10
    encoder_epochs: int = 50
    gnn_epochs: int = 50
    finetune_epochs: int = 1
    fallback_m: int = 1
    per_class: bool = True
    seed: int = 0

    def validate(self) -> "PipelineConfig":
        if self.task not in (D.CLASSIFICATION, D.REGRESSION):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.conv not in CONV_KINDS:
            raise ConfigError(f"unknown conv {self.conv!r}")
        if not -1.0 <= self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in [-1, 1], got {self.epsilon}")
        if not 0.0 < self.pos_ratio < 1.0:
            raise ConfigError(f"pos_ratio must lie in (0, 1), got {self.pos_ratio}")
        for name in ("clusters", "embed_dim", "gnn_hidden", "batch_size",
                     "fallback_m"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for name in ("encoder_lr", "gnn_lr", "finetune_lr"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("patience", "encoder_epochs", "gnn_epochs",
                     "finetune_epochs", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        return self

    def to_flat_dict(self) -> dict:
        return asdict(self)


PROFILES = {
    # transaction-style binary classification defaults
    "fraud": PipelineConfig(),
    # mobility-style regression defaults
    "mobility": PipelineConfig(
        task=D.REGRESSION, metric="pearson", epsilon=0.5, clusters=100,
        embed_dim=64, gnn_hidden=16),
}


def profile_config(name: str) -> PipelineConfig:
    if name not in PROFILES:
        raise ConfigError(
            f"unknown profile {name!r}; choose from {sorted(PROFILES)}")
    return PipelineConfig(**asdict(PROFILES[name]))


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse flat `key = value` lines; '#' starts a comment."""
    out = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{source}: expected 'key = value'", line=line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(f"{source}: empty key or value", line=line_no)
        if key in out:
            raise ParseError(f"{source}: duplicate key {key!r}", line=line_no)
        out[key] = value
    return out


def load_config_file(path) -> dict:
    from pathlib import Path

    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(encoding="utf-8"), source=str(p))


def _coerce(name: str, kind: type, raw) -> object:
    if isinstance(raw, kind) and not (kind is int and isinstance(raw, bool)):
        return raw
    text = str(raw).strip()
    try:
        if kind is bool:
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(text)
        return kind(text)
    except ValueError as exc:
        raise ConfigError(
            f"config key {name!r} expects {kind.__name__}, got {raw!r}") from exc


def apply_overrides(cfg: PipelineConfig, overrides: dict) -> PipelineConfig:
    """Typed override application; unknown keys are config errors."""
    by_name = {f.name: f.type for f in fields(PipelineConfig)}
    kinds = {"str": str, "int": int, "float": float, "bool": bool}
    values = asdict(cfg)
    for key, raw in overrides.items():
        if key not in by_name:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _coerce(key, kinds[by_name[key]], raw)
    return PipelineConfig(**values).validate()
