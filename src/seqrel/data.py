"""Sequence records, field schemas, and dataset file formats.

Records live in JSON Lines files, one object per line with an id, a
fixed-length list of field-value events, and a label. Embedding matrices
live in CSV with an `id,f0..f{d-1},label` header. Both formats round-trip
exactly: floats are written with repr precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .exceptions import (
    DataError,
    EmptyInputError,
    ParameterError,
    ParseError,
    SchemaViolationError,
    TaskMismatchError,
)

CLASSIFICATION = "classification"
REGRESSION = "regression"


@dataclass
class Record:
    id: str
    events: list[dict]
    label: int | float | None = None


def label_task(labels) -> str:
    """Classification when every label is an int, regression when every
    label is a float; labels of mixed kinds are rejected."""
    kinds = {type(v) for v in labels}
    if kinds - {int} and kinds - {float}:
        raise TaskMismatchError(f"labels mix kinds: {sorted(k.__name__ for k in kinds)}")
    return CLASSIFICATION if kinds == {int} else REGRESSION


@dataclass
class SequenceDataset:
    """Records with labels of a single kind. Event counts may differ:
    scoring encodes one record at a time, and `encode_dataset`, which
    stacks a training batch, is where they must agree."""

    records: list[Record]

    def __post_init__(self):
        label_task(r.label for r in self.records if r.label is not None)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def task(self) -> str:
        labels = [r.label for r in self.records if r.label is not None]
        if not labels:
            raise EmptyInputError("dataset has no labels")
        return label_task(labels)

    @property
    def ids(self) -> list[str]:
        return [r.id for r in self.records]

    def labels_array(self) -> np.ndarray:
        if any(r.label is None for r in self.records):
            raise DataError("dataset has unlabeled records")
        return np.array([r.label for r in self.records], dtype=np.float64)


def split_dataset(ds: SequenceDataset, parts=(4, 1, 1)) -> list[SequenceDataset]:
    """Split by record order into len(parts) datasets sized parts-proportionally."""
    if not parts or any(p < 1 for p in parts):
        raise ParameterError(f"parts must be positive integers, got {parts}")
    n = len(ds.records)
    total = sum(parts)
    if n < total:
        raise EmptyInputError(
            f"need at least {total} records for a {parts} split, have {n}")
    cuts = [0]
    acc = 0
    for p in parts:
        acc += p
        cuts.append(n * acc // total)
    return [SequenceDataset(ds.records[cuts[i]:cuts[i + 1]])
            for i in range(len(parts))]


# ---------------------------------------------------------------------------
# field schema


@dataclass(frozen=True)
class SchemaField:
    name: str
    kind: str  # numerical | categorical
    vmin: float = 0.0
    vmax: float = 0.0
    vocab: tuple = ()

    @property
    def width(self) -> int:
        return 1 if self.kind == "numerical" else len(self.vocab)


@dataclass(frozen=True)
class FieldSchema:
    fields: tuple[SchemaField, ...] = field(default_factory=tuple)

    @property
    def width(self) -> int:
        return sum(f.width for f in self.fields)

    def to_dict(self) -> dict:
        out = []
        for f in self.fields:
            if f.kind == "numerical":
                out.append({"name": f.name, "kind": f.kind, "min": f.vmin, "max": f.vmax})
            else:
                out.append({"name": f.name, "kind": f.kind, "vocab": list(f.vocab)})
        return {"fields": out}

    @staticmethod
    def from_dict(d: dict) -> "FieldSchema":
        fields = []
        for f in d["fields"]:
            if f["kind"] == "numerical":
                fields.append(SchemaField(f["name"], "numerical", vmin=f["min"], vmax=f["max"]))
            else:
                fields.append(SchemaField(f["name"], "categorical", vocab=tuple(f["vocab"])))
        return FieldSchema(tuple(fields))


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer too large for a float
        return False


def fit_field_schema(dataset: SequenceDataset) -> FieldSchema:
    """Scan all events: min/max for numerical fields, first-appearance
    vocabularies for categorical ones."""
    if not dataset.records:
        raise EmptyInputError("cannot fit a schema on an empty dataset")
    names = list(dataset.records[0].events[0].keys())
    fields = []
    for name in names:
        numeric = True
        vmin, vmax = np.inf, -np.inf
        vocab: list = []
        seen = set()
        for rec in dataset.records:
            for event in rec.events:
                if name not in event:
                    raise SchemaViolationError(f"event in record {rec.id!r} is missing field {name!r}")
                v = event[name]
                if _is_number(v):
                    vmin = min(vmin, float(v))
                    vmax = max(vmax, float(v))
                else:
                    numeric = False
                if v not in seen:
                    seen.add(v)
                    vocab.append(v)
        if numeric:
            fields.append(SchemaField(name, "numerical", vmin=vmin, vmax=vmax))
        else:
            if any(_is_number(v) for v in vocab):
                raise SchemaViolationError(f"field {name!r} mixes numbers and strings")
            fields.append(SchemaField(name, "categorical", vocab=tuple(vocab)))
    return FieldSchema(tuple(fields))


def encode_event(schema: FieldSchema, event: dict) -> np.ndarray:
    """Min-max scale numerical fields (clamped to [0,1], constant fields
    map to 0) and one-hot categorical ones (unseen values are all zeros),
    concatenated in schema order. A numerical field must hold a finite
    int or float (not a bool); an int too large for a float is not finite."""
    parts = np.zeros(schema.width)
    pos = 0
    for f in schema.fields:
        if f.name not in event:
            raise SchemaViolationError(f"event is missing field {f.name!r}")
        v = event[f.name]
        if f.kind == "numerical":
            if not _is_number(v):
                raise SchemaViolationError(
                    f"numerical field {f.name!r} holds a {type(v).__name__}, not a number")
            if not _is_finite(v):
                raise SchemaViolationError(
                    f"numerical field {f.name!r} holds a non-finite number")
            span = f.vmax - f.vmin
            if span > 0.0:
                parts[pos] = min(max((float(v) - f.vmin) / span, 0.0), 1.0)
            pos += 1
        else:
            try:
                parts[pos + f.vocab.index(v)] = 1.0
            except ValueError:
                pass  # unseen category stays all-zero
            pos += f.width
    return parts


def encode_record(schema: FieldSchema, record: Record) -> np.ndarray:
    """Stack the record's events into a (T, width) matrix."""
    if not record.events:
        raise EmptyInputError(f"record {record.id!r} has no events")
    return np.stack([encode_event(schema, e) for e in record.events])


def encode_dataset(schema: FieldSchema, dataset: SequenceDataset) -> np.ndarray:
    """(N, T, width) tensor of all encoded events in record order."""
    if not dataset.records:
        raise EmptyInputError("dataset has no records")
    lengths = {len(r.events) for r in dataset.records}
    if len(lengths) > 1:
        raise SchemaViolationError(f"records have mixed event counts: {sorted(lengths)}")
    return np.stack([encode_record(schema, r) for r in dataset.records])


# ---------------------------------------------------------------------------
# JSON Lines sequences


def _validate_record(obj, line: int, require_label: bool) -> Record:
    if not isinstance(obj, dict):
        raise ParseError("record is not an object", line=line)
    if not isinstance(obj.get("id"), str):
        raise ParseError("missing or non-string 'id'", line=line)
    events = obj.get("events")
    if not isinstance(events, list) or not events:
        raise ParseError(f"record {obj['id']!r} needs a non-empty 'events' list", line=line)
    for e in events:
        if not isinstance(e, dict):
            raise ParseError(f"record {obj['id']!r} has a non-object event", line=line)
        for k, v in e.items():
            if not isinstance(v, str) and not _is_number(v):
                raise ParseError(
                    f"record {obj['id']!r} field {k!r} has unsupported value type "
                    f"{type(v).__name__}", line=line)
            if _is_number(v) and not _is_finite(v):
                raise ParseError(
                    f"record {obj['id']!r} field {k!r} is not finite", line=line)
    label = obj.get("label")
    if label is None:
        if require_label:
            raise ParseError(f"record {obj['id']!r} is missing 'label'", line=line)
    elif not _is_number(label) or not _is_finite(label):
        raise ParseError(f"record {obj['id']!r} label must be a finite number",
                         line=line)
    return Record(id=obj["id"], events=events, label=label)


def parse_sequence_lines(lines, require_label: bool = True,
                         source: str = "<stream>") -> SequenceDataset:
    records = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError as exc:  # also an integer over the digit limit
            raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                             line=line_no) from exc
        records.append(_validate_record(obj, line_no, require_label))
    if not records:
        raise EmptyInputError(f"{source} contains no records")
    return SequenceDataset(records)


def read_sequences(path: str | Path, require_label: bool = True) -> SequenceDataset:
    with open(path, encoding="utf-8") as fh:
        return parse_sequence_lines(fh, require_label, source=str(path))


def write_sequences(path: str | Path, dataset: SequenceDataset) -> None:
    lines = []
    for r in dataset.records:
        obj = {"id": r.id, "events": r.events}
        if r.label is not None:
            obj["label"] = r.label
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False))
    from .ioutil import write_text_atomic

    write_text_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# embedding CSV


def _format_label(label) -> str:
    return repr(int(label)) if isinstance(label, (int, np.integer)) else repr(float(label))


def _parse_label(token: str, line: int):
    try:
        value = int(token)
    except ValueError:
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"bad label {token!r}", line=line) from None
    if not _is_finite(value):
        raise ParseError(f"non-finite label {token!r}", line=line)
    return value


def save_embeddings(path: str | Path, ids: list[str], x: np.ndarray, labels) -> None:
    """CSV with header id,f0..f{d-1},label; floats written with repr."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or len(ids) != x.shape[0] or len(labels) != x.shape[0]:
        raise DataError(f"embedding shapes disagree: {len(ids)} ids, {x.shape} matrix, "
                        f"{len(labels)} labels")
    for i in ids:
        if "," in i or "\n" in i:
            raise DataError(f"id {i!r} contains a delimiter")
    header = "id," + ",".join(f"f{j}" for j in range(x.shape[1])) + ",label"
    rows = [header]
    for i, rid in enumerate(ids):
        cells = ",".join(repr(v) for v in x[i].tolist())
        rows.append(f"{rid},{cells},{_format_label(labels[i])}")
    from .ioutil import write_text_atomic

    write_text_atomic(path, "\n".join(rows) + "\n")


def load_embeddings(path: str | Path) -> tuple[list[str], np.ndarray, list]:
    """Returns (ids, matrix, labels) in file order."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise EmptyInputError(f"{path} is empty")
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "id" or cols[-1] != "label":
            raise ParseError(f"bad embedding header {header!r}", line=1)
        dim = len(cols) - 2
        ids: list[str] = []
        labels: list = []
        values: list[list[float]] = []
        line_nos: list[int] = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != dim + 2:
                raise ParseError(f"expected {dim + 2} cells, found {len(cells)}", line=line_no)
            ids.append(cells[0])
            try:
                values.append([float(c) for c in cells[1:-1]])
            except ValueError:
                raise ParseError("non-numeric embedding cell", line=line_no) from None
            labels.append(_parse_label(cells[-1], line_no))
            line_nos.append(line_no)
    if not ids:
        raise EmptyInputError(f"{path} has a header but no rows")
    x = np.array(values, dtype=np.float64)
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        raise ParseError("non-finite embedding cell",
                         line=line_nos[int(np.argmin(finite))])
    return ids, x, labels


# ---------------------------------------------------------------------------
# hourly demand CSV


def read_demand_csv(path: str | Path) -> SequenceDataset:
    """Hourly demand rows (id, h0..h{T-1}, target) as one-field sequences.

    Each row becomes a regression record: T events with a single numeric
    field holding the hourly demand value, labeled with the target value.
    """
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header:
            raise EmptyInputError(f"{path} is empty")
        cols = header.split(",")
        if len(cols) < 3 or cols[0] != "id" or cols[-1] != "target":
            raise ParseError(f"bad demand header {header!r}", line=1)
        if cols[1:-1] != [f"h{t}" for t in range(len(cols) - 2)]:
            raise ParseError("hour columns must run h0..h{T-1}", line=1)
        records = []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != len(cols):
                raise ParseError(
                    f"expected {len(cols)} cells, found {len(cells)}",
                    line=line_no)
            try:
                series = [float(c) for c in cells[1:-1]]
                target = float(cells[-1])
            except ValueError:
                raise ParseError("non-numeric demand cell", line=line_no) from None
            if not all(map(math.isfinite, series + [target])):
                raise ParseError("non-finite demand cell", line=line_no)
            records.append(Record(id=cells[0],
                                  events=[{"demand": v} for v in series],
                                  label=target))
    if not records:
        raise EmptyInputError(f"{path} has a header but no rows")
    return SequenceDataset(records)
