"""Command-line front end for the sequence-relation pipeline.

Every command reads/writes file artifacts, records a run manifest, and maps
failures to stable exit codes: 2 for usage/config problems, 3 for data and
artifact format problems, 4 for numeric failures. The last stderr line on
failure is a single machine-parsable JSON object.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict
from pathlib import Path

import click

from . import data as D
from . import infer as I
from . import pipeline as P
from . import synth as S
from .config import (PROFILES, apply_overrides, load_config_file,
                     profile_config)
from .exceptions import ConfigError, SeqrelError
from .ioutil import canonical_json, write_json_atomic, write_text_atomic


def _fail(exc: SeqrelError) -> None:
    payload = {"error": type(exc).__name__, "exit_code": exc.exit_code,
               "message": str(exc)}
    click.echo(canonical_json(payload).rstrip("\n"), err=True)
    sys.exit(exc.exit_code)


def guarded(fn):
    import functools

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SeqrelError as exc:
            _fail(exc)

    return wrapper


out_dir_option = click.option("--out-dir", default="out", type=click.Path(),
                              show_default=True)


def config_options(fn):
    options = [
        click.option("--profile", default="fraud",
                     type=click.Choice(sorted(PROFILES)),
                     help="named parameter profile"),
        click.option("--config", "config_path", default=None,
                     type=click.Path(), help="flat key=value config file"),
        click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE",
                     help="override one config key"),
        click.option("--seed", type=int, default=None, help="override seed"),
        out_dir_option,
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def build_config(profile, config_path, overrides, seed):
    cfg = profile_config(profile)
    merged = {}
    if config_path is not None:
        merged.update(load_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    if seed is not None:
        merged["seed"] = seed
    return apply_overrides(cfg, merged)


@click.group()
def main():
    """Relation-aware sequence modeling over compressed graphs."""


@main.command("gen-synth")
@click.option("--n-sequences", type=int, default=5000, show_default=True)
@click.option("--num-events", type=int, default=8, show_default=True)
@click.option("--n-numeric", type=int, default=3, show_default=True)
@click.option("--n-categorical", type=int, default=2, show_default=True)
@click.option("--vocab-size", type=int, default=6, show_default=True)
@click.option("--n-archetypes", type=int, default=10, show_default=True)
@click.option("--pos-rate", type=float, default=0.10, show_default=True)
@click.option("--noise-scale", type=float, default=0.3, show_default=True)
@click.option("--task", default="classification",
              type=click.Choice(["classification", "regression"]))
@click.option("--seed", type=int, default=0, show_default=True)
@out_dir_option
@guarded
def gen_synth(**kw):
    """Generate a labeled synthetic corpus with planted group structure."""
    out_dir = Path(kw.pop("out_dir"))
    cfg = S.GeneratorConfig(**kw)
    start = time.perf_counter()
    result = S.generate(cfg)
    paths = S.write_synth(result, out_dir)
    probe = S.relational_signal_probe(result)
    P.write_manifest(out_dir, "gen-synth", asdict(cfg),
                     {"generate_s": time.perf_counter() - start}, [],
                     [paths[k] for k in ("train", "val", "test", "sidecar")])
    click.echo(f"wrote {out_dir}/train.jsonl val.jsonl test.jsonl "
               f"archetypes.json")
    click.echo(f"relational signal probe: {probe['probe_metric']} "
               f"{probe['archetype_score']:.4f} vs baseline "
               f"{probe['baseline_score']:.4f} "
               f"({'ok' if probe['passes'] else 'WEAK'})")


@main.command("train-encoder")
@click.option("--train", "train_path", required=True, type=click.Path())
@click.option("--val", "val_path", required=True, type=click.Path())
@config_options
@guarded
def train_encoder(train_path, val_path, profile, config_path, overrides, seed,
                  out_dir):
    """Train the sequence encoder on labeled training sequences."""
    cfg = build_config(profile, config_path, overrides, seed)
    result = P.run_train_encoder(cfg, train_path, val_path, out_dir)
    history = result["history"]
    click.echo(f"encoder saved to {result['encoder_path']} "
               f"(best epoch {history['best_epoch']}, "
               f"val loss {history['val_loss'][history['best_epoch']]:.6f})")


@main.command("embed")
@click.option("--encoder", "encoder_path", default=None, type=click.Path())
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--out-name", default=P.EMBEDDINGS_FILE, show_default=True)
@config_options
@guarded
def embed(encoder_path, data_path, out_name, profile, config_path, overrides,
          seed, out_dir):
    """Embed sequences with a trained encoder into a CSV of feature rows."""
    cfg = build_config(profile, config_path, overrides, seed)
    encoder_path = encoder_path or Path(out_dir) / P.ENCODER_FILE
    result = P.run_embed(cfg, encoder_path, data_path, out_dir, out_name)
    click.echo(f"wrote {result['embeddings_path']} ({result['count']} rows)")


@main.command("compress")
@click.option("--embeddings", "embeddings_path", default=None,
              type=click.Path())
@config_options
@guarded
def compress(embeddings_path, profile, config_path, overrides, seed, out_dir):
    """Compress embeddings into class-balanced cluster prototypes."""
    cfg = build_config(profile, config_path, overrides, seed)
    embeddings_path = embeddings_path or Path(out_dir) / P.EMBEDDINGS_FILE
    result = P.run_compress(cfg, embeddings_path, out_dir)
    click.echo(f"wrote {result['compressed_path']} (k={result['k']}, "
               f"{result['compress_s']:.3f}s)")


@main.command("train-gnn")
@click.option("--compressed", "compressed_path", default=None,
              type=click.Path())
@click.option("--val-embeddings", "val_embeddings_path", default=None,
              type=click.Path())
@config_options
@guarded
def train_gnn(compressed_path, val_embeddings_path, profile, config_path,
              overrides, seed, out_dir):
    """Train the relation model on the compressed graph."""
    cfg = build_config(profile, config_path, overrides, seed)
    compressed_path = compressed_path or Path(out_dir) / P.COMPRESSED_FILE
    result = P.run_train_gnn(cfg, compressed_path, out_dir,
                             val_embeddings_path)
    history = result["history"]
    click.echo(f"wrote {result['gnn_path']} ({history['loss_kind']} loss "
               f"{history['loss'][-1]:.6f} after {len(history['loss'])} epochs)")


@main.command("finetune")
@click.option("--compressed", "compressed_path", default=None,
              type=click.Path())
@click.option("--gnn", "gnn_path", default=None, type=click.Path())
@click.option("--embeddings", "embeddings_path", default=None,
              type=click.Path())
@click.option("--encoder", "encoder_path", default=None, type=click.Path())
@click.option("--no-encoder", is_flag=True,
              help="build an embeddings-only bundle")
@config_options
@guarded
def finetune(compressed_path, gnn_path, embeddings_path, encoder_path,
             no_encoder, profile, config_path, overrides, seed, out_dir):
    """Fine-tune the relation model on real-to-compressed views and emit the
    deployable bundle."""
    cfg = build_config(profile, config_path, overrides, seed)
    out = Path(out_dir)
    compressed_path = compressed_path or out / P.COMPRESSED_FILE
    gnn_path = gnn_path or out / P.GNN_FILE
    embeddings_path = embeddings_path or out / P.EMBEDDINGS_FILE
    # only the default encoder path is optional; an explicit one must exist
    if no_encoder:
        encoder_path = None
    elif encoder_path is None and (out / P.ENCODER_FILE).exists():
        encoder_path = out / P.ENCODER_FILE
    result = P.run_finetune(cfg, compressed_path, gnn_path, embeddings_path,
                            out_dir, encoder_path=encoder_path)
    history = result["history"]
    click.echo(f"wrote {result['finetuned_path']} and {result['bundle_path']} "
               f"({history['loss_kind']} loss {history['loss'][-1]:.6f})")


def _load_inputs(input_path, as_embeddings):
    """Returns (ids, inputs) from JSONL records, embeddings CSV, or stdin."""
    if as_embeddings:
        ids, x, _ = D.load_embeddings(P.require_file(input_path))
        return ids, list(x)
    if str(input_path) == "-":
        ds = D.parse_sequence_lines(sys.stdin, require_label=False,
                                    source="<stdin>")
    else:
        ds = D.read_sequences(P.require_file(input_path), require_label=False)
    return ds.ids, ds.records


@main.command("infer")
@click.option("--bundle", "bundle_path", default=None, type=click.Path())
@click.option("--input", "input_path", required=True,
              help="JSONL records, or - for stdin")
@click.option("--embeddings", "as_embeddings", is_flag=True,
              help="input is an embeddings CSV, skip the encoder")
@click.option("--output", "output_path", default=None, type=click.Path())
@out_dir_option
@guarded
def infer(bundle_path, input_path, as_embeddings, output_path, out_dir):
    """Score new sequences against a deployed bundle (JSONL out)."""
    bundle_path = bundle_path or Path(out_dir) / P.BUNDLE_FILE
    bundle = I.load_bundle(P.require_file(bundle_path, "finetune"))
    ids, inputs = _load_inputs(input_path, as_embeddings)
    results, agg = I.score_batch(bundle, inputs)
    lines = []
    for rid, res in zip(ids, results):
        lines.append(canonical_json({
            "id": rid, "score": res.score,
            "latency_s": res.latency_s}).rstrip("\n"))
    text = "\n".join(lines) + "\n"
    if output_path is None:
        click.echo(text, nl=False)
    else:
        write_text_atomic(output_path, text)
    click.echo(f"scored {agg['count']} inputs, mean {agg['mean_s']:.2e}s "
               f"p99 {agg['p99_s']:.2e}s per sample", err=True)


@main.command("explain")
@click.option("--bundle", "bundle_path", default=None, type=click.Path())
@click.option("--input", "input_path", required=True,
              help="JSONL records, or - for stdin")
@click.option("--embeddings", "as_embeddings", is_flag=True)
@click.option("--top-r", type=int, default=5, show_default=True)
@out_dir_option
@guarded
def explain(bundle_path, input_path, as_embeddings, top_r, out_dir):
    """Rank representative training sequences most similar to each input."""
    bundle_path = bundle_path or Path(out_dir) / P.BUNDLE_FILE
    bundle = I.load_bundle(P.require_file(bundle_path, "finetune"))
    ids, inputs = _load_inputs(input_path, as_embeddings)
    for rid, item in zip(ids, inputs):
        entries = I.explain(bundle, item, top_r=top_r)
        click.echo(canonical_json({
            "id": rid,
            "explanations": [asdict(e) for e in entries]}).rstrip("\n"))


@main.command("eval")
@click.option("--bundle", "bundle_path", default=None, type=click.Path())
@click.option("--test", "test_path", required=True, type=click.Path())
@click.option("--embeddings", "as_embeddings", is_flag=True)
@config_options
@guarded
def eval_cmd(bundle_path, test_path, as_embeddings, profile, config_path,
             overrides, seed, out_dir):
    """Score a labeled test set and report task metrics."""
    cfg = build_config(profile, config_path, overrides, seed)
    bundle_path = bundle_path or Path(out_dir) / P.BUNDLE_FILE
    result = P.run_eval(cfg, bundle_path, test_path, out_dir,
                        embeddings=as_embeddings)
    click.echo(_metric_table(result["report"]["metrics"]))
    click.echo(f"wrote {result['report_path']}")


def _metric_table(metrics: dict) -> str:
    width = max(len(k) for k in metrics)
    lines = [f"{k.ljust(width)}  {v:.6f}" for k, v in sorted(metrics.items())]
    return "\n".join(lines)


@main.command("run-all")
@click.option("--train", "train_path", required=True, type=click.Path())
@click.option("--val", "val_path", required=True, type=click.Path())
@click.option("--test", "test_path", required=True, type=click.Path())
@config_options
@guarded
def run_all(train_path, val_path, test_path, profile, config_path, overrides,
            seed, out_dir):
    """Full pipeline: encoder, embeddings, compression, relation model,
    fine-tuning, bundle, and evaluation."""
    cfg = build_config(profile, config_path, overrides, seed)
    summary = P.run_all(cfg, train_path, val_path, test_path, out_dir)
    click.echo(_metric_table(summary["eval"]["metrics"]))
    click.echo(f"bundle at {summary['bundle_path']}")


if __name__ == "__main__":
    main()
