import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from test_encoder import FIXTURES, bad_gate_sets
from test_infer import overflowing_bundle

from seqrel import compress as C
from seqrel import pipeline as P
from seqrel.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus plus a full pipeline run via the CLI."""
    root = tmp_path_factory.mktemp("cliws")
    data = root / "data"
    out = root / "out"
    runner = CliRunner()
    gen = runner.invoke(main, [
        "gen-synth", "--n-sequences", "120", "--num-events", "3",
        "--n-numeric", "2", "--n-categorical", "1", "--vocab-size", "4",
        "--n-archetypes", "4", "--pos-rate", "0.2", "--noise-scale", "0.2",
        "--seed", "5", "--out-dir", str(data)])
    assert gen.exit_code == 0, gen.output
    flags = ["--set", "embed_dim=8", "--set", "gnn_hidden=6",
             "--set", "clusters=6", "--set", "encoder_epochs=2",
             "--set", "gnn_epochs=5", "--set", "batch_size=16",
             "--set", "epsilon=0.5", "--seed", "0"]
    ran = runner.invoke(main, [
        "run-all", "--train", str(data / "train.jsonl"),
        "--val", str(data / "val.jsonl"), "--test", str(data / "test.jsonl"),
        "--out-dir", str(out), *flags])
    assert ran.exit_code == 0, ran.output
    return {"runner": runner, "data": data, "out": out, "flags": flags}


def test_run_all_output_mentions_metrics(workspace):
    report = json.loads((workspace["out"] / P.EVAL_FILE).read_text())
    assert set(report["metrics"]) == {"auprc", "recall_at_precision"}
    assert report["config"]["clusters"] == 6


def test_step_commands_reproduce_run_all(workspace, tmp_path):
    runner, data, flags = (workspace["runner"], workspace["data"],
                           workspace["flags"])
    out = tmp_path / "steps"
    steps = (
        ["train-encoder", "--train", str(data / "train.jsonl"),
         "--val", str(data / "val.jsonl")],
        ["embed", "--data", str(data / "train.jsonl")],
        ["compress"],
        ["train-gnn"],
        ["finetune"],
        ["eval", "--test", str(data / "test.jsonl")],
    )
    for step in steps:
        result = runner.invoke(main, [*step, "--out-dir", str(out), *flags])
        assert result.exit_code == 0, (step, result.output)
    for name in (P.ENCODER_FILE, P.EMBEDDINGS_FILE, P.COMPRESSED_FILE,
                 P.GNN_FILE, P.FINETUNED_FILE, P.BUNDLE_FILE, P.EVAL_FILE):
        assert (out / name).read_bytes() == \
            (workspace["out"] / name).read_bytes(), name


def test_infer_jsonl_output(workspace, tmp_path):
    runner, data, out = (workspace["runner"], workspace["data"],
                         workspace["out"])
    result = runner.invoke(main, [
        "infer", "--bundle", str(out / P.BUNDLE_FILE),
        "--input", str(data / "test.jsonl"), "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    lines = [ln for ln in result.output.splitlines() if ln.startswith("{")]
    assert len(lines) == 20
    first = json.loads(lines[0])
    assert set(first) == {"id", "score", "latency_s"}
    assert first["id"] == "s000100"
    out_file = tmp_path / "scores.jsonl"
    again = runner.invoke(main, [
        "infer", "--bundle", str(out / P.BUNDLE_FILE),
        "--input", str(data / "test.jsonl"), "--output", str(out_file),
        "--out-dir", str(out)])
    assert again.exit_code == 0
    assert len(out_file.read_text().splitlines()) == 20


def test_infer_from_stdin(workspace):
    runner, data, out = (workspace["runner"], workspace["data"],
                         workspace["out"])
    payload = (data / "test.jsonl").read_text().splitlines()[0]
    result = runner.invoke(main, [
        "infer", "--bundle", str(out / P.BUNDLE_FILE), "--input", "-",
        "--out-dir", str(out)], input=payload + "\n")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.splitlines()[0])["id"] == "s000100"


def test_infer_from_embeddings_csv(workspace):
    runner, out = workspace["runner"], workspace["out"]
    result = runner.invoke(main, [
        "infer", "--bundle", str(out / P.BUNDLE_FILE),
        "--input", str(out / P.EMBEDDINGS_FILE), "--embeddings",
        "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert len([ln for ln in result.output.splitlines()
                if ln.startswith("{")]) == 80


def test_explain_command(workspace):
    runner, data, out = (workspace["runner"], workspace["data"],
                         workspace["out"])
    result = runner.invoke(main, [
        "explain", "--bundle", str(out / P.BUNDLE_FILE),
        "--input", str(data / "test.jsonl"), "--top-r", "3",
        "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    first = json.loads(result.output.splitlines()[0])
    entries = first["explanations"]
    assert len(entries) == 3
    sims = [e["similarity"] for e in entries]
    assert sims == sorted(sims, reverse=True)
    assert all(set(e) == {"cluster", "representative_id", "similarity",
                          "connected"} for e in entries)


def test_eval_prints_table(workspace, tmp_path):
    runner, data, out = (workspace["runner"], workspace["data"],
                         workspace["out"])
    result = runner.invoke(main, [
        "eval", "--bundle", str(out / P.BUNDLE_FILE),
        "--test", str(data / "test.jsonl"), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "auprc" in result.output
    assert "recall_at_precision" in result.output
    assert (tmp_path / P.EVAL_FILE).exists()


def test_embeddings_only_chain_per_cluster_count(workspace, tmp_path):
    runner, out = workspace["runner"], workspace["out"]
    embeddings = str(out / P.EMBEDDINGS_FILE)
    for k in (4, 6):
        run = tmp_path / f"k{k}"
        flags = ["--out-dir", str(run), "--set", f"clusters={k}",
                 "--set", "gnn_hidden=6", "--set", "gnn_epochs=3",
                 "--set", "epsilon=0.5"]
        for step in (["compress", "--embeddings", embeddings],
                     ["train-gnn"],
                     ["finetune", "--embeddings", embeddings, "--no-encoder"],
                     ["eval", "--test", embeddings, "--embeddings"]):
            result = runner.invoke(main, [*step, *flags])
            assert result.exit_code == 0, (k, step, result.output)
        assert C.load_compressed(run / P.COMPRESSED_FILE).k == k
        assert json.loads((run / P.BUNDLE_FILE).read_text())["encoder"] is None
        report = json.loads((run / P.EVAL_FILE).read_text())
        assert set(report["metrics"]) == {"auprc", "recall_at_precision"}
        for command, key in (("compress", "compress_s"), ("train_gnn", "train_s"),
                             ("finetune", "finetune_s"), ("eval", "latency")):
            manifest = json.loads((run / f"manifest_{command}.json").read_text())
            assert key in manifest["timings"], command
        assert manifest["timings"]["latency"]["mean_s"] > 0.0


def test_finetune_explicit_missing_encoder_exit_3(workspace, tmp_path):
    runner, out = workspace["runner"], workspace["out"]
    result = runner.invoke(main, [
        "finetune", "--compressed", str(out / P.COMPRESSED_FILE),
        "--gnn", str(out / P.GNN_FILE),
        "--embeddings", str(out / P.EMBEDDINGS_FILE),
        "--encoder", str(tmp_path / "NO_SUCH_encoder.json"),
        "--out-dir", str(tmp_path), *workspace["flags"]])
    assert result.exit_code == 3, result.output
    tail = json.loads(result.output.strip().splitlines()[-1])
    assert tail["error"] == "ArtifactError"
    assert "train-encoder" in tail["message"]
    assert not (tmp_path / P.BUNDLE_FILE).exists()


def test_missing_dependency_exit_code_3(workspace, tmp_path):
    runner = workspace["runner"]
    result = runner.invoke(main, ["train-gnn", "--out-dir", str(tmp_path)])
    assert result.exit_code == 3
    tail = result.output.strip().splitlines()[-1]
    parsed = json.loads(tail)
    assert parsed["exit_code"] == 3
    assert "compress" in parsed["message"]


def test_config_error_exit_code_2(workspace, tmp_path):
    runner = workspace["runner"]
    result = runner.invoke(main, [
        "compress", "--set", "clusters=nope", "--out-dir", str(tmp_path)])
    assert result.exit_code == 2
    tail = json.loads(result.output.strip().splitlines()[-1])
    assert tail["error"] == "ConfigError"
    bad_key = runner.invoke(main, [
        "compress", "--set", "mystery=1", "--out-dir", str(tmp_path)])
    assert bad_key.exit_code == 2


def test_unknown_option_exit_code_2(workspace):
    runner, out = workspace["runner"], workspace["out"]
    result = runner.invoke(main, ["compress", "--mystery"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["bench"])
    assert result.exit_code == 2
    assert "No such command 'bench'" in result.output
    # serving commands take no config: a profile or override is an error
    for command, flag in (("infer", ["--set", "x=1"]),
                          ("explain", ["--profile", "fraud"])):
        result = runner.invoke(main, [
            command, "--bundle", str(out / P.BUNDLE_FILE),
            "--input", str(workspace["data"] / "test.jsonl"), *flag])
        assert result.exit_code == 2, (command, result.output)


def test_infer_rejects_non_finite_jsonl(workspace, tmp_path):
    runner, data, out = (workspace["runner"], workspace["data"],
                         workspace["out"])
    record = json.loads((data / "test.jsonl").read_text().splitlines()[0])
    field = next(k for k, v in record["events"][0].items()
                 if isinstance(v, float))
    for token, where in (("NaN", "event"), ("Infinity", "event"),
                         ("NaN", "label")):
        text = json.dumps(record)
        if where == "event":
            text = text.replace(f'"{field}": {record["events"][0][field]!r}',
                                f'"{field}": {token}', 1)
        else:
            text = text.replace(f'"label": {record["label"]!r}',
                                f'"label": {token}', 1)
        assert token in text
        result = runner.invoke(main, [
            "infer", "--bundle", str(out / P.BUNDLE_FILE), "--input", "-"],
            input=text + "\n")
        assert result.exit_code == 3, (token, where, result.output)
        tail = json.loads(result.output.strip().splitlines()[-1])
        assert tail["error"] == "ParseError"
        assert "finite" in tail["message"]


FIXTURE_RECORD = {"id": "q", "events": [{"a": 3.0, "b": "x"}, {"a": 7.0, "b": "y"}]}


def infer_fixture(bundle_path: Path, record: str):
    return CliRunner().invoke(main, ["infer", "--bundle", str(bundle_path),
                                     "--input", "-"], input=record + "\n")


def test_infer_loads_four_gate_bundle():
    result = infer_fixture(FIXTURES / "bundle_four_gate.json", json.dumps(FIXTURE_RECORD))
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.splitlines()[0])["id"] == "q"


def test_infer_rejects_bad_gate_sets_exit_3(tmp_path):
    bundle = json.loads((FIXTURES / "bundle_four_gate.json").read_text())
    for name, weights in bad_gate_sets(bundle["encoder"]["weights"]):
        bad = json.loads(json.dumps(bundle))
        bad["encoder"]["weights"] = weights
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bad))
        result = infer_fixture(path, json.dumps(FIXTURE_RECORD))
        assert result.exit_code == 3, (name, result.output)
        tail = json.loads(result.output.strip().splitlines()[-1])
        assert tail["error"] == "BundleIntegrityError", (name, tail)
        assert tail["exit_code"] == 3


def test_infer_rejects_integer_too_large_for_a_float():
    huge = "9" * 400
    for text in (json.dumps(FIXTURE_RECORD).replace("3.0", huge, 1),
                 json.dumps({**FIXTURE_RECORD, "label": 0}).replace("0}", huge + "}")):
        assert huge in text
        result = infer_fixture(FIXTURES / "bundle_four_gate.json", text)
        assert result.exit_code == 3, result.output
        tail = json.loads(result.output.strip().splitlines()[-1])
        assert tail["error"] == "ParseError"
        assert "finite" in tail["message"]


@pytest.mark.parametrize("value", ['"zz"', '"1.5"'], ids=["word", "numeral string"])
def test_infer_rejects_string_in_numerical_field_exit_3(value):
    text = json.dumps(FIXTURE_RECORD).replace("3.0", value, 1)
    assert value in text
    result = infer_fixture(FIXTURES / "bundle_four_gate.json", text)
    assert result.exit_code == 3, result.output
    tail = json.loads(result.output.strip().splitlines()[-1])
    assert tail["error"] == "SchemaViolationError"
    assert tail["exit_code"] == 3
    assert "'a' holds a str" in tail["message"]


def test_infer_rejects_non_finite_bundle_exit_3(tmp_path):
    bundle = json.loads((FIXTURES / "bundle_four_gate.json").read_text())
    bundle["gnn"]["weights"]["w_head"][0][0] = float("nan")
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(bundle))
    assert "NaN" in path.read_text()
    result = infer_fixture(path, json.dumps(FIXTURE_RECORD))
    assert result.exit_code == 3, result.output
    tail = json.loads(result.output.strip().splitlines()[-1])
    assert tail["error"] == "BundleIntegrityError"
    assert tail["exit_code"] == 3
    assert "non-finite" in tail["message"]


def test_infer_rejects_non_finite_output_exit_4(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(overflowing_bundle()))
    result = infer_fixture(path, json.dumps(FIXTURE_RECORD))
    assert result.exit_code == 4, result.output
    tail = json.loads(result.output.strip().splitlines()[-1])
    assert tail["error"] == "NumericFailureError"
    assert tail["exit_code"] == 4
    assert "not finite" in tail["message"]


def test_config_file_applies(workspace, tmp_path):
    runner, data = workspace["runner"], workspace["data"]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("embed_dim = 8\nencoder_epochs = 1\nbatch_size = 16\n")
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "train-encoder", "--train", str(data / "train.jsonl"),
        "--val", str(data / "val.jsonl"), "--config", str(cfg_file),
        "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest_train_encoder.json").read_text())
    assert manifest["config"]["embed_dim"] == 8
    assert manifest["config"]["encoder_epochs"] == 1


def mixed_length_records(labeled=False):
    """Twelve records of 2 to 6 events in the four-gate fixture's schema."""
    out = []
    for i in range(12):
        rec = {"id": f"r{i}", "events": [{"a": float(i + t), "b": "xy"[(i + t) % 2]}
                                         for t in range(2 + i % 5)]}
        if labeled:
            rec["label"] = i % 2
        out.append(rec)
    return out


def write_jsonl(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.mark.parametrize("command,field", [("infer", "score"), ("explain", "explanations")])
def test_scoring_accepts_mixed_event_counts(command, field, tmp_path):
    records = mixed_length_records()
    assert sorted({len(r["events"]) for r in records}) == [2, 3, 4, 5, 6]

    def run(path):
        result = CliRunner().invoke(main, [command, "--bundle",
                                           str(FIXTURES / "bundle_four_gate.json"),
                                           "--input", str(path)])
        assert result.exit_code == 0, result.output
        return [json.loads(ln) for ln in result.output.splitlines() if ln.startswith("{")]

    together = run(write_jsonl(tmp_path / "mixed.jsonl", records))
    assert len(together) == len(records)
    for rec, got in zip(records, together):
        alone = run(write_jsonl(tmp_path / "one.jsonl", [rec]))
        assert (got["id"], got[field]) == (rec["id"], alone[0][field])


def test_train_encoder_rejects_mixed_event_counts_exit_3(tmp_path):
    records = mixed_length_records(labeled=True)
    result = CliRunner().invoke(main, [
        "train-encoder", "--train", str(write_jsonl(tmp_path / "train.jsonl", records)),
        "--val", str(write_jsonl(tmp_path / "val.jsonl", records[:2])),
        "--out-dir", str(tmp_path / "out"), "--set", "embed_dim=4",
        "--set", "encoder_epochs=1"])
    assert result.exit_code == 3, result.output
    tail = json.loads(result.output.strip().splitlines()[-1])
    assert tail["error"] == "SchemaViolationError"
    assert "mixed event counts" in tail["message"]


@pytest.mark.parametrize("command,key,artifact", [
    ("train-encoder", "encoder_epochs", P.ENCODER_FILE),
    ("train-gnn", "gnn_epochs", P.GNN_FILE),
    ("finetune", "finetune_epochs", P.BUNDLE_FILE),
])
def test_zero_epoch_stage_writes_its_artifact(workspace, tmp_path, command, key,
                                              artifact):
    data, out = workspace["data"], workspace["out"]
    inputs = {
        "train-encoder": ["--train", str(data / "train.jsonl"),
                          "--val", str(data / "val.jsonl")],
        "train-gnn": ["--compressed", str(out / P.COMPRESSED_FILE)],
        "finetune": ["--compressed", str(out / P.COMPRESSED_FILE),
                     "--gnn", str(out / P.GNN_FILE),
                     "--embeddings", str(out / P.EMBEDDINGS_FILE), "--no-encoder"],
    }[command]
    result = workspace["runner"].invoke(main, [
        command, *inputs, "--out-dir", str(tmp_path), *workspace["flags"],
        "--set", f"{key}=0"])
    assert result.exit_code == 0, result.output
    assert "no epochs run" in result.output
    assert (tmp_path / artifact).exists()


def missing_input_args(command: str, tmp_path: Path) -> list[str]:
    """Arguments that make `command` fail on a missing artifact (exit 3) or,
    for gen-synth, on a corpus too small to split (exit 2)."""
    missing = str(tmp_path / "absent")
    return {
        "compress": ["--embeddings", missing],
        "embed": ["--encoder", missing, "--data", missing],
        "eval": ["--bundle", missing, "--test", missing],
        "explain": ["--bundle", missing, "--input", missing],
        "finetune": [],
        "gen-synth": ["--n-sequences", "1"],
        "infer": ["--bundle", missing, "--input", missing],
        "run-all": ["--train", missing, "--val", missing, "--test", missing],
        "train-encoder": ["--train", missing, "--val", missing],
        "train-gnn": [],
    }[command]


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_reports_errors_as_one_json_line(command, tmp_path):
    result = CliRunner().invoke(main, [
        command, *missing_input_args(command, tmp_path),
        "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == (2 if command == "gen-synth" else 3), result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    tail = json.loads(result.stderr.strip().splitlines()[-1])
    assert tail["exit_code"] == result.exit_code
    assert set(tail) == {"error", "exit_code", "message"}


def relabel_embeddings(src: Path, dst: Path, label) -> Path:
    """A copy of an embeddings CSV with row i's label replaced by label(i)."""
    header, *rows = src.read_text().splitlines()
    dst.write_text("\n".join([header] + [
        row.rsplit(",", 1)[0] + f",{label(i)!r}" for i, row in enumerate(rows)]) + "\n")
    return dst


@pytest.mark.parametrize("profile,label", [
    ("fraud", lambda i: float(i % 4)),
    ("mobility", lambda i: i % 2),
], ids=["float labels under classification", "int labels under regression"])
def test_compress_rejects_labels_of_the_other_task_exit_3(workspace, tmp_path,
                                                          profile, label):
    csv = relabel_embeddings(workspace["out"] / P.EMBEDDINGS_FILE,
                             tmp_path / "relabeled.csv", label)
    result = workspace["runner"].invoke(main, [
        "compress", "--embeddings", str(csv), "--profile", profile,
        "--set", "clusters=6", "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 3, result.output
    tail = json.loads(result.stderr.strip().splitlines()[-1])
    assert tail["error"] == "TaskMismatchError"
    assert not (tmp_path / "out" / P.COMPRESSED_FILE).exists()


def test_eval_rejects_a_bundle_of_the_other_task_exit_3(workspace, tmp_path):
    result = workspace["runner"].invoke(main, [
        "eval", "--bundle", str(workspace["out"] / P.BUNDLE_FILE),
        "--test", str(workspace["data"] / "test.jsonl"),
        "--profile", "mobility", "--out-dir", str(tmp_path)])
    assert result.exit_code == 3, result.output
    tail = json.loads(result.stderr.strip().splitlines()[-1])
    assert tail["error"] == "TaskMismatchError"
    assert "classification" in tail["message"]
    assert not (tmp_path / P.EVAL_FILE).exists()


@pytest.mark.parametrize("command", ["train-gnn", "finetune"])
@pytest.mark.parametrize("overrides", [
    ("metric=pearson", "epsilon=0.2"),
    ("epsilon=0.2",),
    ("metric=pearson",),
], ids=["metric and epsilon", "epsilon", "metric"])
def test_stages_reject_a_connection_rule_other_than_the_compressed_graphs_exit_3(
        workspace, tmp_path, command, overrides):
    out = workspace["out"]
    inputs = ["--compressed", str(out / P.COMPRESSED_FILE)]
    if command == "finetune":
        inputs += ["--gnn", str(out / P.GNN_FILE),
                   "--embeddings", str(out / P.EMBEDDINGS_FILE), "--no-encoder"]
    sets = [arg for item in overrides for arg in ("--set", item)]
    run = tmp_path / "out"
    result = workspace["runner"].invoke(main, [
        command, *inputs, "--out-dir", str(run), *workspace["flags"], *sets])
    assert result.exit_code == 3, result.output
    tail = json.loads(result.stderr.strip().splitlines()[-1])
    assert tail["error"] == "ArtifactError"
    assert "cosine/0.5" in tail["message"]
    assert not run.exists()
