import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from test_encoder import FIXTURES, bad_gate_sets
from test_infer import overflowing_bundle

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


def test_bench_command(workspace, tmp_path):
    runner, out = workspace["runner"], workspace["out"]
    result = runner.invoke(main, [
        "bench", "--embeddings", str(out / P.EMBEDDINGS_FILE),
        "--test-embeddings", str(out / P.EMBEDDINGS_FILE),
        "--sweep", "4,8", "--out-dir", str(tmp_path),
        "--set", "gnn_hidden=6", "--set", "gnn_epochs=3",
        "--set", "epsilon=0.5"])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[0].startswith("#Nodes")
    assert (tmp_path / "bench_report.json").exists()


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
