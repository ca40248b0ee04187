import numpy as np
import pytest

from seqrel import config as CF
from seqrel import data as D
from seqrel import pipeline as P
from seqrel import synth as S
from seqrel.exceptions import ArtifactError, TaskMismatchError
from seqrel.ioutil import read_json


def small_cfg(**kw):
    overrides = dict(embed_dim="8", gnn_hidden="6", clusters="6",
                     encoder_epochs="2", gnn_epochs="5", batch_size="16",
                     epsilon="0.5", seed="0")
    overrides.update({k: str(v) for k, v in kw.items()})
    return CF.apply_overrides(CF.profile_config("fraud"), overrides)


@pytest.fixture(scope="module")
def synth_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthdata")
    res = S.generate(S.GeneratorConfig(
        n_sequences=120, num_events=3, n_numeric=2, n_categorical=1,
        vocab_size=4, n_archetypes=4, pos_rate=0.2, noise_scale=0.2, seed=5))
    return S.write_synth(res, root)


def run_steps(cfg, files, out_dir):
    enc = P.run_train_encoder(cfg, files["train"], files["val"], out_dir)
    emb = P.run_embed(cfg, enc["encoder_path"], files["train"], out_dir)
    comp = P.run_compress(cfg, emb["embeddings_path"], out_dir)
    gnn = P.run_train_gnn(cfg, comp["compressed_path"], out_dir)
    fine = P.run_finetune(cfg, comp["compressed_path"], gnn["gnn_path"],
                          emb["embeddings_path"], out_dir,
                          encoder_path=enc["encoder_path"])
    return P.run_eval(cfg, fine["bundle_path"], files["test"], out_dir)


ARTIFACTS = (P.ENCODER_FILE, P.EMBEDDINGS_FILE, P.COMPRESSED_FILE, P.GNN_FILE,
             P.FINETUNED_FILE, P.BUNDLE_FILE, P.EVAL_FILE)


def test_run_all_smoke(synth_files, tmp_path):
    out = tmp_path / "run"
    summary = P.run_all(small_cfg(), synth_files["train"], synth_files["val"],
                        synth_files["test"], out)
    report = summary["eval"]
    assert report["task"] == "classification"
    assert report["count"] == 20
    assert 0.0 <= report["metrics"]["auprc"] <= 1.0
    assert 0.0 <= report["metrics"]["recall_at_precision"] <= 1.0
    for name in ARTIFACTS:
        assert (out / name).exists()
    manifest = read_json(out / "manifest_run_all.json")
    assert manifest["command"] == "run-all"
    assert manifest["config"]["clusters"] == 6
    assert all(len(h) == 64 for h in manifest["inputs"].values())


def test_steps_equal_run_all_bytes(synth_files, tmp_path):
    a = tmp_path / "steps"
    b = tmp_path / "all"
    run_steps(small_cfg(), synth_files, a)
    P.run_all(small_cfg(), synth_files["train"], synth_files["val"],
              synth_files["test"], b)
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_all_is_reproducible(synth_files, tmp_path):
    a = tmp_path / "first"
    b = tmp_path / "second"
    for out in (a, b):
        P.run_all(small_cfg(), synth_files["train"], synth_files["val"],
                  synth_files["test"], out)
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    c = tmp_path / "reseeded"
    P.run_all(small_cfg(seed=1), synth_files["train"], synth_files["val"],
              synth_files["test"], c)
    assert (a / P.ENCODER_FILE).read_bytes() != (c / P.ENCODER_FILE).read_bytes()


def test_retraining_gnn_leaves_compressed_untouched(synth_files, tmp_path):
    out = tmp_path / "run"
    cfg = small_cfg()
    P.run_all(cfg, synth_files["train"], synth_files["val"],
              synth_files["test"], out)
    frozen = (out / P.COMPRESSED_FILE).read_bytes()
    gnn_before = (out / P.GNN_FILE).read_bytes()
    P.run_train_gnn(cfg, out / P.COMPRESSED_FILE, out)
    assert (out / P.COMPRESSED_FILE).read_bytes() == frozen
    assert (out / P.GNN_FILE).read_bytes() == gnn_before


def test_dependency_errors_name_producer(synth_files, tmp_path):
    cfg = small_cfg()
    with pytest.raises(ArtifactError, match="compress"):
        P.run_train_gnn(cfg, tmp_path / "missing" / P.COMPRESSED_FILE, tmp_path)
    with pytest.raises(ArtifactError, match="train-encoder"):
        P.run_embed(cfg, tmp_path / "nope" / P.ENCODER_FILE,
                    synth_files["train"], tmp_path)
    with pytest.raises(ArtifactError, match="embed"):
        P.run_compress(cfg, tmp_path / "nope" / P.EMBEDDINGS_FILE, tmp_path)
    with pytest.raises(ArtifactError, match="finetune"):
        P.run_eval(cfg, tmp_path / "nope" / P.BUNDLE_FILE,
                   synth_files["test"], tmp_path)


def mobility_cfg():
    return CF.apply_overrides(
        CF.profile_config("mobility"),
        {"clusters": "6", "gnn_hidden": "6", "epsilon": "0.5"})


def test_task_mismatch_detected(synth_files, tmp_path):
    out = tmp_path / "run"
    P.run_all(small_cfg(), synth_files["train"], synth_files["val"],
              synth_files["test"], out)
    with pytest.raises(TaskMismatchError):
        P.run_train_gnn(mobility_cfg(), out / P.COMPRESSED_FILE, tmp_path / "other")


def test_train_encoder_checks_task_before_training(synth_files, tmp_path,
                                                   monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("trained on data of the wrong task")

    monkeypatch.setattr(P.E, "train_encoder", never)
    with pytest.raises(TaskMismatchError, match="classification"):
        P.run_train_encoder(mobility_cfg(), synth_files["train"],
                            synth_files["val"], tmp_path)
    assert not (tmp_path / P.ENCODER_FILE).exists()


def test_stages_reject_artifacts_of_the_other_task(synth_files, tmp_path):
    out = tmp_path / "run"
    P.run_all(small_cfg(), synth_files["train"], synth_files["val"],
              synth_files["test"], out)
    other, reg_cfg = tmp_path / "other", mobility_cfg()
    with pytest.raises(TaskMismatchError):
        P.run_compress(reg_cfg, out / P.EMBEDDINGS_FILE, other)
    with pytest.raises(TaskMismatchError):
        P.run_finetune(reg_cfg, out / P.COMPRESSED_FILE, out / P.GNN_FILE,
                       out / P.EMBEDDINGS_FILE, other)
    with pytest.raises(TaskMismatchError):
        P.run_eval(reg_cfg, out / P.BUNDLE_FILE, synth_files["test"], other)
    reg_gnn = tmp_path / "reg_gnn.json"
    reg_gnn.write_text((out / P.GNN_FILE).read_text().replace(
        '"task":"classification"', '"task":"regression"'))
    with pytest.raises(TaskMismatchError, match="reg_gnn"):
        P.run_finetune(small_cfg(), out / P.COMPRESSED_FILE, reg_gnn,
                       out / P.EMBEDDINGS_FILE, other)
    assert not other.exists()


def test_label_kind_is_checked_before_use(synth_files, tmp_path):
    out = tmp_path / "run"
    cfg = small_cfg()
    P.run_all(cfg, synth_files["train"], synth_files["val"],
              synth_files["test"], out)
    ids, x, labels = D.load_embeddings(out / P.EMBEDDINGS_FILE)
    floats = tmp_path / "float_labels.csv"
    D.save_embeddings(floats, ids, x, [float(v) + 0.5 for v in labels])
    with pytest.raises(TaskMismatchError):
        P.run_train_gnn(cfg, out / P.COMPRESSED_FILE, tmp_path / "gnn", floats)
    with pytest.raises(TaskMismatchError):
        P.run_finetune(cfg, out / P.COMPRESSED_FILE, out / P.GNN_FILE, floats,
                       tmp_path / "finetune")
    test = D.read_sequences(synth_files["test"])
    for r in test.records:
        r.label = float(r.label)
    float_test = tmp_path / "test_float_labels.jsonl"
    D.write_sequences(float_test, test)
    with pytest.raises(TaskMismatchError):
        P.run_eval(cfg, out / P.BUNDLE_FILE, float_test, tmp_path / "eval")
    assert not (tmp_path / "eval").exists()


def test_eval_from_embeddings(synth_files, tmp_path):
    out = tmp_path / "run"
    cfg = small_cfg()
    P.run_all(cfg, synth_files["train"], synth_files["val"],
              synth_files["test"], out)
    enc_path = out / P.ENCODER_FILE
    emb = P.run_embed(cfg, enc_path, synth_files["test"], out,
                      out_name="test_embeddings.csv")
    got = P.run_eval(cfg, out / P.BUNDLE_FILE, emb["embeddings_path"],
                     tmp_path / "embeval", embeddings=True)
    direct = P.run_eval(cfg, out / P.BUNDLE_FILE, synth_files["test"],
                        tmp_path / "seqeval")
    assert got["report"]["metrics"] == direct["report"]["metrics"]
    assert got["latency"]["count"] == 20


def test_stage_rngs_are_independent():
    streams = {s: P.stage_rng(0, s).normal(size=4).tolist()
               for s in P.STAGE_TAGS}
    flat = [tuple(v) for v in streams.values()]
    assert len(set(flat)) == len(flat)
    again = P.stage_rng(0, "compress").normal(size=4).tolist()
    assert streams["compress"] == again
