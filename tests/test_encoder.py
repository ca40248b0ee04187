import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import lstm_oracle, per_gate_weights, taped_lstm_oracle

import seqrel.tensor as T
from seqrel import data as D
from seqrel import encoder as E
from seqrel import gnn as G
from seqrel import infer as I
from seqrel.exceptions import ArtifactError, BundleIntegrityError

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def toy_schema():
    return D.FieldSchema((D.SchemaField("v", "numerical", vmin=0.0, vmax=1.0),))


def zero_model(hidden=3, task=D.CLASSIFICATION, num_classes=2):
    model = E.init_encoder(toy_schema(), task, num_classes, hidden, np.random.default_rng(0))
    model.weights = {k: np.zeros_like(v) for k, v in model.weights.items()}
    return model


def random_model(hidden=4, task=D.CLASSIFICATION, num_classes=2, seed=1):
    return E.init_encoder(toy_schema(), task, num_classes, hidden, np.random.default_rng(seed))


def rec(values, label=0):
    return D.Record("r", [{"v": v} for v in values], label)


def test_zero_weights_give_zero_embedding():
    model = zero_model()
    h = E.encode_sequence(model, rec([0.2, 0.9, 0.5]))
    assert np.array_equal(h, np.zeros(3))


def test_single_step_matches_hand_gates():
    model = random_model(hidden=4)
    record = rec([0.7])
    x = D.encode_record(model.schema, record)  # (1, 1)
    z = np.concatenate([x[0], np.zeros(4)]).reshape(1, -1)
    w = per_gate_weights(model.weights["w_gates"], model.weights["b_gates"])

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))

    i = sig(z @ w["w_i"] + w["b_i"])
    f = sig(z @ w["w_f"] + w["b_f"])
    o = sig(z @ w["w_o"] + w["b_o"])
    g = np.tanh(z @ w["w_g"] + w["b_g"])
    c = i * g  # initial cell state is zero, so the forget term drops
    expect = o * np.tanh(c)
    assert np.allclose(E.encode_sequence(model, record), expect[0], atol=1e-12)


def test_init_draws_four_glorot_gate_blocks_in_order():
    model = random_model(hidden=4, seed=12)
    rng = np.random.default_rng(12)
    blocks = [T.glorot_uniform(rng, 1 + 4, 4) for _ in E.GATES]
    assert np.array_equal(model.weights["w_gates"], np.concatenate(blocks, axis=1))
    assert np.array_equal(model.weights["b_gates"], np.zeros((1, 16)))
    assert np.array_equal(model.weights["w_head"], T.glorot_uniform(rng, 4, 2))


def test_event_order_matters():
    model = random_model(hidden=4, seed=3)
    a = E.encode_sequence(model, rec([0.1, 0.9]))
    b = E.encode_sequence(model, rec([0.9, 0.1]))
    assert not np.allclose(a, b)


def head(model, h):
    """The encoder's training-time head over embedding rows h."""
    return G.predict_tensor(E._as_tensors(model), T.constant(h), model.task).data


def test_head_zero_weights():
    model = zero_model(num_classes=2)
    assert np.allclose(head(model, np.zeros((1, 3))), [[0.5, 0.5]])
    reg = zero_model(task=D.REGRESSION, num_classes=1)
    assert np.array_equal(head(reg, np.zeros((1, 3))), [[0.0]])


def test_head_hand_value():
    model = zero_model(hidden=2, num_classes=2)
    model.weights["w_head"] = np.array([[1.0, 0.0], [0.0, 1.0]])
    h = np.array([[1.0, 3.0]])
    logits = np.array([1.0, 3.0])
    expect = np.exp(logits - 3.0) / np.exp(logits - 3.0).sum()
    assert np.allclose(head(model, h), [expect], atol=1e-12)


def test_embed_all_matches_per_record_calls():
    model = random_model(hidden=4, seed=5)
    ds = D.SequenceDataset([rec([0.1, 0.2]), rec([0.9, 0.4]), rec([0.1, 0.2])])
    mat = E.embed_all(model, ds)
    for i, r in enumerate(ds.records):
        assert np.array_equal(mat[i], E.encode_sequence(model, r))
    assert np.array_equal(mat[0], mat[2])  # duplicate records, identical rows


def test_encoder_gradients_pass_finite_diff():
    model = random_model(hidden=4, seed=7)
    params = E._as_tensors(model)
    ds = D.SequenceDataset([rec([0.1, 0.8], 0), rec([0.9, 0.2], 1)])
    steps = D.encode_dataset(model.schema, ds)
    targets = np.eye(2)[[0, 1]]

    def build(tape):
        return E.encoder_loss(params, steps, targets, D.CLASSIFICATION)

    err = T.finite_diff_check(build, list(params.values()))
    assert err <= 1e-4


def test_encoder_regression_gradients_pass_finite_diff():
    model = random_model(hidden=3, task=D.REGRESSION, num_classes=1, seed=8)
    params = E._as_tensors(model)
    ds = D.SequenceDataset([rec([0.1, 0.8], 0.3), rec([0.9, 0.2], -0.5)])
    steps = D.encode_dataset(model.schema, ds)
    targets = ds.labels_array().reshape(-1, 1)

    def build(tape):
        return E.encoder_loss(params, steps, targets, D.REGRESSION)

    err = T.finite_diff_check(build, list(params.values()))
    assert err <= 1e-4


def separable_sets():
    rng = np.random.default_rng(11)
    records = []
    for i in range(20):
        label = i % 2
        base = 0.8 if label else 0.2
        events = [{"v": float(base + 0.05 * rng.normal())} for _ in range(2)]
        records.append(D.Record(f"s{i}", events, label))
    train = D.SequenceDataset(records[:14])
    val = D.SequenceDataset(records[14:])
    return train, val


def test_training_loss_decreases_on_separable_toy():
    train, val = separable_sets()
    _, history = E.train_encoder(
        train, val, hidden_dim=4, rng=np.random.default_rng(0),
        lr=0.02, batch_size=14, max_epochs=5, patience=10)
    losses = history["train_loss"]
    assert len(losses) == 5
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_patience_zero_stops_one_epoch_past_best():
    train, val = separable_sets()
    _, history = E.train_encoder(
        train, val, hidden_dim=4, rng=np.random.default_rng(1),
        lr=1.0, batch_size=14, max_epochs=40, patience=0)
    n = len(history["val_loss"])
    assert n < 40, "expected an early stop under an oscillating learning rate"
    assert n == history["best_epoch"] + 2


def test_early_stopping_restores_best_weights():
    train, val = separable_sets()
    model, history = E.train_encoder(
        train, val, hidden_dim=4, rng=np.random.default_rng(1),
        lr=1.0, batch_size=14, max_epochs=40, patience=0)
    assert len(history["val_loss"]) > history["best_epoch"] + 1
    fresh, _ = E.train_encoder(
        train, val, hidden_dim=4, rng=np.random.default_rng(1),
        lr=1.0, batch_size=14, max_epochs=history["best_epoch"] + 1, patience=0)
    assert model.weights.keys() == fresh.weights.keys()
    assert all(np.array_equal(model.weights[k], fresh.weights[k]) for k in model.weights)


def test_training_is_deterministic():
    def run():
        train, val = separable_sets()
        model, history = E.train_encoder(
            train, val, hidden_dim=4, rng=np.random.default_rng(2),
            lr=0.02, batch_size=8, max_epochs=4, patience=10)
        return model, history

    m1, h1 = run()
    m2, h2 = run()
    assert h1 == h2
    assert all(np.array_equal(m1.weights[k], m2.weights[k]) for k in m1.weights)


def test_task_mismatch_rejected():
    train, val = separable_sets()
    reg_val = D.SequenceDataset([D.Record("q", [{"v": 0.1}, {"v": 0.2}], 0.7)])
    with pytest.raises(Exception, match="task"):
        E.train_encoder(train, reg_val, hidden_dim=4, rng=np.random.default_rng(0))


def test_encoder_save_load_round_trip(tmp_path):
    model = random_model(hidden=4, seed=9)
    path = tmp_path / "encoder.json"
    E.save_encoder(path, model)
    back = E.load_encoder(path)
    assert back.task == model.task
    assert back.hidden_dim == model.hidden_dim
    assert back.schema == model.schema
    for k in model.weights:
        assert np.array_equal(back.weights[k], model.weights[k])
    # and a second save produces identical bytes
    path2 = tmp_path / "encoder2.json"
    E.save_encoder(path2, back)
    assert path.read_bytes() == path2.read_bytes()


# ---------------------------------------------------------------------------
# fused-gate scans against the four-gate oracle


def numeric_schema(width):
    return D.FieldSchema(tuple(D.SchemaField(f"v{j}", "numerical", vmin=0.0, vmax=1.0)
                               for j in range(width)))


def scaled_model(width, hidden, scale, seed):
    """Glorot weights and a random bias, all times `scale`; large scales
    drive the gates into saturation."""
    rng = np.random.default_rng(seed)
    model = E.init_encoder(numeric_schema(width), D.CLASSIFICATION, 2, hidden, rng)
    model.weights["b_gates"] = rng.normal(size=model.weights["b_gates"].shape)
    for key in ("w_gates", "b_gates"):
        model.weights[key] *= scale
    return model


def random_records(width, length, count, seed):
    rng = np.random.default_rng(seed)
    return [D.Record(f"r{n}", [{f"v{j}": float(rng.uniform()) for j in range(width)}
                               for _ in range(length)], 0) for n in range(count)]


scan_shapes = dict(hidden=st.integers(1, 9), width=st.integers(1, 5),
                   length=st.integers(1, 7),
                   scale=st.sampled_from([1e-3, 0.5, 1.0, 3.0, 10.0, 60.0]),
                   seed=st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(**scan_shapes)
def test_encode_sequence_matches_four_gate_oracle(hidden, width, length, scale, seed):
    model = scaled_model(width, hidden, scale, seed)
    gates = per_gate_weights(model.weights["w_gates"], model.weights["b_gates"])
    for record in random_records(width, length, 2, seed + 1):
        want = lstm_oracle(gates, D.encode_record(model.schema, record))[0]
        got = E.encode_sequence(model, record)
        assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 5), **scan_shapes)
def test_taped_scan_matches_numpy_scan_per_row(batch, hidden, width, length, scale, seed):
    model = scaled_model(width, hidden, scale, seed)
    ds = D.SequenceDataset(random_records(width, length, batch, seed + 2))
    steps = D.encode_dataset(model.schema, ds)
    params = E._as_tensors(model)
    tape = T.Tape()
    tape.watch(params["w_gates"], params["b_gates"])
    taped = T.lstm_scan(steps, params["w_gates"], params["b_gates"]).data
    tape.release()
    # off the tape the scan runs the same arithmetic
    assert np.array_equal(T.lstm_scan(steps, params["w_gates"], params["b_gates"]).data, taped)
    gates = per_gate_weights(model.weights["w_gates"], model.weights["b_gates"])
    for row in range(batch):
        want = lstm_oracle(gates, steps[row])[0]
        assert np.max(np.abs(taped[row] - want)) <= 1e-12


def scan_gradients(scan, params, watched, target):
    tape = T.Tape()
    tape.watch(*watched)
    tape.backward(T.mse_loss(scan(params), target))
    tape.release()
    return {k: v.grad for k, v in params.items()}


@settings(max_examples=40, deadline=None)
@given(batch=st.integers(1, 5), watched=st.sampled_from([("w_gates", "b_gates"),
                                                         ("w_gates",), ("b_gates",)]),
       **scan_shapes)
def test_scan_gradients_match_per_gate_taped_oracle(batch, watched, hidden, width, length,
                                                    scale, seed):
    model = scaled_model(width, hidden, scale, seed)
    ds = D.SequenceDataset(random_records(width, length, batch, seed + 3))
    steps = D.encode_dataset(model.schema, ds)
    target = T.constant(np.random.default_rng(seed).normal(size=(batch, hidden)))
    fused = {k: T.Tensor(model.weights[k].copy()) for k in ("w_gates", "b_gates")}
    got = scan_gradients(lambda p: T.lstm_scan(steps, p["w_gates"], p["b_gates"]),
                         fused, [fused[k] for k in watched], target)
    gates = {k: T.Tensor(v.copy()) for k, v in
             per_gate_weights(model.weights["w_gates"], model.weights["b_gates"]).items()}
    oracle = scan_gradients(lambda p: taped_lstm_oracle(p, steps), gates,
                            list(gates.values()), target)
    for key in fused:
        if key not in watched:
            assert got[key] is None
            continue
        want = np.concatenate([oracle[f"{key[0]}_{g}"] for g in E.GATES], axis=1)
        assert np.max(np.abs(got[key] - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# files written with four per-gate matrices (w_i..w_g, b_i..b_g)


def fixture_records():
    """Records in the fixtures' schema: numeric field a, categorical b."""
    return [D.Record(f"q{n}", [{"a": float(n), "b": "xy"[n % 2]}, {"a": 11.0 - n, "b": "y"},
                              {"a": 30.0, "b": "z"}], None) for n in range(6)]


def assert_fused_from_four_gate(model, raw_weights):
    for kind in "wb":
        want = np.concatenate([np.array(raw_weights[f"{kind}_{g}"]) for g in E.GATES], axis=1)
        assert np.array_equal(model.weights[f"{kind}_gates"], want)
    assert set(model.weights) == {"w_gates", "b_gates", "w_head", "b_head"}
    for record in fixture_records():
        steps = D.encode_record(model.schema, record)
        want = lstm_oracle({k: np.array(v) for k, v in raw_weights.items()}, steps)[0]
        assert np.max(np.abs(E.encode_sequence(model, record) - want)) <= 1e-12


def test_four_gate_encoder_file_loads_as_exact_concatenation():
    raw = json.loads((FIXTURES / "encoder_four_gate.json").read_text())
    assert "w_i" in raw["weights"] and "w_gates" not in raw["weights"]
    assert_fused_from_four_gate(E.load_encoder(FIXTURES / "encoder_four_gate.json"),
                                raw["weights"])


def test_four_gate_bundle_loads_and_scores(tmp_path):
    raw = json.loads((FIXTURES / "bundle_four_gate.json").read_text())
    bundle = I.load_bundle(FIXTURES / "bundle_four_gate.json")
    assert_fused_from_four_gate(bundle.encoder, raw["encoder"]["weights"])
    result = I.score(bundle, fixture_records()[0])
    assert np.isfinite(result.output).all()
    # files are written in the fused layout only
    I.save_bundle(tmp_path / "bundle.json", bundle)
    saved = json.loads((tmp_path / "bundle.json").read_text())["encoder"]["weights"]
    assert sorted(saved) == ["b_gates", "b_head", "w_gates", "w_head"]


def bad_gate_sets(weights):
    """(name, weights) pairs whose gate set is partial, truncated or
    dimension-flipped, for either layout."""
    fused = {"w_gates": np.concatenate([np.array(weights[f"w_{g}"]) for g in E.GATES], axis=1),
             "b_gates": np.concatenate([np.array(weights[f"b_{g}"]) for g in E.GATES], axis=1),
             "w_head": weights["w_head"], "b_head": weights["b_head"]}
    fused = {k: np.asarray(v).tolist() for k, v in fused.items()}
    return [
        ("partial", {k: v for k, v in weights.items() if k != "w_o"}),
        ("partial bias", {k: v for k, v in weights.items() if k != "b_g"}),
        ("mixed layouts", {**weights, "w_gates": fused["w_gates"]}),
        ("truncated rows", {**weights, "w_f": weights["w_f"][:-1]}),
        ("truncated cols", {**weights, "w_g": [r[:-1] for r in weights["w_g"]]}),
        ("ragged", {**weights, "w_i": weights["w_i"][:-1] + [weights["w_i"][-1][:-1]]}),
        ("flipped", {**weights, "w_i": np.array(weights["w_i"]).T.tolist()}),
        ("fused flipped", {**fused, "w_gates": np.array(fused["w_gates"]).T.tolist()}),
        ("fused truncated", {**fused, "b_gates": [fused["b_gates"][0][:-1]]}),
        ("fused partial", {k: v for k, v in fused.items() if k != "b_gates"}),
    ]


def test_bad_gate_sets_raise_typed_errors(tmp_path):
    raw = json.loads((FIXTURES / "encoder_four_gate.json").read_text())
    bundle = json.loads((FIXTURES / "bundle_four_gate.json").read_text())
    for name, weights in bad_gate_sets(raw["weights"]):
        with pytest.raises(ArtifactError):
            E.encoder_from_dict({**raw, "weights": weights})
        bundle["encoder"]["weights"] = weights
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        with pytest.raises(BundleIntegrityError):
            I.load_bundle(path)
