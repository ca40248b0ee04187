import json
import warnings

import numpy as np
import pytest
from test_encoder import FIXTURES

import seqrel.tensor as T
from seqrel import compress as C
from seqrel import data as D
from seqrel import encoder as E
from seqrel import gnn as G
from seqrel import infer as I
from seqrel.exceptions import (BundleIntegrityError, DataError, NumericFailureError,
                               ParameterError, SchemaViolationError)
from seqrel.graph import prep_rows
from seqrel.ioutil import canonical_json


def toy_corpus(n=24, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(size=(n // 2, dim)) + 4.0,
                        rng.normal(size=(n // 2, dim)) - 4.0])
    labels = np.array([1] * (n // 2) + [0] * (n // 2))
    ids = [f"r{i:03d}" for i in range(n)]
    return x, labels, ids


def toy_bundle(mode="centroid", k=4, seed=0, fallback_m=1, epsilon=0.3):
    x, labels, ids = toy_corpus(seed=seed)
    cg, _ = C.compress_graph(x, labels, ids, k=k, mode=mode,
                             task=D.CLASSIFICATION, metric="cosine",
                             epsilon=epsilon, pos_ratio=0.5,
                             rng=np.random.default_rng(seed))
    gnn = G.init_gnn("sage_mean", D.CLASSIFICATION, x.shape[1], 6, 2,
                     np.random.default_rng(seed + 1))
    G.train_on_compressed(gnn, cg, epochs=30)
    return I.build_bundle(None, gnn, cg, fallback_m=fallback_m), x, labels, ids


def test_score_on_compressed_feature_row():
    bundle, x, _, _ = toy_bundle()
    res = I.score(bundle, bundle.cg.features[0])
    assert res.id is None
    assert np.isfinite(res.output).all()
    assert abs(sum(res.output) - 1.0) < 1e-9
    assert 0.0 <= res.score <= 1.0
    assert res.latency_s >= 0.0


def test_score_below_epsilon_uses_fallback():
    bundle, x, _, _ = toy_bundle(epsilon=0.999999)
    stranger = -np.ones(4) + 0.01 * np.arange(4)
    res = I.score(bundle, stranger)
    assert np.isfinite(res.output).all()
    assert abs(sum(res.output) - 1.0) < 1e-9


def test_score_matches_finetune_forward_bitwise():
    bundle, x, _, _ = toy_bundle()
    h = x[3].reshape(1, -1)
    from seqrel.graph import connect_to_compressed

    edges = connect_to_compressed(h, bundle.cg.features, bundle.metric,
                                  bundle.epsilon, fallback_m=bundle.fallback_m)
    view = G.attach_view(bundle.cg, h, edges)
    params = {k: T.Tensor(v) for k, v in bundle.gnn.weights.items()}
    tape = T.Tape()
    tape.watch(*params.values())
    pred = G.predict_tensor(params, G.gnn_forward(params, bundle.gnn.kind, view),
                            bundle.gnn.task)
    tape.release()
    got = I.score(bundle, x[3])
    assert got.output == pred.data[0].tolist()


def test_embedding_width_mismatch():
    bundle, _, _, _ = toy_bundle()
    with pytest.raises(BundleIntegrityError):
        I.score(bundle, np.ones(7))


def test_record_without_encoder_rejected():
    bundle, _, _, _ = toy_bundle()
    rec = D.Record(id="q", events=[{"a": 1.0}], label=None)
    with pytest.raises(BundleIntegrityError):
        I.score(bundle, rec)


def encoder_bundle():
    records = [D.Record(id=f"t{i}", events=[{"a": float(i), "b": "x"}],
                        label=i % 2) for i in range(12)]
    ds = D.SequenceDataset(records)
    schema = D.fit_field_schema(ds)
    enc = E.init_encoder(schema, D.CLASSIFICATION, 2, 4, np.random.default_rng(0))
    x = E.embed_all(enc, ds)
    cg, _ = C.compress_graph(x, ds.labels_array().astype(int), ds.ids, k=3,
                             mode="centroid", task=D.CLASSIFICATION,
                             metric="cosine", epsilon=0.5, pos_ratio=0.5,
                             rng=np.random.default_rng(1))
    gnn = G.init_gnn("gcn", D.CLASSIFICATION, 4, 5, 2, np.random.default_rng(2))
    return I.build_bundle(enc, gnn, cg), records, x


def test_encoder_route_matches_manual_embedding():
    bundle, records, x = encoder_bundle()
    via_record = I.score(bundle, records[5])
    via_vector = I.score(bundle, x[5])
    assert via_record.output == via_vector.output
    assert via_record.id == "t5"


def test_score_batch_matches_single_and_permutes():
    bundle, x, _, _ = toy_bundle()
    queries = [x[i] for i in (0, 5, 13, 20)]
    results, agg = I.score_batch(bundle, queries)
    assert agg["count"] == 4
    assert agg["mean_s"] >= 0.0 and agg["p99_s"] >= 0.0
    singles = [I.score(bundle, q) for q in queries]
    for got, want in zip(results, singles):
        assert got.output == want.output
    perm_results, _ = I.score_batch(bundle, queries[::-1])
    assert [r.output for r in perm_results] == [r.output for r in results[::-1]]


def conv_bundle(kind, task, seed=0):
    """toy_bundle's corpus under any conv and either task."""
    x, labels, ids = toy_corpus(seed=seed)
    y = labels if task == D.CLASSIFICATION else x[:, 0] * 0.5
    cg, _ = C.compress_graph(x, y, ids, k=6, mode="centroid", task=task, metric="cosine",
                             epsilon=0.3, pos_ratio=0.5 if task == D.CLASSIFICATION else None,
                             rng=np.random.default_rng(seed))
    gnn = G.init_gnn(kind, task, x.shape[1], 6, cg.labels.shape[1],
                     np.random.default_rng(seed + 1))
    G.train_on_compressed(gnn, cg, epochs=10)
    return I.build_bundle(None, gnn, cg, fallback_m=2), x


@pytest.mark.parametrize("block", [None, 3], ids=["default block", "block of 3"])
@pytest.mark.parametrize("task", [D.CLASSIFICATION, D.REGRESSION])
@pytest.mark.parametrize("kind", G.CONV_KINDS)
def test_blocked_batch_rows_equal_single_scores(kind, task, block, monkeypatch):
    """Every row of a batch, over whole and partial blocks, is the single
    score of its record, bit for bit; a permuted batch (handed over as a
    generator) permutes them."""
    if block is not None:
        monkeypatch.setattr(I, "SCORE_BLOCK", block)
    bundle, x = conv_bundle(kind, task)
    rng = np.random.default_rng(9)
    queries = list(np.concatenate([x, rng.normal(size=(150 - len(x), 4)) * 3.0]))
    results, agg = I.score_batch(bundle, queries)
    assert agg["count"] == 150
    assert [r.output for r in results] == [I.score(bundle, q).output for q in queries]
    perm = rng.permutation(150)
    permuted, _ = I.score_batch(bundle, (queries[i] for i in perm))
    assert [r.output for r in permuted] == [results[i].output for i in perm]


def test_score_batch_reports_offending_record():
    bundle, x, _, _ = toy_bundle()
    with pytest.raises(BundleIntegrityError, match="#1"):
        I.score_batch(bundle, [x[0], np.ones(9)])
    # in the middle of a block, and of a later block
    for at in (I.SCORE_BLOCK // 2, I.SCORE_BLOCK + 5):
        wide = [x[i % 24] for i in range(2 * I.SCORE_BLOCK)]
        wide[at] = np.ones(9)
        with pytest.raises(BundleIntegrityError, match=f"record #{at}: embedding has width 9") as err:
            I.score_batch(bundle, wide)
        assert err.value.exit_code == 3
        nan = [x[i % 24] for i in range(2 * I.SCORE_BLOCK)]
        nan[at] = np.full(4, np.nan)
        with pytest.raises(DataError, match=f"record #{at}: embedding has non-finite"):
            I.score_batch(bundle, nan)


def test_scoring_is_read_only(tmp_path):
    built, x, _, _ = toy_bundle()
    path = tmp_path / "bundle.json"
    I.save_bundle(path, built)
    direct = I.DeployBundle(encoder=None, gnn=built.gnn, cg=built.cg,
                            metric="cosine", epsilon=0.3, fallback_m=1,
                            task=built.cg.task)
    for bundle in (built, I.load_bundle(path), direct):
        # derived scoring state exists right after construction
        assert np.array_equal(bundle._comp_prepped,
                              prep_rows(bundle.cg.features, bundle.metric))
        assert np.array_equal(bundle._comp_degrees, bundle.cg.degrees())
        before = canonical_json(I.bundle_to_dict(bundle))
        held = dict(vars(bundle))
        derived = [bundle._comp_prepped.copy(), bundle._comp_degrees.copy()]
        I.score(bundle, x[0])
        I.score_batch(bundle, [x[1], x[2]])
        I.explain(bundle, x[3], top_r=4)
        assert canonical_json(I.bundle_to_dict(bundle)) == before
        assert all(vars(bundle)[k] is v for k, v in held.items())
        assert vars(bundle).keys() == held.keys()
        assert np.array_equal(bundle._comp_prepped, derived[0])
        assert np.array_equal(bundle._comp_degrees, derived[1])


def test_non_finite_embedding_rejected():
    bundle, x, _, _ = toy_bundle()
    for bad in (np.nan, np.inf, -np.inf):
        query = x[0].copy()
        query[1] = bad
        with pytest.raises(DataError, match="non-finite"):
            I.score(bundle, query)
        with pytest.raises(DataError, match="non-finite"):
            I.explain(bundle, query)
    # an in-memory record never passes the JSONL checks; its NaN must not
    # come out as a plausible score
    bundle, _, _ = encoder_bundle()
    record = D.Record(id="q", events=[{"a": float("nan"), "b": "x"}])
    with pytest.raises(DataError, match="non-finite"):
        I.score(bundle, record)


def overflowing_bundle() -> dict:
    """The four-gate fixture with w_conv and w_head times 1e300: every
    weight is still finite, so the bundle loads, but the output overflows."""
    bundle = json.loads((FIXTURES / "bundle_four_gate.json").read_text())
    for key in ("w_conv", "w_head"):
        bundle["gnn"]["weights"][key] = (np.array(bundle["gnn"]["weights"][key]) * 1e300).tolist()
    return bundle


def test_non_finite_output_raises_numeric_failure(tmp_path):
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(overflowing_bundle()))
    bundle = I.load_bundle(path)
    record = D.Record("q", [{"a": 3.0, "b": "x"}, {"a": 7.0, "b": "y"}])
    # the failure is the typed error alone, with no numpy warning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailureError, match="not finite") as err:
            I.score(bundle, record)
        with pytest.raises(NumericFailureError, match="record q"):
            I.score_batch(bundle, [record])
    assert err.value.exit_code == 4
    # one overflowing row in the middle of a block: weights times 1e80 keep
    # the other rows finite, a query scaled by 1e150 overflows the head
    toy, x, _, _ = toy_bundle()
    big = G.GnnModel(**{**vars(toy.gnn), "weights": {
        k: v * 1e80 if k in ("w_conv", "w_head") else v for k, v in toy.gnn.weights.items()}})
    bundle = I.build_bundle(None, big, toy.cg)
    queries = [x[i % 24] for i in range(I.SCORE_BLOCK)]
    assert all(np.isfinite(r.output).all() for r in I.score_batch(bundle, queries)[0])
    at = I.SCORE_BLOCK // 2
    queries[at] = x[at % 24] * 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailureError, match=f"record #{at}: relation model output "
                                                      "is not finite") as err:
            I.score_batch(bundle, queries)
    assert err.value.exit_code == 4


def test_explain_ranking_and_provenance():
    bundle, x, labels, ids = toy_bundle(mode="medoid", k=4)
    out = I.explain(bundle, x[0], top_r=4)
    assert len(out) == 4
    sims = [e.similarity for e in out]
    assert all(a >= b for a, b in zip(sims, sims[1:]))
    for e in out:
        medoid_id, members = C.trace_representatives(bundle.cg, e.cluster)
        assert e.representative_id == medoid_id
        assert medoid_id in members
        assert medoid_id in ids
    assert any(e.connected for e in out)


def test_explain_duplicate_of_training_row_ranks_own_cluster_first():
    bundle, x, _, ids = toy_bundle(mode="medoid", k=4)
    dup = x[7]
    top = I.explain(bundle, dup, top_r=1)[0]
    _, members = C.trace_representatives(bundle.cg, top.cluster)
    assert ids[7] in members


def test_explain_top_r_clamped_and_validated():
    bundle, _, _, _ = toy_bundle(k=4)
    assert len(I.explain(bundle, bundle.cg.features[0], top_r=99)) == 4
    with pytest.raises(ParameterError):
        I.explain(bundle, bundle.cg.features[0], top_r=0)


def test_bundle_validation_catches_mismatches():
    bundle, x, labels, ids = toy_bundle()
    bad_gnn = G.init_gnn("gcn", D.CLASSIFICATION, 9, 4, 2,
                         np.random.default_rng(0))
    with pytest.raises(BundleIntegrityError):
        I.build_bundle(None, bad_gnn, bundle.cg)
    reg_gnn = G.init_gnn("gcn", D.REGRESSION, 4, 4, 1, np.random.default_rng(0))
    with pytest.raises(BundleIntegrityError):
        I.build_bundle(None, reg_gnn, bundle.cg)
    with pytest.raises(BundleIntegrityError):
        I.build_bundle(None, bundle.gnn, bundle.cg, metric="hamming")
    with pytest.raises(BundleIntegrityError):
        I.build_bundle(None, bundle.gnn, bundle.cg, fallback_m=0)


def test_bundle_save_load_round_trip(tmp_path):
    bundle, x, _, _ = toy_bundle()
    path = tmp_path / "bundle.json"
    I.save_bundle(path, bundle)
    back = I.load_bundle(path)
    assert I.score(back, x[4]).output == I.score(bundle, x[4]).output
    path2 = tmp_path / "bundle2.json"
    I.save_bundle(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_bundle_load_rejects_bad_payload(tmp_path):
    from seqrel.ioutil import write_json_atomic

    bundle, _, _, _ = toy_bundle()
    obj = I.bundle_to_dict(bundle)
    obj["format_version"] = 99
    p = tmp_path / "bad.json"
    write_json_atomic(p, obj)
    with pytest.raises(BundleIntegrityError):
        I.load_bundle(p)
    obj = I.bundle_to_dict(bundle)
    obj["connection"]["metric"] = "hamming"
    write_json_atomic(p, obj)
    with pytest.raises(BundleIntegrityError, match="metric"):
        I.load_bundle(p)
    write_json_atomic(p, {"kind": "other"})
    with pytest.raises(BundleIntegrityError):
        I.load_bundle(p)
    write_json_atomic(p, [1, 2])
    with pytest.raises(BundleIntegrityError):
        I.load_bundle(p)
    # non-finite numbers; canonical JSON refuses them, plain json.dumps writes them
    four_gate = json.loads((FIXTURES / "bundle_four_gate.json").read_text())
    for source, path, value, match in (
            (I.bundle_to_dict(bundle), ("gnn", "weights", "w_head"), "nan", "w_head"),
            (I.bundle_to_dict(bundle), ("gnn", "weights", "b_head"), "-inf", "b_head"),
            (I.bundle_to_dict(bundle), ("compressed_graph", "features"), "inf", "features"),
            (I.bundle_to_dict(bundle), ("compressed_graph", "labels"), "nan", "labels"),
            (four_gate, ("encoder", "weights", "w_f"), "nan", "w_gates"),
            (four_gate, ("encoder", "weights", "b_head"), "inf", "b_head")):
        obj = json.loads(json.dumps(source))
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]][0][0] = float(value)
        p.write_text(json.dumps(obj))
        with pytest.raises(BundleIntegrityError, match=f"non-finite.*{match}"):
            I.load_bundle(p)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), 10 ** 400],
                         ids=["inf", "-inf", "int too large for a float"])
def test_numerical_field_must_be_finite_at_scoring(value):
    bundle = I.load_bundle(FIXTURES / "bundle_four_gate.json")
    record = D.Record("q", [{"a": value, "b": "x"}])
    for call in (I.score, I.explain):
        with pytest.raises(SchemaViolationError, match="'a' holds a non-finite number") as err:
            call(bundle, record)
        assert err.value.exit_code == 3
