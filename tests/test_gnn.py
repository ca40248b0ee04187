import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqrel.tensor as T
from oracles import full_attach_view_oracle, gnn_forward_oracle, per_epoch_training_oracle
from seqrel import gnn as G
from seqrel.compress import CompressedGraph
from seqrel.exceptions import DimensionError, EmptyInputError, TaskMismatchError


def make_cg(x, y, edges, task="classification", onehot=True, metric="cosine", eps=0.5):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return CompressedGraph(
        mode="centroid", task=task, metric=metric, epsilon=eps,
        features=x, labels=y, edges=np.array(edges, dtype=np.int64).reshape(-1, 2),
        members=[[f"m{j}"] for j in range(x.shape[0])],
        medoid_ids=[f"m{j}" for j in range(x.shape[0])], label_onehot=onehot)


def model_for(kind, in_dim=3, hidden=4, out=2, task="classification", seed=0):
    return G.init_gnn(kind, task, in_dim, hidden, out, np.random.default_rng(seed))


def path_graph_case(seed=1, n=3, d=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    y = np.eye(2)[rng.integers(0, 2, size=n)]
    edges = [[i, i + 1] for i in range(n - 1)]
    return x, y, edges


def neighbor_lists(n, edges):
    out = [[] for _ in range(n)]
    for a, b in edges:
        out[a].append(b)
        out[b].append(a)
    return out


def test_sage_mean_isolated_node():
    m = model_for("sage_mean")
    cg = make_cg([[1.0, -2.0, 0.5]], [[1.0, 0.0]], [])
    out = G.forward_view(m, G.compressed_view(cg))
    expect = np.maximum(np.concatenate([cg.features[0], np.zeros(3)]) @ m.weights["w_conv"], 0)
    assert np.allclose(out[0], expect, atol=1e-12)


def test_gcn_isolated_node():
    m = model_for("gcn")
    cg = make_cg([[0.3, 0.7, -1.0]], [[1.0, 0.0]], [])
    out = G.forward_view(m, G.compressed_view(cg))
    expect = np.maximum(cg.features[0] @ m.weights["w_conv"], 0)
    assert np.allclose(out[0], expect, atol=1e-12)


@pytest.mark.parametrize("kind", G.CONV_KINDS)
def test_path_graph_matches_oracle(kind):
    x, y, edges = path_graph_case()
    m = model_for(kind)
    cg = make_cg(x, y, edges)
    out = G.forward_view(m, G.compressed_view(cg))
    att = None
    if kind == "gat":
        att = np.concatenate([m.weights["att_self"], m.weights["att_neigh"]])
    expect = gnn_forward_oracle(kind, x, neighbor_lists(3, edges), m.weights["w_conv"],
                                att=att, alpha=G.LEAKY_SLOPE)
    assert np.allclose(out, expect, atol=1e-9)


def head(m, w):
    params = {k: T.Tensor(v) for k, v in m.weights.items()}
    return G.predict_tensor(params, T.constant(w), m.task).data


def test_predict_zero_head():
    m = model_for("gcn", hidden=4, out=2)
    m.weights["w_head"] = np.zeros((4, 2))
    assert np.allclose(head(m, np.random.default_rng(0).normal(size=(5, 4))), 0.5)
    reg = model_for("gcn", hidden=4, out=1, task="regression")
    reg.weights["w_head"] = np.zeros((4, 1))
    assert np.array_equal(head(reg, np.ones((3, 4))), np.zeros((3, 1)))


def test_predict_hand_value():
    m = model_for("gcn", hidden=2, out=2)
    m.weights["w_head"] = np.eye(2)
    m.weights["b_head"] = np.array([[0.0, 1.0]])
    logits = np.array([[1.0, 2.0]]) @ np.eye(2) + [0.0, 1.0]
    expect = np.exp(logits - 3.0) / np.exp(logits - 3.0).sum()
    assert np.allclose(head(m, [[1.0, 2.0]]), expect, atol=1e-12)


def test_predict_width_mismatch():
    m = model_for("gcn", hidden=4)
    with pytest.raises(DimensionError):
        head(m, np.ones((2, 5)))


@pytest.mark.parametrize("kind", G.CONV_KINDS)
def test_attach_matches_manual_two_node_view(kind):
    rng = np.random.default_rng(3)
    xc = rng.normal(size=(1, 3))
    m = model_for(kind, seed=4)
    cg = make_cg(xc, [[0.0, 1.0]], [])
    query = xc.copy()
    attach = G.attach_view(cg, query, np.array([[0, 0]]))
    via_attach = G.predict_view(m, attach)
    manual = G.GraphView(
        features=np.concatenate([xc, query]),
        edge_src=np.array([0]), edge_dst=np.array([1]),
        degrees=np.array([1, 2]), targets=np.array([1]))
    via_manual = G.predict_view(m, manual)
    assert np.array_equal(via_attach, via_manual)


@pytest.mark.parametrize("kind", G.CONV_KINDS)
def test_connect_edge_order_is_irrelevant(kind):
    rng = np.random.default_rng(5)
    cg = make_cg(rng.normal(size=(4, 3)), np.eye(2)[[0, 1, 0, 1]], [[0, 1], [2, 3]])
    q = rng.normal(size=(2, 3))
    edges = np.array([[0, 2], [0, 0], [1, 3], [1, 1], [0, 1]])
    m = model_for(kind, seed=6)
    a = G.predict_view(m, G.attach_view(cg, q, edges))
    b = G.predict_view(m, G.attach_view(cg, q, edges[::-1]))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("kind", G.CONV_KINDS)
def test_batch_composition_does_not_change_predictions(kind):
    rng = np.random.default_rng(7)
    cg = make_cg(rng.normal(size=(5, 3)), np.eye(2)[[0, 0, 1, 1, 0]], [[0, 1], [1, 2]])
    queries = rng.normal(size=(3, 3))
    edges = np.array([[0, 0], [0, 3], [1, 1], [2, 2], [2, 4]])
    m = model_for(kind, seed=8)
    full = G.predict_view(m, G.attach_view(cg, queries, edges))
    # same queries, permuted within the batch
    perm = np.array([2, 0, 1])
    remap = {0: 1, 1: 2, 2: 0}
    p_edges = np.array([[remap[q], j] for q, j in edges.tolist()])
    permuted = G.predict_view(m, G.attach_view(cg, queries[perm], p_edges))
    assert np.array_equal(permuted, full[perm])
    # and alone in a batch of one
    solo = G.predict_view(m, G.attach_view(cg, queries[1:2], np.array([[0, 1]])))
    assert np.allclose(solo[0], full[1], atol=1e-12)


def test_gat_attention_weights_sum_to_one():
    x, y, edges = path_graph_case(seed=9, n=4)
    m = model_for("gat", seed=10)
    z = x @ m.weights["w_conv"]
    s_self = z @ m.weights["att_self"]
    s_neigh = z @ m.weights["att_neigh"]
    for i, nbrs in enumerate(neighbor_lists(4, edges)):
        pool = nbrs + [i]
        e = np.array([float(s_self[i, 0] + s_neigh[j, 0]) for j in pool])
        e = np.where(e > 0, e, G.LEAKY_SLOPE * e)
        w = np.exp(e - e.max())
        w /= w.sum()
        assert abs(w.sum() - 1.0) < 1e-9


@pytest.mark.parametrize("kind", G.CONV_KINDS)
def test_one_hop_locality(kind):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 3))
    cg = make_cg(x, np.eye(2)[[0, 1, 0, 1]], [[0, 1]])  # node 3 isolated
    m = model_for(kind, seed=12)
    base = G.forward_view(m, G.compressed_view(cg))
    x2 = x.copy()
    x2[3] += 10.0  # perturb a non-neighbor of nodes 0 and 1
    moved = G.forward_view(m, G.compressed_view(make_cg(x2, np.eye(2)[[0, 1, 0, 1]],
                                                        [[0, 1]])))
    assert np.array_equal(base[:2], moved[:2])
    assert not np.allclose(base[3], moved[3])


def test_duplicate_neighbor_semantics():
    x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    m_mean = model_for("sage_mean", in_dim=2, seed=13)
    m_max = model_for("sage_max", in_dim=2, seed=13)

    def view(edges):
        src = np.array([e[0] for e in edges])
        dst = np.array([e[1] for e in edges])
        order = np.lexsort((src, dst))
        return G.GraphView(features=x, edge_src=src[order], edge_dst=dst[order],
                           degrees=np.bincount(dst, minlength=3) + 1,
                           targets=np.array([1]))

    once = view([(0, 1), (2, 1)])
    doubled = view([(0, 1), (2, 1), (2, 1)])
    assert np.array_equal(G.forward_view(m_max, once), G.forward_view(m_max, doubled))
    mean_doubled = G.forward_view(m_mean, doubled)
    agg = (x[0] + 2 * x[2]) / 3.0
    expect = np.maximum(np.concatenate([x[1], agg]) @ m_mean.weights["w_conv"], 0)
    assert np.allclose(mean_doubled[0], expect, atol=1e-12)


@pytest.mark.parametrize("kind", G.CONV_KINDS)
def test_compressed_loss_gradients(kind):
    rng = np.random.default_rng(14)
    x = rng.normal(size=(5, 3))
    y = np.eye(2)[rng.integers(0, 2, size=5)]
    cg = make_cg(x, y, [[0, 1], [1, 2], [3, 4]])
    m = model_for(kind, seed=15)
    params = {k: T.Tensor(v) for k, v in m.weights.items()}
    view = G.compressed_view(cg)

    def build(tape):
        pred = G.predict_tensor(params, G.gnn_forward(params, kind, view), m.task)
        return T.ce_loss(pred, T.constant(y))

    assert T.finite_diff_check(build, list(params.values())) <= 1e-4


@pytest.mark.parametrize("kind", G.CONV_KINDS)
def test_correlation_loss_gradients(kind):
    rng = np.random.default_rng(16)
    cg = make_cg(rng.normal(size=(2, 3)), np.eye(2)[[0, 1]], [[0, 1]])
    h_real = rng.normal(size=(3, 3))
    y = np.eye(2)[[0, 1, 1]]
    edges = np.array([[0, 0], [1, 1], [2, 0], [2, 1]])
    m = model_for(kind, seed=17)
    params = {k: T.Tensor(v) for k, v in m.weights.items()}
    view = G.attach_view(cg, h_real, edges)

    def build(tape):
        pred = G.predict_tensor(params, G.gnn_forward(params, kind, view), m.task)
        return T.ce_loss(pred, T.constant(y))

    assert T.finite_diff_check(build, list(params.values())) <= 1e-4


def two_blob_cg(seed=18, k=8):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(size=(k // 2, 3)) + 3.0,
                        rng.normal(size=(k // 2, 3)) - 3.0])
    y = np.eye(2)[[1] * (k // 2) + [0] * (k // 2)]
    return make_cg(x, y, [[i, i + 1] for i in range(k // 2 - 1)])


def test_training_reduces_loss_and_uses_ce_branch():
    cg = two_blob_cg()
    m = model_for("sage_mean", seed=19)
    history = G.train_on_compressed(m, cg, epochs=50)
    assert history["loss_kind"] == "ce"
    assert history["loss"][-1] < history["loss"][0]
    assert all(np.isfinite(v) for v in history["loss"])


def test_soft_labels_use_mse_branch():
    cg = two_blob_cg()
    cg.labels = np.full_like(cg.labels, 0.5)
    cg.label_onehot = False
    m = model_for("gcn", seed=20)
    history = G.train_on_compressed(m, cg, epochs=10)
    assert history["loss_kind"] == "mse"
    assert all(np.isfinite(v) for v in history["loss"])


def test_regression_training_uses_mse():
    cg = two_blob_cg()
    cg.task = "regression"
    cg.labels = cg.features[:, :1] * 0.5
    cg.label_onehot = False
    m = model_for("sage_max", out=1, task="regression", seed=21)
    history = G.train_on_compressed(m, cg, epochs=30)
    assert history["loss_kind"] == "mse"
    assert history["loss"][-1] < history["loss"][0]


def test_training_is_deterministic():
    def run():
        m = model_for("gat", seed=22)
        return G.train_on_compressed(m, two_blob_cg(), epochs=10)["loss"]

    assert run() == run()


def test_validation_early_stopping_restores_best():
    cg = two_blob_cg()
    rng = np.random.default_rng(23)
    x_val = rng.normal(size=(6, 3))
    y_val = np.array([1, 1, 1, 0, 0, 0])
    m = model_for("sage_mean", seed=24)
    history = G.train_on_compressed(m, cg, epochs=200, val=(x_val, y_val), patience=3)
    assert len(history["val_loss"]) <= 200
    assert history["best_epoch"] <= len(history["val_loss"]) - 1
    assert len(history["val_loss"]) > history["best_epoch"] + 1  # restore has work to do
    fresh = model_for("sage_mean", seed=24)
    G.train_on_compressed(fresh, cg, epochs=history["best_epoch"] + 1)
    assert m.weights.keys() == fresh.weights.keys()
    assert all(np.array_equal(m.weights[k], fresh.weights[k]) for k in m.weights)


def test_task_and_dim_mismatches():
    cg = two_blob_cg()
    with pytest.raises(TaskMismatchError):
        G.train_on_compressed(model_for("gcn", task="regression", out=1), cg)
    with pytest.raises(DimensionError):
        G.train_on_compressed(model_for("gcn", in_dim=7), cg)


def test_finetune_reduces_loss_and_keeps_compressed_inputs():
    rng = np.random.default_rng(25)
    cg = two_blob_cg()
    frozen = cg.features.copy()
    h_real = np.concatenate([rng.normal(size=(20, 3)) + 3.0,
                             rng.normal(size=(20, 3)) - 3.0])
    y_real = np.array([1] * 20 + [0] * 20)
    m = model_for("sage_mean", seed=26)
    history = G.finetune_correlation(m, h_real, y_real, cg, epochs=10, batch_size=8,
                                     rng=np.random.default_rng(27))
    assert history["loss"][-1] < history["loss"][0]
    assert np.array_equal(cg.features, frozen)


def test_finetune_rejects_empty_compressed_graph():
    empty = make_cg(np.zeros((0, 3)), np.zeros((0, 2)), [])
    with pytest.raises(EmptyInputError):
        G.finetune_correlation(model_for("gcn"), np.ones((2, 3)), np.array([0, 1]),
                               empty, rng=np.random.default_rng(0))


def test_gnn_save_load_round_trip(tmp_path):
    m = model_for("gat", seed=28)
    path = tmp_path / "gnn.json"
    G.save_gnn(path, m)
    back = G.load_gnn(path)
    assert (back.kind, back.task, back.in_dim, back.hidden_dim, back.out_dim) == \
        (m.kind, m.task, m.in_dim, m.hidden_dim, m.out_dim)
    for k in m.weights:
        assert np.array_equal(back.weights[k], m.weights[k])
    path2 = tmp_path / "gnn2.json"
    G.save_gnn(path2, back)
    assert path.read_bytes() == path2.read_bytes()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 12), d=st.integers(1, 6), b=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_compact_view_matches_full_view(k, d, b, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(k, d))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    comp_edges = [p for p in pairs if rng.random() < 0.3]
    cg = make_cg(x, np.eye(2)[rng.integers(0, 2, size=k)], comp_edges)
    queries = rng.normal(size=(b, d))
    all_pairs = np.array([(q, j) for q in range(b) for j in range(k)])
    edges = all_pairs[rng.random(len(all_pairs)) < rng.uniform(0.0, 0.6)]
    edges = edges[rng.permutation(len(edges))].reshape(-1, 2)
    compact = G.attach_view(cg, queries, edges)
    full = full_attach_view_oracle(cg, queries, edges)
    assert compact.num_nodes == np.unique(edges[:, 1]).size + b
    for kind in G.CONV_KINDS:
        m = model_for(kind, in_dim=d, seed=seed % 1000)
        got, want = G.predict_view(m, compact), G.predict_view(m, full)
        if kind == "gat":
            assert np.abs(got - want).max() <= 1e-12
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["gcn", "sage_mean", "sage_max"])
@pytest.mark.parametrize("with_val", [False, True], ids=["budget", "early-stop"])
def test_hoisted_training_matches_per_epoch_loop(kind, with_val):
    cg = two_blob_cg(k=10)
    rng = np.random.default_rng(29)
    val = (rng.normal(size=(12, 3)) * 3.0, rng.integers(0, 2, size=12)) if with_val else None
    hoisted, looped = model_for(kind, seed=30), model_for(kind, seed=30)
    got = G.train_on_compressed(hoisted, cg, epochs=40, val=val, patience=3)
    want = per_epoch_training_oracle(looped, cg, epochs=40, val=val, patience=3)
    assert got == want
    assert all(np.array_equal(hoisted.weights[k], looped.weights[k]) for k in looped.weights)
