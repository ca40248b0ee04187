import time

import numpy as np
import pytest

from oracles import compress_oracle, epsilon_graph_oracle
from seqrel import compress as C
from seqrel.exceptions import InfeasibleBalanceError, ParameterError


def blobs(rng, centers, per_center, spread=0.05):
    xs, labels = [], []
    for c, (center, label) in enumerate(centers):
        xs.append(np.asarray(center) + spread * rng.normal(size=(per_center, len(center))))
        labels.extend([label] * per_center)
    return np.concatenate(xs), np.array(labels)


def test_round_half_up():
    assert C.round_half_up(150.0) == 150
    assert C.round_half_up(2.5) == 3
    assert C.round_half_up(2.4) == 2


def test_binary_allotment_matches_table_defaults():
    allot = C.class_allotments({0: 10_000, 1: 1_000}, 500, 0.3)
    assert allot == {0: 350, 1: 150}


def test_binary_allotment_requires_ratio():
    with pytest.raises(ParameterError):
        C.class_allotments({0: 10, 1: 10}, 4, None)


def test_allotment_infeasible_small_class():
    with pytest.raises(InfeasibleBalanceError):
        C.class_allotments({0: 100, 1: 2}, 10, 0.5)  # class 1 needs 5 clusters, has 2


def test_multiclass_allotment_proportional_with_remainder():
    allot = C.class_allotments({0: 60, 1: 30, 2: 10}, 10, None)
    assert sum(allot.values()) == 10
    assert allot[0] >= allot[1] >= allot[2] >= 1


def test_kmeans_singletons_when_k_equals_n():
    x = np.random.default_rng(0).normal(size=(6, 3))
    labels, _ = C.kmeans_pool(x, 6, np.random.default_rng(1))
    assert sorted(labels.tolist()) == list(range(6))


def test_kmeans_sse_trace_non_increasing():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(200, 4))
    _, trace = C.kmeans_pool(x, 8, np.random.default_rng(3))
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))


def test_kmeans_partitions_all_points():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(57, 3))
    labels, _ = C.kmeans_pool(x, 9, np.random.default_rng(5))
    assert labels.shape == (57,)
    assert set(labels.tolist()) == set(range(9))  # no empty clusters


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(6)
    x, _ = blobs(rng, [((0.0, 0.0), 0), ((10.0, 10.0), 0), ((-10.0, 10.0), 0)], 30)
    labels, _ = C.kmeans_pool(x, 3, np.random.default_rng(7))
    for start in (0, 30, 60):
        assert len(set(labels[start:start + 30].tolist())) == 1


def test_balanced_kmeans_respects_class_boundaries():
    rng = np.random.default_rng(8)
    x, y = blobs(rng, [((0.0, 0.0), 0), ((5.0, 5.0), 0), ((0.0, 5.0), 1)], 20)
    members, info = C.balanced_kmeans(x, y, 6, pos_ratio=0.3, rng=np.random.default_rng(9))
    assert info["allotments"] == {"0": 4, "1": 2}
    for j, idx in enumerate(members):
        classes = {int(y[i]) for i in idx}
        assert len(classes) == 1
        assert classes == ({0} if j < 4 else {1})


def test_assignment_centroid_column_and_rows():
    x = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    members = [np.array([0, 1]), np.array([2])]
    assign = C.build_assignment(members, "centroid", x)
    phi = assign.to_dense()
    assert np.allclose(phi[:, 0], [0.5, 0.5, 0.0])
    assert np.allclose(phi[:, 1], [0.0, 0.0, 1.0])
    assert np.allclose(phi.sum(axis=0), 1.0)
    assert np.all((phi != 0).sum(axis=1) == 1)


def test_assignment_medoid_is_selector():
    x = np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0]])
    assign = C.build_assignment([np.array([0, 1, 2])], "medoid", x)
    # mean is (0.3, 0.0333..); member (0.9, 0.1) is nearly collinear with
    # it (cosine ~0.99996) and beats (1, 0) at ~0.9939
    assert assign.medoids[0] == 1
    phi = assign.to_dense()
    assert phi[1, 0] == 1.0 and phi[[0, 2], 0].sum() == 0.0


def test_medoid_tie_breaks_to_lowest_index():
    x = np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 3.0]])
    assign = C.build_assignment([np.array([0, 1]), np.array([2, 3])], "medoid", x)
    # both members of each cluster are collinear with their mean: cosine 1.0
    assert assign.medoids.tolist() == [0, 2]


def test_assignment_singletons_are_permutation():
    x = np.random.default_rng(10).normal(size=(4, 3))
    members = [np.array([2]), np.array([0]), np.array([3]), np.array([1])]
    for mode in ("centroid", "medoid"):
        phi = C.build_assignment(members, mode, x).to_dense()
        assert np.array_equal(phi.sum(axis=0), np.ones(4))
        assert np.array_equal(phi.sum(axis=1), np.ones(4))
        assert np.all((phi == 0) | (phi == 1))


def test_assignment_rejects_bad_partitions():
    x = np.zeros((3, 2))
    with pytest.raises(ParameterError):
        C.build_assignment([np.array([0, 1])], "centroid", x)  # misses node 2
    with pytest.raises(ParameterError):
        C.build_assignment([np.array([0, 1]), np.array([1, 2])], "centroid", x)


def test_compress_matches_phi_transpose_and_loop_oracle():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(30, 5))
    y = np.eye(2)[rng.integers(0, 2, size=30)]
    members, _ = C.balanced_kmeans(x, y.argmax(axis=1), 8, pos_ratio=0.4,
                                   rng=np.random.default_rng(12))
    assign = C.build_assignment(members, "centroid", x)
    x_tilde, y_tilde, onehot = C.compress_features_labels(assign, x, y)
    phi = assign.to_dense()
    assert np.allclose(x_tilde, phi.T @ x, atol=1e-12)
    assert np.allclose(y_tilde, phi.T @ y, atol=1e-12)
    ox, oy = compress_oracle([m.tolist() for m in members], x, y)
    assert np.allclose(x_tilde, ox, atol=1e-12)
    assert np.allclose(y_tilde, oy, atol=1e-12)
    assert onehot  # per-class clustering keeps labels one-hot


def test_compress_soft_labels_flagged():
    x = np.random.default_rng(13).normal(size=(10, 3))
    y = np.eye(2)[[0, 1] * 5]
    members = [np.arange(0, 5), np.arange(5, 10)]  # mixed-label clusters
    assign = C.build_assignment(members, "centroid", x)
    _, y_tilde, onehot = C.compress_features_labels(assign, x, y)
    assert not onehot
    assert np.all((y_tilde > 0.0) & (y_tilde < 1.0))


def test_compress_medoid_rows_are_real_rows():
    x = np.random.default_rng(14).normal(size=(12, 4))
    y = np.eye(2)[np.random.default_rng(15).integers(0, 2, 12)]
    members, _ = C.balanced_kmeans(x, y.argmax(axis=1), 4, pos_ratio=0.5,
                                   rng=np.random.default_rng(16))
    assign = C.build_assignment(members, "medoid", x)
    x_tilde, y_tilde, onehot = C.compress_features_labels(assign, x, y)
    for j in range(4):
        assert np.array_equal(x_tilde[j], x[assign.medoids[j]])
        assert np.array_equal(y_tilde[j], y[assign.medoids[j]])
    assert onehot


def test_compress_adjacency_matches_bruteforce():
    x_tilde = np.random.default_rng(17).normal(size=(12, 4))
    edges = C.compress_adjacency(x_tilde, "cosine", 0.2)
    assert [tuple(e) for e in edges.tolist()] == epsilon_graph_oracle(x_tilde, "cosine", 0.2)
    assert C.compress_adjacency(x_tilde[:1], "cosine", 0.5).size == 0


def test_compress_graph_end_to_end_and_provenance():
    rng = np.random.default_rng(18)
    x, y = blobs(rng, [((0.0, 0.0), 0), ((6.0, 0.0), 0), ((0.0, 6.0), 1)], 15)
    ids = [f"seq{i}" for i in range(45)]
    cg, info = C.compress_graph(
        x, y, ids, k=6, mode="centroid", task="classification", metric="cosine",
        epsilon=0.5, pos_ratio=0.34, rng=np.random.default_rng(19))
    assert cg.k == 6 and cg.dim == 2
    assert info["allotments"] == {"0": 4, "1": 2}
    all_members = [m for ms in cg.members for m in ms]
    assert sorted(all_members) == sorted(ids)  # disjoint cover
    for j in range(cg.k):
        medoid, member_ids = C.trace_representatives(cg, j)
        assert medoid in member_ids
    with pytest.raises(IndexError):
        C.trace_representatives(cg, 6)


def test_compress_graph_rejects_k_not_below_n():
    x = np.zeros((5, 2))
    with pytest.raises(ParameterError):
        C.compress_graph(x, np.array([0.0] * 5), [str(i) for i in range(5)],
                         k=5, mode="centroid", task="regression", metric="cosine",
                         epsilon=0.5, pos_ratio=None, rng=np.random.default_rng(0))


def test_compress_graph_deterministic_given_seed():
    rng = np.random.default_rng(20)
    x, y = blobs(rng, [((0.0, 0.0), 0), ((4.0, 4.0), 1)], 25)
    ids = [str(i) for i in range(50)]

    def run(seed):
        cg, _ = C.compress_graph(x, y, ids, k=8, mode="centroid", task="classification",
                                 metric="cosine", epsilon=0.9, pos_ratio=0.5,
                                 rng=np.random.default_rng(seed))
        return cg

    a, b, c = run(1), run(1), run(2)
    assert np.array_equal(a.features, b.features)
    assert a.members == b.members
    assert a.members != c.members  # different seed, different partition
    # invariants hold under the new seed too
    assert sorted(m for ms in c.members for m in ms) == sorted(ids)


def test_compressed_graph_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    x, y = blobs(rng, [((0.0, 0.0), 0), ((4.0, 4.0), 1)], 10)
    cg, _ = C.compress_graph(x, y, [str(i) for i in range(20)], k=4, mode="medoid",
                             task="classification", metric="cosine", epsilon=0.8,
                             pos_ratio=0.5, rng=np.random.default_rng(22))
    path = tmp_path / "compressed.json"
    C.save_compressed(path, cg)
    back = C.load_compressed(path)
    assert np.array_equal(back.features, cg.features)
    assert np.array_equal(back.labels, cg.labels)
    assert np.array_equal(back.edges, cg.edges)
    assert back.members == cg.members and back.medoid_ids == cg.medoid_ids
    path2 = tmp_path / "compressed2.json"
    C.save_compressed(path2, back)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.slow
def test_compression_time_grows_with_cluster_count():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4000, 16))
    y = (x[:, 0] > 0).astype(int)
    ids = [str(i) for i in range(4000)]
    seconds = []
    for k in (2, 256):
        start = time.perf_counter()
        C.compress_graph(x, y, ids, k=k, mode="centroid",
                         task="classification", metric="cosine", epsilon=0.5,
                         pos_ratio=0.5, rng=np.random.default_rng(0),
                         per_class=False)
        seconds.append(time.perf_counter() - start)
    assert seconds[0] <= seconds[1]
