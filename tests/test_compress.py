import contextlib
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (_kmeanspp, cluster_sums_oracle, compress_oracle,
                     epsilon_graph_oracle, lloyd_oracle)
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


def assert_same_lloyd_run(x, k, seed, max_iters, always_bounded=True):
    """kmeans_pool against the full-pass oracle, down to the seeded centers
    and the labels each center update used. always_bounded forces the
    bounded seeding and the bounded passes."""
    steps, seeded = [], []
    group, seed_centers = C._group, C._kmeanspp

    def spy(labels):
        steps.append(labels.copy())
        return group(labels)

    def seed_spy(*args):
        centers = seed_centers(*args)
        seeded.append(centers.copy())  # Lloyd updates the centers in place
        return centers

    forced = (mock.patch.object(C, "_bounded_pays", lambda *a: True) if always_bounded
              else contextlib.nullcontext())
    with mock.patch.object(C, "_group", spy), mock.patch.object(C, "_kmeanspp", seed_spy), forced:
        labels, trace = C.kmeans_pool(x, k, np.random.default_rng(seed), max_iters)
    want_labels, want_trace, want_steps = lloyd_oracle(
        x, k, np.random.default_rng(seed), max_iters)
    if seeded:
        assert np.array_equal(seeded[0], _kmeanspp(x, (x * x).sum(axis=1), k,
                                                   np.random.default_rng(seed)))
    assert len(trace) == len(want_trace)
    assert len(steps) == len(want_steps)
    for got, want in zip(steps, want_steps):
        assert np.array_equal(got, want)
    assert np.array_equal(labels, want_labels)
    # each SSE term of a bounded pass may come from another product than the
    # full pass's; both lie within the slack e = 16 (D + 8) eps M^2 of exact
    slack = 16 * (x.shape[1] + 8) * np.finfo(np.float64).eps * (x * x).sum(axis=1).max()
    np.testing.assert_allclose(trace, want_trace, rtol=0, atol=2 * len(x) * slack)


# coordinates from a few non-dyadic values, so that points repeat, centers
# coincide after reseeds and many points are equidistant from others
PALETTE = np.array([-0.7, -0.3, -0.1, 0.0, 0.1, 0.2, 0.3, 1.1])


@st.composite
def tied_pools(draw):
    n = draw(st.integers(2, 60))
    dim = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["palette", "mirror", "repeats"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** rng.uniform(-3, 3)
    if kind == "palette":
        x = rng.choice(PALETTE, size=(n, dim))
    elif kind == "mirror":
        # signed coordinate permutations of a few offsets around one point
        # lie at equal distances from it; the point itself is repeated
        base = rng.choice(PALETTE, size=dim)
        offsets = rng.choice(PALETTE, size=(draw(st.integers(1, 3)), dim))
        rows = [base]
        for _ in range(n - 1):
            v = offsets[rng.integers(len(offsets))]
            rows.append(base if rng.random() < 0.2
                        else base + rng.choice([-1.0, 1.0], dim) * v[rng.permutation(dim)])
        x = np.array(rows)
    else:
        distinct = rng.normal(size=(draw(st.integers(1, n)), dim))
        x = distinct[rng.integers(len(distinct), size=n)]
    return scale * x, k, draw(st.integers(0, 2 ** 32 - 1)), draw(st.integers(1, 30))


@settings(max_examples=400, deadline=None)
@given(tied_pools())
def test_kmeans_pool_matches_full_pass_oracle_with_ties(pool):
    x, k, seed, max_iters = pool
    assert_same_lloyd_run(x, k, seed, max_iters)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 5), st.integers(2, 60), st.data())
def test_bounded_pass_matches_full_pass_on_equidistant_centers(dim, n, data):
    """Centers come in mirror pairs, b + v and b + P v for a signed
    permutation P, around points b of the pool, which are then exactly
    equidistant from both; their computed distances differ by rounding."""
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3)
    centers = np.empty((k, dim))
    for j in range(0, k, 2):
        base, v = x[rng.integers(n)], rng.normal(size=dim) * np.abs(x).max()
        centers[j] = base + v
        if j + 1 < k:
            centers[j + 1] = base + rng.choice([-1.0, 1.0], dim) * v[rng.permutation(dim)]
    x2 = (x * x).sum(axis=1)
    want, _ = C._assign_points(x, x2, centers)
    prev = rng.integers(0, k, n)
    c2 = (centers * centers).sum(axis=1)
    own = (x2[:, None] - 2.0 * (x @ centers.T) + c2[None, :])[np.arange(n), prev]
    with mock.patch.object(C, "_bounded_pays", lambda *a: True):
        got, _ = C._assign_bounded(x, x2, centers, C._group(prev), own)
    assert np.array_equal(got, want)


def seeding_slack(x):
    """compress.py's e for a pool whose centers are its own rows."""
    eps = np.finfo(np.float64).eps
    return (16.0 * (x.shape[1] + 8) * eps * (x * x).sum(axis=1).max()
            + x.shape[1] * np.finfo(np.float64).tiny)


def moved_gathers(x):
    """Scores of a gathered subset of the pool come out e/4 above the full
    gemv's, as on a BLAS whose subset products round differently; the
    rounding itself stays below e/8, so they remain within e of exact."""
    real, shift = C._sq_dists_to, seeding_slack(x) / 4.0

    def moved(rows, rows2, center):
        out = real(rows, rows2, center)
        return out + shift if rows.shape[0] < x.shape[0] else out

    return mock.patch.object(C, "_sq_dists_to", moved)


def assert_same_seeding(x, k, seed):
    """Bounded seeding's centers and next draw against the full loop's."""
    x2 = (x * x).sum(axis=1)
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, want = C._kmeanspp(x, x2, k, got_rng), _kmeanspp(x, x2, k, want_rng)
    assert np.array_equal(got, want)
    assert got_rng.random() == want_rng.random()


@settings(max_examples=400, deadline=None)
@given(tied_pools())
def test_bounded_seeding_matches_full_loop_when_gathers_round_differently(pool):
    x, k, seed, _ = pool
    with mock.patch.object(C, "_bounded_pays", lambda *a: True), moved_gathers(x):
        assert_same_seeding(x, k, seed)


@settings(max_examples=200, deadline=None)
@given(tied_pools())
def test_bounded_seeding_falls_back_when_no_pick_is_certified(pool):
    x, k, seed, _ = pool
    with (mock.patch.object(C, "_bounded_pays", lambda *a: True),
          mock.patch.object(C, "_seed_pick", lambda *a: None)):
        assert_same_seeding(x, k, seed)


@pytest.mark.parametrize("certified", [0, 1, 5])
def test_seed_fallback_hands_over_the_full_loops_d2(certified):
    """The first `certified` picks pass, over moved gathered scores; the
    next fails its margin check, and the full loop then holds its own
    d2."""
    rng = np.random.default_rng(43)
    x = rng.normal(size=(500, 8))
    x2 = (x * x).sum(axis=1)
    pick, calls = C._seed_pick, []

    def failing(*args):
        calls.append(1)
        return pick(*args) if len(calls) <= certified else None

    handed = []
    bounded = C._seed_bounded

    def spy(*args):
        start, d2 = bounded(*args)
        handed.append((start, d2.copy()))  # the full loop lowers d2 in place
        return start, d2

    with (mock.patch.object(C, "_bounded_pays", lambda *a: True), moved_gathers(x),
          mock.patch.object(C, "_seed_pick", failing), mock.patch.object(C, "_seed_bounded", spy)):
        assert_same_seeding(x, 12, 44)
    start, d2 = handed[0]
    assert start == certified + 2
    want = _kmeanspp(x, x2, 12, np.random.default_rng(44))
    assert np.array_equal(d2, np.min([C._sq_dists_to(x, x2, c) for c in want[:start]], axis=0))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 200), st.data())
def test_choice_is_one_draw_and_a_search(n, data):
    """Bounded seeding replays rng.choice(n, p) as rng.random() and a
    search of the normalized cumulative sum."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    p = rng.choice([0.0, 1.0, 2.0, 3.0], n) * rng.random(n) ** data.draw(st.sampled_from([0, 1]))
    if not p.any():
        p[rng.integers(n)] = 1.0
    p *= 10.0 ** data.draw(st.sampled_from([-300, -200, -10, 0, 10, 300]))
    p = p / p.sum()
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    assert int(a.choice(n, p=p)) == int(np.searchsorted(cdf, b.random(), side="right"))
    assert a.random() == b.random()


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 200), st.data())
def test_seed_pick_is_the_full_loops_pick_whenever_it_accepts(n, data):
    """The kept values are the exact ones moved by up to eta, and u sits a
    few ulps from the edges of either cdf."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    d2 = rng.choice([0.0, 1.0, 1.0, 2.0], n) * rng.random(n) ** data.draw(st.sampled_from([0, 1]))
    if not d2.any():
        d2[rng.integers(n)] = 1.0
    d2 *= 10.0 ** rng.uniform(-100, 100)
    eta = d2.sum() / n * 10.0 ** data.draw(st.sampled_from([-15, -10, -6, -3, -1]))
    kept = np.maximum(d2 + eta * rng.uniform(-1.0, 1.0, n), 0.0)
    cum = np.cumsum(kept)
    if not cum[-1] > 2.0 * n * eta:
        return
    cdf = np.cumsum(d2 / d2.sum())
    cdf /= cdf[-1]
    edges = np.concatenate([cdf, cum / cum[-1], [0.0]])
    for edge in edges[rng.integers(edges.size, size=8)]:
        for ulps in range(-3, 4):
            u = edge
            for _ in range(abs(ulps)):
                u = np.nextafter(u, np.inf if ulps > 0 else -np.inf)
            if not 0.0 <= u < 1.0:
                continue
            pick = C._seed_pick(cum, u, eta)
            if pick is not None:
                assert pick == int(np.searchsorted(cdf, u, side="right"))


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 5), st.integers(1, 30), st.data())
def test_seed_rescore_skips_only_points_the_new_center_cannot_lower(dim, n, data):
    """Centers come in mirror pairs, b + v and b + P v for a signed
    permutation P, around points b of the pool, far from the origin;
    P = -I puts b at their midpoint, where the bound is tight. Each b is
    exactly equidistant from both, and their computed distances differ by
    rounding far above a relative 2^-20 of the distance."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    far = 10.0 ** rng.uniform(0, 7) * rng.normal(size=dim)
    pool = far + rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 1)
    pairs = data.draw(st.integers(1, 4))
    centers = []
    for _ in range(pairs):
        base, v = pool[rng.integers(n)], rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 1)
        other = (base - v if rng.random() < 0.5
                 else base + rng.choice([-1.0, 1.0], dim) * v[rng.permutation(dim)])
        centers += [base + v, other]
    centers = np.array(centers)
    x = np.concatenate([pool, centers])  # the centers are rows of the pool
    x2 = (x * x).sum(axis=1)
    slack = seeding_slack(x)
    c2 = np.array([c @ c for c in centers])
    full = np.array([C._sq_dists_to(x, x2, c) for c in centers])
    d2, near = full[0].copy(), np.zeros(x.shape[0], dtype=np.intp)
    reach = C._seed_reach(d2, slack)
    for j in range(1, centers.shape[0]):
        before = near.copy()
        scored = C._seed_rescore(x, x2, centers[:j + 1], c2[:j + 1], d2, near, reach, slack)
        skipped = np.setdiff1d(np.arange(x.shape[0]), scored)
        assert np.all(full[j, skipped] >= full[before[skipped], skipped])
        assert np.all(near[skipped] == before[skipped])
        assert np.all(np.abs(d2 - full[:j + 1].min(axis=0)) <= 2.0 * slack)


def test_bounded_seeding_scores_a_fraction_of_a_clustered_pool():
    """The real cost rule takes the bounded seeding on a clustered 20,000 x
    64 pool, which scores under a quarter of the full loop's rows, and the
    full loop on a 2,800 x 256 pool."""
    rows = []
    real = C._sq_dists_to

    def spy(x, x2, center):
        rows.append(x.shape[0])
        return real(x, x2, center)

    rng = np.random.default_rng(40)
    comps = 4.0 * rng.normal(size=(20, 64))
    x = comps[rng.integers(20, size=20_000)] + rng.normal(size=(20_000, 64))
    with mock.patch.object(C, "_sq_dists_to", spy):
        assert_same_seeding(x, 100, 41)
    assert sum(rows) < 100 * 20_000 / 4
    rows.clear()
    x = rng.normal(size=(2_800, 256))
    with mock.patch.object(C, "_sq_dists_to", spy):
        assert_same_seeding(x, 350, 42)
    assert rows == [2_800] * 350


def test_kmeans_pool_takes_bounded_pass_and_matches_oracle():
    rng = np.random.default_rng(12)
    centers = 4.0 * rng.normal(size=(10, 256))
    x = centers[rng.integers(10, size=6000)] + rng.normal(size=(6000, 256))
    taken = []
    bounded = C._assign_bounded

    def spy(*args):
        out = bounded(*args)
        taken.append(out is not None)
        return out

    # the real cost rule, on a pool large enough for the bound to pay
    with mock.patch.object(C, "_assign_bounded", spy):
        assert_same_lloyd_run(x, 10, 13, 100, always_bounded=False)
    assert any(taken)


def test_bounded_pass_takes_radii_from_the_moved_centers():
    """Seeded at 0 and -3, the right cluster's mean moves to 0.625, which
    leaves its member -1 at 1.625 and nearer the left mean, -2.3. A radius
    measured from the old center, 1, would rule the left center out for the
    whole right cluster (S = 2.925 > 2 R), and -1 would keep its label."""
    x = np.array([-3.0, -1.6, -1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])[:, None]
    seeds = _kmeanspp(x, (x * x).sum(axis=1), 2, np.random.default_rng(24))
    assert seeds[:, 0].tolist() == [0.0, -3.0]
    assert_same_lloyd_run(x, 2, 24, 100)


def test_bounded_kmeans_allocates_less_than_half_the_pool():
    """Bounded seeding and bounded Lloyd passes hold one block or one
    cluster of gathered rows at a time, never a copy of the pool or a
    temporary its size. tracemalloc sees numpy's buffers."""
    rng = np.random.default_rng(45)
    comps = 4.0 * rng.normal(size=(20, 64))
    x = comps[rng.integers(20, size=50_000)] + rng.normal(size=(50_000, 64))
    taken = []
    bounded = C._assign_bounded

    def spy(*args):
        out = bounded(*args)
        taken.append(out is not None)
        return out

    with (mock.patch.object(C, "_bounded_pays", lambda *a: True),
          mock.patch.object(C, "_assign_bounded", spy)):
        tracemalloc.start()
        try:
            C.kmeans_pool(x, 20, np.random.default_rng(46), 10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert taken and all(taken)
    assert peak < x.nbytes / 2, (peak, x.nbytes)


def test_cluster_sums_keep_row_major_bits():
    rng = np.random.default_rng(14)
    k = 8  # 2 and 4 stay empty, 5 and 6 have one member, 7 is above every label
    for length in range(1, 301):
        labels = np.concatenate([np.repeat([3, 0, 1], length), [5, 6]])
        rng.shuffle(labels)
        x = rng.choice([-1.0, 1.0], (labels.size, 7)) * 10.0 ** rng.uniform(-3, 3, (labels.size, 7))
        sums, counts = np.zeros((k, 7)), np.zeros(k, dtype=np.intp)
        for a, idx, rows, total in C._cluster_sums(x, C._group(labels)):
            assert np.all(labels[idx] == a) and np.all(np.diff(idx) > 0)
            assert np.array_equal(rows, x[idx])
            sums[a], counts[a] = total, idx.size
        want_sums, want_counts = cluster_sums_oracle(x, labels, k)
        assert np.array_equal(sums, want_sums), length
        assert np.array_equal(counts, want_counts), length


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
