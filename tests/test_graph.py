import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (connect_from_sims_oracle, connect_oracle, epsilon_graph_oracle,
                     knn_graph_oracle, sim_oracle)
from seqrel import graph as G
from seqrel.exceptions import DataError, DimensionError, ParameterError


def edges_as_tuples(edges):
    return [tuple(e) for e in np.asarray(edges).tolist()]


def test_similarity_basics():
    v = np.array([0.3, -0.7, 2.0])
    assert G.similarity_matrix([v], [v])[0, 0] == pytest.approx(1.0)
    assert G.similarity_matrix([[1, 0]], [[0, 1]])[0, 0] == pytest.approx(0.0)
    assert G.similarity_matrix([[1, 0]], [[1, 1]])[0, 0] == pytest.approx(
        1 / np.sqrt(2), abs=1e-12)


def test_similarity_zero_norm_and_constant_rows():
    assert G.similarity_matrix([[0, 0]], [[1, 2]])[0, 0] == 0.0
    assert G.similarity_matrix([[3, 3, 3]], [[1, 2, 9]], metric=G.PEARSON)[0, 0] == 0.0


def test_similarity_symmetric_and_bounded():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.normal(size=(2, 5)) * rng.choice([1, 100])
        for metric in (G.COSINE, G.PEARSON):
            a = G.similarity_matrix([x], [y], metric)[0, 0]
            assert a == pytest.approx(G.similarity_matrix([y], [x], metric)[0, 0],
                                      abs=1e-12)
            assert -1.0 <= a <= 1.0


def test_similarity_length_mismatch():
    with pytest.raises(DimensionError):
        G.similarity_matrix([[1, 2]], [[1, 2, 3]])


def test_epsilon_graph_identical_nodes():
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    g = G.build_epsilon_graph(x, G.COSINE, 0.95)
    assert edges_as_tuples(g.edges) == [(0, 1)]


def test_epsilon_graph_boundary_is_exclusive():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])  # similarity exactly 0
    assert G.build_epsilon_graph(x, G.COSINE, 0.0).num_edges == 0
    x2 = np.array([[1.0, 1.0], [2.0, 2.0]])  # similarity exactly 1 after clipping
    assert G.build_epsilon_graph(x2, G.COSINE, 1.0).num_edges == 0


def test_epsilon_graph_matches_bruteforce():
    rng = np.random.default_rng(1)
    for metric in (G.COSINE, G.PEARSON):
        for eps in (-0.5, 0.0, 0.3, 0.8):
            x = rng.normal(size=(60, 5))
            g = G.build_epsilon_graph(x, metric, eps)
            assert edges_as_tuples(g.edges) == epsilon_graph_oracle(x, metric, eps)


def test_epsilon_graph_edge_count_monotone_in_epsilon():
    x = np.random.default_rng(2).normal(size=(80, 4))
    counts = [G.build_epsilon_graph(x, G.COSINE, e).num_edges
              for e in (-1.0, -0.5, 0.0, 0.5, 0.9)]
    assert counts == sorted(counts, reverse=True)


def test_knn_complete_when_k_is_n_minus_1():
    x = np.random.default_rng(3).normal(size=(6, 3))
    g = G.build_knn_graph(x, G.COSINE, 5)
    assert g.num_edges == 15


def test_knn_collinear_union_semantics():
    x = np.array([[1.0, 0.0], [1.0, 0.1], [1.0, 0.2]])
    g = G.build_knn_graph(x, G.COSINE, 1)
    edges = edges_as_tuples(g.edges)
    assert (0, 1) in edges and (1, 2) in edges


def test_knn_matches_bruteforce():
    rng = np.random.default_rng(4)
    for metric in (G.COSINE, G.PEARSON):
        for k in (1, 3, 7):
            x = rng.normal(size=(50, 4))
            g = G.build_knn_graph(x, metric, k)
            assert edges_as_tuples(g.edges) == knn_graph_oracle(x, metric, k)


def test_knn_rejects_bad_k():
    x = np.zeros((4, 2))
    with pytest.raises(ParameterError):
        G.build_knn_graph(x, G.COSINE, 4)


def test_permutation_equivariance():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 4))
    perm = rng.permutation(30)
    base = {tuple(e) for e in G.build_epsilon_graph(x, G.COSINE, 0.3).edges.tolist()}
    permuted = G.build_epsilon_graph(x[perm], G.COSINE, 0.3)
    # node i in the permuted graph is original node perm[i]
    mapped = {tuple(sorted((perm[a], perm[b]))) for a, b in permuted.edges.tolist()}
    assert mapped == base


def test_connect_identical_query_links():
    comp = np.array([[1.0, 0.0], [0.0, 1.0]])
    edges = G.connect_to_compressed(np.array([[1.0, 0.0]]), comp, G.COSINE, 0.95)
    assert (0, 0) in edges_as_tuples(edges)


def test_connect_fallback_single_best():
    comp = np.array([[1.0, 0.0], [0.5, 0.5]])
    query = np.array([[0.0, 1.0]])  # below eps for both
    edges = G.connect_to_compressed(query, comp, G.COSINE, 0.95, fallback_m=1)
    assert edges_as_tuples(edges) == [(0, 1)]  # argmax similarity


def test_connect_matches_bruteforce_with_fallback():
    rng = np.random.default_rng(6)
    for eps in (0.2, 0.6, 0.95):
        for m in (1, 3):
            q = rng.normal(size=(25, 4))
            c = rng.normal(size=(10, 4))
            got = edges_as_tuples(G.connect_to_compressed(q, c, G.COSINE, eps, m))
            assert got == connect_oracle(q, c, G.COSINE, eps, m)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(1, 12), b=st.integers(1, 8), m_kind=st.sampled_from(["1", "2", "K", "K+3"]),
       eps=st.sampled_from([0.4, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_fallback_top_m_matches_stable_sort(k, b, m_kind, eps, seed):
    """Scores drawn from a few values, signed zeros among them, so that
    fallback rows tie at their top; eps 1.0 sends every row to the
    fallback."""
    rng = np.random.default_rng(seed)
    sims = rng.choice([-0.5, -0.0, 0.0, 0.25, 0.3, 0.5], size=(b, k))
    top = rng.random(b) < 0.5  # rows whose best score is a planted tie
    sims[top, :] = np.where(rng.random((int(top.sum()), k)) < 0.5,
                            rng.choice([-0.0, 0.0], size=(int(top.sum()), k)), -0.5)
    m = {"1": 1, "2": 2, "K": k, "K+3": k + 3}[m_kind]
    got = G.connect_from_sims(sims, eps, m)
    assert edges_as_tuples(got) == edges_as_tuples(connect_from_sims_oracle(sims, eps, m))


def test_connect_never_isolates_a_query():
    rng = np.random.default_rng(7)
    q = rng.normal(size=(40, 3))
    c = rng.normal(size=(8, 3))
    edges = G.connect_to_compressed(q, c, G.COSINE, 0.999999)
    assert set(edges[:, 0].tolist()) == set(range(40))


def test_relation_graph_validation():
    x = np.zeros((3, 2))
    with pytest.raises(DataError):
        G.RelationGraph(x, np.array([[1, 1]]))  # self-loop
    with pytest.raises(DataError):
        G.RelationGraph(x, np.array([[0, 3]]))  # out of range
    with pytest.raises(DataError):
        G.RelationGraph(x, np.array([[2, 1]]))  # wrong orientation


def test_sim_oracle_agrees_with_similarity():
    rng = np.random.default_rng(8)
    for _ in range(30):
        x, y = rng.normal(size=(2, 6))
        for metric in (G.COSINE, G.PEARSON):
            assert G.similarity_matrix([x], [y], metric)[0, 0] == pytest.approx(
                sim_oracle(x, y, metric), abs=1e-12)
