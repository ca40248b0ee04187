import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import masked_sigmoid

from seqrel import gnn as G
from seqrel import tensor as T
from seqrel.exceptions import DimensionError, NumericFailureError


def rand(rng, rows, cols):
    return T.parameter(rng.normal(size=(rows, cols)))


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    m = np.arange(9, dtype=float).reshape(3, 3)
    out = T.matmul(T.constant(np.eye(3)), T.constant(m))
    assert np.array_equal(out.data, m)


def test_matmul_hand_value():
    out = T.matmul(T.constant([[1, 2], [3, 4]]), T.constant([[1], [1]]))
    assert np.array_equal(out.data, [[3], [7]])


def test_matmul_zero_annihilates():
    m = np.random.default_rng(0).normal(size=(2, 4))
    out = T.matmul(T.constant(np.zeros((3, 2))), T.constant(m))
    assert np.array_equal(out.data, np.zeros((3, 4)))


def test_matmul_shape_error_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))


def test_elementwise_values():
    assert np.array_equal(T.relu(T.constant([[-1, 2]])).data, [[0, 2]])
    assert np.array_equal(T.sigmoid(T.constant([[0]])).data, [[0.5]])
    assert np.array_equal(T.tanh(T.constant([[0]])).data, [[0]])
    out = T.leaky_relu(T.constant([[-2, 4]]), alpha=0.2)
    assert np.allclose(out.data, [[-0.4, 4]])


def test_sigmoid_saturates_without_overflow():
    out = T.sigmoid(T.constant([[-1000.0, 1000.0]]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 0] == 0.0 and out.data[0, 1] == 1.0


def test_sigmoid_matches_two_branch_form():
    x = np.concatenate([np.linspace(-50, 50, 2001), [-745.0, 745.0, 1e-300, -1e-300]])
    assert np.max(np.abs(T.sigmoid(T.constant(x)).data[0] - masked_sigmoid(x))) <= 2.3e-16
    assert np.isnan(T.sigmoid(T.constant([[np.nan]])).data[0, 0])


def test_relu_propagates_nan_and_keeps_finite_values():
    x = np.array([[np.nan, -np.inf, -1.5, -0.0, 0.0, 1e-300, 2.5, np.inf]])
    out = T.relu(T.constant(x)).data
    assert np.isnan(out[0, 0])
    assert np.array_equal(out[:, 1:], [[0.0, 0.0, 0.0, 0.0, 1e-300, 2.5, np.inf]])
    assert not np.signbit(out[0, 3])  # -0.0 maps to +0.0, as np.where(x > 0, x, 0) did
    finite = np.random.default_rng(0).normal(size=(4, 5))
    assert np.array_equal(T.relu(T.constant(finite)).data, np.where(finite > 0, finite, 0.0))
    a = T.parameter(x)
    tape = T.Tape()
    tape.watch(a)
    tape.backward(T.matmul(T.relu(a), T.constant(np.ones((x.shape[1], 1)))))
    tape.release()
    assert np.array_equal(a.grad, (x > 0.0).astype(float))


def test_row_softmax_symmetry():
    out = T.row_softmax(T.constant([[0, 0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-12)


def test_row_softmax_stability():
    out = T.row_softmax(T.constant([[1000, 0]]))
    assert np.all(np.isfinite(out.data))
    assert abs(out.data[0, 0] - 1.0) < 1e-9
    assert abs(out.data[0, 1]) < 1e-9


def test_row_softmax_hand_value():
    x = np.array([[1.0, 2.0, 3.0]])
    shifted = x - 3.0
    expect = np.exp(shifted) / np.exp(shifted).sum()
    out = T.row_softmax(T.constant(x))
    assert np.allclose(out.data, expect, atol=1e-12)


@given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=5),
                min_size=1, max_size=4).filter(lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=50, deadline=None)
def test_row_softmax_rows_sum_to_one(rows):
    out = T.row_softmax(T.constant(rows))
    # a dominant entry may round to exactly 1.0 in float64
    assert np.all(out.data > 0) and np.all(out.data <= 1)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


def test_ce_loss_perfect_prediction_is_zero():
    p = T.constant([[1.0, 0.0], [0.0, 1.0]])
    assert T.ce_loss(p, p).item() == pytest.approx(0.0, abs=1e-10)


def test_ce_loss_hand_value():
    out = T.ce_loss(T.constant([[0.5, 0.5]]), T.constant([[1, 0]]))
    assert out.item() == pytest.approx(math.log(2), abs=1e-12)


def test_ce_loss_matches_loop_oracle():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(2, 4))
    pred = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    target = np.eye(4)[[1, 3]]
    total = 0.0
    for i in range(2):
        for j in range(4):
            total -= target[i, j] * math.log(max(pred[i, j], 1e-12))
    out = T.ce_loss(T.constant(pred), T.constant(target))
    assert out.item() == pytest.approx(total / 2, abs=1e-12)


def test_mse_loss_values():
    p = T.constant([[1.0, 2.0]])
    assert T.mse_loss(p, p).item() == 0.0
    assert T.mse_loss(T.constant([[1]]), T.constant([[3]])).item() == 4.0
    assert T.mse_loss(T.constant([[1, 1]]), T.constant([[0, 2]])).item() == 1.0


def test_loss_rejects_nonfinite():
    with pytest.raises(NumericFailureError):
        T.mse_loss(T.constant([[np.inf]]), T.constant([[0.0]]))


def test_segment_ops_match_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(6, 3))
    seg = np.array([0, 0, 2, 2, 2, 4])
    num = 5
    s = T.segment_sum(T.constant(x), seg, num).data
    # the pools live in G.propagate: node i sends row i to node seg[i],
    # and the sage rows put the pooled neighbors after the self columns
    view = G.GraphView(features=x, edge_src=np.arange(6), edge_dst=seg,
                       degrees=np.bincount(seg, minlength=6) + 1,
                       targets=np.arange(num))
    m = G.propagate(view, "sage_mean")[:, 3:]
    mx = G.propagate(view, "sage_max")[:, 3:]
    for k in range(num):
        rows = x[seg == k]
        if len(rows) == 0:
            assert np.array_equal(s[k], np.zeros(3))
            assert np.array_equal(m[k], np.zeros(3))
            assert np.array_equal(mx[k], np.zeros(3))
        else:
            assert np.allclose(s[k], rows.sum(axis=0))
            assert np.allclose(m[k], rows.mean(axis=0))
            assert np.allclose(mx[k], rows.max(axis=0))


def test_concat_and_gather_values():
    a = T.constant([[1, 2], [3, 4]])
    b = T.constant([[5], [6]])
    assert np.array_equal(T.concat_cols(a, b).data, [[1, 2, 5], [3, 4, 6]])
    g = T.gather_rows(a, np.array([1, 0, 1]))
    assert np.array_equal(g.data, [[3, 4], [1, 2], [3, 4]])


# ---------------------------------------------------------------------------
# optimizer


def test_adam_zero_gradient_keeps_params():
    p = T.parameter([[1.0, -2.0]])
    before = p.data.copy()
    opt = T.Adam([p], lr=0.1)
    p.grad = np.zeros_like(p.data)
    opt.step()
    assert np.max(np.abs(p.data - before)) < 1e-12


def test_adam_single_step_hand_value():
    p = T.parameter([[0.0]])
    opt = T.Adam([p], lr=0.1)
    p.grad = np.array([[1.0]])
    opt.step()
    # m_hat = 1, v_hat = 1 after bias correction, so the step is lr/(1+eps)
    assert p.data[0, 0] == pytest.approx(-0.1, abs=1e-6)


def test_adam_runs_are_bit_identical():
    def run():
        rng = np.random.default_rng(11)
        p = T.parameter(T.glorot_uniform(rng, 3, 2))
        x = T.constant(rng.normal(size=(4, 3)))
        t = T.constant(rng.normal(size=(4, 2)))
        opt = T.Adam([p], lr=0.01)
        for _ in range(5):
            tape = T.Tape()
            tape.watch(p)
            loss = T.mse_loss(T.matmul(x, p), t)
            opt.zero_grad()
            tape.backward(loss)
            tape.release()
            opt.step()
        return p.data.copy()

    assert np.array_equal(run(), run())


def _regression_problem(seed=12):
    rng = np.random.default_rng(seed)
    p = T.parameter(T.glorot_uniform(rng, 3, 2))
    x = T.constant(rng.normal(size=(4, 3)))
    t = T.constant(rng.normal(size=(4, 2)))
    return p, x, t


def test_adam_minimize_matches_hand_written_step():
    p1, x, t = _regression_problem()
    opt1 = T.Adam([p1], lr=0.01)
    losses = []
    for _ in range(3):
        tape = T.Tape()
        tape.watch(p1)
        loss = T.mse_loss(T.matmul(x, p1), t)
        opt1.zero_grad()
        tape.backward(loss)
        tape.release()
        opt1.step()
        losses.append(loss.item())

    p2, _, _ = _regression_problem()
    opt2 = T.Adam([p2], lr=0.01)
    got = [opt2.minimize(lambda: T.mse_loss(T.matmul(x, p2), t)) for _ in range(3)]
    assert got == losses
    assert np.array_equal(p1.data, p2.data)
    assert opt1.t == opt2.t == 3
    assert np.array_equal(opt1._m[0], opt2._m[0])
    assert np.array_equal(opt1._v[0], opt2._v[0])
    assert p2.tape is None  # the step releases its tape


def test_early_stopping_equal_loss_is_not_an_improvement():
    stopper = T.EarlyStopping({"w": np.zeros((1, 1))}, patience=5)
    assert not stopper.update(0, 1.0)
    assert not stopper.update(1, 1.0)
    assert (stopper.best_epoch, stopper.best_loss, stopper.stale) == (0, 1.0, 1)
    assert not stopper.update(2, 0.5)
    assert (stopper.best_epoch, stopper.stale) == (2, 0)


def test_early_stopping_patience_zero_stops_at_first_miss():
    stopper = T.EarlyStopping({"w": np.zeros((1, 1))}, patience=0)
    assert not stopper.update(0, 3.0)
    assert not stopper.update(1, 2.0)
    assert stopper.update(2, 2.5)
    assert stopper.best_epoch == 1


def test_early_stopping_patience_counts_misses_in_a_row():
    stopper = T.EarlyStopping({"w": np.zeros((1, 1))}, patience=2)
    assert not stopper.update(0, 1.0)
    assert not stopper.update(1, 1.5)
    assert not stopper.update(2, 0.9)  # a strict improvement resets the count
    assert not stopper.update(3, 0.9)
    assert not stopper.update(4, 1.0)
    assert stopper.update(5, 2.0)


def test_early_stopping_best_weights_are_copies():
    p, x, t = _regression_problem()
    weights = {"w": p.data}
    opt = T.Adam([p], lr=0.1)
    stopper = T.EarlyStopping(weights, patience=3)
    start = p.data.copy()
    assert np.array_equal(stopper.best["w"], start)
    opt.minimize(lambda: T.mse_loss(T.matmul(x, p), t))
    assert not np.array_equal(p.data, start)
    assert np.array_equal(stopper.best["w"], start)  # the in-place step left it alone
    stopper.update(0, 1.0)
    snapshot = p.data.copy()
    for _ in range(2):
        opt.minimize(lambda: T.mse_loss(T.matmul(x, p), t))
    assert weights["w"] is p.data
    assert not np.array_equal(p.data, snapshot)
    assert np.array_equal(stopper.best["w"], snapshot)
    assert stopper.best["w"] is not p.data


# ---------------------------------------------------------------------------
# gradients


def test_finite_diff_square():
    x = T.parameter([[3.0]])

    def build(tape):
        return T.mul(x, x)

    err = T.finite_diff_check(build, [x])
    assert err < 1e-8

    tape = T.Tape()
    tape.watch(x)
    tape.backward(build(tape))
    assert x.grad[0, 0] == pytest.approx(6.0, abs=1e-12)
    tape.release()


def test_finite_diff_linear_is_exact():
    x = T.parameter([[1.0, 2.0]])
    c = T.constant([[3.0], [-1.0]])

    def build(tape):
        return T.matmul(x, c)

    assert T.finite_diff_check(build, [x]) < 1e-10


def test_grad_affine_relu_mse():
    rng = np.random.default_rng(1)
    w = rand(rng, 4, 3)
    b = rand(rng, 1, 3)
    x = T.constant(rng.normal(size=(5, 4)))
    t = T.constant(rng.normal(size=(5, 3)))

    def build(tape):
        return T.mse_loss(T.relu(T.add(T.matmul(x, w), b)), t)

    assert T.finite_diff_check(build, [w, b]) < 1e-4


def test_grad_softmax_ce():
    rng = np.random.default_rng(2)
    w = rand(rng, 3, 4)
    x = T.constant(rng.normal(size=(6, 3)))
    t = T.constant(np.eye(4)[rng.integers(0, 4, size=6)])

    def build(tape):
        return T.ce_loss(T.row_softmax(T.matmul(x, w)), t)

    assert T.finite_diff_check(build, [w]) < 1e-6


def test_grad_sigmoid_tanh_mul_div():
    rng = np.random.default_rng(4)
    a = rand(rng, 3, 3)
    b = T.parameter(rng.normal(size=(3, 1)) + 3.0)
    t = T.constant(rng.normal(size=(3, 3)))

    def build(tape):
        z = T.mul(T.sigmoid(a), T.tanh(a))
        return T.mse_loss(T.div(z, b), t)

    assert T.finite_diff_check(build, [a, b]) < 1e-6


def test_grad_concat_gather_segments():
    rng = np.random.default_rng(5)
    w = rand(rng, 4, 2)
    x = T.constant(rng.normal(size=(5, 4)))
    idx = np.array([0, 0, 1, 3, 3, 3, 4])
    seg = np.array([0, 0, 1, 1, 2, 2, 2])
    t = T.constant(rng.normal(size=(3, 4)))

    def build(tape):
        h = T.matmul(x, w)
        rows = T.gather_rows(h, idx)
        pooled = T.concat_cols(T.segment_sum(rows, seg, 3),
                               T.segment_sum(T.tanh(rows), seg, 3))
        return T.mse_loss(pooled, t)

    assert T.finite_diff_check(build, [w]) < 1e-4


def _lstm_problem(seed):
    """Gate weights and bias for event width 2 and hidden width 3, a batch
    of 4 sequences of 3 steps, and a target for the final hidden state."""
    rng = np.random.default_rng(seed)
    return (rand(rng, 2 + 3, 12), rand(rng, 1, 12), rng.normal(size=(4, 3, 2)),
            T.constant(rng.normal(size=(4, 3))))


def test_grad_lstm_scan():
    w, b, steps, t = _lstm_problem(7)

    def build(tape):
        return T.mse_loss(T.lstm_scan(steps, w, b), t)

    assert T.finite_diff_check(build, [w, b]) < 1e-6
    for bad in (steps[:, :, :1], steps[:, :0], steps[0]):
        with pytest.raises(DimensionError):
            T.lstm_scan(bad, w, b)
    with pytest.raises(DimensionError):
        T.lstm_scan(steps, w, T.constant(np.zeros((1, 8))))


def test_lstm_scan_off_the_tape_records_nothing(monkeypatch):
    w, b, steps, t = _lstm_problem(8)
    T.Adam([w, b], lr=0.01).minimize(lambda: T.mse_loss(T.lstm_scan(steps, w, b), t))
    assert w.requires_grad and w.tape is None and b.tape is None  # released
    recorded = []
    monkeypatch.setattr(T.Tape, "_record", lambda self, out, pulls: recorded.append(out))
    out = T.lstm_scan(steps, w, b)
    assert out.tape is None and not out.requires_grad
    assert recorded == []


def test_grad_leaky_relu_and_bias_sub():
    rng = np.random.default_rng(6)
    w = rand(rng, 3, 3)
    b = rand(rng, 1, 3)
    x = T.constant(rng.normal(size=(4, 3)))
    t = T.constant(rng.normal(size=(4, 3)))

    def build(tape):
        return T.mse_loss(T.leaky_relu(T.sub(T.matmul(x, w), b), alpha=0.2), t)

    assert T.finite_diff_check(build, [w, b]) < 1e-4


def test_unused_branch_gets_no_gradient():
    x = T.parameter([[2.0]])
    y = T.parameter([[5.0]])
    tape = T.Tape()
    tape.watch(x, y)
    _ = T.mul(y, y)  # never reaches the loss
    loss = T.mul(x, x)
    tape.backward(loss)
    assert x.grad[0, 0] == pytest.approx(4.0)
    assert y.grad is None
    tape.release()


def test_glorot_uniform_bounds_and_determinism():
    a = T.glorot_uniform(np.random.default_rng(9), 6, 4)
    b = T.glorot_uniform(np.random.default_rng(9), 6, 4)
    limit = math.sqrt(6.0 / 10.0)
    assert a.shape == (6, 4)
    assert np.all(np.abs(a) <= limit)
    assert np.array_equal(a, b)
