"""Dense 2-D float64 matrices with a reverse-mode gradient tape.

The tape covers exactly the primitives the pipeline composes: matmul and
its one-row-at-a-time form `row_matmul`, broadcast add/sub,
hadamard/column products, relu, leaky relu, exp, row softmax, row gather,
segment sums, the LSTM scan `lstm_scan` (one node for a whole batch of
sequences), and the two losses, picked by name from `LOSSES`. Everything is float64; no NaN
or Inf may escape a loss.

Every trainer shares the same two parts: `Adam.minimize` is one training
step, and `EarlyStopping` keeps the best weights against a validation loss.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .exceptions import DimensionError, NumericFailureError


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Tensor:
    """A rows x cols float64 matrix, optionally tracked for gradients."""

    __slots__ = ("data", "grad", "requires_grad", "tape")

    def __init__(self, values, requires_grad: bool = False, tape: "Tape | None" = None):
        self.data = _as_matrix(values)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.tape = tape

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a 1x1 matrix, got {self.shape}")
        return float(self.data[0, 0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def constant(values) -> Tensor:
    return Tensor(values)


class Tape:
    """Ordered record of primitive ops; backward replays it in reverse.

    Ops append in construction order, which is a topological order of the
    expression graph, so the reverse sweep sees every node after all its
    consumers. Outputs that never feed the loss keep a None gradient and
    are skipped.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, list[tuple[Tensor, Callable]]]] = []
        self._watched: list[Tensor] = []

    def watch(self, *tensors: Tensor) -> None:
        for t in tensors:
            t.requires_grad = True
            t.tape = self
            t.grad = None
            self._watched.append(t)

    def release(self) -> None:
        """Detach watched tensors so later forward passes stop recording."""
        for t in self._watched:
            t.tape = None
        self._watched.clear()
        self._records.clear()

    def _record(self, out: Tensor, pulls: list[tuple[Tensor, Callable]]) -> None:
        self._records.append((out, pulls))

    def backward(self, loss: Tensor) -> None:
        if loss.data.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got {loss.shape}")
        loss.grad = np.ones((1, 1))
        for out, pulls in reversed(self._records):
            g = out.grad
            if g is None:
                continue
            for parent, pull in pulls:
                contrib = pull(g)
                if parent.grad is None:
                    parent.grad = contrib
                else:
                    parent.grad += contrib
            out.grad = None  # free intermediate adjoints as we go


def _make(data: np.ndarray, pulls: list[tuple[Tensor, Callable]]) -> Tensor:
    live = [(t, fn) for t, fn in pulls if t.requires_grad]
    if not live:
        return Tensor(data)
    tape = None
    for t, _ in live:
        if t.tape is not None:
            tape = t.tape
            break
    out = Tensor(data, requires_grad=True, tape=tape)
    if tape is not None:
        tape._record(out, live)
    return out


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.cols != b.rows:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = a.data @ b.data
    return _make(data, [
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    ])


def row_matmul(a: Tensor, b: Tensor) -> Tensor:
    """matmul one row at a time: row i is the one-row product a[i] @ b, so
    its bits do not depend on the other rows of a, where a batch product's
    may. The gradient is matmul's."""
    if a.cols != b.rows:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    data = np.matmul(a.data[:, None, :], b.data)[:, 0]
    return _make(data, [
        (a, lambda g: g @ b.data.T),
        (b, lambda g: a.data.T @ g),
    ])


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        return _make(a.data + b.data, [
            (a, lambda g: g),
            (b, lambda g: g),
        ])
    if b.rows == 1 and b.cols == a.cols:  # bias row broadcast
        return _make(a.data + b.data, [
            (a, lambda g: g),
            (b, lambda g: g.sum(axis=0, keepdims=True)),
        ])
    raise DimensionError(f"add shape mismatch: {a.shape} + {b.shape}")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape == b.shape:
        return _make(a.data - b.data, [
            (a, lambda g: g),
            (b, lambda g: -g),
        ])
    if b.rows == 1 and b.cols == a.cols:
        return _make(a.data - b.data, [
            (a, lambda g: g),
            (b, lambda g: -g.sum(axis=0, keepdims=True)),
        ])
    raise DimensionError(f"sub shape mismatch: {a.shape} - {b.shape}")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product; b may also be a per-row column (n x 1)."""
    if a.shape == b.shape:
        return _make(a.data * b.data, [
            (a, lambda g: g * b.data),
            (b, lambda g: g * a.data),
        ])
    if b.cols == 1 and b.rows == a.rows:
        return _make(a.data * b.data, [
            (a, lambda g: g * b.data),
            (b, lambda g: (g * a.data).sum(axis=1, keepdims=True)),
        ])
    raise DimensionError(f"mul shape mismatch: {a.shape} * {b.shape}")


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise quotient; b may be a per-row column (n x 1)."""
    if not (a.shape == b.shape or (b.cols == 1 and b.rows == a.rows)):
        raise DimensionError(f"div shape mismatch: {a.shape} / {b.shape}")
    data = a.data / b.data
    return _make(data, [
        (a, lambda g: g / b.data),
        (b, lambda g: _div_b_grad(g, a.data, b.data)),
    ])


def _div_b_grad(g, a_data, b_data):
    full = -g * a_data / (b_data * b_data)
    if b_data.shape[1] == 1 and a_data.shape[1] != 1:
        return full.sum(axis=1, keepdims=True)
    return full


def relu(a: Tensor) -> Tensor:
    """max(x, 0) that passes NaN through; the gradient mask is x > 0."""
    mask = a.data > 0.0
    return _make(np.where(a.data <= 0.0, 0.0, a.data), [(a, lambda g: g * mask)])


def leaky_relu(a: Tensor, alpha: float = 0.01) -> Tensor:
    slope = np.where(a.data > 0.0, 1.0, alpha)
    return _make(a.data * slope, [(a, lambda g: g * slope)])


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as 0.5 * tanh(x / 2) + 0.5: one pass with no
    overflow, exactly 0.5 at 0, exactly 0 or 1 once saturated, NaN kept."""
    return 0.5 * np.tanh(0.5 * x) + 0.5


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _make(out, [(a, lambda g: g * out)])


def row_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=1, keepdims=True)

    def pull(g):
        inner = (g * out).sum(axis=1, keepdims=True)
        return out * (g - inner)

    return _make(out, [(a, pull)])


def lstm_scan(steps: np.ndarray, w_gates: Tensor, b_gates: Tensor) -> Tensor:
    """Final hidden state (B, H) of an LSTM over a (B, T, width) event
    array from a zero state. `w_gates` stacks the event rows over the
    recurrent rows, in gate column blocks i, f, o, g. The input projection
    is one matmul up front. One tape node, whose backward is backpropagation
    through time; activations are kept only while a parent is on a tape."""
    w, hidden = w_gates.data, w_gates.cols // 4
    if (steps.ndim != 3 or steps.shape[1] < 1 or b_gates.shape != (1, 4 * hidden)
            or w.shape != (steps.shape[2] + hidden, 4 * hidden)):
        raise DimensionError(f"lstm_scan shape mismatch: steps {steps.shape}, "
                             f"w_gates {w.shape}, b_gates {b_gates.shape}")
    batch, length, width = steps.shape
    x = steps.reshape(batch * length, width)
    projected = (x @ w[:width] + b_gates.data).reshape(batch, length, 4 * hidden)
    w_rec = w[width:]
    taped = w_gates.tape is not None or b_gates.tape is not None
    if taped:
        acts = np.empty_like(projected)  # i, f, o, g after their nonlinearities
        cells = np.empty((batch, length, hidden))
    c = np.zeros((batch, hidden))
    gates = projected[:, 0]  # the hidden state starts at zero: no recurrent term
    for t in range(length):
        if t:
            gates = projected[:, t] + h @ w_rec
        ifo = logistic(gates[:, :3 * hidden])
        g = np.tanh(gates[:, 3 * hidden:])
        c = ifo[:, hidden:2 * hidden] * c + ifo[:, :hidden] * g
        h = ifo[:, 2 * hidden:] * np.tanh(c)
        if taped:
            acts[:, t, :3 * hidden], acts[:, t, 3 * hidden:], cells[:, t] = ifo, g, c
    if not taped:
        return Tensor(h)
    tanh_cells = np.tanh(cells)
    memo = [None, None]  # the last output gradient and its gate gradients

    def sweep(g_out):
        """Gate-input gradients, one (B, T, 4H) buffer filled from the back."""
        if memo[0] is not g_out:
            d, dh, dc = np.empty_like(acts), g_out, np.zeros_like(g_out)
            for t in range(length - 1, -1, -1):
                i, f, o, g = (acts[:, t, k * hidden:(k + 1) * hidden] for k in range(4))
                tc = tanh_cells[:, t]
                dc = dc + dh * o * (1.0 - tc * tc)
                d[:, t, :hidden] = dc * g * i * (1.0 - i)
                d[:, t, hidden:2 * hidden] = dc * cells[:, t - 1] * f * (1.0 - f) if t else 0.0
                d[:, t, 2 * hidden:3 * hidden] = dh * tc * o * (1.0 - o)
                d[:, t, 3 * hidden:] = dc * i * (1.0 - g * g)
                dc = dc * f
                if t:
                    dh = d[:, t] @ w_rec.T
            memo[:] = g_out, d
        return memo[1]

    def pull_w(g_out):
        d = sweep(g_out)
        h_prev = acts[:, :-1, 2 * hidden:3 * hidden] * tanh_cells[:, :-1]
        return np.concatenate([x.T @ d.reshape(-1, 4 * hidden),
                               h_prev.reshape(-1, hidden).T @ d[:, 1:].reshape(-1, 4 * hidden)])

    return _make(h, [(w_gates, pull_w),
                     (b_gates, lambda g_out: sweep(g_out).sum(axis=(0, 1)).reshape(1, -1))])


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    data = a.data[idx]

    def pull(g):
        out = np.zeros_like(a.data)
        np.add.at(out, idx, g)
        return out

    return _make(data, [(a, pull)])


def segment_reduce(op: np.ufunc, values: np.ndarray, segments: np.ndarray,
                   num_segments: int) -> np.ndarray:
    """`op` (np.add, np.maximum) over the rows of each segment, in row
    order; segment ids must be sorted non-decreasing, and empty segments
    yield zero rows."""
    out = np.zeros((num_segments, values.shape[1]))
    if segments.size:
        uniq, starts = np.unique(segments, return_index=True)
        out[uniq] = op.reduceat(values, starts, axis=0)
    return out


def segment_sum(a: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    segments = np.asarray(segments, dtype=np.intp)
    out = segment_reduce(np.add, a.data, segments, num_segments)
    return _make(out, [(a, lambda g: g[segments] if segments.size else np.zeros_like(a.data))])


LOG_CLAMP = 1e-12


def ce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean-over-rows cross entropy with the log clamped at 1e-12."""
    if pred.shape != target.shape:
        raise DimensionError(f"ce_loss shape mismatch: {pred.shape} vs {target.shape}")
    n = pred.rows
    clipped = np.maximum(pred.data, LOG_CLAMP)
    value = -(target.data * np.log(clipped)).sum() / n
    _check_loss(value)

    def pull_pred(g):
        grad = np.where(pred.data > LOG_CLAMP, -target.data / clipped / n, 0.0)
        return g[0, 0] * grad

    def pull_target(g):
        return g[0, 0] * (-np.log(clipped) / n)

    return _make(np.array([[value]]), [(pred, pull_pred), (target, pull_target)])


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean over all entries of the squared difference."""
    if pred.shape != target.shape:
        raise DimensionError(f"mse_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    total = diff.size
    value = (diff * diff).sum() / total
    _check_loss(value)
    return _make(np.array([[value]]), [
        (pred, lambda g: g[0, 0] * 2.0 * diff / total),
        (target, lambda g: g[0, 0] * -2.0 * diff / total),
    ])


def _check_loss(value: float) -> None:
    if not np.isfinite(value):
        raise NumericFailureError(f"loss is not finite: {value}")


LOSSES = {"ce": ce_loss, "mse": mse_loss}


# ---------------------------------------------------------------------------
# optimizer, early stopping and gradient checking


class Adam:
    """Standard Adam over a fixed parameter list."""

    def __init__(self, params: Sequence[Tensor], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise DimensionError(f"gradient shape {g.shape} != parameter shape {p.data.shape}")
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def minimize(self, build_loss: Callable[[], Tensor]) -> float:
        """One step: record `build_loss()` on a fresh tape over the
        parameters, backpropagate, release and update; returns the loss."""
        tape = Tape()
        tape.watch(*self.params)
        loss = build_loss()
        self.zero_grad()
        tape.backward(loss)
        tape.release()
        self.step()
        return loss.item()


class EarlyStopping:
    """Copies of the weights at the lowest validation loss so far (the
    starting weights before any epoch). Only a strictly lower loss resets
    the stale count; `update` says to stop once it exceeds `patience`."""

    def __init__(self, weights: dict[str, np.ndarray], patience: int):
        self.weights = weights  # the live dict the optimizer updates in place
        self.patience = patience
        self.best = {k: v.copy() for k, v in weights.items()}
        self.best_loss, self.best_epoch, self.stale = np.inf, 0, 0

    def update(self, epoch: int, loss: float) -> bool:
        """Record one epoch's validation loss; True means stop training."""
        if loss < self.best_loss:
            self.best = {k: v.copy() for k, v in self.weights.items()}
            self.best_loss, self.best_epoch, self.stale = loss, epoch, 0
            return False
        self.stale += 1
        return self.stale > self.patience


def finite_diff_check(build_loss: Callable[["Tape | None"], Tensor],
                      params: Sequence[Tensor], h: float = 1e-5) -> float:
    """Compare tape gradients against central finite differences.

    `build_loss(tape)` must construct the scalar loss from `params`; it is
    called once with a live tape for the analytic pass and repeatedly with
    None while entries are perturbed in place. Returns the max over all
    parameter entries of |analytic - numeric| / max(1, |numeric|).
    """
    tape = Tape()
    tape.watch(*params)
    loss = build_loss(tape)
    tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    tape.release()
    for p in params:
        p.grad = None

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = build_loss(None).item()
            flat[i] = orig - h
            down = build_loss(None).item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
