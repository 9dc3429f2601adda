"""Dense float64 tensors with a reverse-mode gradient tape.

Everything downstream (encoders, losses, the quantisation machinery) is built
from the operations in this module.  A Tensor is a thin wrapper around a
contiguous float64 numpy array.  Each operation computes its output array,
defines a backward closure, and hands both to custom_op, the one place that
consults the active tape: with a tape active the closure is recorded, with
none the output is returned as plain numpy arithmetic, so inference-time code
pays for the forward pass only.

The active tape belongs to the running thread.  eviq.cores runs untaped work
(half of each Adam update, half of an evidence encode under no_tape) on a
worker thread, which starts with no tape active; so nothing it computes is
recorded, and each tape holds exactly the ops its own thread ran, as when
all work ran in one thread.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    pass


class NumericError(ValueError):
    pass


class DegenerateBatchError(ValueError):
    pass


class Tensor:
    """float64 array plus a gradient slot. grad is filled during backward."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        a = np.asarray(data, dtype=np.float64)
        self.data = a
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


class GradTape:
    """Ordered record of operations for one forward pass.

    Nodes are (output, backward closure) pairs appended in execution order,
    so reversed order is a valid topological order and backward visits each
    node exactly once.  A tape is frozen after backward; recording onto or
    replaying a frozen tape is an error.
    """

    __slots__ = ("nodes", "frozen")

    def __init__(self):
        self.nodes = []
        self.frozen = False

    def record(self, out: Tensor, backward_fn) -> None:
        if self.frozen:
            raise RuntimeError("cannot record onto a frozen tape")
        self.nodes.append((out, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if self.frozen:
            raise RuntimeError("backward already ran on this tape")
        if loss.data.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self.frozen = True
        loss.grad = np.asarray(1.0, dtype=np.float64)
        for out, fn in reversed(self.nodes):
            g = out.grad
            if g is None:
                continue
            fn(g)


# The innermost tape() or no_tape() block of the running thread (None when
# not recording).  A context variable: each thread, such as the worker of
# eviq.cores, starts with no tape active and never sees the caller's, so
# work handed to it records nothing onto the caller's tape.
_TAPE: ContextVar[GradTape | None] = ContextVar("eviq_tape", default=None)
_active = _TAPE.get


@contextmanager
def tape():
    t = GradTape()
    token = _TAPE.set(t)
    try:
        yield t
    finally:
        _TAPE.reset(token)


@contextmanager
def no_tape():
    """Suspend recording; used for frozen submodules inside a training step."""
    token = _TAPE.set(None)
    try:
        yield
    finally:
        _TAPE.reset(token)


def _acc(t: Tensor, g: np.ndarray) -> None:
    # g may alias a buffer owned by someone else: copy on first write.
    if t.grad is None:
        t.grad = g.copy()
    else:
        t.grad += g


def _acc_new(t: Tensor, g: np.ndarray) -> None:
    # caller guarantees g is freshly allocated.
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def custom_op(out_data: np.ndarray, backward_fn) -> Tensor:
    """Wrap an op's output and record its backward on the active tape.

    Every differentiable op, here and in other modules, ends by returning
    custom_op(output array, backward closure); nothing else reads the tape.
    backward_fn receives the upstream gradient and accumulates into the op's
    inputs itself, via accumulate_new() for freshly allocated arrays.
    """
    out = Tensor(out_data)
    t = _active()
    if t is not None:
        t.record(out, backward_fn)
    return out


# public name for custom_op implementors
accumulate_new = _acc_new


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, with b either a's shape or one (1, d) row added to every row."""
    row = a.data.ndim == 2 and b.data.shape == (1, a.data.shape[1])
    if a.data.shape != b.data.shape and not row:
        raise ShapeError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")

    def back(g):
        _acc(a, g)
        if row:
            _acc_new(b, g.sum(axis=0, keepdims=True))
        else:
            _acc(b, g)
    return custom_op(a.data + b.data, back)


def add_n(ts: list[Tensor]) -> Tensor:
    """Sum of same-shaped tensors as one node."""
    if not ts:
        raise ShapeError("add_n needs at least one tensor")
    shape = ts[0].data.shape
    for x in ts[1:]:
        if x.data.shape != shape:
            raise ShapeError(f"add_n shapes differ: {shape} vs {x.data.shape}")
    acc = ts[0].data.copy()
    for x in ts[1:]:
        acc += x.data

    def back(g):
        for x in ts:
            _acc(x, g)
    return custom_op(acc, back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g):
        _acc_new(a, g * c)
    return custom_op(a.data * c, back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.data.shape} @ {b.data.shape}")

    def back(g):
        _acc_new(a, g @ b.data.T)
        _acc_new(b, a.data.T @ g)
    return custom_op(a.data @ b.data, back)


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T without materialising the transpose (tied output projections)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(f"matmul_nt shapes incompatible: {a.data.shape} @ {b.data.shape}.T")

    def back(g):
        _acc_new(a, g @ b.data)
        _acc_new(b, g.T @ a.data)
    return custom_op(a.data @ b.data.T, back)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with x: (T, n), w: (n, m), b: (1, m)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine shapes incompatible: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (1, w.data.shape[1]):
        raise ShapeError(f"affine bias shape {b.data.shape}, want (1, {w.data.shape[1]})")

    def back(g):
        _acc_new(x, g @ w.data.T)
        _acc_new(w, x.data.T @ g)
        _acc_new(b, g.sum(axis=0, keepdims=True))
    out = x.data @ w.data
    out += b.data
    return custom_op(out, back)


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a (N, d) tensor; backward scatter-adds."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows wants a 2-d tensor, got {a.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows indices must be 1-d")
    n = a.data.shape[0]
    # one reduction checks both ends: a negative index wraps to a huge uint64
    if idx.size and np.maximum.reduce(idx.view(np.uint64)) >= n:
        raise ShapeError(f"gather_rows index out of range for {n} rows")

    def back(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        _acc_new(a, buf)
    return custom_op(a.data[idx], back)


def _shifted_exp(x: np.ndarray):
    """Row max, exp(x - max) and its row sum over the trailing axis."""
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return m, e, e.sum(axis=-1, keepdims=True)


def softmax(x: np.ndarray) -> np.ndarray:
    """Max-shifted softmax of a plain array over its trailing axis."""
    _, e, s = _shifted_exp(x)
    return e / s


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Max-shifted log-softmax of a plain array over its trailing axis."""
    m, _, s = _shifted_exp(x)
    return x - (m + np.log(s))


def softmax_lastdim(x: Tensor) -> Tensor:
    """Stable softmax over the trailing axis."""
    if not np.isfinite(x.data).all():
        raise NumericError("softmax input contains non-finite values")
    s = softmax(x.data)

    def back(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        _acc_new(x, s * (g - dot))
    return custom_op(s, back)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalise each row of a (T, d) tensor to zero mean, unit variance."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm wants (T, d) input, got {x.data.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (1, d) or bias.data.shape != (1, d):
        raise ShapeError(f"layer_norm gain/bias must be (1, {d})")
    mu = np.add.reduce(x.data, axis=-1, keepdims=True) / d
    xc = x.data - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv

    def back(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _acc_new(x, inv * (dxhat - m1 - xhat * m2))
        _acc_new(gain, (g * xhat).sum(axis=0, keepdims=True))
        _acc_new(bias, g.sum(axis=0, keepdims=True))
    out = xhat * gain.data
    out += bias.data
    return custom_op(out, back)


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact gaussian-error-linear unit, x * Phi(x)."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))

    def back(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
        _acc_new(x, g * (cdf + x.data * pdf))
    return custom_op(x.data * cdf, back)


def cross_entropy(logits: Tensor, targets, mask) -> Tensor:
    """Mean negative log-likelihood over unmasked positions.

    logits: (T, V); targets: T token indices; mask: T flags, 1 = scored.
    Uses the log-sum-exp trick; raises on an all-masked batch.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy wants (T, V) logits, got {logits.data.shape}")
    tgt = np.asarray(targets, dtype=np.int64)
    tn, v = logits.data.shape
    if tgt.shape != (tn,):
        raise ShapeError(f"cross_entropy targets shape {tgt.shape}, want ({tn},)")
    msk = np.asarray(mask, dtype=np.float64)
    if msk.shape != (tn,):
        raise ShapeError(f"cross_entropy mask shape {msk.shape}, want ({tn},)")
    live = msk != 0.0
    if tgt[live].size and (tgt[live].min() < 0 or tgt[live].max() >= v):
        raise ShapeError(f"cross_entropy target index out of range for vocab {v}")
    n_scored = float(msk.sum())
    if n_scored == 0.0:
        raise DegenerateBatchError("cross_entropy: every position is masked")
    m, e, s = _shifted_exp(logits.data)
    rows = np.arange(tn)
    picked = logits.data[rows, tgt] - (m + np.log(s))[:, 0]
    loss = -float((picked * msk).sum() / n_scored)

    def back(g):
        p = e / s
        p[rows, tgt] -= 1.0
        p *= (msk * (float(g) / n_scored))[:, None]
        _acc_new(logits, p)
    return custom_op(loss, back)


def squared_distance(x: Tensor, row: np.ndarray) -> Tensor:
    """Sum of (x - row)^2 as a scalar tensor; row is a plain, frozen array.

    The gradient flows into x only, so row stands behind a stop-gradient.
    """
    if x.data.shape != row.shape:
        raise ShapeError(f"squared_distance shapes differ: {x.data.shape} "
                         f"vs {row.shape}")
    d = x.data - row

    def back(g):
        _acc_new(x, (2.0 * float(g)) * d)
    return custom_op(float((d * d).sum()), back)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if p < 0.0 or p >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(np.float64) / (1.0 - p)

    def back(g):
        _acc_new(x, g * keep)
    return custom_op(x.data * keep, back)


NEG_INF = -1e30  # additive mask value; underflows to exact zero after softmax


def _padded_rows(lengths: tuple):
    """Row of each packed row inside the padded (B * Tmax) layout.

    Packed row r of segment b lands at b * Tmax + (r - start of b).  None
    when every segment has the same length: the padded view is then a plain
    reshape of the packed rows.
    """
    tmax = max(lengths)
    if min(lengths) == tmax:
        return None
    shift = np.arange(len(lengths)) * tmax - np.cumsum((0,) + lengths[:-1])
    return np.arange(sum(lengths)) + np.repeat(shift, lengths)


def _to_heads(x: np.ndarray, shape: tuple, rows) -> np.ndarray:
    """Packed (sum T, d) rows -> padded heads of shape (B, H, Tmax, dh)."""
    b, h, tmax, dh = shape
    if rows is not None:
        buf = np.zeros((b * tmax, h * dh))
        buf[rows] = x
        x = buf
    return x.reshape(b, tmax, h, dh).transpose(0, 2, 1, 3)


def _from_heads(xh: np.ndarray, rows) -> np.ndarray:
    """Padded (B, H, Tmax, dh) heads -> packed (sum T, d) rows."""
    b, h, tmax, dh = xh.shape
    flat = xh.transpose(0, 2, 1, 3).reshape(b * tmax, h * dh)
    return flat if rows is None else flat[rows]


def _attention_mask(lengths: tuple, causal: bool) -> np.ndarray | None:
    """Additive mask over padded (B, H, Tmax, Tmax) attention scores.

    A query sees the keys of its own segment and, when causal, only those
    at or before its own position.  None when nothing is blocked.
    """
    tmax = max(lengths)
    if not causal and min(lengths) == tmax:
        return None
    col = np.arange(tmax)
    keep = col < np.asarray(lengths)[:, None, None]    # (B, 1, Tmax)
    if causal:
        keep = keep & (col <= col[:, None])             # (B, Tmax, Tmax)
    return np.where(keep, 0.0, NEG_INF)[:, None]


def _attend(qh: np.ndarray, kh: np.ndarray, vh: np.ndarray,
            mask: np.ndarray | None):
    """Scaled dot-product scores, additive mask, softmax, weighted values.

    Heads run over the leading axes: qh (..., Tq, dh), kh and vh
    (..., Tk, dh), mask broadcastable to (..., Tq, Tk).  Returns the
    attended values and the softmax weights.
    """
    scores = (qh @ np.swapaxes(kh, -1, -2)) * (1.0 / math.sqrt(qh.shape[-1]))
    if mask is not None:
        scores = scores + mask
    w = softmax(scores)
    return w @ vh, w


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                        lengths=None, causal: bool = False,
                        q_lengths=None) -> Tensor:
    """Scaled dot-product attention over n_heads splits of the width.

    Rows are packed segments of the given lengths (default: one segment of
    all rows); attention stays inside each segment and, when causal, never
    looks ahead.  q_lengths, when given, counts q's rows per segment
    instead, for a bidirectional attention in which only some rows of each
    segment query every key of it; the output has q's rows.  The mask is a
    constant, so no gradient flows through it.
    """
    tn, d = k.data.shape
    if v.data.shape != (tn, d):
        raise ShapeError(f"attention k/v shapes differ: {k.data.shape} "
                         f"{v.data.shape}")
    if d % n_heads != 0:
        raise ShapeError(f"width {d} not divisible by {n_heads} heads")
    lengths = (tn,) if lengths is None else tuple(int(n) for n in lengths)
    if not lengths or min(lengths) < 1 or sum(lengths) != tn:
        raise ShapeError(f"segment lengths {lengths} do not split {tn} rows")
    q_lengths = (lengths if q_lengths is None
                 else tuple(int(n) for n in q_lengths))
    if (len(q_lengths) != len(lengths) or min(q_lengths) < 1
            or q.data.shape != (sum(q_lengths), d)):
        raise ShapeError(f"query shape {q.data.shape} in segments "
                         f"{q_lengths} does not fit keys of shape {k.data.shape} "
                         f"in segments {lengths}")
    if causal and q_lengths != lengths:
        raise ShapeError("causal attention needs a query for every row")
    shape = (len(lengths), n_heads, max(lengths), d // n_heads)
    rows = _padded_rows(lengths)
    q_rows = rows if q_lengths is lengths else _padded_rows(q_lengths)
    qh = _to_heads(q.data, shape[:2] + (max(q_lengths),) + shape[3:], q_rows)
    kh, vh = (_to_heads(x.data, shape, rows) for x in (k, v))
    outh, w = _attend(qh, kh, vh, _attention_mask(lengths, causal))
    s = 1.0 / math.sqrt(d // n_heads)

    def back(g):
        gh = _to_heads(g, qh.shape, q_rows)
        dw = gh @ vh.transpose(0, 1, 3, 2)
        dvh = w.transpose(0, 1, 3, 2) @ gh
        da = w * (dw - (dw * w).sum(axis=-1, keepdims=True))
        dqh = (da @ kh) * s
        dkh = (da.transpose(0, 1, 3, 2) @ qh) * s
        _acc_new(q, _from_heads(dqh, q_rows))
        _acc_new(k, _from_heads(dkh, rows))
        _acc_new(v, _from_heads(dvh, rows))
    return custom_op(_from_heads(outh, q_rows), back)
