"""Dense float64 tensors with a reverse-mode gradient tape.

Everything downstream (encoders, losses, the quantisation machinery) is built
from the operations in this module.  A Tensor is a thin wrapper around a
contiguous float64 numpy array.  Operations record backward closures onto the
active tape; with no tape active they are plain numpy arithmetic, so
inference-time code pays for the forward pass only.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

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

    __slots__ = ("data", "grad", "tape_id")

    def __init__(self, data):
        a = np.asarray(data, dtype=np.float64)
        self.data = a
        self.grad = None
        self.tape_id = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


def constant(data) -> Tensor:
    """Tensor that never records onto a tape (gradients stop here)."""
    return Tensor(data)


class GradTape:
    """Ordered record of operations for one forward pass.

    Nodes are appended in execution order, so reversed order is a valid
    topological order and backward visits each node exactly once.  A tape is
    frozen after backward; recording onto or replaying a frozen tape is an
    error.
    """

    __slots__ = ("nodes", "frozen")

    def __init__(self):
        self.nodes = []
        self.frozen = False

    def record(self, out: Tensor, parents: tuple, backward_fn) -> None:
        if self.frozen:
            raise RuntimeError("cannot record onto a frozen tape")
        out.tape_id = len(self.nodes)
        self.nodes.append((out, parents, backward_fn))

    def backward(self, loss: Tensor) -> None:
        if self.frozen:
            raise RuntimeError("backward already ran on this tape")
        if loss.data.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        self.frozen = True
        loss.grad = np.asarray(1.0, dtype=np.float64)
        for out, _parents, fn in reversed(self.nodes):
            g = out.grad
            if g is None:
                continue
            fn(g)


_TAPES: list[GradTape | None] = []


def _active() -> GradTape | None:
    return _TAPES[-1] if _TAPES else None


@contextmanager
def tape():
    t = GradTape()
    _TAPES.append(t)
    try:
        yield t
    finally:
        _TAPES.pop()


@contextmanager
def no_tape():
    """Suspend recording; used for frozen submodules inside a training step."""
    _TAPES.append(None)
    try:
        yield
    finally:
        _TAPES.pop()


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


def custom_op(out_data: np.ndarray, parents: tuple, backward_fn) -> Tensor:
    """Escape hatch for modules that define their own fused node.

    backward_fn receives the upstream gradient and must accumulate into the
    parents itself via accumulate()/accumulate_new().
    """
    out = Tensor(out_data)
    t = _active()
    if t is not None:
        t.record(out, parents, backward_fn)
    return out


# public names for custom_op implementors
accumulate = _acc
accumulate_new = _acc_new


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data + b.data)
    t = _active()
    if t is not None:
        def back(g):
            _acc(a, g)
            _acc(b, g)
        t.record(out, (a, b), back)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub shapes differ: {a.data.shape} vs {b.data.shape}")
    out = Tensor(a.data - b.data)
    t = _active()
    if t is not None:
        def back(g):
            _acc(a, g)
            _acc_new(b, -g)
        t.record(out, (a, b), back)
    return out


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
    out = Tensor(acc)
    t = _active()
    if t is not None:
        def back(g):
            for x in ts:
                _acc(x, g)
        t.record(out, tuple(ts), back)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)
    t = _active()
    if t is not None:
        def back(g):
            _acc_new(a, g * c)
        t.record(out, (a,), back)
    return out


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """a: (T, d), v: (1, d) broadcast over rows."""
    if a.data.ndim != 2 or v.data.shape != (1, a.data.shape[1]):
        raise ShapeError(f"add_rowvec shapes: {a.data.shape} + {v.data.shape}")
    out = Tensor(a.data + v.data)
    t = _active()
    if t is not None:
        def back(g):
            _acc(a, g)
            _acc_new(v, g.sum(axis=0, keepdims=True))
        t.record(out, (a, v), back)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data)
    t = _active()
    if t is not None:
        def back(g):
            _acc_new(a, g @ b.data.T)
            _acc_new(b, a.data.T @ g)
        t.record(out, (a, b), back)
    return out


def matmul_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T without materialising the transpose (tied output projections)."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeError(f"matmul_nt shapes incompatible: {a.data.shape} @ {b.data.shape}.T")
    out = Tensor(a.data @ b.data.T)
    t = _active()
    if t is not None:
        def back(g):
            _acc_new(a, g @ b.data)
            _acc_new(b, g.T @ a.data)
        t.record(out, (a, b), back)
    return out


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with x: (T, n), w: (n, m), b: (1, m)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"affine shapes incompatible: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (1, w.data.shape[1]):
        raise ShapeError(f"affine bias shape {b.data.shape}, want (1, {w.data.shape[1]})")
    out = Tensor(x.data @ w.data + b.data)
    t = _active()
    if t is not None:
        def back(g):
            _acc_new(x, g @ w.data.T)
            _acc_new(w, x.data.T @ g)
            _acc_new(b, g.sum(axis=0, keepdims=True))
        t.record(out, (x, w, b), back)
    return out


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a (N, d) tensor; backward scatter-adds."""
    if a.data.ndim != 2:
        raise ShapeError(f"gather_rows wants a 2-d tensor, got {a.data.shape}")
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("gather_rows indices must be 1-d")
    n = a.data.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(f"gather_rows index out of range for {n} rows")
    out = Tensor(a.data[idx])
    t = _active()
    if t is not None:
        def back(g):
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _acc_new(a, buf)
        t.record(out, (a,), back)
    return out


def softmax_lastdim(x: Tensor) -> Tensor:
    """Stable softmax over the trailing axis."""
    if not np.isfinite(x.data).all():
        raise NumericError("softmax input contains non-finite values")
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(s)
    t = _active()
    if t is not None:
        def back(g):
            dot = (g * s).sum(axis=-1, keepdims=True)
            _acc_new(x, s * (g - dot))
        t.record(out, (x,), back)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalise each trailing-axis slice to zero mean, unit variance."""
    d = x.data.shape[-1]
    if gain.data.shape != (1, d) or bias.data.shape != (1, d):
        raise ShapeError(f"layer_norm gain/bias must be (1, {d})")
    if eps <= 0:
        raise ValueError("layer_norm eps must be > 0")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    t = _active()
    if t is not None:
        def back(g):
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _acc_new(x, inv * (dxhat - m1 - xhat * m2))
            _acc_new(gain, (g * xhat).sum(axis=0, keepdims=True)
                     if g.ndim == 2 else (g * xhat).reshape(1, d))
            _acc_new(bias, g.sum(axis=0, keepdims=True)
                     if g.ndim == 2 else g.reshape(1, d))
        t.record(out, (x, gain, bias), back)
    return out


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x: Tensor) -> Tensor:
    """Exact gaussian-error-linear unit, x * Phi(x)."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = Tensor(x.data * cdf)
    t = _active()
    if t is not None:
        def back(g):
            pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT2PI
            _acc_new(x, g * (cdf + x.data * pdf))
        t.record(out, (x,), back)
    return out


def cross_entropy(logits: Tensor, targets, mask=None) -> Tensor:
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
    if mask is None:
        msk = np.ones(tn, dtype=np.float64)
    else:
        msk = np.asarray(mask, dtype=np.float64)
        if msk.shape != (tn,):
            raise ShapeError(f"cross_entropy mask shape {msk.shape}, want ({tn},)")
    live = msk != 0.0
    if tgt[live].size and (tgt[live].min() < 0 or tgt[live].max() >= v):
        raise ShapeError(f"cross_entropy target index out of range for vocab {v}")
    n_scored = float(msk.sum())
    if n_scored == 0.0:
        raise DegenerateBatchError("cross_entropy: every position is masked")
    m = logits.data.max(axis=-1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[:, 0]
    picked = logits.data[np.arange(tn), tgt]
    loss = -float(((picked - lse) * msk).sum() / n_scored)
    out = Tensor(loss)
    t = _active()
    if t is not None:
        def back(g):
            p = np.exp(z)
            p /= p.sum(axis=-1, keepdims=True)
            p[np.arange(tn), tgt] -= 1.0
            p *= (msk * (float(g) / n_scored))[:, None]
            _acc_new(logits, p)
        t.record(out, (logits,), back)
    return out


def squared_norm(x: Tensor) -> Tensor:
    """Sum of squared entries, as a scalar tensor."""
    out = Tensor(float((x.data * x.data).sum()))
    t = _active()
    if t is not None:
        def back(g):
            _acc_new(x, (2.0 * float(g)) * x.data)
        t.record(out, (x,), back)
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if p < 0.0 or p >= 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    keep = (rng.random(x.data.shape) >= p).astype(np.float64) / (1.0 - p)
    out = Tensor(x.data * keep)
    t = _active()
    if t is not None:
        def back(g):
            _acc_new(x, g * keep)
        t.record(out, (x,), back)
    return out


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
    m = scores.max(axis=-1, keepdims=True)
    e = np.exp(scores - m)
    w = e / e.sum(axis=-1, keepdims=True)
    return w @ vh, w


def _mha_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                 lengths, causal: bool):
    """Shared multi-head attention forward over packed segments.

    q, k, v: (sum T, d) after projection; lengths None means one segment.
    Returns the packed output plus the padded probabilities w, the padded
    heads qh, kh, vh and the padded-row index, kept for backward.
    """
    tn, d = q.shape
    lengths = (tn,) if lengths is None else tuple(int(n) for n in lengths)
    if not lengths or min(lengths) < 1 or sum(lengths) != tn:
        raise ShapeError(f"segment lengths {lengths} do not split {tn} rows")
    shape = (len(lengths), n_heads, max(lengths), d // n_heads)
    rows = _padded_rows(lengths)
    qh, kh, vh = (_to_heads(x, shape, rows) for x in (q, k, v))
    out, w = _attend(qh, kh, vh, _attention_mask(lengths, causal))
    return _from_heads(out, rows), w, qh, kh, vh, rows


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                        lengths=None, causal: bool = False) -> Tensor:
    """Scaled dot-product attention over n_heads splits of the width.

    Rows are packed segments of the given lengths (default: one segment of
    all rows); attention stays inside each segment and, when causal, never
    looks ahead.  The mask is a constant, so no gradient flows through it.
    """
    tn, d = q.data.shape
    if k.data.shape != (tn, d) or v.data.shape != (tn, d):
        raise ShapeError(f"attention q/k/v shapes differ: {q.data.shape} "
                         f"{k.data.shape} {v.data.shape}")
    if d % n_heads != 0:
        raise ShapeError(f"width {d} not divisible by {n_heads} heads")
    outd, w, qh, kh, vh, rows = _mha_forward(q.data, k.data, v.data, n_heads,
                                             lengths, causal)
    out = Tensor(outd)
    t = _active()
    if t is not None:
        s = 1.0 / math.sqrt(d // n_heads)
        def back(g):
            gh = _to_heads(g, qh.shape, rows)
            dw = gh @ vh.transpose(0, 1, 3, 2)
            dvh = w.transpose(0, 1, 3, 2) @ gh
            da = w * (dw - (dw * w).sum(axis=-1, keepdims=True))
            dqh = (da @ kh) * s
            dkh = (da.transpose(0, 1, 3, 2) @ qh) * s
            _acc_new(q, _from_heads(dqh, rows))
            _acc_new(k, _from_heads(dkh, rows))
            _acc_new(v, _from_heads(dvh, rows))
        t.record(out, (q, k, v), back)
    return out


def attention_probs(q: np.ndarray, k: np.ndarray, n_heads: int,
                    lengths=None, causal: bool = False) -> np.ndarray:
    """Attention weights via the same code as the op: (H, T, T) for one
    segment, (B, H, Tmax, Tmax) zero on padding columns for several.
    """
    _, w, _, _, _, _ = _mha_forward(q, k, np.zeros_like(q), n_heads,
                                    lengths, causal)
    return w[0] if w.shape[0] == 1 else w


def masked_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     n_heads: int, mask: np.ndarray) -> np.ndarray:
    """Untaped attention of query rows over their own key and value rows.

    q: (n, d) queries; k, v: (m, d) keys and values; mask: additive
    (n, m), NEG_INF where a query must not look.  Same score and softmax
    code as the op; returns the (n, d) attended rows.
    """
    d = q.shape[1]
    if k.shape != v.shape or k.shape[1] != d or mask.shape != (len(q), len(k)):
        raise ShapeError(f"attention rows: q {q.shape}, k {k.shape}, "
                         f"v {v.shape}, mask {mask.shape}")
    qh, kh, vh = (_to_heads(x, (1, n_heads, len(x), d // n_heads), None)
                  for x in (q, k, v))
    return _from_heads(_attend(qh, kh, vh, mask)[0], None)
