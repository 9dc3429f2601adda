"""Small transformer stacks shared by every encoder and decoder here.

One weight layout and one forward serve three call patterns: a bidirectional
encoder pooled at a trailing summary token, a causal next-token decoder, and
the decoder variant conditioned on one (1, d_model) latent row shared by
every position.  The forward takes a list of id sequences and keeps their
rows packed end to end in one (total length, width) matrix, so embedding,
projections, layer norm, feed-forward, dropout and residuals each run once
over every sequence.  Only attention sees the sequence boundaries: it is
handed the sequence lengths and the causal flag and builds its own mask, so
no query attends across sequences and none looks ahead in a causal stack.
The encoder packs a batch of sequences, and encoder_forward is its
one-sequence case; the decoder forward takes one sequence, as every caller
decodes one at a time.  Incremental decoding runs the same forward through
a KVCache.  Building one runs the shared prefix through it: every layer
keeps its prefix keys and values in head layout, and only the final prefix
row goes past the last layer's attention.  Each step then picks the live
hypotheses of a beam and packs one new token apiece; every layer projects
the new rows as any forward does and attends each hypothesis's row to the
prefix and to that hypothesis's own decoded rows, with no mask; its keys
and values join those rows.

A pooled encoder forward reads one row per sequence, so when it is not
training only the last two rows of each sequence (one at length 1) go past
the last layer's attention: every row still gives that layer's keys and
values, and the query projection, output projection, layer norms and
feed-forward after it run on those rows alone.  Two rows, not one, keep
numpy's query products on the matrix-matrix kernel the full forward uses,
so the pooled rows agree with the full forward's to within 1e-12 (in most
shapes exactly).  The path is built from the same taped ops, so gradients
through it are exact.  A training forward keeps every row through every
layer: dropout draws one mask element per row, so dropping rows would
change every later draw and every trained weight.

The config holds only what callers set: depth, heads, widths and whether the
stack is causal.  Every stack has MAX_LEN learned positions and drops units
at rate DROPOUT in training.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    affine,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    matmul_nt,
    multihead_attention,
    no_tape,
    softmax,
)


MAX_LEN = 192    # learned positions: the longest sequence any stack reads
DROPOUT = 0.1    # rate after the embeddings and each sublayer in training


@dataclass(frozen=True)
class TransformerConfig:
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 128
    d_ff: int = 512
    causal: bool = False

    def __post_init__(self):
        for name in ("n_layers", "n_heads", "d_model", "d_ff"):
            n = getattr(self, name)
            if (isinstance(n, bool) or not isinstance(n, numbers.Integral)
                    or n < 1):
                raise ValueError(f"{name} must be a positive integer, "
                                 f"got {n!r}")
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


def init_params(config: TransformerConfig, vocab_size: int,
                rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh weights: uniform(-0.1, 0.1) matrices, zero biases, unit gains.

    The output projection is the transpose of the token embedding, so no
    separate tensor exists for it.
    """
    d, f = config.d_model, config.d_ff

    def u(*shape):
        return Tensor(rng.uniform(-0.1, 0.1, size=shape))

    p = {"tok_emb": u(vocab_size, d), "pos_emb": u(MAX_LEN, d)}
    for i in range(config.n_layers):
        pre = f"layers.{i}."
        for name in ("wq", "wk", "wv", "wo"):
            p[pre + "attn." + name] = u(d, d)
        for name in ("bq", "bk", "bv", "bo"):
            p[pre + "attn." + name] = Tensor(np.zeros((1, d)))
        p[pre + "ffn.w1"] = u(d, f)
        p[pre + "ffn.b1"] = Tensor(np.zeros((1, f)))
        p[pre + "ffn.w2"] = u(f, d)
        p[pre + "ffn.b2"] = Tensor(np.zeros((1, d)))
        for ln in ("ln1", "ln2"):
            p[pre + ln + ".g"] = Tensor(np.ones((1, d)))
            p[pre + ln + ".b"] = Tensor(np.zeros((1, d)))
    return p


def _qkv(params: dict, i: int, hq: Tensor, h: Tensor, z: Tensor | None):
    """Layer i's query rows of hq and key and value rows of h, each shifted
    by z when given."""
    pre = f"layers.{i}.attn."
    q = affine(hq, params[pre + "wq"], params[pre + "bq"])
    k = affine(h, params[pre + "wk"], params[pre + "bk"])
    v = affine(h, params[pre + "wv"], params[pre + "bv"])
    if z is not None:
        q, k, v = (add(t, z) for t in (q, k, v))
    return q, k, v


class KVCache:
    """Keys and values of causal decodes that share one prefix.

    The constructor runs the prefix pass, untaped and without dropout, and
    keeps the weights dict and config it ran with.  Every layer's prefix
    keys and values are kept once, in head layout: keys as (heads, d /
    heads, P), ready to score queries against, and values as (heads, P,
    d / heads).  In the last layer only the final prefix row goes past
    attention, since only its logits are read: ``logits``, the (1, vocab)
    next-token logits after the prefix.

    Each step picks the hypotheses that live on and takes one new token for
    each.  In every layer its row attends to the prefix and to that
    hypothesis's own decoded rows, itself included: two small products, one
    softmax over their joined scores and a weighted sum, with no mask.  Its
    key and value join a copy of its parent's decoded rows, its own from then.
    """

    def __init__(self, params: dict, config: TransformerConfig, prefix):
        if not config.causal:
            raise ValueError("cached decoding needs a causal config")
        self.params, self.config = params, config
        self.prefix = []   # per layer: prefix keys (H, dh, P), values (H, P, dh)
        self.grown = []    # per layer: keys, values decoded since, (H, B, t, dh)
        self._parents = None   # the running step's parent of each new row
        self.logits = self._next_logits([prefix])

    def step(self, parents, tokens) -> np.ndarray:
        """Live on as the hypotheses at these indices, repeats allowed, and
        feed token j to hypothesis j; returns one (vocab,) logit row each.

        parents is a non-empty 1-d sequence of integers (not bools) in
        0..B-1 and tokens one id per parent; anything else raises ShapeError
        naming the first bad parent or the token count.  A layer copies the
        parents' rows only to join the new ones, so a step refused before
        the first layer (past MAX_LEN, say) leaves the cache as it was.
        """
        b = self.grown[0][0].shape[1]
        idx = np.asarray(parents)
        if idx.ndim != 1 or not idx.size:
            raise ShapeError("parents must be a non-empty 1-d sequence, "
                             f"got {parents!r}")
        for x in parents:
            if (isinstance(x, bool) or not isinstance(x, numbers.Integral)
                    or not 0 <= x < b):
                raise ShapeError(f"parent {x!r} is not an integer in "
                                 f"0..{b - 1}")
        tokens = np.asarray(tokens)
        if tokens.shape != idx.shape:
            raise ShapeError(f"{len(idx)} parents take one token apiece, "
                             f"got tokens of shape {tokens.shape}")
        self._parents = idx
        return self._next_logits(tokens[:, None])

    def start(self) -> int:
        """Position of the next row through the cache: 0 in the prefix pass."""
        if not self.prefix:
            return 0
        return self.prefix[0][1].shape[1] + self.grown[0][0].shape[2]

    def _next_logits(self, seqs) -> np.ndarray:
        with no_tape():
            h = _forward(self.params, self.config, seqs, cache=self)
            return matmul_nt(h, self.params["tok_emb"]).data

    def attend(self, i: int, q: Tensor, k: Tensor, v: Tensor,
               h: Tensor) -> tuple[Tensor, Tensor]:
        """Layer i's attention rows for the query, key and value rows of h,
        and the residual rows they go with, keeping the new keys and values.

        Below the last layer the prefix pass attends causally over every
        prefix row; in the last layer only the final row attends, and it
        and its residual row come back alone.
        """
        n, d = h.shape
        heads = self.config.n_heads
        qh, kh, vh = (x.data.reshape(n, heads, d // heads).transpose(1, 0, 2)
                      for x in (q, k, v))
        if i == len(self.prefix):   # the prefix pass fills layers in order
            self.prefix.append((np.ascontiguousarray(kh.transpose(0, 2, 1)),
                                np.ascontiguousarray(vh)))
            self.grown.append((kh[:, None, :0], vh[:, None, :0]))
            if i < self.config.n_layers - 1:
                return multihead_attention(q, k, v, heads, causal=True), h
            qh, h = qh[:, -1:], Tensor(h.data[-1:])
        else:   # a step: each new row joins its parent's decoded rows
            self.grown[i] = tuple(
                np.concatenate([g[:, self._parents], x[:, :, None]], axis=2)
                for g, x in zip(self.grown[i], (kh, vh)))
        pk, pv = self.prefix[i]
        gk, gv = self.grown[i]
        scores = np.concatenate([qh @ pk, (gk @ qh[..., None])[..., 0]],
                                axis=-1)
        scores *= 1.0 / math.sqrt(qh.shape[-1])
        wts = softmax(scores)
        p = pv.shape[1]
        out = wts[..., :p] @ pv
        out += (wts[..., None, p:] @ gv)[..., 0, :]
        return Tensor(out.transpose(1, 0, 2).reshape(len(h.data), d)), h


def _block(params: dict, config: TransformerConfig, i: int, h: Tensor,
           lengths: tuple, z: Tensor | None, p: float, rng,
           cache: KVCache | None = None, tail: tuple | None = None) -> Tensor:
    """Layer i over packed rows h: attention, residual, layer norm,
    feed-forward, residual, layer norm; dropout rate p after each sublayer.
    With a cache, attention reads and extends it instead of seeing only h,
    and the rows past attention are the ones the cache hands back.  With
    tail, a row count per sequence, only the last tail[b] rows of sequence b
    query attention and go past it; every row gives keys and values.
    """
    pre = f"layers.{i}."
    hq = h
    if tail is not None:
        ends = np.cumsum(lengths)
        hq = gather_rows(h, [r for e, t in zip(ends, tail)
                             for r in range(e - t, e)])
    q, k, v = _qkv(params, i, hq, h, z)
    if cache is None:
        a = multihead_attention(q, k, v, config.n_heads, lengths,
                                config.causal, tail)
    else:
        a, hq = cache.attend(i, q, k, v, hq)
    a = dropout(affine(a, params[pre + "attn.wo"], params[pre + "attn.bo"]),
                p, rng)
    g = layer_norm(add(a, hq), params[pre + "ln1.g"], params[pre + "ln1.b"])
    f = gelu(affine(g, params[pre + "ffn.w1"], params[pre + "ffn.b1"]))
    f = dropout(affine(f, params[pre + "ffn.w2"], params[pre + "ffn.b2"]),
                p, rng)
    return layer_norm(add(f, g), params[pre + "ln2.g"], params[pre + "ln2.b"])


def _forward(params: dict, config: TransformerConfig, seqs,
             z: Tensor | None = None, train: bool = False, rng=None,
             cache: KVCache | None = None, pooled: bool = False) -> Tensor:
    """Packed rows of the id sequences after the last layer.

    Positions restart at zero inside each sequence, or continue after the
    rows a cache holds.  z, when given, is one (1, d_model) latent row for
    all rows; it is added to the input embeddings and, in every layer, to
    the projected queries, keys and values.  With a cache (untaped, no z)
    or pooled, only each sequence's last row comes back; a pooled forward
    that is not training carries only the last two rows of each sequence
    past the last layer's attention (see the module docstring).  A training
    forward without an rng for dropout is refused with ValueError.
    """
    if train and rng is None:
        raise ValueError("a training forward needs an rng for dropout")
    lengths = tuple(map(len, seqs))
    if not lengths:
        raise ShapeError("no sequences to pack")
    start = 0 if cache is None else cache.start()
    for n in (min(lengths), max(lengths)):
        if not 1 <= start + n <= MAX_LEN:
            raise ShapeError(f"sequence length {start + n} outside "
                             f"1..{MAX_LEN}")
    ids = np.concatenate(seqs, dtype=np.int64)
    ends = np.cumsum(lengths)
    positions = (np.arange(start, start + ends[-1])
                 - np.repeat(ends - lengths, lengths))
    if z is not None and z.shape != (1, config.d_model):
        raise ShapeError(f"latent shape {z.shape}, want (1, {config.d_model})")
    h = add(gather_rows(params["tok_emb"], ids),
            gather_rows(params["pos_emb"], positions))
    if z is not None:
        h = add(h, z)
    p = DROPOUT if train else 0.0
    h = dropout(h, p, rng)
    tail = (tuple(min(2, n) for n in lengths) if pooled and not train
            else None)
    for i in range(config.n_layers):
        h = _block(params, config, i, h, lengths, z, p, rng, cache,
                   tail if i == config.n_layers - 1 else None)
    if pooled:
        h = gather_rows(h, np.cumsum(tail or lengths) - 1)
    return h


def encoder_forward(params: dict, config: TransformerConfig, token_ids,
                    cls_id: int | None = None, train: bool = False,
                    rng=None) -> Tensor:
    """Bidirectional pass pooled at the final position; returns (1, d_model).

    The last token is the summary slot and must be cls_id when given.
    """
    return batch_encoder_forward(params, config, [token_ids], cls_id,
                                 train, rng)


def batch_encoder_forward(params: dict, config: TransformerConfig, seqs,
                          cls_id: int | None = None, train: bool = False,
                          rng=None) -> Tensor:
    """Bidirectional pass over several sequences; returns (len(seqs), d_model).

    Row b is sequence b pooled at its final position, whose token must be
    cls_id when given.
    """
    if config.causal:
        raise ValueError("encoder forward needs a bidirectional config")
    for s in seqs:
        if cls_id is not None and len(s) and s[-1] != cls_id:
            raise ShapeError(
                f"last token id {s[-1]} is not the summary token {cls_id}")
    return _forward(params, config, seqs, train=train, rng=rng, pooled=True)


def decoder_forward(params: dict, config: TransformerConfig, token_ids,
                    z: Tensor | None = None, train: bool = False,
                    rng=None) -> Tensor:
    """Causal pass over one sequence; returns next-token logits (T, vocab).

    With z given, the latent row joins the computation at three sites: summed
    into every input embedding, into every projected query, key and value,
    and into every top-layer hidden row before the tied output projection.
    """
    if not config.causal:
        raise ValueError("decoder forward needs a causal config")
    h = _forward(params, config, [token_ids], z, train, rng)
    if z is not None:
        h = add(h, z)
    return matmul_nt(h, params["tok_emb"])

