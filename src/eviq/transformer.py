"""Small transformer stacks shared by every encoder and decoder here.

One weight layout and one forward serve three call patterns: a bidirectional
encoder pooled at a trailing summary token, a causal next-token decoder, and
the decoder variant conditioned on a latent row vector.  The forward takes a
list of id sequences and keeps their rows packed end to end in one
(total length, width) matrix, so embedding, projections, layer norm,
feed-forward, dropout and residuals each run once over every sequence.  Only
attention sees the sequence boundaries: it is handed the sequence lengths and
the causal flag and builds its own mask, so no query attends across
sequences and none looks ahead in a causal stack.  The single-sequence entry
points are the one-sequence case of the batched ones.  Incremental decoding
runs the same forward with a KVCache: each layer's attention then reads the
keys and values of earlier positions from the cache instead of recomputing
them, and adds its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    NEG_INF,
    ShapeError,
    Tensor,
    add,
    add_rowvec,
    affine,
    attention_probs,
    dropout,
    gather_rows,
    gelu,
    layer_norm,
    masked_attention,
    matmul_nt,
    multihead_attention,
    no_tape,
)


@dataclass(frozen=True)
class TransformerConfig:
    n_layers: int = 2
    n_heads: int = 4
    d_model: int = 128
    d_ff: int = 512
    max_len: int = 192
    dropout: float = 0.1
    causal: bool = False

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ShapeError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout rate {self.dropout} outside [0, 1)")
        if self.max_len < 1 or self.n_layers < 1:
            raise ValueError("max_len and n_layers must be positive")


def init_params(config: TransformerConfig, vocab_size: int,
                rng: np.random.Generator) -> dict[str, Tensor]:
    """Fresh weights: uniform(-0.1, 0.1) matrices, zero biases, unit gains.

    The output projection is the transpose of the token embedding, so no
    separate tensor exists for it.
    """
    d, f = config.d_model, config.d_ff

    def u(*shape):
        return Tensor(rng.uniform(-0.1, 0.1, size=shape))

    p = {"tok_emb": u(vocab_size, d), "pos_emb": u(config.max_len, d)}
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


def _add_latent(t: Tensor, z: Tensor) -> Tensor:
    # z is either one row broadcast over all positions, or one row per position
    if z.shape[0] == 1:
        return add_rowvec(t, z)
    return add(t, z)


def _qkv(params: dict, i: int, h: Tensor, z: Tensor | None):
    """Layer i's query, key and value rows, each shifted by z when given."""
    pre = f"layers.{i}.attn."
    q = affine(h, params[pre + "wq"], params[pre + "bq"])
    k = affine(h, params[pre + "wk"], params[pre + "bk"])
    v = affine(h, params[pre + "wv"], params[pre + "bv"])
    if z is not None:
        q, k, v = (_add_latent(t, z) for t in (q, k, v))
    return q, k, v


class KVCache:
    """Per-layer keys and values of causal decodes that share one prefix.

    The first forward through the cache runs over the prefix alone and keeps
    every layer's key and value rows.  Each later forward takes one new token
    per live sequence: its row attends to the prefix, to the rows decoded
    earlier for that sequence and to itself, and its keys and values join
    that sequence's rows.  reorder picks the sequences that live on.
    """

    def __init__(self):
        self.prefix = []   # per layer: keys, values of the prefix, (P, d)
        self.grown = []    # per layer: keys, values decoded since, (B, t, d)

    def begin(self, lengths: tuple) -> int:
        """Check a forward's sequence lengths; return its first position."""
        if not self.prefix:
            if len(lengths) != 1:
                raise ShapeError("an empty cache takes one prefix sequence, "
                                 f"got {len(lengths)}")
            return 0
        b, t = self.grown[0][0].shape[:2]
        if lengths != (1,) * b:
            raise ShapeError(f"cache holds {b} sequences, each forward takes "
                             f"one token apiece; got lengths {lengths}")
        return len(self.prefix[0][0]) + t

    def attend(self, i: int, q: Tensor, k: Tensor, v: Tensor,
               n_heads: int) -> Tensor:
        """Layer i's attention output, keeping the layer's new keys and values."""
        if i == len(self.prefix):   # the prefix pass fills layers in order
            d = k.shape[1]
            self.prefix.append((k.data, v.data))
            self.grown.append((np.zeros((1, 0, d)), np.zeros((1, 0, d))))
            return multihead_attention(q, k, v, n_heads, causal=True)
        gk, gv = (np.concatenate([g, x.data[:, None]], axis=1)
                  for g, x in zip(self.grown[i], (k, v)))
        self.grown[i] = (gk, gv)
        b, t, d = gk.shape
        pk, pv = self.prefix[i]
        own = np.repeat(np.arange(b), t) == np.arange(b)[:, None]
        mask = np.hstack([np.zeros((b, len(pk))),
                          np.where(own, 0.0, NEG_INF)])
        return Tensor(masked_attention(
            q.data, np.concatenate([pk, gk.reshape(b * t, d)]),
            np.concatenate([pv, gv.reshape(b * t, d)]), n_heads, mask))

    def reorder(self, parents) -> None:
        """Live on as the sequences at these indices, repeats allowed."""
        self.grown = [(k[parents], v[parents]) for k, v in self.grown]


def _block(params: dict, config: TransformerConfig, i: int, h: Tensor,
           lengths: tuple, z: Tensor | None, p: float, rng,
           cache: KVCache | None = None) -> Tensor:
    """Layer i over packed rows h: attention, residual, layer norm,
    feed-forward, residual, layer norm; dropout rate p after each sublayer.
    With a cache, attention reads and extends it instead of seeing only h.
    """
    pre = f"layers.{i}."
    q, k, v = _qkv(params, i, h, z)
    if cache is None:
        a = multihead_attention(q, k, v, config.n_heads, lengths,
                                config.causal)
    else:
        a = cache.attend(i, q, k, v, config.n_heads)
    a = affine(a, params[pre + "attn.wo"], params[pre + "attn.bo"])
    if p > 0.0:
        a = dropout(a, p, rng)
    g = layer_norm(add(a, h), params[pre + "ln1.g"], params[pre + "ln1.b"])
    f = gelu(affine(g, params[pre + "ffn.w1"], params[pre + "ffn.b1"]))
    f = affine(f, params[pre + "ffn.w2"], params[pre + "ffn.b2"])
    if p > 0.0:
        f = dropout(f, p, rng)
    return layer_norm(add(f, g), params[pre + "ln2.g"], params[pre + "ln2.b"])


def _forward(params: dict, config: TransformerConfig, seqs,
             z: Tensor | None = None, train: bool = False, rng=None,
             depth: int | None = None, cache: KVCache | None = None) -> Tensor:
    """Packed rows of the id sequences after depth layers (default all).

    Positions restart at zero inside each sequence, or continue after the
    rows a cache holds.  z, when given, holds one latent row for all rows or
    one per packed row; it is added to the input embeddings and, in every
    layer, to the projected queries, keys and values.
    """
    lengths = tuple(len(s) for s in seqs)
    if not lengths:
        raise ShapeError("no sequences to pack")
    start = 0 if cache is None else cache.begin(lengths)
    for n in lengths:
        if not 1 <= start + n <= config.max_len:
            raise ShapeError(f"sequence length {start + n} outside "
                             f"1..{config.max_len}")
    ids = np.concatenate([np.asarray(s, dtype=np.int64) for s in seqs])
    positions = np.concatenate([np.arange(start, start + n) for n in lengths])
    if z is not None and (z.shape[1] != config.d_model
                          or z.shape[0] not in (1, len(ids))):
        raise ShapeError(f"latent shape {z.shape}, want (1 or {len(ids)}, "
                         f"{config.d_model})")
    h = add(gather_rows(params["tok_emb"], ids),
            gather_rows(params["pos_emb"], positions))
    if z is not None:
        h = _add_latent(h, z)
    p = config.dropout if train else 0.0
    if p > 0.0:
        h = dropout(h, p, rng)
    for i in range(config.n_layers if depth is None else depth):
        h = _block(params, config, i, h, lengths, z, p, rng, cache)
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
    h = _forward(params, config, seqs, train=train, rng=rng)
    return gather_rows(h, np.cumsum([len(s) for s in seqs]) - 1)


def decoder_forward(params: dict, config: TransformerConfig, token_ids,
                    z: Tensor | None = None, train: bool = False,
                    rng=None) -> Tensor:
    """Causal pass over one sequence; returns next-token logits (T, vocab).

    With z given, the latent row joins the computation at three sites: summed
    into every input embedding, into every projected query, key and value,
    and into every top-layer hidden row before the tied output projection.
    """
    return batch_decoder_forward(params, config, [token_ids], z, train, rng)


def batch_decoder_forward(params: dict, config: TransformerConfig, seqs,
                          z_rows: Tensor | None = None, train: bool = False,
                          rng=None) -> Tensor:
    """Causal pass over several sequences packed end to end.

    Returns logits (sum of lengths, vocab), sequence after sequence.
    z_rows, when given, is one latent row for every packed row or a single
    row shared by all of them.
    """
    if not config.causal:
        raise ValueError("decoder forward needs a causal config")
    h = _forward(params, config, seqs, z_rows, train, rng)
    if z_rows is not None:
        h = _add_latent(h, z_rows)
    return matmul_nt(h, params["tok_emb"])


def cached_next_logits(params: dict, config: TransformerConfig, seqs,
                       cache: KVCache) -> np.ndarray:
    """Next-token logits after each sequence, continuing the cache's decodes.

    Untaped and without dropout.  An empty cache takes one sequence, the
    shared prefix; later calls take one token per sequence the cache holds.
    Returns one (vocab,) logit row per sequence.
    """
    if not config.causal:
        raise ValueError("cached decoding needs a causal config")
    with no_tape():
        h = _forward(params, config, seqs, cache=cache)
        last = np.cumsum([len(s) for s in seqs]) - 1
        return matmul_nt(gather_rows(h, last), params["tok_emb"]).data


def attention_weight_matrix(params: dict, config: TransformerConfig,
                            token_ids, layer: int = 0) -> np.ndarray:
    """Softmax attention weights (H, T, T) of one layer, for mask inspection."""
    if not 0 <= layer < config.n_layers:
        raise ValueError(f"layer {layer} outside 0..{config.n_layers - 1}")
    with no_tape():
        h = _forward(params, config, [token_ids], depth=layer)
        q, k, _ = _qkv(params, layer, h, None)
    return attention_probs(q.data, k.data, config.n_heads,
                           causal=config.causal)
