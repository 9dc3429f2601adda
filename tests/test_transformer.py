import math

import numpy as np
import pytest
from scipy.special import erf

from eviq.autodiff import (
    ShapeError, Tensor, constant, cross_entropy, softmax_lastdim,
    squared_norm, sub, tape,
)
from eviq.optim import AdamState, adam_step, clear_grads
from eviq import transformer as tf

from fdcheck import check_grads

CLS = 3


def small_cfg(**kw):
    base = dict(n_layers=2, n_heads=2, d_model=16, d_ff=32, max_len=24,
                dropout=0.0, causal=False)
    base.update(kw)
    return tf.TransformerConfig(**base)


@pytest.fixture()
def enc_setup():
    cfg = small_cfg()
    params = tf.init_params(cfg, 20, np.random.default_rng(0))
    return cfg, params


@pytest.fixture()
def dec_setup():
    cfg = small_cfg(causal=True)
    params = tf.init_params(cfg, 20, np.random.default_rng(1))
    return cfg, params


def test_config_rejects_bad_head_split():
    with pytest.raises(ShapeError):
        small_cfg(d_model=15, n_heads=2)


def test_config_rejects_bad_dropout():
    with pytest.raises(ValueError):
        small_cfg(dropout=1.0)


def test_encoder_output_width(enc_setup):
    cfg, params = enc_setup
    h = tf.encoder_forward(params, cfg, [4, 5, 6, CLS], cls_id=CLS)
    assert h.shape == (1, cfg.d_model)


def test_encoder_rejects_missing_summary_token(enc_setup):
    cfg, params = enc_setup
    with pytest.raises(ShapeError):
        tf.encoder_forward(params, cfg, [4, 5, 6], cls_id=CLS)


def test_encoder_rejects_overlong(enc_setup):
    cfg, params = enc_setup
    with pytest.raises(ShapeError) as e:
        tf.encoder_forward(params, cfg, [4] * (cfg.max_len + 1))
    assert str(cfg.max_len) in str(e.value)


def test_batch_encoder_matches_per_sequence():
    # mixed lengths: padding inside attention must not leak between items
    cfg = small_cfg(max_len=32)
    params = tf.init_params(cfg, 20, np.random.default_rng(0))
    rng = np.random.default_rng(8)
    seqs = [[4, 5, 6, CLS], [1, CLS], list(rng.integers(4, 20, 24)) + [CLS],
            [7, CLS], [9, 10, 11, 12, 13, CLS]]
    pooled = tf.batch_encoder_forward(params, cfg, seqs, cls_id=CLS).data
    assert pooled.shape == (len(seqs), cfg.d_model)
    for row, s in zip(pooled, seqs):
        single = tf.encoder_forward(params, cfg, s, cls_id=CLS).data[0]
        assert np.allclose(row, single, rtol=0.0, atol=1e-12)


def test_encoder_gradients_match_finite_differences(enc_setup):
    cfg, params = enc_setup
    ids = [4, 7, 2, 11, CLS]
    target = constant(np.linspace(-1, 1, cfg.d_model).reshape(1, -1))

    def build():
        with tape() as t:
            h = tf.encoder_forward(params, cfg, ids, cls_id=CLS)
            loss = squared_norm(sub(h, target))
        return t, loss

    worst = check_grads(build, params, np.random.default_rng(5),
                        coords_per_tensor=4)
    assert worst < 1e-4


def test_decoder_future_attention_weights_exactly_zero(dec_setup):
    cfg, params = dec_setup
    ids = [4, 5, 6, 7, 8]
    for layer in range(cfg.n_layers):
        w = tf.attention_weight_matrix(params, cfg, ids, layer=layer)
        n = len(ids)
        for i in range(n):
            assert np.all(w[:, i, i + 1:] == 0.0)
            assert np.allclose(w[:, i, :].sum(-1), 1.0, atol=1e-12)


def test_decoder_causality_bitwise(dec_setup):
    cfg, params = dec_setup
    a = tf.decoder_forward(params, cfg, [4, 5, 6, 7, 8]).data
    b = tf.decoder_forward(params, cfg, [4, 5, 6, 9, 12]).data
    assert np.array_equal(a[:3], b[:3])
    assert not np.array_equal(a[3], b[3])


def test_next_token_distribution_sums_to_one(dec_setup):
    cfg, params = dec_setup
    logits = tf.decoder_forward(params, cfg, [4, 5, 6])
    probs = softmax_lastdim(logits)
    assert np.allclose(probs.data.sum(-1), 1.0, atol=1e-12)


def test_decoder_deterministic(dec_setup):
    cfg, params = dec_setup
    a = tf.decoder_forward(params, cfg, [4, 5, 6]).data
    b = tf.decoder_forward(params, cfg, [4, 5, 6]).data
    assert np.array_equal(a, b)
    params2 = tf.init_params(cfg, 20, np.random.default_rng(1))
    c = tf.decoder_forward(params2, cfg, [4, 5, 6]).data
    assert np.array_equal(a, c)


def _reference_decoder(params, cfg, ids, z=None, drop_sites=()):
    """Straight-line numpy forward pass, structured independently.

    drop_sites names latent additions to skip: "input", "qkv", "top".
    """
    def ln(x, g, b, eps=1e-5):
        mu = x.mean(-1, keepdims=True)
        xc = x - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + eps)
        return xc * inv * g + b

    def gelu_np(x):
        return x * 0.5 * (1.0 + erf(x / math.sqrt(2.0)))

    P = {k: v.data for k, v in params.items()}
    n = len(ids)
    h = P["tok_emb"][np.array(ids)] + P["pos_emb"][:n]
    if z is not None and "input" not in drop_sites:
        h = h + z
    dh = cfg.d_model // cfg.n_heads
    for i in range(cfg.n_layers):
        pre = f"layers.{i}."
        q = h @ P[pre + "attn.wq"] + P[pre + "attn.bq"]
        k = h @ P[pre + "attn.wk"] + P[pre + "attn.bk"]
        v = h @ P[pre + "attn.wv"] + P[pre + "attn.bv"]
        if z is not None and "qkv" not in drop_sites:
            q, k, v = q + z, k + z, v + z
        heads = []
        for hd in range(cfg.n_heads):
            qs = q[:, hd * dh:(hd + 1) * dh]
            ks = k[:, hd * dh:(hd + 1) * dh]
            vs = v[:, hd * dh:(hd + 1) * dh]
            scores = qs @ ks.T / math.sqrt(dh)
            scores = scores + np.where(
                np.tril(np.ones((n, n), dtype=bool)), 0.0, -1e30)
            e = np.exp(scores - scores.max(-1, keepdims=True))
            w = e / e.sum(-1, keepdims=True)
            heads.append(w @ vs)
        a = np.concatenate(heads, axis=1) @ P[pre + "attn.wo"] \
            + P[pre + "attn.bo"]
        g = ln(a + h, P[pre + "ln1.g"], P[pre + "ln1.b"])
        f = gelu_np(g @ P[pre + "ffn.w1"] + P[pre + "ffn.b1"])
        f = f @ P[pre + "ffn.w2"] + P[pre + "ffn.b2"]
        h = ln(f + g, P[pre + "ln2.g"], P[pre + "ln2.b"])
    if z is not None and "top" not in drop_sites:
        h = h + z
    return h @ P["tok_emb"].T


def test_decoder_matches_straight_line_reference(dec_setup):
    cfg, params = dec_setup
    ids = [4, 9, 2, 17, 6]
    got = tf.decoder_forward(params, cfg, ids).data
    want = _reference_decoder(params, cfg, ids)
    assert np.allclose(got, want, atol=1e-9)


def test_latent_decoder_zero_latent_is_plain_decoder(dec_setup):
    cfg, params = dec_setup
    ids = [4, 5, 6, 7]
    z0 = Tensor(np.zeros((1, cfg.d_model)))
    a = tf.decoder_forward(params, cfg, ids, z=z0).data
    b = tf.decoder_forward(params, cfg, ids).data
    assert np.allclose(a, b, atol=1e-12)


def test_latent_decoder_matches_reference_and_every_site_matters(dec_setup):
    cfg, params = dec_setup
    ids = [4, 9, 2, 17]
    rng = np.random.default_rng(7)
    z = rng.normal(0, 0.5, size=(1, cfg.d_model))
    got = tf.decoder_forward(params, cfg, ids, z=Tensor(z.copy())).data
    assert np.allclose(got, _reference_decoder(params, cfg, ids, z=z),
                       atol=1e-9)
    for site in ("input", "qkv", "top"):
        ablated = _reference_decoder(params, cfg, ids, z=z, drop_sites=(site,))
        assert not np.allclose(got, ablated, atol=1e-6), site


def test_latent_decoder_rejects_width_mismatch(dec_setup):
    cfg, params = dec_setup
    with pytest.raises(ShapeError):
        tf.decoder_forward(params, cfg, [4, 5],
                           z=Tensor(np.zeros((1, cfg.d_model + 1))))


def test_latent_gradient_flows(dec_setup):
    cfg, params = dec_setup
    ids = [4, 5, 6, 7]
    z = Tensor(np.random.default_rng(3).normal(0, 0.3, (1, cfg.d_model)))

    def build():
        with tape() as t:
            logits = tf.decoder_forward(params, cfg, ids, z=z)
            loss = cross_entropy(logits, [5, 6, 7, 8])
        return t, loss

    worst = check_grads(build, {"z": z}, np.random.default_rng(4),
                        coords_per_tensor=8)
    assert worst < 1e-4
    t, loss = build()
    t.backward(loss)
    assert np.any(z.grad != 0.0)


def test_batch_decoder_matches_per_sequence(dec_setup):
    cfg, params = dec_setup
    seqs = [[4, 5, 6], [7, 8], [9, 10, 11, 12]]
    packed = tf.batch_decoder_forward(params, cfg, seqs).data
    off = 0
    for s in seqs:
        single = tf.decoder_forward(params, cfg, s).data
        assert np.allclose(packed[off:off + len(s)], single, atol=1e-12)
        off += len(s)


def test_batch_decoder_with_per_row_latents(dec_setup):
    cfg, params = dec_setup
    rng = np.random.default_rng(9)
    seqs = [[4, 5, 6], [7, 8]]
    zs = [rng.normal(0, 0.4, (1, cfg.d_model)) for _ in seqs]
    z_rows = Tensor(np.concatenate(
        [np.repeat(z, len(s), axis=0) for z, s in zip(zs, seqs)]))
    packed = tf.batch_decoder_forward(params, cfg, seqs, z_rows=z_rows).data
    off = 0
    for s, z in zip(seqs, zs):
        single = tf.decoder_forward(params, cfg, s, z=Tensor(z.copy())).data
        assert np.allclose(packed[off:off + len(s)], single, atol=1e-12)
        off += len(s)


def test_cached_decode_matches_full_forward(dec_setup):
    # branch one prefix into three sequences, two from the same parent, and
    # compare each cached step with a forward over the whole sequence
    cfg, params = dec_setup

    def check(got, seqs):
        want = np.stack([tf.decoder_forward(params, cfg, s).data[-1]
                         for s in seqs])
        assert np.abs(got - want).max() < 1e-12

    cache = tf.KVCache()
    seqs = [[4, 5, 6, 7]]
    check(tf.cached_next_logits(params, cfg, seqs, cache), seqs)
    for parents, toks in (([0, 0], [8, 9]), ([1, 1, 0], [10, 11, 12]),
                          ([2, 0, 1], [13, 14, 15])):
        cache.reorder(parents)
        seqs = [seqs[p] + [t] for p, t in zip(parents, toks)]
        check(tf.cached_next_logits(params, cfg, [[t] for t in toks], cache),
              seqs)


def test_cached_decode_rejects_bad_shapes(dec_setup):
    cfg, params = dec_setup
    cache = tf.KVCache()
    with pytest.raises(ShapeError):
        tf.cached_next_logits(params, cfg, [[4], [5]], cache)
    tf.cached_next_logits(params, cfg, [[4] * (cfg.max_len - 1)], cache)
    cache.reorder([0, 0])
    with pytest.raises(ShapeError):   # one token per cached sequence
        tf.cached_next_logits(params, cfg, [[5]], cache)
    with pytest.raises(ShapeError):
        tf.cached_next_logits(params, cfg, [[5, 6], [7, 8]], cache)
    tf.cached_next_logits(params, cfg, [[5], [6]], cache)
    with pytest.raises(ShapeError):   # past max_len
        tf.cached_next_logits(params, cfg, [[7], [8]], cache)
    with pytest.raises(ValueError):
        tf.cached_next_logits(params, small_cfg(), [[4]], tf.KVCache())


def test_dropout_train_mode_differs_eval_deterministic():
    cfg = small_cfg(causal=True, dropout=0.5)
    params = tf.init_params(cfg, 20, np.random.default_rng(2))
    rng = np.random.default_rng(11)
    a = tf.decoder_forward(params, cfg, [4, 5, 6], train=True, rng=rng).data
    b = tf.decoder_forward(params, cfg, [4, 5, 6], train=True, rng=rng).data
    assert not np.array_equal(a, b)
    c = tf.decoder_forward(params, cfg, [4, 5, 6]).data
    d = tf.decoder_forward(params, cfg, [4, 5, 6]).data
    assert np.array_equal(c, d)


def test_memorization_capacity():
    # a 2-layer width-64 decoder must push mean next-token NLL under 0.05
    # on 32 fixed random sequences within 2000 optimizer steps
    cfg = tf.TransformerConfig(n_layers=2, n_heads=4, d_model=64, d_ff=256,
                               max_len=16, dropout=0.0, causal=True)
    rng = np.random.default_rng(42)
    vocab = 50
    seqs = [list(rng.integers(2, vocab, size=8)) for _ in range(32)]
    targets = np.concatenate([np.asarray(s[1:] + [0]) for s in seqs])
    mask = np.concatenate([[1.0] * 7 + [0.0] for _ in seqs])
    params = tf.init_params(cfg, vocab, rng)
    state = AdamState()
    final = None
    for step in range(2000):
        with tape() as t:
            logits = tf.batch_decoder_forward(params, cfg, seqs)
            loss = cross_entropy(logits, targets, mask=mask)
        t.backward(loss)
        adam_step(params, state, lr=1e-3)
        clear_grads(params)
        final = loss.item()
        if final < 0.05:
            break
    assert final < 0.05, f"mean NLL {final} after {step + 1} steps"
