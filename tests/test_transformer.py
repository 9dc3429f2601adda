import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from eviq.autodiff import (
    ShapeError, Tensor, cross_entropy, gather_rows, matmul_nt,
    softmax_lastdim, squared_distance, tape,
)
from eviq.optim import AdamState, adam_step, clear_grads
import eviq
from eviq import transformer as tf

from fdcheck import check_grads

CLS = 3


def small_cfg(**kw):
    base = dict(n_layers=2, n_heads=2, d_model=16, d_ff=32, causal=False)
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


@pytest.mark.parametrize("field", ["n_layers", "n_heads", "d_model", "d_ff"])
@pytest.mark.parametrize("value", [0, -4, True, 2.0],
                         ids=["zero", "negative", "bool", "float"])
def test_config_rejects_a_size_that_is_not_a_positive_integer(field, value):
    with pytest.raises(ValueError) as e:
        small_cfg(**{field: value})
    assert type(e.value) is ValueError
    assert field in str(e.value)


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
        tf.encoder_forward(params, cfg, [4] * (tf.MAX_LEN + 1))
    assert str(tf.MAX_LEN) in str(e.value)


def test_batch_encoder_matches_per_sequence():
    # mixed lengths: padding inside attention must not leak between items
    cfg = small_cfg()
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
    target = np.linspace(-1, 1, cfg.d_model).reshape(1, -1)

    def build():
        with tape() as t:
            h = tf.encoder_forward(params, cfg, ids, cls_id=CLS)
            loss = squared_distance(h, target)
        return t, loss

    worst = check_grads(build, params, np.random.default_rng(5),
                        coords_per_tensor=4)
    assert worst < 1e-4


_LENGTH = st.one_of(st.sampled_from([1, 2, 16, 25, 65]), st.integers(1, 65))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pooled_forward_matches_the_full_forward_rows(data):
    # a pooled forward that is not training carries only the last rows past
    # the last attention; its rows stay within 1e-12 of the full forward's
    cfg = small_cfg(n_layers=data.draw(st.integers(1, 2)),
                    n_heads=data.draw(st.sampled_from([1, 2, 4])))
    params = tf.init_params(cfg, 20, np.random.default_rng(3))
    lengths = data.draw(st.lists(_LENGTH, min_size=1, max_size=8))
    seqs = [data.draw(st.lists(st.integers(0, 19), min_size=n, max_size=n))
            for n in lengths]
    pooled = tf.batch_encoder_forward(params, cfg, seqs).data
    full = gather_rows(tf._forward(params, cfg, seqs),
                       np.cumsum(lengths) - 1).data
    assert pooled.shape == (len(seqs), cfg.d_model)
    assert np.abs(pooled - full).max() < 1e-12


def test_pooled_forward_gradients_match_finite_differences(enc_setup):
    # train=False under a tape takes the pooled path: lengths 1 and 2 give
    # one and two query rows, so the queries are padded in attention
    cfg, params = enc_setup
    seqs = [[4, 7, 2, 11, CLS], [CLS], [9, CLS], [5, 6, 8, 12, 13, 14, CLS]]
    target = np.linspace(-1, 1, 4 * cfg.d_model).reshape(4, -1)

    def build():
        with tape() as t:
            h = tf.batch_encoder_forward(params, cfg, seqs, cls_id=CLS)
            loss = squared_distance(h, target)
        return t, loss

    assert check_grads(build, params, np.random.default_rng(6),
                       coords_per_tensor=3) < 1e-4


def test_decoder_future_attention_weights_exactly_zero(dec_setup):
    # Position j's embedding reaches an earlier row's logits only through
    # attention weights on later keys, in any layer; they must be exactly 0.
    cfg, params = dec_setup
    ids = [4, 5, 6, 7, 8]
    n = len(ids)
    for i in range(n):
        clear_grads(params)
        with tape() as t:
            logits = tf.decoder_forward(params, cfg, ids)
            loss = cross_entropy(logits, ids[1:] + [2],
                                 [1.0] * (i + 1) + [0.0] * (n - i - 1))
        t.backward(loss)
        g = params["pos_emb"].grad
        assert np.all(g[i + 1:n] == 0.0)
        assert np.all(np.any(g[:i + 1] != 0.0, axis=1))


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


def test_latent_decoder_rejects_one_row_per_position(dec_setup):
    cfg, params = dec_setup
    with pytest.raises(ShapeError):
        tf.decoder_forward(params, cfg, [4, 5, 6],
                           z=Tensor(np.zeros((3, cfg.d_model))))


def test_latent_gradient_flows(dec_setup):
    cfg, params = dec_setup
    ids = [4, 5, 6, 7]
    z = Tensor(np.random.default_rng(3).normal(0, 0.3, (1, cfg.d_model)))

    def build():
        with tape() as t:
            logits = tf.decoder_forward(params, cfg, ids, z=z)
            loss = cross_entropy(logits, [5, 6, 7, 8], np.ones(4))
        return t, loss

    worst = check_grads(build, {"z": z}, np.random.default_rng(4),
                        coords_per_tensor=8)
    assert worst < 1e-4
    t, loss = build()
    t.backward(loss)
    assert np.any(z.grad != 0.0)


def test_cached_decode_matches_full_forward(dec_setup):
    # branch one prefix into three sequences, two from the same parent, and
    # compare each cached step with a forward over the whole sequence
    cfg, params = dec_setup

    def check(got, seqs):
        want = np.stack([tf.decoder_forward(params, cfg, s).data[-1]
                         for s in seqs])
        assert np.abs(got - want).max() < 1e-12

    seqs = [[4, 5, 6, 7]]
    cache = tf.KVCache(params, cfg, seqs[0])
    check(cache.logits, seqs)
    for parents, toks in (([0, 0], [8, 9]), ([1, 1, 0], [10, 11, 12]),
                          ([2, 0, 1], [13, 14, 15])):
        seqs = [seqs[p] + [t] for p, t in zip(parents, toks)]
        check(cache.step(parents, toks), seqs)


def _grown_copy(cache):
    return [tuple(x.copy() for x in kv) for kv in cache.grown]


def _same_grown(cache, before):
    return all(np.array_equal(x, y) for kv, kv0 in zip(cache.grown, before)
               for x, y in zip(kv, kv0))


def test_cached_decode_rejects_bad_shapes(dec_setup):
    cfg, params = dec_setup
    for prefix in ([], [4] * (tf.MAX_LEN + 1)):
        with pytest.raises(ShapeError):
            tf.KVCache(params, cfg, prefix)
    cache = tf.KVCache(params, cfg, [4] * (tf.MAX_LEN - 2))
    cache.step([0], [5])
    before = _grown_copy(cache)
    for toks in ([5], [5, 6, 7], [[5, 6], [7, 8]], 5):
        with pytest.raises(ShapeError, match="one token apiece"):
            cache.step([0, 0], toks)
        assert _same_grown(cache, before)
    with pytest.raises(ShapeError, match="out of range"):   # not in the vocab
        cache.step([0, 0], [5, 10 ** 6])
    assert _same_grown(cache, before)
    cache.step([0, 0], [5, 6])
    before = _grown_copy(cache)
    with pytest.raises(ShapeError, match="outside"):   # past MAX_LEN
        cache.step([1, 0], [7, 8])
    assert _same_grown(cache, before)
    with pytest.raises(ValueError):
        tf.KVCache(params, small_cfg(), [4])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cached_decode_matches_full_forward_property(data):
    # 1-3 layers of 1, 2 or 4 heads; prefixes of length 1, short and near
    # MAX_LEN; then steps of 1-6 live sequences, each branching from a
    # random parent, repeats allowed
    cfg = small_cfg(causal=True, n_layers=data.draw(st.integers(1, 3)),
                    n_heads=data.draw(st.sampled_from([1, 2, 4])))
    params = tf.init_params(cfg, 20, np.random.default_rng(1))
    n = data.draw(st.one_of(st.just(1), st.integers(2, 6),
                            st.integers(tf.MAX_LEN - 4, tf.MAX_LEN)))
    seqs = [data.draw(st.lists(st.integers(0, 19), min_size=n, max_size=n))]
    cache = tf.KVCache(params, cfg, seqs[0])
    assert cache.logits.shape == (1, 20)
    assert np.abs(cache.logits[0]
                  - tf.decoder_forward(params, cfg, seqs[0]).data[-1]
                  ).max() < 1e-12
    room = tf.MAX_LEN - n
    for _ in range(data.draw(st.integers(min(room, 1), min(room, 4)))):
        width = data.draw(st.integers(1, 6))
        parents = data.draw(st.lists(st.integers(0, len(seqs) - 1),
                                     min_size=width, max_size=width))
        toks = data.draw(st.lists(st.integers(0, 19), min_size=width,
                                  max_size=width))
        seqs = [seqs[p] + [t] for p, t in zip(parents, toks)]
        got = cache.step(parents, toks)
        want = np.stack([tf.decoder_forward(params, cfg, s).data[-1]
                         for s in seqs])
        assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("parents, named", [
    ([-1], "-1"), ([True], "True"), ([0, np.True_], "True"), ([], "non-empty"),
    ([0, 5], "5"), ([0.5], "0.5"), ([[0, 1]], "non-empty")],
    ids=["negative", "bool", "numpy_bool", "empty", "out_of_range", "float",
         "two_dims"])
def test_cached_reorder_rejects_bad_parents(dec_setup, parents, named):
    cfg, params = dec_setup
    cache = tf.KVCache(params, cfg, [4, 5, 6])
    cache.step([0, 0], [7, 8])
    before = _grown_copy(cache)
    with pytest.raises(ShapeError) as e:
        cache.step(parents, [9] * len(parents))
    assert named in str(e.value)
    assert _same_grown(cache, before)
    got = cache.step([0, 1], [9, 10])
    want = [tf.decoder_forward(params, cfg, s).data[-1]
            for s in ([4, 5, 6, 7, 9], [4, 5, 6, 8, 10])]
    assert np.abs(got - want).max() < 1e-12


def test_dropout_train_mode_differs_eval_deterministic():
    cfg = small_cfg(causal=True)
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
                               causal=True)
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
            # all 32 sequences packed in one causal forward, as the beam
            # packs its hypotheses; the tied projection gives the logits
            logits = matmul_nt(tf._forward(params, cfg, seqs), params["tok_emb"])
            loss = cross_entropy(logits, targets, mask=mask)
        t.backward(loss)
        adam_step(params, state, lr=1e-3)
        clear_grads(params)
        final = loss.item()
        if final < 0.05:
            break
    assert final < 0.05, f"mean NLL {final} after {step + 1} steps"


# Three 4 MiB blocks alive at once, then freed, twenty times over: the shape
# of a packed forward's temporaries.  Adaptive glibc thresholds trim them off
# the heap top and fault them in again each round (~20,000 faults).
_HEAP_CHURN = """
import resource, numpy as np, eviq
def churn():
    blocks = [np.ones(1 << 19) for _ in range(3)]
    del blocks
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(os, "confstr")
                    or not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"),
                    reason="malloc thresholds are set on glibc only")
def test_freed_temporaries_stay_on_the_heap():
    src = str(Path(eviq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", _HEAP_CHURN], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 1000, f"{out.strip()} page faults over 20 rounds"
