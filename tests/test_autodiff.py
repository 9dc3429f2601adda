import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eviq import autodiff as ad
from eviq import cores
from eviq import transformer as tf
from eviq.optim import AdamState, OptimError, adam_step

from fdcheck import check_grads


def _rng(seed=0):
    return np.random.default_rng(seed)


# --- forward oracles -------------------------------------------------------

def test_matmul_matches_triple_loop():
    rng = _rng(1)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                want[i, j] += a[i, k] * b[k, j]
    got = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
    assert np.allclose(got, want, atol=1e-12)


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ad.ShapeError) as e:
        ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = np.random.default_rng(seed).normal(scale=5.0, size=(rows, cols))
    s = ad.softmax_lastdim(ad.Tensor(x)).data
    assert np.all(np.abs(s.sum(axis=-1) - 1.0) <= 1e-12)
    assert np.all(s >= 0.0)


def test_softmax_extreme_logits_stay_finite():
    x = np.array([[1000.0, 0.0, -1000.0], [-1e8, -1e8, -1e8]])
    s = ad.softmax_lastdim(ad.Tensor(x)).data
    assert np.isfinite(s).all()
    assert np.all(np.abs(s.sum(axis=-1) - 1.0) <= 1e-12)


def test_softmax_rejects_non_finite():
    with pytest.raises(ad.NumericError):
        ad.softmax_lastdim(ad.Tensor(np.array([[1.0, np.nan]])))


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (2, 4, 5, 6)],
                         ids=["1x1", "3x7", "2x4x5x6"])
def test_softmax_and_log_softmax_are_bitwise_the_inline_expressions(shape):
    # the expressions the op, attention and the beam search each wrote out
    # before sharing these two functions; masked entries as attention adds
    rng = _rng(13)
    x = rng.normal(scale=6.0, size=shape)
    x = np.where(rng.random(shape) < 0.3, x + ad.NEG_INF, x)
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    want = e / e.sum(axis=-1, keepdims=True)
    assert np.array_equal(_bits(ad.softmax(x)), _bits(want))
    want = x - (m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True)))
    assert np.array_equal(_bits(ad.log_softmax(x)), _bits(want))


@pytest.mark.parametrize("seed", [14, 15, 16])
def test_cross_entropy_value_and_gradient_are_bitwise_the_inline_expressions(seed):
    rng = _rng(seed)
    tn, v = 6, 9
    x = rng.normal(scale=4.0, size=(tn, v))
    tgt = rng.integers(0, v, size=tn)
    msk = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
    logits = ad.Tensor(x)
    with ad.tape() as t:
        loss = ad.cross_entropy(logits, tgt, msk)
        out = ad.scale(loss, 2.5)
    t.backward(out)
    # the loss's own expressions before it shared log_softmax and softmax
    n_scored = float(msk.sum())
    m = x.max(axis=-1, keepdims=True)
    z = x - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[:, 0]
    picked = x[np.arange(tn), tgt]
    want = -float(((picked - lse) * msk).sum() / n_scored)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    p[np.arange(tn), tgt] -= 1.0
    p *= (msk * (2.5 / n_scored))[:, None]
    assert _bits(loss.item()) == _bits(want)
    assert np.array_equal(_bits(logits.grad), _bits(p))


@pytest.mark.parametrize("shape", [(8,), (2, 3, 8)], ids=["1d", "3d"])
def test_layer_norm_rejects_input_that_is_not_rows(shape):
    g = ad.Tensor(np.ones((1, 8)))
    b = ad.Tensor(np.zeros((1, 8)))
    with pytest.raises(ad.ShapeError):
        ad.layer_norm(ad.Tensor(np.zeros(shape)), g, b)


def test_layer_norm_centres_and_scales():
    x = _rng(2).normal(size=(3, 8)) * 4 + 7
    g = ad.Tensor(np.ones((1, 8)))
    b = ad.Tensor(np.zeros((1, 8)))
    y = ad.layer_norm(ad.Tensor(x), g, b).data
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-10)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-3)


def test_cross_entropy_uniform_logits_is_log_vocab():
    v = 11
    logits = ad.Tensor(np.zeros((4, v)))
    loss = ad.cross_entropy(logits, [0, 3, 7, 10], np.ones(4))
    assert abs(loss.item() - math.log(v)) < 1e-12


def test_cross_entropy_all_masked_raises():
    with pytest.raises(ad.DegenerateBatchError):
        ad.cross_entropy(ad.Tensor(np.zeros((3, 4))), [0, 1, 2], [0, 0, 0])


def test_cross_entropy_bad_target_raises():
    with pytest.raises(ad.ShapeError):
        ad.cross_entropy(ad.Tensor(np.zeros((2, 4))), [0, 9], np.ones(2))


def test_causal_mask_attention_weights_exactly_zero():
    # A future key or value with any nonzero weight would get a nonzero
    # gradient from a loss on an earlier output row.
    rng = _rng(3)
    tn, d, heads = 5, 8, 2
    q0, k0, v0 = (rng.normal(size=(tn, d)) for _ in range(3))
    for i in range(tn):
        q, k, v = ad.Tensor(q0), ad.Tensor(k0), ad.Tensor(v0)
        with ad.tape() as t:
            out = ad.multihead_attention(q, k, v, heads, causal=True)
            loss = ad.squared_distance(ad.gather_rows(out, [i]), np.zeros((1, d)))
        t.backward(loss)
        assert np.all(k.grad[i + 1:] == 0.0)
        assert np.all(v.grad[i + 1:] == 0.0)
        assert np.all(np.any(v.grad[:i + 1] != 0.0, axis=1))
    # softmax rows sum to one: attending over all-ones values gives ones
    ones = ad.multihead_attention(ad.Tensor(q0), ad.Tensor(k0),
                                  ad.Tensor(np.ones((tn, d))), heads,
                                  causal=True).data
    assert np.all(np.abs(ones - 1.0) <= 1e-12)


def test_attention_rejects_queries_that_do_not_fit_the_segments():
    k = ad.Tensor(np.zeros((5, 4)))
    for q_rows, q_lengths, causal in ((3, (1, 1), False), (2, (2, 0), False),
                                      (2, (2,), False), (3, (1, 2), True),
                                      (2, (1, 1), True)):
        with pytest.raises(ad.ShapeError):
            ad.multihead_attention(ad.Tensor(np.zeros((q_rows, 4))), k, k, 2,
                                   (2, 3), causal, q_lengths)


def test_add_broadcasts_one_row_and_rejects_other_shapes():
    a = _rng(11).normal(size=(4, 3))
    v = _rng(12).normal(size=(1, 3))
    assert np.array_equal(ad.add(ad.Tensor(a), ad.Tensor(v)).data, a + v)
    for bad in ((3, 3), (1, 4), (4, 1)):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.Tensor(a), ad.Tensor(np.zeros(bad)))


# --- stop-gradient semantics ----------------------------------------------

def test_stop_gradient_forward_bit_identical():
    x = ad.Tensor(_rng(4).normal(size=(3, 3)))
    y = ad.Tensor(x.data)
    assert np.array_equal(x.data, y.data)


def test_stop_gradient_blocks_backward_exactly():
    x = ad.Tensor(_rng(5).normal(size=(2, 4)))
    y = ad.Tensor(_rng(6).normal(size=(2, 4)))
    with ad.tape() as t:
        loss = ad.squared_distance(ad.add(ad.Tensor(x.data), y),
                                   np.zeros((2, 4)))
    t.backward(loss)
    assert x.grad is None
    assert y.grad is not None and np.any(y.grad != 0.0)


def test_squared_distance_is_bitwise_the_sub_then_squared_norm_arithmetic():
    # the expressions of the sub and squared_norm ops it replaced; the
    # upstream gradient 2.5 stands in for a scale after the distance
    rng = _rng(17)
    x = ad.Tensor(rng.normal(size=(1, 7)))
    row = rng.normal(size=(1, 7))
    with ad.tape() as t:
        loss = ad.squared_distance(x, row)
        out = ad.scale(loss, 2.5)
    t.backward(out)
    d = x.data - row
    assert _bits(loss.item()) == _bits(float((d * d).sum()))
    assert np.array_equal(_bits(x.grad), _bits((2.0 * 2.5) * d))
    # into a gathered codebook row, the frozen side first as the codebook
    # pull wrote it: sub(snapshot, row) scaled, then negated into the row
    codebook = ad.Tensor(rng.normal(size=(5, 7)))
    snapshot = rng.normal(size=(1, 7))
    with ad.tape() as t:
        loss = ad.squared_distance(ad.gather_rows(codebook, [3]), snapshot)
        out = ad.scale(loss, 2.5)
    t.backward(out)
    d = snapshot - codebook.data[3:4]
    want = np.zeros((5, 7))
    want[3] = -((2.0 * 2.5) * d)[0]
    assert _bits(loss.item()) == _bits(float((d * d).sum()))
    assert np.array_equal(_bits(codebook.grad), _bits(want))


def test_squared_distance_rejects_shape_mismatch():
    with pytest.raises(ad.ShapeError):
        ad.squared_distance(ad.Tensor(np.zeros((1, 3))), np.zeros(3))


# --- finite-difference checks for every primitive --------------------------

def _scalarize(out, const):
    return ad.squared_distance(out, const)


@pytest.mark.parametrize("op", [
    "add", "add_n", "scale", "add_row_broadcast", "matmul", "matmul_nt",
    "affine", "gather_rows", "softmax", "layer_norm", "gelu", "squared_distance",
    "cross_entropy", "attention", "attention_causal", "attention_segments",
    "attention_segments_causal", "attention_queries",
])
def test_primitive_gradients_match_finite_differences(op):
    rng = _rng(zlib.crc32(op.encode()))
    if op in ("add", "add_n"):
        params = {"a": ad.Tensor(rng.normal(size=(3, 4))),
                  "b": ad.Tensor(rng.normal(size=(3, 4)))}
        tgt = rng.normal(size=(3, 4))
        fn = {"add": lambda: ad.add(params["a"], params["b"]),
              "add_n": lambda: ad.add_n([params["a"], params["b"], params["a"]])}[op]
        def build():
            with ad.tape() as t:
                loss = _scalarize(fn(), tgt)
            return t, loss
    elif op == "scale":
        params = {"a": ad.Tensor(rng.normal(size=(3, 4)))}
        tgt = rng.normal(size=(3, 4))
        def build():
            with ad.tape() as t:
                loss = _scalarize(ad.scale(params["a"], -1.7), tgt)
            return t, loss
    elif op == "add_row_broadcast":
        params = {"a": ad.Tensor(rng.normal(size=(5, 3))),
                  "v": ad.Tensor(rng.normal(size=(1, 3)))}
        tgt = rng.normal(size=(5, 3))
        def build():
            with ad.tape() as t:
                loss = _scalarize(ad.add(params["a"], params["v"]), tgt)
            return t, loss
    elif op in ("matmul", "matmul_nt", "affine"):
        params = {"x": ad.Tensor(rng.normal(size=(4, 3))),
                  "w": ad.Tensor(rng.normal(size=(3, 5)) if op != "matmul_nt"
                                 else rng.normal(size=(5, 3))),
                  "b": ad.Tensor(rng.normal(size=(1, 5)))}
        tgt = rng.normal(size=(4, 5))
        def build():
            with ad.tape() as t:
                if op == "matmul":
                    out = ad.matmul(params["x"], params["w"])
                elif op == "matmul_nt":
                    out = ad.matmul_nt(params["x"], params["w"])
                else:
                    out = ad.affine(params["x"], params["w"], params["b"])
                loss = _scalarize(out, tgt)
            return t, loss
    elif op == "gather_rows":
        params = {"a": ad.Tensor(rng.normal(size=(6, 3)))}
        tgt = rng.normal(size=(4, 3))
        idx = [5, 0, 5, 2]  # repeated row exercises scatter-add
        def build():
            with ad.tape() as t:
                loss = _scalarize(ad.gather_rows(params["a"], idx), tgt)
            return t, loss
    elif op == "softmax":
        params = {"x": ad.Tensor(rng.normal(size=(3, 6)))}
        tgt = rng.normal(size=(3, 6))
        def build():
            with ad.tape() as t:
                loss = _scalarize(ad.softmax_lastdim(params["x"]), tgt)
            return t, loss
    elif op == "layer_norm":
        params = {"x": ad.Tensor(rng.normal(size=(4, 5)) * 2 + 1),
                  "g": ad.Tensor(rng.normal(size=(1, 5))),
                  "b": ad.Tensor(rng.normal(size=(1, 5)))}
        tgt = rng.normal(size=(4, 5))
        def build():
            with ad.tape() as t:
                loss = _scalarize(ad.layer_norm(params["x"], params["g"], params["b"]), tgt)
            return t, loss
    elif op == "gelu":
        params = {"x": ad.Tensor(rng.normal(size=(4, 5)))}
        tgt = rng.normal(size=(4, 5))
        def build():
            with ad.tape() as t:
                loss = _scalarize(ad.gelu(params["x"]), tgt)
            return t, loss
    elif op == "squared_distance":
        params = {"x": ad.Tensor(rng.normal(size=(3, 3)))}
        row = rng.normal(size=(3, 3))
        def build():
            with ad.tape() as t:
                loss = ad.squared_distance(params["x"], row)
            return t, loss
    elif op == "cross_entropy":
        params = {"x": ad.Tensor(rng.normal(size=(5, 7)))}
        tgts = [1, 6, 0, 3, 3]
        msk = [1, 0, 1, 1, 0]
        def build():
            with ad.tape() as t:
                loss = ad.cross_entropy(params["x"], tgts, msk)
            return t, loss
    else:  # attention variants
        tn, d, heads = 5, 8, 2
        # queries: one row of the first segment and two of the second
        q_lengths = (1, 2) if op == "attention_queries" else None
        tq = 3 if q_lengths else tn
        params = {"q": ad.Tensor(rng.normal(size=(tq, d))),
                  "k": ad.Tensor(rng.normal(size=(tn, d))),
                  "v": ad.Tensor(rng.normal(size=(tn, d)))}
        tgt = rng.normal(size=(tq, d))
        causal = op.endswith("causal")
        lengths = (2, 3) if "segments" in op or q_lengths else None
        def build():
            with ad.tape() as t:
                out = ad.multihead_attention(params["q"], params["k"], params["v"],
                                             heads, lengths, causal, q_lengths)
                loss = _scalarize(out, tgt)
            return t, loss
    check_grads(build, params, rng)


def test_shared_input_accumulates_both_paths():
    # x feeds two branches; gradient must be the sum of both contributions
    rng = _rng(77)
    params = {"x": ad.Tensor(rng.normal(size=(3, 3))),
              "w": ad.Tensor(rng.normal(size=(3, 3)))}
    tgt = rng.normal(size=(3, 3))
    def build():
        with ad.tape() as t:
            y = ad.matmul(params["x"], params["w"])
            z = ad.add(y, params["x"])  # residual reuse
            loss = _scalarize(z, tgt)
        return t, loss
    check_grads(build, params, rng)


def test_backward_twice_raises():
    x = ad.Tensor(np.ones((2, 2)))
    with ad.tape() as t:
        loss = ad.squared_distance(x, np.zeros((2, 2)))
    t.backward(loss)
    with pytest.raises(RuntimeError):
        t.backward(loss)


def test_record_on_frozen_tape_raises():
    x = ad.Tensor(np.ones((2, 2)))
    with ad.tape() as t:
        loss = ad.squared_distance(x, np.zeros((2, 2)))
        t.backward(loss)
        with pytest.raises(RuntimeError):
            ad.squared_distance(x, np.zeros((2, 2)))


def test_no_tape_suspends_recording():
    x = ad.Tensor(np.ones((2, 2)))
    with ad.tape() as t:
        with ad.no_tape():
            ad.squared_distance(x, np.zeros((2, 2)))
        assert len(t.nodes) == 0
        loss = ad.squared_distance(x, np.zeros((2, 2)))
    t.backward(loss)
    assert x.grad is not None


def test_dropout_zero_rate_is_identity():
    x = ad.Tensor(_rng(9).normal(size=(3, 3)))
    y = ad.dropout(x, 0.0, _rng(0))
    assert y is x


def test_dropout_scales_kept_entries():
    rng = _rng(10)
    x = ad.Tensor(np.ones((200, 10)))
    y = ad.dropout(x, 0.5, rng)
    kept = y.data != 0.0
    assert np.allclose(y.data[kept], 2.0)
    assert 0.3 < kept.mean() < 0.7


# --- adam ------------------------------------------------------------------

def test_adam_moves_against_gradient():
    p = ad.Tensor(np.zeros(3))
    p.grad = np.array([1.0, -1.0, 0.5])
    st_ = AdamState()
    adam_step({"p": p}, st_, lr=0.1)
    assert np.all(np.sign(p.data) == -np.sign(np.array([1.0, -1.0, 0.5])))
    assert st_.step == 1


def test_adam_no_gradient_leaves_parameter_unchanged():
    p = ad.Tensor(np.array([1.0, 2.0]))
    adam_step({"p": p}, AdamState(), lr=0.1)
    assert np.array_equal(p.data, np.array([1.0, 2.0]))


def test_adam_zero_gradient_leaves_parameter_unchanged():
    p = ad.Tensor(np.array([1.0, 2.0]))
    p.grad = np.zeros(2)
    adam_step({"p": p}, AdamState(), lr=0.1)
    assert np.array_equal(p.data, np.array([1.0, 2.0]))


def test_adam_non_finite_gradient_aborts_naming_parameter():
    a = ad.Tensor(np.zeros(2)); a.grad = np.zeros(2)
    b = ad.Tensor(np.zeros(2)); b.grad = np.array([np.inf, 0.0])
    st_ = AdamState()
    with pytest.raises(OptimError) as e:
        adam_step({"alpha": a, "beta": b}, st_, lr=0.1)
    assert "beta" in str(e.value)
    assert np.array_equal(a.data, np.zeros(2))  # nothing mutated
    assert st_.step == 0


def _stepped_pair():
    # "a" (2,) then "w" (3, 4), both one valid Adam step in, with fresh gradients
    a, w = ad.Tensor(np.zeros(2)), ad.Tensor(np.ones((3, 4)))
    a.grad, w.grad = np.full(2, 0.5), np.full((3, 4), 0.25)
    st_ = AdamState()
    adam_step({"a": a, "w": w}, st_, lr=0.1)
    a.grad, w.grad = np.full(2, -0.5), np.full((3, 4), -0.25)
    return {"a": a, "w": w}, st_


def _assert_step_aborted(params, st_, err, name, lr=0.1):
    before = ({k: p.data.copy() for k, p in params.items()},
              {k: m.copy() for k, m in st_.m.items()},
              {k: v.copy() for k, v in st_.v.items()}, st_.step)
    with pytest.raises(OptimError) as e:
        adam_step(params, st_, lr=lr)
    assert (name is None or repr(name) in str(e.value)) and err in str(e.value)
    data, m, v, step = before
    assert all(np.array_equal(p.data, data[k]) for k, p in params.items())
    assert all(np.array_equal(st_.m[k], m[k]) for k in m) and st_.m.keys() == m.keys()
    assert all(np.array_equal(st_.v[k], v[k]) for k in v) and st_.v.keys() == v.keys()
    assert st_.step == step


@pytest.mark.parametrize("shape", [(1, 4), (4,), (3, 1)], ids=["row", "vector", "column"])
def test_adam_wrong_shaped_gradient_aborts_naming_parameter(shape):
    # each of these broadcasts against (3, 4), so numpy alone would not object
    params, st_ = _stepped_pair()
    params["w"].grad = np.full(shape, 0.25)
    _assert_step_aborted(params, st_, f"gradient of shape {shape}", "w")


@pytest.mark.parametrize("moment", ["m", "v"])
def test_adam_mismatched_moment_aborts_naming_parameter(moment):
    params, st_ = _stepped_pair()
    getattr(st_, moment)["w"] = np.zeros((4, 3))
    _assert_step_aborted(params, st_, "moment of shape (4, 3)", "w")


def test_adam_matches_reference_formula():
    # independent step-by-step reference for a single weight
    rng = _rng(11)
    grads = rng.normal(size=5)
    p = ad.Tensor(np.array([0.3]))
    st_ = AdamState()
    x = 0.3
    m = v = 0.0
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = grads[t - 1]
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        p.grad = np.array([g])
        adam_step({"w": p}, st_, lr=lr)
    assert abs(p.data[0] - x) < 1e-12


def test_adam_in_place_step_is_bitwise_the_allocating_expression():
    rng = _rng(12)
    shapes = {"w": (6, 5), "b": (1, 5), "v": (7,), "t": (2, 3, 4)}
    params = {k: ad.Tensor(rng.normal(size=s)) for k, s in shapes.items()}
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros(s) for k, s in shapes.items()}
    v = {k: np.zeros(s) for k, s in shapes.items()}
    st_ = AdamState()
    lr, b1, b2, eps = 3e-3, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, p in params.items():
            g = rng.normal(size=shapes[k])
            p.grad = g
            m[k] *= b1
            m[k] += (1.0 - b1) * g
            v[k] *= b2
            v[k] += (1.0 - b2) * (g * g)
            ref[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
        adam_step(params, st_, lr=lr)
    for k, p in params.items():
        assert np.array_equal(p.data.view(np.int64), ref[k].view(np.int64)), k
        assert np.array_equal(st_.m[k], m[k]) and np.array_equal(st_.v[k], v[k])


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_adam_rejects_a_bad_learning_rate_before_any_change(lr):
    params, st_ = _stepped_pair()
    _assert_step_aborted(params, st_, "learning rate", None, lr=lr)


def test_adam_rejects_one_tensor_under_two_names():
    params, st_ = _stepped_pair()
    params["w_again"] = params["w"]
    _assert_step_aborted(params, st_, "'w' and 'w_again' are one tensor", "w")


def _two_stacks(seed):
    cfg = tf.TransformerConfig()
    rng = _rng(seed)
    params = {f"{stack}.{k}": v for stack in ("enc", "dec")
              for k, v in tf.init_params(cfg, 300, rng).items()}
    return params, rng


def test_adam_over_two_stacks_is_bitwise_the_serial_expression(cpus):
    params, rng = _two_stacks(13)
    assert len(params) == 68
    ref = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(p.data) for k, p in params.items()}
    v = {k: np.zeros_like(p.data) for k, p in params.items()}
    st_ = AdamState()
    lr, b1, b2, eps = 5e-4, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, p in params.items():
            g = rng.normal(size=p.data.shape)
            p.grad = g
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
            ref[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
        adam_step(params, st_, lr=lr)
    for k, p in params.items():
        assert np.array_equal(p.data.view(np.int64), ref[k].view(np.int64)), k
        assert np.array_equal(st_.m[k], m[k]) and np.array_equal(st_.v[k], v[k])


def test_adam_nan_gradient_in_the_workers_half_aborts_everything(cpus):
    params, rng = _two_stacks(14)
    st_ = AdamState()
    for _ in range(2):
        for p in params.values():
            p.grad = rng.normal(size=p.data.shape)
        adam_step(params, st_, lr=1e-3)
    names = list(params)
    _, second = cores.halves([params[k].data.size for k in names])
    victim = names[second[-1]]
    params[victim].grad[0, -1] = np.nan
    _assert_step_aborted(params, st_, "non-finite gradient", victim)
