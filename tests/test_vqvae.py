import math

import numpy as np
import pytest

from eviq.autodiff import (
    ShapeError, Tensor, affine, constant, cross_entropy, softmax_lastdim,
    squared_norm, sub, tape,
)
from eviq import vqvae as vq
from eviq import transformer as tf

from fdcheck import check_grads


def test_codebook_init_shape_and_range():
    cb = vq.init_codebook(8, 4, np.random.default_rng(0))
    assert cb.shape == (8, 4)
    assert np.all(np.abs(cb.data) <= 0.1)
    with pytest.raises(ValueError):
        vq.init_codebook(1, 4, np.random.default_rng(0))


def test_assign_exact_row_hit():
    cb = vq.init_codebook(8, 4, np.random.default_rng(1))
    for j in (0, 3, 7):
        near = vq.assign_to_nearest_code(cb, Tensor(cb.data[j:j + 1].copy()))
        assert near.index == j
        assert near.distance == 0.0
        assert np.array_equal(near.row, cb.data[j:j + 1])


def test_assign_hand_worked_distances():
    cb = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))
    near = vq.assign_to_nearest_code(cb, Tensor(np.array([[0.1, 0.2]])))
    assert near.index == 0
    assert near.distance == pytest.approx(math.sqrt(0.01 + 0.04), abs=1e-12)


def test_assign_matches_brute_force_scan():
    rng = np.random.default_rng(2)
    cb = vq.init_codebook(32, 6, rng)
    for _ in range(50):
        vec = rng.normal(0, 0.2, size=(1, 6))
        near = vq.assign_to_nearest_code(cb, Tensor(vec.copy()))
        dists = [float(np.linalg.norm(vec[0] - cb.data[j])) for j in range(32)]
        assert near.index == int(np.argmin(dists))


def test_assign_tie_breaks_to_lowest_index():
    row = np.array([[0.5, -0.5, 0.25]])
    cb = Tensor(np.concatenate([row, row, row]))
    near = vq.assign_to_nearest_code(cb, Tensor(np.array([[1.0, 0.0, 0.0]])))
    assert near.index == 0


def test_assign_invariant_under_uniform_scaling():
    rng = np.random.default_rng(3)
    cb = vq.init_codebook(16, 5, rng)
    for _ in range(20):
        vec = rng.normal(0, 0.3, size=(1, 5))
        a = vq.assign_to_nearest_code(cb, Tensor(vec.copy())).index
        b = vq.assign_to_nearest_code(Tensor(cb.data * 7.0),
                                      Tensor(vec * 7.0)).index
        assert a == b


def test_assign_rejects_width_mismatch():
    cb = vq.init_codebook(4, 5, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        vq.assign_to_nearest_code(cb, Tensor(np.zeros((1, 4))))


def test_straight_through_value_is_the_row_exactly():
    cb = vq.init_codebook(4, 3, np.random.default_rng(4))
    vec = Tensor(np.array([[0.02, -0.07, 0.05]]))
    near = vq.assign_to_nearest_code(cb, vec)
    out = vq.straight_through(vec, near)
    assert np.array_equal(out.data, near.row)


def test_straight_through_gradient_is_identity():
    cb = vq.init_codebook(4, 3, np.random.default_rng(5))
    vec = Tensor(np.array([[0.02, -0.07, 0.05]]))
    near = vq.assign_to_nearest_code(cb, vec)
    with tape() as t:
        out = vq.straight_through(vec, near)
        loss = squared_norm(sub(out, constant(np.ones((1, 3)))))
    t.backward(loss)
    # d loss / d latent-input, evaluated at the row, handed to vec unchanged
    want = 2.0 * (near.row - 1.0)
    assert np.array_equal(vec.grad, want)
    assert cb.grad is None


def _tiny_recon_setup(seed=6, width=4, vocab=9):
    """Leaf encoder vector + affine decoder; recon loss on fixed targets."""
    rng = np.random.default_rng(seed)
    cb = vq.init_codebook(6, width, rng)
    vec = Tensor(rng.normal(0.0, 0.2, size=(1, width)))
    w = Tensor(rng.normal(0.0, 0.5, size=(width, vocab)))
    b = Tensor(np.zeros((1, vocab)))
    near = vq.assign_to_nearest_code(cb, vec)
    return cb, vec, w, b, near


def _recon_nll(vec, near, w, b):
    latent = vq.straight_through(vec, near)
    return cross_entropy(affine(latent, w, b), [3])


def test_quantization_loss_zero_terms_when_vector_equals_row():
    cb = vq.init_codebook(6, 4, np.random.default_rng(7))
    vec = Tensor(cb.data[2:3].copy())
    near = vq.assign_to_nearest_code(cb, vec)
    w = Tensor(np.random.default_rng(8).normal(0, 0.5, (4, 9)))
    b = Tensor(np.zeros((1, 9)))
    with tape() as t:
        nll = _recon_nll(vec, near, w, b)
        loss = vq.quantization_loss(vec, cb, near, nll)
    assert loss.item() == pytest.approx(nll.item(), abs=0.0)


def test_quantization_loss_rejects_bad_commit_weight():
    cb, vec, w, b, near = _tiny_recon_setup()
    with tape():
        nll = _recon_nll(vec, near, w, b)
        with pytest.raises(ValueError):
            vq.quantization_loss(vec, cb, near, nll, commit_weight=0.0)


def test_gradient_routing_analytic_identities():
    # reconstruction alone: no codebook gradient, exactly
    cb, vec, w, b, near = _tiny_recon_setup()
    with tape() as t:
        loss = _recon_nll(vec, near, w, b)
    t.backward(loss)
    assert cb.grad is None
    assert vec.grad is not None and w.grad is not None

    # codebook-pull term alone: no encoder, no decoder gradient, exactly
    cb, vec, w, b, near = _tiny_recon_setup()
    with tape() as t:
        from eviq.autodiff import gather_rows
        live = gather_rows(cb, np.array([near.index]))
        loss = squared_norm(sub(constant(vec.data), live))
    t.backward(loss)
    assert vec.grad is None and w.grad is None
    want = 2.0 * (cb.data[near.index] - vec.data[0])
    assert np.allclose(cb.grad[near.index], want, atol=1e-15)
    others = np.delete(cb.grad, near.index, axis=0)
    assert np.all(others == 0.0)

    # commitment term alone: no codebook, no decoder gradient, exactly
    cb, vec, w, b, near = _tiny_recon_setup()
    with tape() as t:
        loss = squared_norm(sub(vec, constant(near.row)))
    t.backward(loss)
    assert cb.grad is None and w.grad is None
    assert np.allclose(vec.grad, 2.0 * (vec.data - near.row), atol=1e-15)


def test_full_loss_encoder_gradient_decomposes():
    cb, vec, w, b, near = _tiny_recon_setup()
    # gradient of recon w.r.t. the latent input, taken at the assigned row
    latent_leaf = Tensor(near.row.copy())
    with tape() as t:
        nll = cross_entropy(affine(latent_leaf, w, b), [3])
    t.backward(nll)
    recon_part = latent_leaf.grad.copy()
    w.grad = None
    b.grad = None

    with tape() as t:
        loss = vq.quantization_loss(vec, cb, near, _recon_nll(vec, near, w, b))
    t.backward(loss)
    want = recon_part + 2.0 * vq.COMMIT_WEIGHT * (vec.data - near.row)
    assert np.allclose(vec.grad, want, atol=1e-14)
    assert np.allclose(cb.grad[near.index],
                       2.0 * (cb.data[near.index] - vec.data[0]), atol=1e-15)


def test_quantization_loss_full_finite_difference():
    cb, vec, w, b, near = _tiny_recon_setup(seed=9)
    params = {"enc_vec": vec, "codebook": cb, "dec_w": w, "dec_b": b}

    def build():
        with tape() as t:
            loss = vq.quantization_loss(vec, cb, near,
                                        _recon_nll(vec, near, w, b))
        return t, loss

    worst = check_grads(build, params, np.random.default_rng(10),
                        coords_per_tensor=8)
    assert worst < 1e-4


def test_code_frequencies_counting():
    freqs = vq.code_frequencies(["e1", "e1", "e1", "e2"], [4, 4, 1, 3], 8)
    assert np.allclose(freqs["e1"], np.eye(8)[4] * (2 / 3) + np.eye(8)[1] / 3)
    assert freqs["e1"].sum() == 1.0
    assert np.array_equal(freqs["e2"], np.eye(8)[3])


def test_code_frequencies_rejects_bad_index():
    with pytest.raises(ValueError):
        vq.code_frequencies(["e"], [9], 8)


def test_code_frequencies_toy_counting_oracle(tmp_path):
    from collections import Counter, defaultdict
    from eviq.textdata import load_dataset
    from eviq.toydata import make_toy_dataset
    make_toy_dataset(17, 12, 3, tmp_path)
    examples, groups = load_dataset(tmp_path / "dataset.jsonl")
    rng = np.random.default_rng(11)
    codes = [int(rng.integers(0, 5)) for _ in examples]
    keys = [ex.group_key for ex in examples]
    freqs = vq.code_frequencies(keys, codes, 5)
    tally = defaultdict(Counter)
    for k, c in zip(keys, codes):
        tally[k][c] += 1
    assert set(freqs) == set(tally)
    for k, counter in tally.items():
        n = sum(counter.values())
        for j in range(5):
            assert freqs[k][j] == pytest.approx(counter[j] / n, abs=1e-15)
        assert freqs[k].sum() == 1.0


CLS = 3


def _classifier_setup():
    cfg = tf.TransformerConfig(n_layers=2, n_heads=2, d_model=12, d_ff=24,
                               max_len=16, dropout=0.0, causal=False)
    rng = np.random.default_rng(12)
    enc = tf.init_params(cfg, 18, rng)
    head = Tensor(rng.normal(0.0, 0.3, size=(12, 6)))
    return cfg, enc, head


def test_classifier_uniform_when_head_is_zero():
    cfg, enc, head = _classifier_setup()
    head.data[:] = 0.0
    dist = vq.classifier_distribution(enc, cfg, head, [4, 5, CLS], cls_id=CLS)
    assert np.allclose(dist.data, 1.0 / 6.0, atol=0.0)


def test_classifier_distribution_sums_to_one():
    cfg, enc, head = _classifier_setup()
    dist = vq.classifier_distribution(enc, cfg, head, [4, 5, 9, CLS])
    assert abs(dist.data.sum() - 1.0) < 1e-12


def test_classifier_gradients_match_finite_differences():
    cfg, enc, head = _classifier_setup()
    target = np.array([0.5, 0.25, 0.25, 0.0, 0.0, 0.0])
    params = dict(enc, head=head)

    def build():
        with tape() as t:
            dist = vq.classifier_distribution(enc, cfg, head, [4, 5, CLS])
            loss = vq.kl_divergence(target, dist)
        return t, loss

    worst = check_grads(build, params, np.random.default_rng(13),
                        coords_per_tensor=3)
    assert worst < 1e-4


def test_kl_identical_distributions_zero():
    p = np.array([0.3, 0.2, 0.5])
    model = Tensor(p.reshape(1, -1).copy())
    assert abs(vq.kl_divergence(p, model).item()) < 1e-15


def test_kl_one_hot_versus_uniform_closed_form():
    model = Tensor(np.array([[0.5, 0.5]]))
    got = vq.kl_divergence(np.array([1.0, 0.0]), model).item()
    assert abs(got - math.log(2.0)) < 1e-12


def test_kl_nonnegative_over_random_pairs():
    rng = np.random.default_rng(14)
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        assert vq.kl_divergence(p, Tensor(q.reshape(1, -1))).item() >= -1e-12


def test_kl_rejects_nonpositive_model_entry():
    with pytest.raises(ValueError):
        vq.kl_divergence(np.array([1.0, 0.0]), Tensor(np.array([[1.0, 0.0]])))


def test_kl_gradient_through_softmax():
    rng = np.random.default_rng(15)
    logits = Tensor(rng.normal(0, 1, size=(1, 5)))
    target = rng.dirichlet(np.ones(5))

    def build():
        with tape() as t:
            loss = vq.kl_divergence(target, softmax_lastdim(logits))
        return t, loss

    worst = check_grads(build, {"logits": logits}, np.random.default_rng(16),
                        coords_per_tensor=5)
    assert worst < 1e-4


def test_sample_code_degenerate_and_deterministic():
    one_hot = np.eye(7)[4]
    for s in range(5):
        assert vq.sample_code(one_hot, np.random.default_rng(s)) == 4
    a = [vq.sample_code([0.3, 0.7], np.random.default_rng(17))
         for _ in range(10)]
    rng = np.random.default_rng(17)
    # a fresh generator per draw repeats the first draw; one generator streams
    seq1 = [vq.sample_code([0.3, 0.7], rng) for _ in range(10)]
    rng = np.random.default_rng(17)
    seq2 = [vq.sample_code([0.3, 0.7], rng) for _ in range(10)]
    assert seq1 == seq2


def test_sample_code_frequencies_within_three_sigma():
    rng = np.random.default_rng(18)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    n = 10_000
    draws = np.bincount([vq.sample_code(p, rng) for _ in range(n)],
                        minlength=4)
    for j in range(4):
        sigma = math.sqrt(n * p[j] * (1 - p[j]))
        assert abs(draws[j] - n * p[j]) < 3 * sigma


def test_code_utilization_counts():
    counts = vq.code_utilization([0, 2, 2, 5], 8)
    assert counts.tolist() == [1, 0, 2, 0, 0, 1, 0, 0]


@pytest.mark.parametrize("bad", [-1, 4])
def test_code_utilization_rejects_bad_index(bad):
    # -1 used to count into the last code; n_codes raised a bare IndexError
    with pytest.raises(ValueError, match="outside 0..3"):
        vq.code_utilization([0, bad], 4)
