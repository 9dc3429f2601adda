import itertools
import math

import numpy as np
import pytest

from eviq.autodiff import ShapeError, log_softmax, no_tape, softmax_lastdim, tape
from eviq import generator as gen
from eviq import transformer as tf
from eviq.textdata import (MAX_EVENT_TOKENS, MAX_EVIDENCE_TOKENS,
                           MAX_INFERENCE_TOKENS, Vocab)

from fdcheck import check_grads


@pytest.fixture()
def setup():
    vocab = Vocab.build([["alpha", "beta", "gamma", "delta", "echo"]])
    cfg = tf.TransformerConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32,
                               causal=True)
    params = tf.init_params(cfg, len(vocab.id_to_token),
                            np.random.default_rng(0))
    return vocab, cfg, params


def _ids(vocab, *tokens):
    return vocab.encode(list(tokens))


def test_assembly_layout(setup):
    vocab, cfg, _ = setup
    asm = gen.assemble(vocab, cfg, _ids(vocab, "alpha"),
                       _ids(vocab, "beta", "gamma"), "xIntent",
                       _ids(vocab, "delta"))
    want = (_ids(vocab, "alpha") + [vocab.sep_id]
            + _ids(vocab, "beta", "gamma") + [vocab.dim_id("xIntent")]
            + [vocab.bos_id] + _ids(vocab, "delta"))
    assert asm.input_ids.tolist() == want
    # the BOS position predicts the first target token, the target's last
    # position predicts the end marker; nothing else is scored
    assert asm.target_mask.tolist() == [0, 0, 0, 0, 0, 1, 1]
    assert asm.target_ids[5] == vocab.encode(["delta"])[0]
    assert asm.target_ids[6] == vocab.eos_id


def test_assembly_overflow_names_segment(setup):
    vocab, cfg, _ = setup
    with pytest.raises(ShapeError) as e:
        gen.assemble(vocab, cfg, [vocab.unk_id] * 65, [4], "xIntent", [])
    assert "evidence" in str(e.value)
    with pytest.raises(ShapeError) as e:
        gen.assemble(vocab, cfg, [4], [vocab.unk_id] * 65, "xIntent", [])
    assert "event" in str(e.value)
    with pytest.raises(ShapeError) as e:
        gen.assemble(vocab, cfg, [4], [4], "xIntent", [vocab.unk_id] * 33)
    assert "target" in str(e.value)


def test_segment_caps_fit_the_decoder_positions():
    # so no layout that passes the segment caps can outgrow the positions
    assert (MAX_EVIDENCE_TOKENS + MAX_EVENT_TOKENS + MAX_INFERENCE_TOKENS + 3
            <= tf.MAX_LEN)


def test_every_segment_at_its_cap_scores_and_decodes():
    # the longest training layout is scored, and a beam over the longest
    # prefix that never emits its end marker runs every step allowed
    vocab, cfg, params = _tiny_vocab_model(seed=6)
    a = vocab.encode(["a"])[0]
    ev, x = [a] * MAX_EVIDENCE_TOKENS, [a] * MAX_EVENT_TOKENS
    nll = gen.generation_nll(params, cfg, vocab, ev, x, "xIntent",
                             [a] * MAX_INFERENCE_TOKENS)
    assert np.isfinite(nll.item())
    params["tok_emb"].data[vocab.eos_id] = -50.0
    args = (params, cfg, vocab, ev, x, "xIntent")
    res = gen.beam_search(*args, width=2, max_steps=MAX_INFERENCE_TOKENS)
    assert res.truncated
    assert [len(h.tokens) for h in res.hypotheses] == [MAX_INFERENCE_TOKENS] * 2
    _assert_same_beam(res, _reference_beam(*args, width=2,
                                           max_steps=MAX_INFERENCE_TOKENS))


def test_forward_distribution_sums_to_one(setup):
    vocab, cfg, params = setup
    asm = gen.assemble(vocab, cfg, _ids(vocab, "alpha"),
                       _ids(vocab, "beta"), "xReact", _ids(vocab, "gamma"))
    logits = tf.decoder_forward(params, cfg, asm.input_ids)
    probs = softmax_lastdim(logits)
    assert np.allclose(probs.data.sum(-1), 1.0, atol=1e-12)


def test_no_evidence_input_runs(setup):
    vocab, cfg, params = setup
    nll = gen.generation_nll(params, cfg, vocab, [vocab.empty_id],
                             _ids(vocab, "beta"), "xIntent",
                             _ids(vocab, "gamma"))
    assert np.isfinite(nll.item()) and nll.item() > 0


def test_nll_gradients_flow(setup):
    vocab, cfg, params = setup

    def build():
        with tape() as t:
            loss = gen.generation_nll(params, cfg, vocab,
                                      _ids(vocab, "alpha"),
                                      _ids(vocab, "beta"), "xIntent",
                                      _ids(vocab, "gamma", "delta"))
        return t, loss

    worst = check_grads(build, params, np.random.default_rng(1),
                        coords_per_tensor=3)
    assert worst < 1e-4


@pytest.mark.parametrize("call", ["encoder_forward", "batch_encoder_forward",
                                  "decoder_forward", "generation_nll"])
def test_training_forward_without_an_rng_is_refused_by_name(setup, call):
    vocab, cfg, params = setup
    enc_cfg = tf.TransformerConfig(n_layers=2, n_heads=2, d_model=16, d_ff=32)
    run = {
        "encoder_forward": lambda: tf.encoder_forward(params, enc_cfg, [4, 5],
                                                      train=True),
        "batch_encoder_forward": lambda: tf.batch_encoder_forward(
            params, enc_cfg, [[4, 5], [6]], train=True),
        "decoder_forward": lambda: tf.decoder_forward(params, cfg, [1, 2, 3],
                                                      train=True),
        "generation_nll": lambda: gen.generation_nll(
            params, cfg, vocab, [vocab.empty_id], _ids(vocab, "alpha"),
            "xIntent", _ids(vocab, "beta"), train=True),
    }[call]
    with pytest.raises(ValueError, match="rng") as e:
        run()
    assert type(e.value) is ValueError


def test_sequence_logprob_equals_stepwise_product(setup):
    vocab, cfg, params = setup
    ev, x = _ids(vocab, "alpha"), _ids(vocab, "beta")
    y = _ids(vocab, "gamma", "delta") + [vocab.eos_id]
    got = gen.sequence_logprob(params, cfg, vocab, ev, x, "xReact", y)
    asm = gen.assemble(vocab, cfg, ev, x, "xReact", y[:-1])
    with no_tape():
        logits = tf.decoder_forward(params, cfg, asm.input_ids).data
    product = 1.0
    pos = len(asm.input_ids) - len(y)   # the begin marker predicts y[0]
    for step, tok in enumerate(y):
        row = logits[pos + step]
        p = np.exp(row - row.max()) / np.exp(row - row.max()).sum()
        product *= p[tok]
    assert abs(math.exp(got) - product) < 1e-10


def test_sequence_logprob_requires_end_marker(setup):
    vocab, cfg, params = setup
    with pytest.raises(ShapeError):
        gen.sequence_logprob(params, cfg, vocab, [4], [5], "xIntent",
                             _ids(vocab, "gamma"))


def test_sequence_logprob_additivity(setup):
    # summed stepwise values, computed one token at a time, match the total
    vocab, cfg, params = setup
    ev, x = _ids(vocab, "alpha"), _ids(vocab, "echo")
    y = _ids(vocab, "gamma", "beta") + [vocab.eos_id]
    total = gen.sequence_logprob(params, cfg, vocab, ev, x, "xWant", y)
    asm = gen.assemble(vocab, cfg, ev, x, "xWant")
    stepwise = 0.0
    prefix = asm.input_ids
    for tok in y:
        lp = gen.next_token_logprobs(params, cfg, prefix)
        stepwise += float(lp[tok])
        prefix = np.concatenate([prefix, [tok]])
    assert abs(total - stepwise) < 1e-10


def test_beam_width_one_is_greedy(setup):
    vocab, cfg, params = setup
    ev, x = _ids(vocab, "alpha"), _ids(vocab, "beta")
    res = gen.beam_search(params, cfg, vocab, ev, x, "xIntent", width=1,
                          max_steps=8)
    asm = gen.assemble(vocab, cfg, ev, x, "xIntent")
    prefix = asm.input_ids
    greedy = []
    for _ in range(8):
        nxt = int(np.argmax(gen.next_token_logprobs(params, cfg, prefix)))
        greedy.append(nxt)
        prefix = np.concatenate([prefix, [nxt]])
        if nxt == vocab.eos_id:
            break
    assert list(res.hypotheses[0].tokens) == greedy


def _tiny_vocab_model(seed=3):
    # reserved block + a and b: beam explores a 3-way choice at each step
    vocab = Vocab.build([["a", "b"]])
    cfg = tf.TransformerConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                               causal=True)
    params = tf.init_params(cfg, len(vocab.id_to_token),
                            np.random.default_rng(seed))
    return vocab, cfg, params


def test_beam_wide_matches_exhaustive_enumeration():
    vocab, cfg, params = _tiny_vocab_model()
    a = vocab.encode(["a"])[0]
    eos = vocab.eos_id
    n_vocab = len(vocab.id_to_token)
    ev, x = [vocab.empty_id], [a]
    width = (n_vocab - 1) ** 2  # enough to hold every possible path
    res = gen.beam_search(params, cfg, vocab, ev, x, "xIntent", width=width,
                          max_steps=3)
    assert not res.truncated
    best = res.hypotheses[0]
    # every end-marked sequence of length <= 3; interior slots hold any
    # token but the end marker
    interior_pool = [t for t in range(n_vocab) if t != eos]
    paths = []
    for n in (1, 2, 3):
        for interior in itertools.product(interior_pool, repeat=n - 1):
            seq = list(interior) + [eos]
            lp = gen.sequence_logprob(params, cfg, vocab, ev, x, "xIntent",
                                      seq)
            paths.append((tuple(seq), lp / len(seq), lp))
    paths.sort(key=lambda t: (-t[1], t[0]))
    assert best.tokens == paths[0][0]
    assert best.score() == pytest.approx(paths[0][1], abs=1e-10)
    # the leading hypotheses agree with enumeration, not just the winner
    got = [(h.tokens, h.score()) for h in res.hypotheses[:10]]
    want = [(t, s) for t, s, _ in paths[:10]]
    for (gt, gs), (wt, ws) in zip(got, want):
        assert gt == wt and abs(gs - ws) < 1e-10


def test_beam_scores_match_recomputation(setup):
    vocab, cfg, params = setup
    ev, x = _ids(vocab, "alpha"), _ids(vocab, "beta", "gamma")
    res = gen.beam_search(params, cfg, vocab, ev, x, "xReact", width=4,
                          max_steps=6)
    for h in res.hypotheses:
        if h.tokens[-1] == vocab.eos_id:
            lp = gen.sequence_logprob(params, cfg, vocab, ev, x, "xReact",
                                      list(h.tokens))
            assert abs(lp - h.logprob) < 1e-10


def test_beam_deterministic(setup):
    vocab, cfg, params = setup
    ev, x = _ids(vocab, "alpha"), _ids(vocab, "delta")
    a = gen.beam_search(params, cfg, vocab, ev, x, "oReact", width=3,
                        max_steps=5)
    b = gen.beam_search(params, cfg, vocab, ev, x, "oReact", width=3,
                        max_steps=5)
    assert [(h.tokens, h.logprob) for h in a.hypotheses] \
        == [(h.tokens, h.logprob) for h in b.hypotheses]


def test_wider_beam_never_worse():
    # among finished results, the best normalized score is nondecreasing in
    # width; truncated fallbacks are incomparable and skipped
    for seed in (3, 5, 8):
        vocab, cfg, params = _tiny_vocab_model(seed=seed)
        ev, x = [vocab.empty_id], vocab.encode(["b"])
        best = -np.inf
        for width in (1, 2, 4, 8, 16, 64):
            res = gen.beam_search(params, cfg, vocab, ev, x, "xIntent",
                                  width=width, max_steps=4)
            if res.truncated:
                continue
            score = res.hypotheses[0].score()
            assert score >= best - 1e-12, (seed, width)
            best = max(best, score)
        assert best > -np.inf


def test_beam_truncation_flag():
    # a model forbidden from emitting the end marker cannot finish
    vocab, cfg, params = _tiny_vocab_model(seed=6)
    params["tok_emb"].data[vocab.eos_id] = -50.0  # end marker never likely
    res = gen.beam_search(params, cfg, vocab, [vocab.empty_id],
                          vocab.encode(["a"]), "xIntent", width=2,
                          max_steps=3)
    if res.truncated:
        assert all(len(h.tokens) == 3 for h in res.hypotheses)
    assert res.truncated == all(h.tokens[-1] != vocab.eos_id
                                for h in res.hypotheses)


@pytest.mark.parametrize("seed", [3, 5, 8])
def test_truncated_exactly_when_no_hypothesis_ends_with_end_marker(seed):
    # every hypothesis of a finished search ends with the end marker and
    # none of a truncated one does; the untouched model never finishes
    # within 3 steps, the one with a likely end marker always does
    seen = set()
    for likely_end in (False, True):
        vocab, cfg, params = _tiny_vocab_model(seed=seed)
        if likely_end:
            params["layers.0.ln2.b"].data[0] = 1.0
            params["tok_emb"].data[vocab.eos_id] = 1.0 / cfg.d_model
        res = gen.beam_search(params, cfg, vocab, [vocab.empty_id],
                              vocab.encode(["a"]), "xIntent", width=3,
                              max_steps=3)
        ends = [h.tokens[-1] == vocab.eos_id for h in res.hypotheses]
        assert ends and ends == [not res.truncated] * len(ends)
        seen.add(res.truncated)
    assert seen == {False, True}


def test_beam_rejects_bad_arguments(setup, monkeypatch):
    # bools and non-integers are refused before any forward runs
    vocab, cfg, params = setup
    forwards = []
    monkeypatch.setattr(gen, "KVCache", lambda *args: forwards.append(args))
    for bad in ({"width": 0}, {"max_steps": 33}, {"width": True},
                {"max_steps": True}, {"width": np.True_}, {"width": 2.5},
                {"max_steps": 2.0}, {"width": "2"}):
        with pytest.raises(ValueError):
            gen.beam_search(params, cfg, vocab, [4], [5], "xIntent", **bad)
    assert forwards == []


def test_beam_takes_numpy_integer_arguments(setup):
    vocab, cfg, params = setup
    args = (params, cfg, vocab, [4], [5], "xIntent")
    _assert_same_beam(
        gen.beam_search(*args, width=np.int64(3), max_steps=np.int32(4)),
        gen.beam_search(*args, width=3, max_steps=4))


def _reference_beam(params, cfg, vocab, ev, x, dimension, width, max_steps):
    # the decode this module ran before its key/value cache: every step
    # recomputes each live hypothesis from scratch and sorts the full list
    # of width x vocab expansions by (score, token tuple)
    prefix = gen.assemble(vocab, cfg, ev, x, dimension).input_ids
    active = [((), 0.0)]
    finished = []
    for _ in range(max_steps):
        expansions = []
        for tokens, cum in active:
            logp = gen.next_token_logprobs(
                params, cfg, np.concatenate([prefix, np.array(tokens,
                                                              dtype=np.int64)]))
            for v in range(len(logp)):
                expansions.append((tokens + (v,), cum + float(logp[v])))
        expansions.sort(key=lambda h: (-h[1], h[0]))
        active = []
        for rank, (tokens, cum) in enumerate(expansions):
            if tokens[-1] == vocab.eos_id:
                if rank < width:
                    finished.append(gen.Hypothesis(tokens=tokens, logprob=cum))
            elif len(active) < width:
                active.append((tokens, cum))
        if not active or len(finished) >= width:
            break
    if finished:
        finished.sort(key=lambda h: (-h.score(), h.tokens))
        return gen.BeamResult(hypotheses=finished[:width], truncated=False)
    leftovers = [gen.Hypothesis(tokens=t, logprob=c) for t, c in active]
    leftovers.sort(key=lambda h: (-h.score(), h.tokens))
    return gen.BeamResult(hypotheses=leftovers[:width], truncated=True)


def _assert_same_beam(got, want):
    assert got.truncated == want.truncated
    assert [h.tokens for h in got.hypotheses] \
        == [h.tokens for h in want.hypotheses]
    for g, w in zip(got.hypotheses, want.hypotheses):
        assert all(type(t) is int for t in g.tokens)
        assert abs(g.logprob - w.logprob) < 1e-10


# ids end in "-mean": these cases check the mean log-prob per token ranking
WIDTHS = pytest.mark.parametrize("width", [1, 3, 10, 64],
                                 ids=lambda w: f"{w}-mean")


@WIDTHS
@pytest.mark.parametrize("seed", [3, 5, 8])
def test_beam_matches_reference_tiny_vocab(seed, width):
    vocab, cfg, params = _tiny_vocab_model(seed=seed)
    for x in (vocab.encode(["a"]), vocab.encode(["b", "a"])):
        args = (params, cfg, vocab, [vocab.empty_id], x, "xIntent")
        _assert_same_beam(gen.beam_search(*args, width=width, max_steps=4),
                          _reference_beam(*args, width=width, max_steps=4))


@WIDTHS
def test_beam_matches_reference_setup(setup, width):
    vocab, cfg, params = setup
    args = (params, cfg, vocab, _ids(vocab, "alpha", "gamma"),
            _ids(vocab, "beta"), "xReact")
    _assert_same_beam(gen.beam_search(*args, width=width, max_steps=5),
                      _reference_beam(*args, width=width, max_steps=5))


@pytest.mark.parametrize("width", [3, 10])
@pytest.mark.parametrize("seed", [3, 5, 8])
def test_beam_matches_reference_with_likely_end_marker(seed, width):
    # end-marked expansions crowd the top of each step, so the unfinished
    # survivors must come from below the top width entries
    vocab, cfg, params = _tiny_vocab_model(seed=seed)
    params["layers.0.ln2.b"].data[0] = 1.0
    params["tok_emb"].data[vocab.eos_id] = 1.0 / cfg.d_model
    args = (params, cfg, vocab, [vocab.empty_id], vocab.encode(["a"]),
            "xIntent")
    prefix = gen.assemble(vocab, cfg, *args[3:]).input_ids
    assert np.argmax(gen.next_token_logprobs(params, cfg, prefix)) \
        == vocab.eos_id
    _assert_same_beam(gen.beam_search(*args, width=width, max_steps=4),
                      _reference_beam(*args, width=width, max_steps=4))


@pytest.mark.parametrize("width", [1, 3, 10])
def test_beam_tied_logits_order_by_token_id(width):
    # a zero embedding makes every logit equal: scores tie everywhere, and
    # only the token-id order can pick survivors and rank results
    vocab, cfg, params = _tiny_vocab_model(seed=3)
    params["tok_emb"].data[:] = 0.0
    args = (params, cfg, vocab, [vocab.empty_id], vocab.encode(["a"]),
            "xIntent")
    prefix = gen.assemble(vocab, cfg, *args[3:]).input_ids
    assert np.ptp(gen.next_token_logprobs(params, cfg, prefix)) == 0.0
    _assert_same_beam(gen.beam_search(*args, width=width, max_steps=3),
                      _reference_beam(*args, width=width, max_steps=3))


def test_cached_logprobs_match_recomputation(setup, monkeypatch):
    # follow the beam's own cache: rebuild each live hypothesis from the
    # parents and tokens each step takes, then compare the cached next-token
    # distribution with a forward over the whole sequence
    vocab, cfg, params = setup
    calls = []

    class Recording(tf.KVCache):
        def __init__(self, *args):
            super().__init__(*args)
            calls.append(((), (), self.logits))

        def step(self, parents, tokens):
            out = super().step(parents, tokens)
            calls.append((list(parents), tokens.tolist(), out))
            return out

    monkeypatch.setattr(gen, "KVCache", Recording)
    ev, x = _ids(vocab, "alpha"), _ids(vocab, "beta", "gamma")
    gen.beam_search(params, cfg, vocab, ev, x, "xReact", width=4,
                    max_steps=6)
    prefix = gen.assemble(vocab, cfg, ev, x, "xReact").input_ids
    live, shared = [()], False
    for parents, tokens, logits in calls:
        if parents:   # a step: each survivor's parent, then its new token
            shared |= len(set(parents)) < len(parents)
            live = [live[p] + (t,) for p, t in zip(parents, tokens)]
        assert len(logits) == len(live)
        for hyp, row in zip(live, logits):
            want = gen.next_token_logprobs(
                params, cfg, np.concatenate([prefix, np.array(hyp, dtype=np.int64)]))
            assert np.abs(log_softmax(row) - want).max() < 1e-10
    assert shared and len(calls) > 2
