from dataclasses import replace

import numpy as np
import pytest

from eviq.autodiff import NumericError, ShapeError, Tensor, no_tape, tape
from eviq import cores
from eviq import evidence as ev
from eviq import textdata as td
from eviq import transformer as tf
from eviq import vqvae as vq
from eviq.retrieval import EMPTY_DOC_ID, InvertedIndex
from eviq.textdata import Vocab
from eviq.toydata import make_toy_dataset

from fdcheck import check_grads

DOCS = ["the cat sat on the mat",
        "the dog chased the cat",
        "the cat sat on the mat",
        "a bird flew over the harbor"]


@pytest.fixture()
def setup():
    idx = InvertedIndex(DOCS)
    evidence = idx.search_topk("cat mat bird dog", k=4)
    vocab = Vocab.build([d.split() for d in DOCS])
    cfg = tf.TransformerConfig(n_layers=2, n_heads=2, d_model=12, d_ff=24,
                               causal=False)
    params = tf.init_params(cfg, len(vocab.id_to_token),
                            np.random.default_rng(0))
    ctx = ev.encode_evidence(params, cfg, evidence, vocab)
    return idx, evidence, vocab, cfg, params, ctx


def test_row_count_and_width(setup):
    _, evidence, _, cfg, _, ctx = setup
    assert ctx.vectors.shape == (len(evidence.items), cfg.d_model)


def test_identical_paragraphs_identical_rows(setup):
    _, evidence, _, _, _, ctx = setup
    pos = {it.doc_id: i for i, it in enumerate(evidence.items)}
    assert 0 in pos and 2 in pos  # duplicate documents both retrieved
    assert np.array_equal(ctx.vectors[pos[0]], ctx.vectors[pos[2]])


def test_placeholder_row_is_empty_marker_encoding(setup):
    _, evidence, vocab, cfg, params, ctx = setup
    ids = ctx.token_ids[-1]
    assert ids.tolist() == [vocab.empty_id, vocab.cls_id]
    direct = tf.encoder_forward(params, cfg, ids, cls_id=vocab.cls_id)
    assert np.array_equal(ctx.vectors[-1], direct.data[0])


def test_encoding_is_tape_free(setup):
    _, _, _, _, _, ctx = setup
    with tape() as t:
        pass
    assert len(t.nodes) == 0


def test_select_exact_row(setup):
    *_, ctx = setup
    for j in range(ctx.vectors.shape[0]):
        idx, item = ev.select_evidence(ctx, ctx.vectors[j])
        assert item is ctx.evidence.items[idx]
        assert np.array_equal(ctx.vectors[idx], ctx.vectors[j])


def test_select_matches_brute_force(setup):
    *_, ctx = setup
    rng = np.random.default_rng(1)
    for _ in range(25):
        z = rng.normal(0, 0.5, size=ctx.vectors.shape[1])
        idx, _ = ev.select_evidence(ctx, z)
        dists = [float(np.linalg.norm(ctx.vectors[i] - z))
                 for i in range(ctx.vectors.shape[0])]
        assert idx == int(np.argmin(dists))


def test_select_tie_breaks_lowest_index():
    items = InvertedIndex(DOCS).search_topk("cat", k=2).items
    rows = np.array([[1.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    ctx = ev.ContextVectors(vectors=rows, token_ids=[None] * 3,
                            evidence=type("E", (), {"items": items})())
    idx, _ = ev.select_evidence(ctx, np.array([0.9, 0.1]))
    assert idx == 0


@pytest.mark.parametrize("where", ["code", "context"])
def test_select_rejects_non_finite_distance(setup, where):
    # the same check as code assignment: unchecked, a NaN context row
    # would win and a NaN code row would pick item 0
    *_, ctx = setup
    code = ctx.vectors[1].copy()
    if where == "code":
        code[0] = np.nan
    else:
        ctx = replace(ctx, vectors=ctx.vectors.copy())
        ctx.vectors[2, 3] = np.nan
    with pytest.raises(NumericError, match="row 0" if where == "code" else "row 2"):
        ev.select_evidence(ctx, code)


def test_select_permutation_of_other_rows_keeps_choice(setup):
    *_, ctx = setup
    z = np.random.default_rng(2).normal(0, 0.5, size=ctx.vectors.shape[1])
    idx, item = ev.select_evidence(ctx, z)
    order = [i for i in range(len(ctx.evidence.items)) if i != idx]
    np.random.default_rng(3).shuffle(order)
    order = [idx] + order
    shuffled = ev.ContextVectors(
        vectors=ctx.vectors[order],
        token_ids=[ctx.token_ids[i] for i in order],
        evidence=type("E", (), {
            "items": tuple(ctx.evidence.items[i] for i in order)})())
    idx2, item2 = ev.select_evidence(shuffled, z)
    assert item2 is item


def test_only_placeholder_gets_selected():
    idx = InvertedIndex(DOCS)
    evidence = idx.search_topk("zzz", k=4)
    assert len(evidence.items) == 1
    vocab = Vocab.build([d.split() for d in DOCS])
    cfg = tf.TransformerConfig(n_layers=1, n_heads=2, d_model=8, d_ff=16,
                               causal=False)
    params = tf.init_params(cfg, len(vocab.id_to_token),
                            np.random.default_rng(4))
    ctx = ev.encode_evidence(params, cfg, evidence, vocab)
    sel, item = ev.select_evidence(ctx, np.zeros(8))
    assert sel == 0 and item.doc_id == EMPTY_DOC_ID


def test_reward_rule():
    assert ev.compute_reward(np.log(0.6), np.log(0.4)) == 1
    assert ev.compute_reward(np.log(0.4), np.log(0.6)) == -1
    assert ev.compute_reward(np.log(0.5), np.log(0.5)) == -1


def test_counter_pick_never_chosen_and_covers_pool():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(300):
        c = ev.pick_counter(5, 2, rng)
        assert c != 2 and 0 <= c < 5
        seen.add(c)
    assert seen == {0, 1, 3, 4}  # placeholder index 4 included
    assert ev.pick_counter(1, 0, rng) is None


def test_pull_loss_sign_convention(setup):
    # reward +1: descent moves the vector toward the code row; -1: away
    rng = np.random.default_rng(6)
    vec = Tensor(rng.normal(0, 0.5, size=(1, 6)))
    row = rng.normal(0, 0.5, size=(1, 6))
    for reward in (1, -1):
        with tape() as t:
            loss = ev.selection_pull_loss(vec, row, reward)
        t.backward(loss)
        inner = float(np.sum(vec.grad * (vec.data - row)))
        assert (inner > 0) if reward == 1 else (inner < 0)
        vec.grad = None


def test_pull_loss_codebook_stays_frozen(setup):
    _, _, _, cfg, params, ctx = setup
    cb = vq.init_codebook(4, cfg.d_model, np.random.default_rng(7))
    near = vq.assign_to_nearest_code(cb, Tensor(np.zeros((1, cfg.d_model))))
    with tape() as t:
        h = ev.encode_item(params, cfg, ctx, 0)
        loss = ev.selection_pull_loss(h, near.row, 1)
    t.backward(loss)
    assert cb.grad is None
    assert any(p.grad is not None for p in params.values())


def test_pull_loss_rejects_bad_reward():
    with pytest.raises(ValueError):
        ev.selection_pull_loss(Tensor(np.zeros((1, 4))), np.zeros(4), 0)


def test_gradient_through_evidence_encoder(setup):
    _, _, _, cfg, params, ctx = setup
    row = np.random.default_rng(8).normal(0, 0.4, size=cfg.d_model)

    def build():
        with tape() as t:
            h = ev.encode_item(params, cfg, ctx, 1)
            loss = ev.selection_pull_loss(h, row, 1)
        return t, loss

    worst = check_grads(build, params, np.random.default_rng(9),
                        coords_per_tensor=3)
    assert worst < 1e-4


def test_encode_item_matches_bulk_row(setup):
    _, _, _, cfg, params, ctx = setup
    for i in range(len(ctx.token_ids)):
        h = ev.encode_item(params, cfg, ctx, i)
        assert np.array_equal(h.data[0], ctx.vectors[i])


# --- the per-paragraph table ------------------------------------------------

def _per_set(params, cfg, token_ids, vocab):
    """The reference: every item of one set encoded in one fresh pass."""
    with no_tape():
        return tf.batch_encoder_forward(params, cfg, token_ids,
                                        cls_id=vocab.cls_id).data


@pytest.fixture()
def forwards(monkeypatch):
    """An empty table, and the id sequences of every encoder pass it runs."""
    monkeypatch.setattr(ev, "_TABLE", ev._Table())
    calls = []
    real = ev.batch_encoder_forward

    def counted(params, config, seqs, **kw):
        calls.append([s.tolist() for s in seqs])
        return real(params, config, seqs, **kw)

    monkeypatch.setattr(ev, "batch_encoder_forward", counted)
    return calls


def test_table_encodes_each_new_paragraph_once(setup, forwards):
    idx, _, vocab, cfg, params, _ = setup
    first = idx.search_topk("bird", k=1)
    ctx = ev.encode_evidence(params, cfg, first, vocab)
    assert forwards == [[s.tolist() for s in ctx.token_ids]]
    again = ev.encode_evidence(params, cfg, first, vocab)
    assert len(forwards) == 1
    assert np.array_equal(again.vectors, ctx.vectors)

    second = idx.search_topk("cat mat bird dog", k=4)
    ctx2 = ev.encode_evidence(params, cfg, second, vocab)
    seen = {tuple(s) for s in forwards[0]}
    new = []
    for s in ctx2.token_ids:
        if tuple(s) not in seen and s.tolist() not in new:
            new.append(s.tolist())
    assert len(forwards) == 2 and forwards[1] == new
    # one shared paragraph, one shared placeholder, two copies of one text
    assert len(ctx2.token_ids) == 5 and len(new) == 2
    assert np.abs(ctx2.vectors - _per_set(params, cfg, ctx2.token_ids, vocab)).max() <= 1e-12


def _poke_in_place(params, cfg):
    params["pos_emb"].data[0, 0] += 1e-3
    return params, cfg


def _swap_params(params, cfg):
    return tf.init_params(cfg, params["tok_emb"].data.shape[0],
                          np.random.default_rng(31)), cfg


def _other_heads(params, cfg):
    # same weight shapes, different forward
    return params, replace(cfg, n_heads=4)


@pytest.mark.parametrize("change", [_poke_in_place, _swap_params, _other_heads],
                         ids=["in_place_edit", "other_params", "other_config"])
def test_table_drops_rows_when_weights_or_config_change(setup, forwards, change):
    _, evidence, vocab, cfg, params, _ = setup
    stale = ev.encode_evidence(params, cfg, evidence, vocab).vectors
    params, cfg = change(params, cfg)
    got = ev.encode_evidence(params, cfg, evidence, vocab)
    assert len(forwards) == 2
    assert np.abs(got.vectors - stale).max() > 1e-6
    assert np.abs(got.vectors - _per_set(params, cfg, got.token_ids, vocab)).max() <= 1e-12


def test_returned_vectors_do_not_alias_the_table(setup, forwards):
    _, evidence, vocab, cfg, params, _ = setup
    ctx = ev.encode_evidence(params, cfg, evidence, vocab)
    want = ctx.vectors.copy()
    ctx.vectors[:] = 7.0
    assert np.array_equal(ev.encode_evidence(params, cfg, evidence, vocab).vectors,
                          want)
    assert len(forwards) == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_table_matches_per_set_encoding_on_toy_dev_sets(tmp_path, seed, forwards):
    make_toy_dataset(seed, 200, 8, tmp_path)
    _, dev = td.load_dataset(tmp_path / "dev.jsonl")
    idx = InvertedIndex.build(tmp_path / "corpus.txt")
    vocab = Vocab.build([list(t) for t in idx.doc_tokens]
                        + [g.members[0].event_tokens for g in dev])
    cfg = tf.TransformerConfig(n_layers=2, n_heads=4, d_model=32, d_ff=64,
                               causal=False)
    rng = np.random.default_rng([seed, 5])
    params = tf.init_params(cfg, len(vocab.id_to_token), rng)
    codes = np.vstack([vq.init_codebook(16, cfg.d_model, rng).data,
                       rng.normal(0, 1.0, size=(20, cfg.d_model))])
    items = 0
    for g in dev:
        ctx = ev.encode_evidence(params, cfg, idx.search_topk(g.members[0].event_raw, k=45),
                                 vocab)
        items += len(ctx.token_ids)
        ref = ev.ContextVectors(_per_set(params, cfg, ctx.token_ids, vocab),
                                ctx.token_ids, ctx.evidence)
        assert np.abs(ctx.vectors - ref.vectors).max() <= 1e-12
        for row in codes:
            assert ev.select_evidence(ctx, row)[0] == ev.select_evidence(ref, row)[0]
    # dev sets share most paragraphs, so most items were table hits
    assert sum(map(len, forwards)) < items / 2


def _toy_dev_sets(tmp_path, seed):
    make_toy_dataset(seed, 200, 8, tmp_path)
    _, dev = td.load_dataset(tmp_path / "dev.jsonl")
    idx = InvertedIndex.build(tmp_path / "corpus.txt")
    vocab = Vocab.build([list(t) for t in idx.doc_tokens]
                        + [g.members[0].event_tokens for g in dev])
    cfg = tf.TransformerConfig(n_layers=2, n_heads=4, d_model=32, d_ff=64,
                               causal=False)
    params = tf.init_params(cfg, len(vocab.id_to_token), np.random.default_rng([seed, 5]))
    sets = [idx.search_topk(g.members[0].event_raw, k=45) for g in dev]
    return sets, vocab, cfg, params


def test_split_encode_matches_per_set_and_encodes_each_paragraph_once(
        tmp_path, forwards, cpus):
    sets, vocab, cfg, params = _toy_dev_sets(tmp_path, 4)
    evidence = max(sets, key=lambda es: len(es.items))
    assert len(evidence.items) == 46  # 45 hits and the placeholder
    with tape() as t:
        ctx = ev.encode_evidence(params, cfg, evidence, vocab)
    assert t.nodes == []
    distinct = {tuple(s.tolist()) for s in ctx.token_ids}
    encoded = [tuple(s) for call in forwards for s in call]
    assert len(forwards) == 2 and all(forwards)
    assert sorted(encoded) == sorted(distinct)
    ref = ev.ContextVectors(_per_set(params, cfg, ctx.token_ids, vocab),
                            ctx.token_ids, ctx.evidence)
    assert np.abs(ctx.vectors - ref.vectors).max() <= 1e-12
    rng = np.random.default_rng(9)
    codes = np.vstack([vq.init_codebook(16, cfg.d_model, rng).data,
                       rng.normal(0, 1.0, size=(20, cfg.d_model)), ref.vectors])
    for row in codes:
        assert ev.select_evidence(ctx, row)[0] == ev.select_evidence(ref, row)[0]


@pytest.mark.parametrize("half", [0, 1], ids=["callers_half", "workers_half"])
def test_error_in_either_half_raises_its_own_type_and_adds_no_rows(
        tmp_path, monkeypatch, cpus, half):
    sets, vocab, cfg, params = _toy_dev_sets(tmp_path, 4)
    evidence = max(sets, key=lambda es: len(es.items))
    ids = ev.evidence_token_ids(vocab, evidence)
    seqs = list({s.tobytes(): s for s in ids}.values())
    poisoned = seqs[cores.halves([len(s) for s in seqs])[half][0]].tobytes()
    real = ev.batch_encoder_forward
    ran = []

    def failing(params, config, part, **kw):
        ran.append(len(part))
        if any(s.tobytes() == poisoned for s in part):
            raise ShapeError("poisoned paragraph")
        return real(params, config, part, **kw)

    table = ev._Table()
    monkeypatch.setattr(ev, "_TABLE", table)
    monkeypatch.setattr(ev, "batch_encoder_forward", failing)
    with pytest.raises(ShapeError, match="poisoned"):
        ev.encode_evidence(params, cfg, evidence, vocab)
    assert table.rows == {}
    assert len(ran) == (2 if cpus == 2 or half == 1 else 1)
    monkeypatch.setattr(ev, "batch_encoder_forward", real)
    got = ev.encode_evidence(params, cfg, evidence, vocab)
    assert len(table.rows) == len(seqs)
    assert np.abs(got.vectors - _per_set(params, cfg, ids, vocab)).max() <= 1e-12
