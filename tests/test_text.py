import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eviq import textdata as td
from eviq.toydata import load_toy_meta, make_toy_dataset


def test_tokenize_possessive_and_case():
    assert td.tokenize("PersonX reads PersonY's diary") == [
        "personx", "reads", "persony", "'s", "diary"]


def test_tokenize_empty():
    assert td.tokenize("") == []


def test_tokenize_detaches_punctuation():
    assert td.tokenize("Wait, really?!") == ["wait", ",", "really", "?", "!"]


def test_tokenize_keeps_contraction_pieces():
    assert td.tokenize("don't") == ["don", "'", "t"]


@settings(deadline=None, max_examples=50)
@given(st.text(alphabet="abc XYZ',.!?", max_size=40))
def test_tokenize_never_emits_reserved_or_uppercase(text):
    for tok in td.tokenize(text):
        assert tok == tok.lower()
        assert tok not in td.RESERVED


def test_vocab_round_trip_and_reserved_block():
    v = td.Vocab.build([["ship", "sails", "ship"], ["dock"]])
    assert v.id_to_token[: len(td.RESERVED)] == list(td.RESERVED)
    ids = v.encode(["ship", "dock", "unseen"])
    assert ids[2] == v.unk_id
    assert v.decode(ids[:2]) == ["ship", "dock"]


def test_vocab_deterministic_and_frequency_ordered():
    streams = [["b", "a", "a"], ["c", "b", "a"]]
    v1 = td.Vocab.build(streams)
    v2 = td.Vocab.build(streams)
    assert v1.id_to_token == v2.id_to_token
    base = len(td.RESERVED)
    # a(3) before b(2) before c(1); count desc then token asc
    assert v1.id_to_token[base:] == ["a", "b", "c"]


def test_dim_ids_distinct_and_unknown_rejected():
    v = td.Vocab.build([])
    ids = {v.dim_id(d) for d in td.DIMENSIONS}
    assert len(ids) == len(td.DIMENSIONS)
    with pytest.raises(td.DatasetError) as e:
        v.dim_id("xBogus")
    assert "xIntent" in str(e.value)


def test_load_dataset_basic(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({"event": "PersonX runs away from home",
                             "dimension": "xIntent",
                             "inferences": ["to leave his home"]}) + "\n")
    examples, groups = td.load_dataset(p)
    assert len(examples) == 1 and len(groups) == 1
    assert examples[0].event_tokens == ("personx", "runs", "away", "from", "home")
    assert examples[0].inference_tokens == ("to", "leave", "his", "home")


def test_load_dataset_three_inferences_one_group(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({"event": "PersonX naps", "dimension": "xReact",
                             "inferences": ["rested", "calm", "groggy"]}) + "\n")
    examples, groups = td.load_dataset(p)
    assert len(examples) == 3
    assert len(groups) == 1 and len(groups[0].members) == 3


def test_load_dataset_malformed_line_names_line_number(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"event": "ok", "dimension": "xIntent", "inferences": ["x"]}\n'
                 "not json\n")
    with pytest.raises(td.DatasetError) as e:
        td.load_dataset(p)
    assert ":2:" in str(e.value)


def test_load_dataset_unknown_dimension_lists_valid(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(json.dumps({"event": "e", "dimension": "sideways",
                             "inferences": ["x"]}) + "\n")
    with pytest.raises(td.DatasetError) as e:
        td.load_dataset(p)
    msg = str(e.value)
    assert "sideways" in msg and "xIntent" in msg and "oWant" in msg


def test_truncation_limits():
    ex = td.make_example("word " * 100, "xIntent", "w " * 50)
    assert len(ex.event_tokens) == td.MAX_EVENT_TOKENS
    assert len(ex.inference_tokens) == td.MAX_INFERENCE_TOKENS


def test_group_sizes_sum_to_example_count(tmp_path):
    make_toy_dataset(3, 12, 3, tmp_path)
    examples, groups = td.load_dataset(tmp_path / "dataset.jsonl")
    assert sum(len(g.members) for g in groups) == len(examples)


# --- toy dataset -----------------------------------------------------------

def test_toy_dataset_byte_identical_for_same_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    make_toy_dataset(11, 16, 3, a)
    make_toy_dataset(11, 16, 3, b)
    for name in ("dataset.jsonl", "train.jsonl", "dev.jsonl", "corpus.txt",
                 "meta.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = tmp_path / "c"
    make_toy_dataset(12, 16, 3, c)
    assert (a / "corpus.txt").read_bytes() != (c / "corpus.txt").read_bytes()


# sha256 of each file make_toy_dataset(0, 200, 8, ...) writes: the size the
# train and decode benchmarks build
TOY_200_SHA256 = {
    "corpus.txt": "825000a72ff1045a56a70198ecf53dc72fce77080d40ad9cd0f1cda9e9b020c7",
    "dataset.jsonl": "5b4bbac19887e4032c2c7f970ce8fd37432d47e33cd8d13def72f22c5ea4ecdf",
    "dev.jsonl": "988af7326fc45aef0524c2506dd08ca6335221a9efeabf1dbd56ece600b13341",
    "meta.jsonl": "b5f463615445182a21b47bffaf390792623a10374c8a8e02d1f87f4f5c3ae6cc",
    "train.jsonl": "46ef6ef3663019bbb65b6a4f5e9a36a05507090c18bbd93800909c7901c62bdc",
}


def test_toy_dataset_bytes_are_pinned(tmp_path):
    make_toy_dataset(0, 200, 8, tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == TOY_200_SHA256


def test_toy_events_appear_verbatim_in_corpus(tmp_path):
    make_toy_dataset(5, 20, 4, tmp_path)
    corpus = (tmp_path / "corpus.txt").read_text().splitlines()
    header, events = load_toy_meta(tmp_path / "meta.jsonl")
    for ev in events:
        assert ev["event"] in corpus[ev["planted_doc"]]
        assert any(ev["event"] in line for line in corpus)
        if ev["herring_doc"] >= 0:
            assert ev["event"] in corpus[ev["herring_doc"]]


_HEADER = '{"kind": "header", "seed": 1}\n'
_EVENT = '{"kind": "event", "event": "personx waits"}\n'


@pytest.mark.parametrize("text, where", [
    ("", ":1:"),
    (_EVENT + _EVENT, ":1:"),
    (_HEADER + _EVENT + '{"kind": "event",\n', ":3:"),
    (_HEADER + "[1, 2]\n", ":2:"),
    (_HEADER + _EVENT + _HEADER, ":3:"),
], ids=["empty", "headerless", "malformed", "list_line", "second_header"])
def test_toy_meta_rejects_a_bad_file_naming_file_and_line(tmp_path, text, where):
    path = tmp_path / "meta.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(td.DatasetError) as e:
        load_toy_meta(path)
    assert f"{path}{where}" in str(e.value)


def test_toy_mean_inferences_matches_counting_oracle(tmp_path):
    make_toy_dataset(7, 18, 3, tmp_path)
    header, _ = load_toy_meta(tmp_path / "meta.jsonl")
    examples, groups = td.load_dataset(tmp_path / "dataset.jsonl")
    assert len(groups) == 18
    oracle_mean = len(examples) / len(groups)
    assert abs(header["mean_inferences"] - oracle_mean) < 1e-12


def test_toy_clusters_recoverable_by_bag_of_words_oracle(tmp_path):
    make_toy_dataset(9, 24, 4, tmp_path)
    _, events = load_toy_meta(tmp_path / "meta.jsonl")
    by_event = {e["event"]: e["cluster"] for e in events}
    examples, _ = td.load_dataset(tmp_path / "dataset.jsonl")
    labels = [by_event[ex.event_raw] for ex in examples]
    vocab = sorted({t for ex in examples for t in ex.inference_tokens})
    tix = {t: i for i, t in enumerate(vocab)}
    X = np.zeros((len(examples), len(vocab)))
    for r, ex in enumerate(examples):
        for t in ex.inference_tokens:
            X[r, tix[t]] += 1.0
    centroids = np.stack([X[np.array(labels) == c].mean(axis=0)
                          for c in range(4)])
    pred = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(-1).argmin(1)
    purity = float((pred == np.array(labels)).mean())
    assert purity >= 0.9


def test_toy_split_covers_every_cluster(tmp_path):
    make_toy_dataset(13, 24, 4, tmp_path)
    _, events = load_toy_meta(tmp_path / "meta.jsonl")
    for split in ("train", "dev"):
        clusters = {e["cluster"] for e in events if e["split"] == split}
        assert clusters == set(range(4))


def test_toy_rejects_too_few_clusters(tmp_path):
    with pytest.raises(ValueError, match="n_clusters"):
        make_toy_dataset(1, 8, 1, tmp_path / "toy")
    assert not (tmp_path / "toy").exists()


@pytest.mark.parametrize("n_events, n_clusters, what", [
    (0, 3, "n_events"), (-2, 3, "n_events"), (8, 9, "n_clusters"),
], ids=["no-events", "negative-events", "more-clusters-than-themes"])
def test_toy_rejects_bad_arguments_before_writing(tmp_path, n_events,
                                                  n_clusters, what):
    # unchecked, no events divides by zero once every data file is written
    with pytest.raises(ValueError, match=what):
        make_toy_dataset(1, n_events, n_clusters, tmp_path / "toy")
    assert not (tmp_path / "toy").exists()
