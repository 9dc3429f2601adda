import hashlib
import math
import struct
import warnings
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eviq import retrieval as rt
from eviq.container import ContainerError, write_container
from eviq.textdata import EMPTY, tokenize
from eviq.toydata import make_toy_dataset

DOCS3 = ["the cat sat on the mat",
         "the dog chased the cat around",
         "a bird flew over the quiet harbor"]


def brute_bm25(docs, query_terms, doc_id, k1=rt.K1, b=rt.B):
    """Direct transcription of the scoring formula, independent of the index."""
    toks = [tokenize(d) for d in docs]
    n = len(docs)
    avgdl = sum(len(t) for t in toks) / n
    score = 0.0
    for term in query_terms:
        df = sum(1 for t in toks if term in t)
        if df == 0:
            continue
        idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
        tf = toks[doc_id].count(term)
        dl = len(toks[doc_id])
        score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))
    return score


@pytest.fixture()
def idx3():
    return rt.InvertedIndex(DOCS3)


def test_bm25_matches_brute_force_formula(idx3):
    for q in (["cat"], ["cat", "the"], ["dog", "harbor"], ["missing"],
              ["cat", "cat"]):
        for d in range(3):
            assert idx3.bm25_score(q, d) == pytest.approx(
                brute_bm25(DOCS3, q, d), abs=1e-9)


def test_idf_formula(idx3):
    # "cat" in 2 of 3 docs
    cat = math.log((3 - 2 + 0.5) / (2 + 0.5) + 1.0)
    assert rt._idf(3, 2) == pytest.approx(cat, abs=1e-12)
    assert rt._idf(3, 0) == pytest.approx(math.log(3.5 / 0.5 + 1.0))
    # doc 0 holds "cat" once, so its one-term score is the idf times 2.2 / (1 + norm)
    norm = rt.K1 * (1 - rt.B + rt.B * idx3.doc_lengths[0] / idx3.avg_doc_length)
    assert idx3.bm25_score(["cat"], 0) == pytest.approx(cat * (rt.K1 + 1) / (1 + norm), abs=1e-12)
    assert idx3.bm25_score(["absent"], 0) == 0.0


def test_ranking_matches_score_all_then_sort(idx3):
    q = ["cat", "mat", "dog"]
    scored = sorted(((idx3.bm25_score(q, d), d) for d in range(3)),
                    key=lambda t: (-t[0], t[1]))
    want = [d for s, d in scored if s > 0]
    got = [it.doc_id for it in idx3.search_topk("cat mat dog", k=3).retrieved]
    assert got == want


def test_tie_break_is_ascending_doc_id():
    idx = rt.InvertedIndex(["same words here", "same words here",
                            "same words here"])
    got = [it.doc_id for it in idx.search_topk("same words", k=3).retrieved]
    assert got == [0, 1, 2]


def test_zero_score_docs_excluded(idx3):
    ev = idx3.search_topk("bird", k=3)
    assert [it.doc_id for it in ev.retrieved] == [2]
    assert all(it.score > 0 for it in ev.retrieved)


def test_empty_placeholder_always_last(idx3):
    for query in ("cat", "zzz nothing matches"):
        ev = idx3.search_topk(query, k=3)
        last = ev.items[-1]
        assert last.doc_id == rt.EMPTY_DOC_ID
        assert last.tokens == (EMPTY,)
        assert all(it.doc_id != rt.EMPTY_DOC_ID for it in ev.retrieved)


def test_k_zero_yields_only_placeholder(idx3):
    ev = idx3.search_topk("cat", k=0)
    assert len(ev.items) == 1 and ev.items[0].doc_id == rt.EMPTY_DOC_ID


def test_negative_k_rejected(idx3):
    with pytest.raises(ValueError):
        idx3.search_topk("cat", k=-1)


BAD_KS = [-1, 2.5, 3.0, "3", None, True, False, np.True_, np.float64(2.0), np.int64(-2)]


@pytest.mark.parametrize("k", BAD_KS, ids=repr)
def test_search_topk_rejects_a_k_that_is_not_a_non_negative_integer(idx3, k):
    with pytest.raises(rt.IndexError_, match="non-negative integer"):
        idx3.search_topk("cat", k)
    with pytest.raises(rt.IndexError_):
        idx3.search_topk("zzqx unknown", k)   # no query term in the index


@pytest.mark.parametrize("k", BAD_KS, ids=repr)
def test_retrieval_cache_rejects_a_bad_k_before_creating_anything(tmp_path, idx3, k):
    cache_dir = tmp_path / "cache"
    with pytest.raises(rt.IndexError_, match="non-negative integer"):
        rt.RetrievalCache(idx3, k, cache_dir)
    assert not cache_dir.exists()


@pytest.mark.parametrize("k", [np.int64(2), np.uint8(2), np.int32(0)], ids=repr)
def test_numpy_integer_k_is_accepted(tmp_path, idx3, k):
    assert _exact(idx3.search_topk("the cat", k)) == _exact(idx3.search_topk("the cat", int(k)))
    cache = rt.RetrievalCache(idx3, k, tmp_path)
    assert cache.k == int(k) and type(cache.k) is int
    assert cache.path.name.endswith(f"-k{int(k)}-v3.txt")
    assert np.array_equal(cache.get("the cat").doc_ids, idx3.search_topk("the cat", k).doc_ids)


def test_stopwords_dropped_from_event_query(idx3):
    assert idx3.event_query("The cat and the mat") == ["cat", "mat"]
    # an all-stopword event retrieves nothing but still gets the placeholder
    ev = idx3.search_topk("the and of", k=3)
    assert len(ev.retrieved) == 0 and ev.items[-1].doc_id == rt.EMPTY_DOC_ID


def test_stopword_list_pinned():
    assert len(rt.STOPWORDS) == 33
    assert {"the", "and", "will", "such"} <= rt.STOPWORDS
    assert "cat" not in rt.STOPWORDS


@settings(deadline=None, max_examples=25)
@given(st.integers(1, 3))
def test_topk_prefix_property(k):
    idx = rt.InvertedIndex(DOCS3)
    full = [it.doc_id for it in idx.search_topk("the cat dog mat", k=3).retrieved]
    pre = [it.doc_id for it in idx.search_topk("the cat dog mat", k=k).retrieved]
    assert pre == full[:k]


def test_evidence_truncated_to_limit():
    long_doc = "tide " * 100
    idx = rt.InvertedIndex([long_doc])
    ev = idx.search_topk("tide", k=1)
    assert len(ev.retrieved[0].tokens) == rt.MAX_EVIDENCE_TOKENS


def test_evidence_items_share_the_docs_token_tuples():
    idx = rt.InvertedIndex(["a short tide", "tide " * 100])
    ev = idx.evidence_set([0, 1], [2.0, 1.0])
    fits, cut = ev.retrieved
    assert fits.tokens is idx.doc_tokens[0]
    assert cut.tokens == idx.doc_tokens[1][:rt.MAX_EVIDENCE_TOKENS]
    assert len(cut.tokens) == rt.MAX_EVIDENCE_TOKENS < len(idx.doc_tokens[1])
    # every set ends with one shared placeholder object
    assert idx.search_topk("tide", k=2).items[-1] is ev.items[-1]
    assert idx.evidence_set([], []).items[-1] is ev.items[-1]


def test_empty_corpus_rejected():
    with pytest.raises(rt.IndexError_):
        rt.InvertedIndex([])


def test_doc_with_a_lone_surrogate_rejected_naming_it():
    # such a doc has no UTF-8 form, so save could not write it nor
    # fingerprint digest it
    with pytest.raises(rt.IndexError_, match="doc 1 is not UTF-8 text: surrogates"):
        rt.InvertedIndex(["the cat sat", "cat \ud800 sat"])


def test_save_load_round_trip(tmp_path, idx3):
    p = tmp_path / "probe.evqi"
    idx3.save(p)
    back = rt.InvertedIndex.load(p)
    assert back.raw_docs == idx3.raw_docs
    assert back.avg_doc_length == idx3.avg_doc_length
    assert list(back.postings) == list(idx3.postings) and all(
        np.array_equal(back.postings[t], idx3.postings[t]) for t in idx3.postings)
    assert back.fingerprint() == idx3.fingerprint()
    q = ["cat", "mat"]
    for d in range(3):
        assert back.bm25_score(q, d) == idx3.bm25_score(q, d)


def test_corrupted_index_rejected(tmp_path, idx3):
    p = tmp_path / "probe.evqi"
    idx3.save(p)
    raw = bytearray(p.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(ContainerError):
        rt.InvertedIndex.load(p)


def test_build_from_toy_corpus_and_planted_doc_ranks_high(tmp_path):
    make_toy_dataset(21, 16, 3, tmp_path / "toy")
    idx = rt.InvertedIndex.build(tmp_path / "toy" / "corpus.txt")
    from eviq.toydata import load_toy_meta
    _, events = load_toy_meta(tmp_path / "toy" / "meta.jsonl")
    for ev in events:
        got = [it.doc_id for it in idx.search_topk(ev["event"], k=45).retrieved]
        assert ev["planted_doc"] in got
        top1 = got[0]
        if ev["herring_doc"] >= 0:
            assert top1 == ev["herring_doc"]
        else:
            assert top1 == ev["planted_doc"]


def test_retrieval_cache_hits_memo_and_disk(tmp_path, idx3):
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path / "cache")
    a = cache.get("the cat")
    b = cache.get("the cat")
    assert [i.doc_id for i in a.items] == [i.doc_id for i in b.items]
    # a fresh cache instance must find the on-disk entries
    cache2 = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path / "cache")
    c = cache2.get("the cat")
    assert [i.doc_id for i in c.items] == [i.doc_id for i in a.items]
    assert [i.score for i in c.items] == [i.score for i in a.items]


def test_corpora_that_join_alike_get_their_own_fingerprint_and_cache(tmp_path):
    # one text split at two different newlines: the docs joined by newlines
    # read the same, but "mat" is in doc 0 of one corpus and doc 1 of the other
    corpora = rt.InvertedIndex(["cat sat\nmat", "dog"]), rt.InvertedIndex(["cat sat", "mat\ndog"])
    assert corpora[0].fingerprint() != corpora[1].fingerprint()
    paths = set()
    for idx, doc in zip(corpora, (0, 1)):
        cache = rt.RetrievalCache(idx, k=2, cache_dir=tmp_path)
        paths.add(cache.path)
        hit = cache.get("mat")
        assert hit.doc_ids.tolist() == [doc]
        assert _exact(hit) == _exact(idx.search_topk("mat", 2))
    assert len(paths) == 2


def test_reloaded_cache_returns_the_sets_it_wrote(tmp_path):
    make_toy_dataset(4, 24, 4, tmp_path / "toy")
    idx = rt.InvertedIndex.build(tmp_path / "toy" / "corpus.txt")
    from eviq.toydata import load_toy_meta
    _, events = load_toy_meta(tmp_path / "toy" / "meta.jsonl")
    cache = rt.RetrievalCache(idx, k=rt.DEFAULT_TOP_K, cache_dir=tmp_path / "cache")
    wrote = {ev["event"]: cache.get(ev["event"]) for ev in events}
    again = rt.RetrievalCache(idx, k=rt.DEFAULT_TOP_K, cache_dir=tmp_path / "cache")
    assert again._memo.keys() == wrote.keys()
    for event, es in wrote.items():
        back = again.get(event)
        assert _exact(back) == _exact(es)
        assert [it.tokens for it in back.items] == [it.tokens for it in es.items]


def test_retrieval_cache_rejects_an_event_with_a_lone_surrogate(tmp_path, idx3,
                                                               monkeypatch):
    # the event has no UTF-8 form for its record, so nothing is searched,
    # kept or appended
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    cache.get("the cat")
    wrote, memo = cache.path.read_bytes(), dict(cache._memo)
    searched = []
    monkeypatch.setattr(idx3, "search_topk", lambda *args: searched.append(args))
    with pytest.raises(rt.IndexError_, match="event 'cat \\\\ud800' is not UTF-8"):
        cache.get("cat \ud800")
    assert searched == [] and cache._memo == memo
    assert cache.path.read_bytes() == wrote


def test_retrieval_cache_truncates_torn_final_line(tmp_path, idx3):
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    want = [i.doc_id for i in cache.get("the cat").items]
    whole = cache.path.read_bytes()
    # a record cut inside its doc ids, before its newline
    cache.path.write_bytes(whole + b"1a2b3c4d 74686520646f67 010")
    again = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    assert cache.path.read_bytes() == whole
    assert [i.doc_id for i in again.get("the cat").items] == want
    again.get("the dog")  # appends cleanly after the cut
    assert len(rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)._memo) == 2


def _fields(event: str, doc_ids, scores) -> list:
    # a record's three fields as the cache writes them
    return [event.encode("utf-8").hex(),
            np.asarray(doc_ids, dtype=np.int64).astype("<u4").tobytes().hex(),
            np.asarray(scores, dtype="<f8").tobytes().hex()]


DOG = _fields("the dog", [1], [1.0])


def _line(fields) -> bytes:
    # a line under a valid checksum: CRC-32 of the fields joined by spaces,
    # a space, the fields
    text = " ".join(fields).encode("ascii")
    return b"%08x %s\n" % (zlib.crc32(text), text)


def _append_record(path, fields):
    with open(path, "ab") as fh:
        fh.write(_line(fields))


def _reload_error(idx, cache_dir):
    with pytest.raises(rt.IndexError_) as e:
        rt.RetrievalCache(idx, k=3, cache_dir=cache_dir)
    return str(e.value)


def test_retrieval_cache_corrupt_inner_line_names_file_and_line(tmp_path, idx3):
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    cache.get("the cat")
    cache.path.write_bytes(_line(DOG[:2]) + cache.path.read_bytes())  # no scores
    err = _reload_error(idx3, tmp_path)
    assert cache.path.name in err and "line 1" in err and "corrupt cache record" in err


@pytest.mark.parametrize("doc_id", [-1, 3])
def test_retrieval_cache_rejects_doc_id_outside_index(tmp_path, idx3, doc_id):
    # -1 is written as the uint32 0xffffffff
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    cache.get("the cat")
    _append_record(cache.path, _fields("the dog", [1, doc_id], [2.0, 1.0]))
    err = _reload_error(idx3, tmp_path)
    assert cache.path.name in err and "line 2" in err
    assert f"doc id {doc_id % 2 ** 32} outside 0..2" in err


@pytest.mark.parametrize("fields, why", [
    ([*DOG[:2], "oops"], "corrupt cache record"),
    (_fields("the dog", [1], [math.nan]), "score nan is not finite"),
    (_fields("the dog", [1, 0], [2.0, -math.inf]), "score -inf is not finite"),
    ([DOG[0], "01", DOG[2]], "1 bytes of doc ids and 8 of scores"),
    ([DOG[0], DOG[1] * 2, DOG[2]], "8 bytes of doc ids and 8 of scores"),
    ([DOG[0], DOG[1], DOG[2] + "00"], "4 bytes of doc ids and 9 of scores"),
    ([DOG[0], DOG[1][:-1], DOG[2]], "corrupt cache record"),
    ([DOG[0] + "0", *DOG[1:]], "corrupt cache record"),
    ([DOG[0], DOG[1], DOG[2][:-2] + "zz"], "corrupt cache record"),
    (["ff", *DOG[1:]], "corrupt cache record"),
    ([*DOG, ""], "corrupt cache record"),
], ids=["str-score", "nan-score", "minus-inf-score", "one-byte-doc-id", "more-ids-than-scores",
        "score-not-8-bytes", "odd-length-ids", "odd-length-event", "non-hex-score",
        "event-not-utf8", "extra-field"])
def test_retrieval_cache_rejects_mistyped_hit(tmp_path, idx3, fields, why):
    # each line carries a valid checksum, so only the field checks can catch it
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    cache.get("the cat")
    _append_record(cache.path, fields)
    err = _reload_error(idx3, tmp_path)
    assert cache.path.name in err and "line 2" in err and why in err


def test_retrieval_cache_checksum_catches_a_flipped_doc_id(tmp_path, idx3):
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    cache.get("the cat")
    cache.get("the dog")
    data = cache.path.read_bytes()
    dog = " %s " % DOG[1]            # "the dog" hits doc 1 only
    assert data.count(dog.encode()) == 1
    cache.path.write_bytes(data.replace(dog.encode(), b" 02000000 "))
    err = _reload_error(idx3, tmp_path)
    assert cache.path.name in err and "line 2" in err and "checksum" in err


def test_retrieval_cache_writes_one_ascii_line_per_record_and_round_trips(tmp_path):
    docs = ["the café opened early", "a naïve cat met a café owner", "猫 sat in the café"]
    idx = rt.InvertedIndex(docs)
    events = ["PersonX visits the café", "猫 and café", "naïve", "", "zzqx"]
    cache = rt.RetrievalCache(idx, k=2, cache_dir=tmp_path)
    wrote = {e: cache.get(e) for e in events}
    data = cache.path.read_bytes()
    assert data.isascii() and data.count(b"\n") == len(events) and data.endswith(b"\n")
    for line, event in zip(data.splitlines(), events):
        fields = line.split(b" ")
        assert len(fields) == 4 and bytes.fromhex(fields[1].decode()).decode("utf-8") == event
    again = rt.RetrievalCache(idx, k=2, cache_dir=tmp_path)
    assert list(again._memo) == events
    for event, es in wrote.items():
        back = again.get(event)
        assert _exact(back) == _exact(es)
        assert [it.tokens for it in back.items] == [it.tokens for it in es.items]
    assert cache.path.read_bytes() == data


def test_retrieval_cache_leaves_a_v2_file_alone(tmp_path, idx3):
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    v2 = cache.path.with_name(cache.path.name.replace("-v3.txt", "-v2.txt"))
    assert v2 != cache.path
    # a JSON-era record and a torn tail: neither is read, cut nor appended to
    old = b'1a2b3c4d {"event": "the cat", "hits": [[0, 1.0]]}\n{"event": "the d'
    v2.write_bytes(old)
    again = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    assert again._memo == {}
    again.get("the cat")
    assert v2.read_bytes() == old and cache.path.read_bytes().count(b"\n") == 1


def test_retrieval_cache_cuts_a_short_write_back_off(tmp_path, idx3, monkeypatch):
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    cache.get("the cat")
    whole = cache.path.read_bytes()
    write = rt.os.write
    monkeypatch.setattr(rt.os, "write", lambda fd, data: write(fd, data[:10]))
    with pytest.raises(OSError) as e:
        cache.get("the dog")
    assert cache.path.name in str(e.value) and "wrote 10 of a" in str(e.value)
    assert cache.path.read_bytes() == whole and "the dog" not in cache._memo
    monkeypatch.undo()
    cache.get("the dog")
    assert list(rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)._memo) == ["the cat", "the dog"]


def _reference_search_topk(index, event, k):
    # the scorer search_topk replaced: walk every posting of every query
    # term, accumulate into a dict, sort the positive (score, doc id) pairs
    scores = {}
    for term in index.event_query(event):
        plist = index.postings.get(term)
        if plist is None:
            continue
        idf = rt._idf(index.n_docs, len(plist))
        for doc_id, tf in plist.tolist():
            dl = index.doc_lengths[doc_id]
            norm = rt.K1 * (1.0 - rt.B + rt.B * dl / index.avg_doc_length)
            scores[doc_id] = scores.get(doc_id, 0.0) + (
                idf * tf * (rt.K1 + 1.0) / (tf + norm))
    ranked = sorted(((s, d) for d, s in scores.items() if s > 0.0),
                    key=lambda p: (-p[0], p[1]))[:k]
    return [(d, s.hex(), int, float) for s, d in ranked]


def _exact(evidence):
    return [(it.doc_id, float.hex(it.score), type(it.doc_id), type(it.score))
            for it in evidence.retrieved]


TOPK_CASES = (0, 1, 45, 10**6)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_search_topk_matches_reference_scorer(tmp_path, seed):
    make_toy_dataset(seed, 24, 4, tmp_path / "toy")
    idx = rt.InvertedIndex.build(tmp_path / "toy" / "corpus.txt")
    from eviq.toydata import load_toy_meta
    _, events = load_toy_meta(tmp_path / "toy" / "meta.jsonl")
    queries = [ev["event"] for ev in events]
    queries += [queries[0] + " " + queries[0],    # every term twice
                "zzqx " + queries[1], "zzqx",     # unknown term
                "the and of it", ""]              # nothing left to score
    # and a dense corpus over eight words: tf up to ~10, lengths 1..40
    rng = np.random.default_rng(seed)
    words = ["w%d" % i for i in range(8)]
    dense = rt.InvertedIndex([" ".join(rng.choice(words, rng.integers(1, 41)))
                              for _ in range(60)])
    dense_queries = [" ".join(rng.choice(words, rng.integers(1, 6))) for _ in range(20)]
    for index, qs in ((idx, queries), (dense, dense_queries)):
        for q in qs:
            for k in TOPK_CASES:
                got = index.search_topk(q, k)
                assert _exact(got) == _reference_search_topk(index, q, k)
            query = index.event_query(q)
            assert all(it.score == index.bm25_score(query, it.doc_id)
                       for it in got.retrieved)


def _python_float_weights(index):
    # bm25_score's term expression, posting by posting, in Python floats
    for term, plist in index.postings.items():
        for doc_id, tf in plist.tolist():
            norm = rt.K1 * (1.0 - rt.B + rt.B * index.doc_lengths[doc_id]
                            / index.avg_doc_length)
            yield rt._idf(index.n_docs, len(plist)) * tf * (rt.K1 + 1.0) / (tf + norm)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_posting_weights_are_the_scalar_arithmetic_and_survive_a_reload(tmp_path, seed):
    # the toy corpus and the dense eight-word corpus of the reference test
    make_toy_dataset(seed, 24, 4, tmp_path / "toy")
    idx = rt.InvertedIndex.build(tmp_path / "toy" / "corpus.txt")
    rng = np.random.default_rng(seed)
    words = ["w%d" % i for i in range(8)]
    dense = rt.InvertedIndex([" ".join(rng.choice(words, rng.integers(1, 41)))
                              for _ in range(60)])
    for index in (idx, dense):
        assert index._weights.tolist() == list(_python_float_weights(index))
        index.save(tmp_path / "index.evqi")
        back = rt.InvertedIndex.load(tmp_path / "index.evqi")
        assert np.array_equal(back._weights.view(np.int64), index._weights.view(np.int64))


@pytest.mark.parametrize("k", [1, 7, 45])
def test_search_topk_with_a_term_in_every_doc(k):
    # more than k docs score above zero on every query, many of them tied
    rng = np.random.default_rng(k)
    words = ["w%d" % i for i in range(8)]
    idx = rt.InvertedIndex(["common " + " ".join(rng.choice(words, rng.integers(0, 12)))
                            for _ in range(80)])
    for q in ("common", "common w1 w2", "w3 common common"):
        got = idx.search_topk(q, k)
        assert len(got.retrieved) == k
        assert _exact(got) == _reference_search_topk(idx, q, k)


@pytest.mark.parametrize("k", [1, 2, 5, 9, 12, 13, 14])
def test_search_topk_keeps_ties_straddling_the_cut(k):
    # doc 0 scores highest; the twelve copies after it tie, so a cut at k
    # lands inside the tie and must keep the lowest doc ids
    docs = ["alpha alpha beta"] + ["alpha beta"] * 12 + ["gamma"]
    idx = rt.InvertedIndex(docs)
    want = _reference_search_topk(idx, "alpha beta", k)
    assert _exact(idx.search_topk("alpha beta", k)) == want
    assert [d for d, *_ in want] == list(range(min(k, 13)))


def _bm25_brute_topk(index, event, k):
    # bm25_score for every doc, positive ones sorted by (score desc, doc id asc)
    query = index.event_query(event)
    scored = [(index.bm25_score(query, d), d) for d in range(index.n_docs)]
    ranked = sorted((p for p in scored if p[0] > 0.0), key=lambda p: (-p[0], p[1]))[:k]
    return [(d, s.hex(), int, float) for s, d in ranked]


@pytest.mark.parametrize("docs, event, k, n_hits", [
    (DOCS3, "cat dog bird", 4, 3),                     # k > n_docs, every doc scores
    (DOCS3, "cat dog", 10**6, 2),                      # k > n_docs, one doc does not
    (DOCS3, "cat", 2, 2),                              # k = the number of scoring docs
    (DOCS3, "cat", 3, 2),                              # one more than score
    (["alpha beta", "gamma alpha beta", "alpha beta", "alpha"], "alpha beta", 1, 1),  # 0 ties 2
    (["same words"] * 5, "same", 1, 1),                # every doc scores the same
    (["same words"] * 5, "same words", 3, 3),
    (["same words"] * 5, "words", 5, 5),
    (["same words"] * 5, "same", 6, 5),
], ids=["k-over-n-docs-all-score", "k-over-n-docs", "k-equals-scoring", "k-over-scoring",
        "k1-tie-at-top", "all-equal-k1", "all-equal-k3", "all-equal-k-n", "all-equal-k-over-n"])
def test_search_topk_threshold_boundaries(docs, event, k, n_hits):
    idx = rt.InvertedIndex(docs)
    got = _exact(idx.search_topk(event, k))
    assert got == _bm25_brute_topk(idx, event, k) and len(got) == n_hits


def _all_scores(index, event):
    query = index.event_query(event)
    return np.array([index.bm25_score(query, d) for d in range(index.n_docs)])


def test_search_topk_when_the_sampled_bound_is_the_kth_score():
    # 8k docs, so the strided sample is a strict subset; two docs score
    # above the rest, which all tie, so the sample's k-th score is the tie
    # score and the cut takes the lowest-id ties after the two
    k = 6
    docs = ["common filler"] * (8 * k)
    docs[13] = docs[30] = "common rare filler"
    idx = rt.InvertedIndex(docs)
    scores = _all_scores(idx, "common rare")
    assert rt._kth_bound(scores, k) == np.sort(scores)[-k]
    got = _exact(idx.search_topk("common rare", k))
    assert got == _bm25_brute_topk(idx, "common rare", k)
    assert [d for d, *_ in got] == [13, 30, 0, 1, 2, 3]


def test_search_topk_when_the_sampled_bound_is_below_the_kth_score():
    # 8k docs; the seven top scorers sit at odd ids, off the sample's
    # stride, so the sample's k-th score is below the true k-th score and
    # the docs above it are sorted; the cut falls inside a tie among them
    k = 5
    docs = ["beta " + "pad " * (i % 7) for i in range(8 * k)]
    for i, doc_id in enumerate((3, 9, 11, 17, 21, 25, 31)):
        docs[doc_id] = "alpha alpha beta" if i % 3 == 0 else "alpha beta pad"
    idx = rt.InvertedIndex(docs)
    scores = _all_scores(idx, "alpha beta")
    kth = np.sort(scores)[-k]
    assert rt._kth_bound(scores, k) < kth and (scores > rt._kth_bound(scores, k)).sum() >= k
    got = _exact(idx.search_topk("alpha beta", k))
    assert got == _bm25_brute_topk(idx, "alpha beta", k)
    assert [d for d, *_ in got] == [3, 17, 31, 9, 11]


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n_docs=st.integers(1, 400),
       everywhere=st.booleans(),
       query=st.lists(st.sampled_from(["common", "w1", "w3", "w5", "w7", "nowhere"]),
                      min_size=1, max_size=6).map(" ".join))
@example(seed=0, n_docs=300, everywhere=True, query="w3 common w3 common")
@example(seed=1, n_docs=400, everywhere=True, query="w5 w3 common")
@example(seed=2, n_docs=50, everywhere=False, query="w1 w7")
@example(seed=3, n_docs=200, everywhere=True, query="nowhere w7")
def test_search_topk_adds_terms_in_query_order_to_the_bit(seed, n_docs, everywhere, query):
    # "common" is in every doc when everywhere holds, so its postings are
    # the dense 0..n-1 row wherever it sits in the query; w7 is rare, so
    # fewer than k docs score on some queries
    rng = np.random.default_rng(seed)
    words = ["w%d" % i for i in range(7)]
    docs = []
    for _ in range(n_docs):
        doc = list(rng.choice(words, rng.integers(0, 9)))
        if everywhere or rng.random() < 0.5:
            doc += ["common"] * int(rng.integers(1, 3))
        if rng.random() < 0.02:
            doc.append("w7")
        docs.append(" ".join(doc) or "w0")
    idx = rt.InvertedIndex(docs)
    ranked = _bm25_brute_topk(idx, query, n_docs)
    for k in sorted({0, 1, n_docs - 1, n_docs, n_docs + 3}):
        got = idx.search_topk(query, k)
        assert _exact(got) == ranked[:k]
        assert got.scores.tobytes() == np.array([float.fromhex(h) for _, h, *_ in ranked[:k]]).tobytes()


def test_evidence_items_are_immutable_named_fields():
    a = rt.EvidenceItem(doc_id=1, tokens=("cat",), score=2.5)
    assert a == rt.EvidenceItem(1, ("cat",), 2.5) and a != rt.EvidenceItem(1, ("cat",), 2.0)
    assert (a.doc_id, a.tokens, a.score) == (1, ("cat",), 2.5)
    assert len({a, rt.EvidenceItem(1, ("cat",), 2.5)}) == 1
    with pytest.raises(AttributeError):
        a.score = 3.0


def _index_payload(texts, sizes=None, n_docs=None):
    # a version-3 index payload assembled by hand: the doc count, one uint32
    # byte size per doc, then the texts; sizes and count default to the texts'
    sizes = [len(t) for t in texts] if sizes is None else sizes
    n_docs = len(sizes) if n_docs is None else n_docs
    return (struct.pack("<I", n_docs) + np.asarray(sizes, dtype="<u4").tobytes()
            + b"".join(texts))


def _index_file(path, payload):
    write_container(path, rt._MAGIC, rt._VERSION, payload)
    return path


LOAD_DOCS = ["cat sat", "naïve 猫\n", ""]


def test_hand_built_payload_loads_like_the_built_index(tmp_path):
    p = _index_file(tmp_path / "hand.evqi", _index_payload([d.encode() for d in LOAD_DOCS]))
    back, built = rt.InvertedIndex.load(p), rt.InvertedIndex(LOAD_DOCS)
    assert back.raw_docs == LOAD_DOCS and back.doc_tokens == built.doc_tokens
    assert list(back.postings) == list(built.postings) == ["cat", "na", "sat", "ve", "ï", "猫"]
    assert np.array_equal(back._postings, built._postings)
    assert _exact(back.search_topk("cat 猫", 3)) == _exact(built.search_topk("cat 猫", 3))


@pytest.mark.parametrize("payload, why", [
    (b"\x02\x00\x00", "payload shorter than its doc count"),
    (_index_payload([]), "corpus is empty"),
    (_index_payload([b"cat", b"sat"], n_docs=4), "shorter than the size table of 4 docs"),
    (_index_payload([b"cat", b"sat"], sizes=[3, 5]), "doc sizes overrun the payload by 2 bytes"),
    (_index_payload([b"cat", b"sat"], sizes=[3, 1]), "2 bytes left after the last doc"),
    (_index_payload([b"cat", b"s\xffat"]), "not UTF-8"),
    (_index_payload(["é".encode()], sizes=[1, 1]), "not UTF-8"),  # a size splits a character
], ids=["short", "zero-docs", "table-past-payload", "sizes-overrun", "trailing-bytes",
        "not-utf8", "split-character"])
def test_load_rejects_malformed_payload(tmp_path, payload, why):
    p = _index_file(tmp_path / "bad.evqi", payload)
    with pytest.raises(rt.IndexError_) as e:
        rt.InvertedIndex.load(p)
    assert str(p) in str(e.value) and why in str(e.value)


def test_load_rejects_previous_format_version(tmp_path):
    # the docs "cat sat" and "cat" as version 2 wrote them: a JSON header,
    # then a payload carrying the term table and postings, under a valid digest
    payload = (struct.pack("<II", 2, 2) + np.array([7, 3, 3, 3, 2, 1], dtype="<u4").tobytes()
               + np.array([[0, 1], [1, 1], [0, 1]], dtype="<u4").tobytes() + b"cat satcatcatsat")
    body = (rt._MAGIC + struct.pack("<IQ", 2, 2) + b"{}"
            + struct.pack("<Q", len(payload)) + payload)
    p = tmp_path / "v2.evqi"
    p.write_bytes(body + hashlib.sha256(body).digest())
    with pytest.raises(ContainerError) as e:
        rt.InvertedIndex.load(p)
    assert "version 2" in str(e.value) and f"reads {rt._VERSION}" in str(e.value)


# sha256 of the file InvertedIndex(DOCS3).save writes, by index format
# version, and the line RetrievalCache(InvertedIndex(DOCS3), k=3) appends for
# "the cat", by cache file-name suffix: a layout change that does not bump
# its version fails here instead of misreading files written before it
INDEX_FILE_SHA256 = {
    3: "72fb3f7e5162409607151ca46db5814f7efdac05afa1a2460022d697f072fa1b",
}
CACHE_RECORD = {
    "-v3.txt": b"4c8d7160 74686520636174 0000000001000000"
               b" 03c1212efdbdde3f03c1212efdbdde3f\n",
}


def test_on_disk_formats_are_pinned_to_their_versions(tmp_path, idx3):
    idx3.save(tmp_path / "pinned.evqi")
    assert hashlib.sha256((tmp_path / "pinned.evqi").read_bytes()).hexdigest() \
        == INDEX_FILE_SHA256[rt._VERSION]
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    cache.get("the cat")
    name = cache.path.name
    assert cache.path.read_bytes() == CACHE_RECORD[name[name.rindex("-"):]]


def test_corpus_without_tokens_builds_and_searches(tmp_path):
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        idx = rt.InvertedIndex(["   ", "\t"])
        idx.save(tmp_path / "blank.evqi")
        for index in (idx, rt.InvertedIndex.load(tmp_path / "blank.evqi")):
            assert index.postings == {}
            ev = index.search_topk("anything at all", k=3)
            assert len(ev.items) == 1 and ev.items[0].doc_id == rt.EMPTY_DOC_ID


# --- array-backed evidence sets --------------------------------------------

CAP_DOCS = ["a short tide", "tide " * 100, "tide pool", "harbor pool"]


def _assert_items_as_built_eagerly(index, es):
    # items as they were built when every set made them at construction:
    # the hits' doc ids and scores as int and float, each doc's token tuple
    # (the tuple itself when within the cap), then the shared placeholder
    items = es.items
    assert [(it.doc_id, float.hex(it.score), type(it.doc_id), type(it.score))
            for it in items[:-1]] == [(d, float.hex(s), int, float) for d, s in
                                      zip(es.doc_ids.tolist(), es.scores.tolist())]
    for it in items[:-1]:
        doc = index.doc_tokens[it.doc_id]
        if len(doc) <= rt.MAX_EVIDENCE_TOKENS:
            assert it.tokens is doc
        else:
            assert it.tokens == doc[:rt.MAX_EVIDENCE_TOKENS]
    assert items[-1] is index.evidence_set([], []).items[-1]
    assert items[-1].doc_id == rt.EMPTY_DOC_ID and items[-1].tokens == (EMPTY,)
    assert es.items is items and es.retrieved == items[:-1]


def _assert_read_only(es):
    assert es.doc_ids.dtype == np.int64 and es.scores.dtype == np.float64
    for arr in (es.doc_ids, es.scores):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_searched_set_builds_items_as_before_and_stays_read_only():
    idx = rt.InvertedIndex(CAP_DOCS)
    es = idx.search_topk("tide pool", k=4)
    assert "items" not in vars(es)  # nothing built until read
    assert _exact(es) == _reference_search_topk(idx, "tide pool", 4)
    assert sorted(es.doc_ids.tolist()) == [0, 1, 2, 3]  # doc 1 is over the cap
    _assert_items_as_built_eagerly(idx, es)
    _assert_read_only(es)


def test_reloaded_set_builds_items_as_before_and_stays_read_only(tmp_path):
    idx = rt.InvertedIndex(CAP_DOCS)
    cache = rt.RetrievalCache(idx, k=4, cache_dir=tmp_path)
    wrote = {e: cache.get(e) for e in ("tide pool", "harbor", "zzqx")}
    again = rt.RetrievalCache(idx, k=4, cache_dir=tmp_path)
    assert not any("items" in vars(es) for es in again._memo.values())
    for event, es in wrote.items():
        back = again.get(event)
        assert back is not es and _exact(back) == _exact(es)
        _assert_items_as_built_eagerly(idx, back)
        if len(back.doc_ids):
            _assert_read_only(back)


def test_evidence_set_copies_the_callers_arrays():
    idx = rt.InvertedIndex(CAP_DOCS)
    ids, scores = np.array([3, 2]), np.array([2.0, 1.0])
    es = idx.evidence_set(ids, scores)
    ids[0], scores[0] = 0, 9.0  # the caller's arrays stay writable
    assert es.doc_ids.tolist() == [3, 2] and es.scores.tolist() == [2.0, 1.0]


def _postings_as_a_dict(index):
    # the public mapping as it used to be built: one (df, 2) uint32 array
    # of (doc id, tf) rows per term, terms sorted, doc ids ascending
    rows = {}
    for doc_id, toks in enumerate(index.doc_tokens):
        for term, tf in Counter(toks).items():
            rows.setdefault(term, []).append([doc_id, tf])
    return {t: np.array(rows[t], dtype="<u4").reshape(-1, 2) for t in sorted(rows)}


@pytest.mark.parametrize("docs", [DOCS3, CAP_DOCS, ["   ", "\t"]])
def test_postings_mapping_matches_the_old_dict(tmp_path, docs):
    built = rt.InvertedIndex(docs)
    built.save(tmp_path / "p.evqi")
    want = _postings_as_a_dict(built)
    for index in (built, rt.InvertedIndex.load(tmp_path / "p.evqi")):
        p = index.postings
        assert list(p) == list(want) and len(p) == len(want)
        assert (p == {}) == (not want)
        for term, rows in want.items():
            view = p[term]
            assert term in p and np.array_equal(p.get(term, ()), rows)
            assert view.dtype == rows.dtype and np.array_equal(view, rows)
            assert np.shares_memory(view, p[term])
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 1] = 7
        for missing in ("", "aaa", "zzzz", "cats"):
            assert missing not in p
            assert p.get(missing, ()) == () and p.get(missing) is None
            with pytest.raises(KeyError):
                p[missing]


def _assert_postings_are_the_dict(index):
    want = _postings_as_a_dict(index)
    assert list(index.postings) == list(want)
    for term, rows in want.items():
        assert np.array_equal(index.postings[term], rows)


# words, blanks and newlines to join into docs: repeated terms, non-ASCII
# letters the tokenizer splits off, possessives and punctuation
DOC_PIECES = ["cat", "Cat", "café", "猫", "naïve", "the", "'s", "x1", "-", " ", "  ", "\n", "\t"]


@settings(deadline=None, max_examples=60)
@given(docs=st.lists(st.lists(st.sampled_from(DOC_PIECES), max_size=14).map("".join)
                     | st.text(max_size=12), min_size=1, max_size=20),
       query=st.lists(st.sampled_from(DOC_PIECES[:6]), min_size=1, max_size=4).map(" ".join))
@example(docs=["", " ", "\n"], query="cat")
@example(docs=["cat cat\ncat", "猫 naïve café's", "cat\n"], query="cat cat 猫")
def test_saved_index_loads_as_the_built_one(tmp_path_factory, docs, query):
    built = rt.InvertedIndex(docs)
    path = tmp_path_factory.mktemp("round") / "index.evqi"
    built.save(path)
    back = rt.InvertedIndex.load(path)
    assert back.raw_docs == built.raw_docs == docs
    assert back.doc_tokens == built.doc_tokens
    for index in (built, back):
        _assert_postings_are_the_dict(index)
    assert back._weights.tobytes() == built._weights.tobytes()
    assert back.fingerprint() == built.fingerprint()
    assert _exact(back.search_topk(query, len(docs))) == _exact(built.search_topk(query, len(docs)))


def test_built_postings_are_the_dict_on_the_14k_event_toy_corpus(tmp_path):
    # the corpus size of the benchmark's retrieve workload, about 21k docs
    make_toy_dataset(5, 14000, 8, tmp_path / "toy")
    idx = rt.InvertedIndex.build(tmp_path / "toy" / "corpus.txt")
    assert idx.n_docs > 20000
    _assert_postings_are_the_dict(idx)
