import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eviq import retrieval as rt
from eviq.container import ContainerError
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
    assert idx3.idf("cat") == pytest.approx(
        math.log((3 - 2 + 0.5) / (2 + 0.5) + 1.0), abs=1e-12)
    assert idx3.idf("absent") == pytest.approx(math.log(3.5 / 0.5 + 1.0))


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
        assert last.is_empty and last.doc_id == rt.EMPTY_DOC_ID
        assert last.tokens == (EMPTY,)
        assert not any(it.is_empty for it in ev.retrieved)


def test_k_zero_yields_only_placeholder(idx3):
    ev = idx3.search_topk("cat", k=0)
    assert len(ev.items) == 1 and ev.items[0].is_empty


def test_negative_k_rejected(idx3):
    with pytest.raises(ValueError):
        idx3.search_topk("cat", k=-1)


def test_stopwords_dropped_from_event_query(idx3):
    assert idx3.event_query("The cat and the mat") == ["cat", "mat"]
    # an all-stopword event retrieves nothing but still gets the placeholder
    ev = idx3.search_topk("the and of", k=3)
    assert len(ev.retrieved) == 0 and ev.items[-1].is_empty


def test_stopword_list_pinned():
    assert rt.STOPWORD_VERSION == "english-33-v1"
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


def test_empty_corpus_rejected():
    with pytest.raises(rt.IndexError_):
        rt.InvertedIndex([])


def test_save_load_round_trip(tmp_path, idx3):
    p = tmp_path / "probe.evqi"
    idx3.save(p)
    back = rt.InvertedIndex.load(p)
    assert back.raw_docs == idx3.raw_docs
    assert back.avg_doc_length == idx3.avg_doc_length
    assert back.postings == idx3.postings
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


def test_retrieval_cache_hits_memo_and_disk(tmp_path, idx3, monkeypatch):
    monkeypatch.setenv("EVIQ_CACHE_DIR", str(tmp_path / "cache"))
    cache = rt.RetrievalCache(idx3, k=3)
    a = cache.get("the cat")
    b = cache.get("the cat")
    assert [i.doc_id for i in a.items] == [i.doc_id for i in b.items]
    # a fresh cache instance must find the on-disk entries
    cache2 = rt.RetrievalCache(idx3, k=3)
    c = cache2.get("the cat")
    assert [i.doc_id for i in c.items] == [i.doc_id for i in a.items]
    assert [i.score for i in c.items] == [i.score for i in a.items]


def test_retrieval_cache_truncates_torn_final_line(tmp_path, idx3):
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    want = [i.doc_id for i in cache.get("the cat").items]
    whole = cache.path.read_bytes()
    cache.path.write_bytes(whole + b'{"event": "the dog", "hits": [[1, 0.')
    again = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    assert cache.path.read_bytes() == whole
    assert [i.doc_id for i in again.get("the cat").items] == want
    again.get("the dog")  # appends cleanly after the cut
    assert len(rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)._memo) == 2


def test_retrieval_cache_corrupt_inner_line_names_file_and_line(tmp_path, idx3):
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    cache.get("the cat")
    cache.path.write_bytes(b"{not json\n" + cache.path.read_bytes())
    with pytest.raises(rt.IndexError_) as e:
        rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    assert cache.path.name in str(e.value) and "line 1" in str(e.value)


@pytest.mark.parametrize("doc_id", [-1, 3])
def test_retrieval_cache_rejects_doc_id_outside_index(tmp_path, idx3, doc_id):
    cache = rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    cache.get("the cat")
    with open(cache.path, "a", encoding="utf-8") as fh:
        fh.write('{"event": "the dog", "hits": [[%d, 1.0]]}\n' % doc_id)
    with pytest.raises(rt.IndexError_) as e:
        rt.RetrievalCache(idx3, k=3, cache_dir=tmp_path)
    assert cache.path.name in str(e.value) and "line 2" in str(e.value)
