"""Inverted-index BM25 retrieval over a one-paragraph-per-line corpus.

Queries are tokenized events with stop words removed.  Results always carry a
trailing empty placeholder item so downstream selection can prefer "no
evidence".  Okapi parameters k1=1.2, b=0.75 with the +1-inside-log idf.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

from .container import read_container, write_container
from .textdata import EMPTY, MAX_EVIDENCE_TOKENS, tokenize

K1 = 1.2
B = 0.75
DEFAULT_TOP_K = 45

STOPWORD_VERSION = "english-33-v1"
# the classic 33-word English analyzer default list
STOPWORDS = frozenset((
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
    "in", "into", "is", "it", "no", "not", "of", "on", "or", "such", "that",
    "the", "their", "then", "there", "these", "they", "this", "to", "was",
    "will", "with",
))

EMPTY_DOC_ID = -1

_MAGIC = b"EVQINDX1"
_VERSION = 1


class IndexError_(ValueError):
    pass


@dataclass(frozen=True)
class EvidenceItem:
    doc_id: int
    tokens: tuple
    raw: str
    score: float

    @property
    def is_empty(self) -> bool:
        return self.doc_id == EMPTY_DOC_ID


@dataclass(frozen=True)
class EvidenceSet:
    event: str
    items: tuple  # retrieved items in rank order, empty placeholder last

    @property
    def retrieved(self) -> tuple:
        return self.items[:-1]


def _empty_item() -> EvidenceItem:
    return EvidenceItem(doc_id=EMPTY_DOC_ID, tokens=(EMPTY,), raw="", score=0.0)


class InvertedIndex:
    """Immutable BM25 index: doc store, postings, lengths, average length."""

    def __init__(self, raw_docs: list[str]):
        if not raw_docs:
            raise IndexError_("corpus is empty, nothing to index")
        self.raw_docs = list(raw_docs)
        self.doc_tokens = [tokenize(d) for d in self.raw_docs]
        self.doc_lengths = [len(t) for t in self.doc_tokens]
        self.n_docs = len(self.raw_docs)
        self.avg_doc_length = sum(self.doc_lengths) / self.n_docs
        postings: dict[str, list] = {}
        for doc_id, toks in enumerate(self.doc_tokens):
            counts: dict[str, int] = {}
            for t in toks:
                counts[t] = counts.get(t, 0) + 1
            for term in sorted(counts):
                postings.setdefault(term, []).append((doc_id, counts[term]))
        # doc ids ascend by construction; keep term order sorted for determinism
        self.postings = {t: postings[t] for t in sorted(postings)}

    @classmethod
    def build(cls, corpus_path) -> "InvertedIndex":
        with open(corpus_path, encoding="utf-8") as fh:
            docs = [line.rstrip("\n") for line in fh]
        docs = [d for d in docs if d.strip()]
        return cls(docs)

    # --- persistence -------------------------------------------------------

    def save(self, path) -> None:
        parts = [struct.pack("<I", self.n_docs)]
        for raw in self.raw_docs:
            b = raw.encode("utf-8")
            parts.append(struct.pack("<I", len(b)))
            parts.append(b)
        parts.append(struct.pack(f"<{self.n_docs}I", *self.doc_lengths))
        parts.append(struct.pack("<I", len(self.postings)))
        for term, plist in self.postings.items():
            tb = term.encode("utf-8")
            parts.append(struct.pack("<H", len(tb)))
            parts.append(tb)
            parts.append(struct.pack("<I", len(plist)))
            for doc_id, tf in plist:
                parts.append(struct.pack("<II", doc_id, tf))
        payload = b"".join(parts)
        header = {"n_docs": self.n_docs, "avg_doc_length": self.avg_doc_length}
        write_container(path, _MAGIC, _VERSION, header, payload)

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        header, payload = read_container(path, _MAGIC, _VERSION)
        off = 0
        (n_docs,) = struct.unpack_from("<I", payload, off); off += 4
        raw_docs = []
        for _ in range(n_docs):
            (ln,) = struct.unpack_from("<I", payload, off); off += 4
            raw_docs.append(payload[off:off + ln].decode("utf-8")); off += ln
        lengths = list(struct.unpack_from(f"<{n_docs}I", payload, off))
        off += 4 * n_docs
        (n_terms,) = struct.unpack_from("<I", payload, off); off += 4
        postings: dict[str, list] = {}
        for _ in range(n_terms):
            (tl,) = struct.unpack_from("<H", payload, off); off += 2
            term = payload[off:off + tl].decode("utf-8"); off += tl
            (df,) = struct.unpack_from("<I", payload, off); off += 4
            plist = []
            for _ in range(df):
                doc_id, tf = struct.unpack_from("<II", payload, off); off += 8
                plist.append((doc_id, tf))
            postings[term] = plist
        idx = cls.__new__(cls)
        idx.raw_docs = raw_docs
        idx.doc_tokens = [tokenize(d) for d in raw_docs]
        idx.doc_lengths = lengths
        idx.n_docs = n_docs
        idx.avg_doc_length = header["avg_doc_length"]
        idx.postings = postings
        return idx

    def fingerprint(self) -> str:
        """Stable digest of the indexed corpus, for cache keys."""
        h = hashlib.sha256()
        for d in self.raw_docs:
            h.update(d.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()

    # --- scoring -----------------------------------------------------------

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        return math.log((self.n_docs - df + 0.5) / (df + 0.5) + 1.0)

    def term_frequency(self, term: str, doc_id: int) -> int:
        for d, tf in self.postings.get(term, ()):
            if d == doc_id:
                return tf
        return 0

    def bm25_score(self, query_terms, doc_id: int) -> float:
        """Okapi BM25 of one document; absent terms contribute zero."""
        if not 0 <= doc_id < self.n_docs:
            raise IndexError_(f"doc id {doc_id} outside 0..{self.n_docs - 1}")
        dl = self.doc_lengths[doc_id]
        norm = K1 * (1.0 - B + B * dl / self.avg_doc_length)
        score = 0.0
        for term in query_terms:
            tf = self.term_frequency(term, doc_id)
            if tf == 0:
                continue
            score += self.idf(term) * tf * (K1 + 1.0) / (tf + norm)
        return score

    def event_query(self, event: str) -> list[str]:
        return [t for t in tokenize(event) if t not in STOPWORDS]

    def search_topk(self, event: str, k: int = DEFAULT_TOP_K) -> EvidenceSet:
        """Top-k positive-scoring paragraphs for the event, plus the empty slot.

        Scores accumulate over postings so only candidate documents are
        touched; ranking is (score desc, doc id asc).
        """
        if k < 0:
            raise IndexError_(f"k must be >= 0, got {k}")
        query = self.event_query(event)
        scores: dict[int, float] = {}
        for term in query:
            plist = self.postings.get(term)
            if not plist:
                continue
            idf = self.idf(term)
            for doc_id, tf in plist:
                dl = self.doc_lengths[doc_id]
                norm = K1 * (1.0 - B + B * dl / self.avg_doc_length)
                scores[doc_id] = scores.get(doc_id, 0.0) + (
                    idf * tf * (K1 + 1.0) / (tf + norm))
        ranked = sorted(((s, d) for d, s in scores.items() if s > 0.0),
                        key=lambda p: (-p[0], p[1]))[:k]
        items = [
            EvidenceItem(doc_id=d,
                         tokens=tuple(self.doc_tokens[d][:MAX_EVIDENCE_TOKENS]),
                         raw=self.raw_docs[d], score=s)
            for s, d in ranked
        ]
        items.append(_empty_item())
        return EvidenceSet(event=event, items=tuple(items))


class RetrievalCache:
    """Per-(index, k) retrieval memo, optionally persisted as JSONL.

    The cache directory comes from the EVIQ_CACHE_DIR environment variable
    unless given explicitly; with neither, the cache is memory-only.
    """

    def __init__(self, index: InvertedIndex, k: int, cache_dir=None):
        self.index = index
        self.k = k
        self._memo: dict[str, EvidenceSet] = {}
        base = cache_dir if cache_dir is not None else os.environ.get("EVIQ_CACHE_DIR")
        self.path = None
        if base:
            Path(base).mkdir(parents=True, exist_ok=True)
            name = f"retrieval-{index.fingerprint()[:16]}-k{k}.jsonl"
            self.path = Path(base) / name
            self._load()

    def _load(self) -> None:
        """Read the persisted records.

        Every record is written with its newline, so trailing bytes without
        one were torn by a crash mid-append and are cut from the file.  Any
        other unreadable line, or a doc id outside the index, raises.
        """
        if self.path is None or not self.path.exists():
            return
        n_docs = self.index.n_docs
        data = self.path.read_bytes()
        *lines, torn = data.split(b"\n")
        if torn:
            os.truncate(self.path, len(data) - len(torn))
        for n, line in enumerate(lines, 1):
            try:
                rec = json.loads(line)
                event, hits = rec["event"], rec["hits"]
                doc_ids = [d for d, _ in hits]
            except (ValueError, KeyError, TypeError):
                raise IndexError_(
                    f"{self.path} line {n}: corrupt cache record") from None
            for d in doc_ids:
                if not (isinstance(d, int) and 0 <= d < n_docs):
                    raise IndexError_(f"{self.path} line {n}: doc id {d!r} "
                                      f"outside 0..{n_docs - 1}")
            items = [EvidenceItem(doc_id=d,
                                  tokens=tuple(self.index.doc_tokens[d][:MAX_EVIDENCE_TOKENS]),
                                  raw=self.index.raw_docs[d], score=s)
                     for d, s in hits]
            items.append(_empty_item())
            self._memo[event] = EvidenceSet(event=event, items=tuple(items))

    def get(self, event: str) -> EvidenceSet:
        hit = self._memo.get(event)
        if hit is None:
            hit = self.index.search_topk(event, self.k)
            self._memo[event] = hit
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps({
                        "event": event,
                        "hits": [[it.doc_id, it.score] for it in hit.retrieved],
                    }) + "\n")
        return hit
