"""Inverted-index BM25 retrieval over a one-paragraph-per-line corpus.

Queries are tokenized events with stop words removed.  Results always carry a
trailing empty placeholder item so downstream selection can prefer "no
evidence".  Okapi parameters k1=1.2, b=0.75 with the +1-inside-log idf.
A result is held as two read-only arrays, doc ids and scores, whether it
comes from a search or a cache reload; its EvidenceItems are built on the
first read of ``items`` and kept, so a result nothing reads builds none.

The index file holds only the doc texts, in a checksummed container (see
container.py); everything else is derived from them, and `load` hands the
texts to the constructor, the one place an index is built.  The constructor
derives the postings in one pass over the tokens: one flat (nnz, 2)
little-endian uint32 array of (doc id, tf) rows, term by term in sorted term
order, doc ids ascending within a term; one term -> row dict serves both
``postings``, which maps a term to its view of the array, and searches.  It
also computes every posting's BM25 weight once, idf * tf * (k1 + 1) / (tf +
norm), with the float operations of the scalar `bm25_score` in its order.  A search
adds its query terms' weights into one score buffer, term by term in query
order, so each doc's weights are summed from 0.0 in the order `bm25_score`
sums them and every score equals it to the bit.  Ranking is (score desc, doc
id asc).  The k-th largest score of a strided sample of the scores bounds the
k-th largest score from below; only the few docs above that bound are sorted,
and the docs tied at the k-th score are cut by doc id without being sorted.

An index's fingerprint is the sha256 of the index file's payload, so two
corpora share one only when their doc texts are equal, text for text.
`RetrievalCache` names its `-v3.txt` file after it and persists one ASCII
line per record: the CRC-32 of the rest of the line, then the event's UTF-8
bytes, the little-endian uint32 doc ids and the float64 score bits, each
hex-encoded.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
import struct
import zlib
from binascii import hexlify, unhexlify
from collections.abc import Mapping
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .container import read_container, write_container
from .textdata import EMPTY, MAX_EVIDENCE_TOKENS, tokenize

K1 = 1.2
B = 0.75
DEFAULT_TOP_K = 45

# the classic 33-word English analyzer default list
STOPWORDS = frozenset((
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
    "in", "into", "is", "it", "no", "not", "of", "on", "or", "such", "that",
    "the", "their", "then", "there", "these", "they", "this", "to", "was",
    "will", "with",
))

EMPTY_DOC_ID = -1

_MAGIC = b"EVQINDX1"
_VERSION = 3
_U32 = np.dtype("<u4")
_F64 = np.dtype("<f8")


class IndexError_(ValueError):
    pass


def _utf8(text: str, kind: str, name) -> bytes:
    """text's UTF-8 bytes; IndexError_ naming it when it has none, as text
    holding a lone surrogate has none."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise IndexError_(f"{kind} {name} is not UTF-8 text: {e.reason} at "
                          f"character {e.start}") from None


def _idf(n_docs: int, df: int) -> float:
    return math.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


class EvidenceItem(NamedTuple):
    doc_id: int
    tokens: tuple
    score: float


_PLACEHOLDER = EvidenceItem(doc_id=EMPTY_DOC_ID, tokens=(EMPTY,), score=0.0)


class EvidenceSet:
    """Retrieved hits in rank order: read-only int64 doc ids, float64 scores.

    ``items`` is built on its first read and kept: one EvidenceItem per hit,
    carrying its doc's token tuple cut to MAX_EVIDENCE_TOKENS (for a doc
    within the cap, the doc's own tuple, not a copy), then the shared empty
    placeholder.  The arrays are read-only because one set is handed to
    every caller that asks for its event.
    """

    def __init__(self, doc_ids, scores, doc_tokens: list):
        self.doc_ids = np.array(doc_ids, dtype=np.int64)
        self.scores = np.array(scores, dtype=np.float64)
        self.doc_ids.flags.writeable = self.scores.flags.writeable = False
        self._doc_tokens = doc_tokens

    @cached_property
    def items(self) -> tuple:
        ids, toks = self.doc_ids.tolist(), self._doc_tokens
        hits = zip(ids, [toks[d][:MAX_EVIDENCE_TOKENS] for d in ids], self.scores.tolist())
        # tuple.__new__ is what EvidenceItem._make calls, here without a
        # Python-level call per item
        return (*map(tuple.__new__, repeat(EvidenceItem), hits), _PLACEHOLDER)

    @property
    def retrieved(self) -> tuple:
        return self.items[:-1]


class _Postings(Mapping):
    """Read-only term -> postings mapping over the flat postings array.

    Iterates the terms in sorted order; a lookup returns the read-only
    (df, 2) view of the array at the term's row in the index's rank dict.
    """

    def __init__(self, rank: dict, bounds: list, flat: np.ndarray):
        self._rank, self._bounds, self._flat = rank, bounds, flat

    def __getitem__(self, term):
        i = self._rank[term]
        return self._flat[self._bounds[i]:self._bounds[i + 1]]

    def __iter__(self):
        return iter(self._rank)

    def __len__(self) -> int:
        return len(self._rank)


class InvertedIndex:
    """Immutable BM25 index: doc store, postings, lengths, average length.

    Built only by the constructor, from the doc texts: `build` reads them from
    a corpus file and `load` from a saved index.  Every posting is a (doc id,
    tf) row of one flat ``(nnz, 2)`` little-endian uint32 array, grouped by
    term in sorted term order, doc ids ascending within a term, so a term held
    by every doc has exactly the doc ids 0..n-1 and its weights are a dense
    row over the docs.  ``postings`` maps each term, in that order, to its
    read-only ``(df, 2)`` view of the array, made on each lookup.
    ``doc_tokens`` holds each doc's tokens as a tuple.  Each doc is encoded
    to UTF-8 once, here, for `save` and `fingerprint`; a doc with no UTF-8
    form raises IndexError_ naming it.
    """

    def __init__(self, raw_docs: list[str]):
        if not raw_docs:
            raise IndexError_("corpus is empty, nothing to index")
        self.raw_docs = list(raw_docs)
        self._doc_bytes = [_utf8(d, "doc", i) for i, d in enumerate(self.raw_docs)]
        self.doc_tokens = [tuple(tokenize(d)) for d in self.raw_docs]
        self.n_docs = n = len(self.raw_docs)
        self.doc_lengths = [len(t) for t in self.doc_tokens]
        self.avg_doc_length = sum(self.doc_lengths) / n
        tokens = list(chain.from_iterable(self.doc_tokens))
        terms = sorted(set(tokens))
        # term -> its row in sorted term order, iterated in that order
        self._rank = rank = dict(zip(terms, range(len(terms))))
        # one key per token, term rank major and doc id minor: the sorted
        # distinct keys are the postings in (term, doc id) order and their
        # counts are the tfs
        keys, counts = np.unique(np.fromiter(map(rank.__getitem__, tokens), np.int64, len(tokens))
                                 * n + np.repeat(np.arange(n), self.doc_lengths),
                                 return_counts=True)
        term_rank, doc_ids = np.divmod(keys, n)
        df = np.bincount(term_rank, minlength=len(terms))
        flat = np.empty((len(keys), 2), dtype=_U32)
        flat[:, 0], flat[:, 1] = doc_ids, counts
        flat.flags.writeable = False
        self._postings = flat
        # term i of the sorted terms holds postings bounds[i]:bounds[i + 1]
        self._bounds = [0] + np.cumsum(df).tolist()
        self.postings = _Postings(rank, self._bounds, flat)
        # K1 * (1 - B + B * dl / avgdl), the same float ops bm25_score makes;
        # a corpus with no tokens has no postings, so its norm is never read
        dl = np.asarray(self.doc_lengths, dtype=np.float64)
        norm = (K1 * (1.0 - B + B * dl / self.avg_doc_length)
                if self.avg_doc_length else np.zeros(n))
        # idf comes from math.log, as in bm25_score, once per distinct df;
        # the weight is bm25_score's term expression in its operation order
        dfs, inverse = np.unique(df, return_inverse=True)
        term_idf = np.array([_idf(n, d) for d in dfs.tolist()])[inverse]
        tf = flat[:, 1].astype(np.float64)
        self._weights = np.repeat(term_idf, df) * tf * (K1 + 1.0) / (tf + norm[flat[:, 0]])

    @classmethod
    def build(cls, corpus_path) -> "InvertedIndex":
        with open(corpus_path, encoding="utf-8") as fh:
            docs = [line.rstrip("\n") for line in fh]
        docs = [d for d in docs if d.strip()]
        return cls(docs)

    # --- persistence -------------------------------------------------------
    #
    # Payload: n_docs (uint32), the uint32 byte length of each doc's UTF-8
    # text, then the texts back to back.  Everything else is derived from the
    # texts, so load hands them to the constructor.

    def _payload(self) -> bytes:
        sizes = np.array([len(b) for b in self._doc_bytes], dtype=_U32)
        return b"".join([struct.pack("<I", self.n_docs), sizes.tobytes(),
                         *self._doc_bytes])

    def save(self, path) -> None:
        write_container(path, _MAGIC, _VERSION, self._payload())

    @classmethod
    def load(cls, path) -> "InvertedIndex":
        """Read a saved index; a payload that is not one raises IndexError_."""
        payload = read_container(path, _MAGIC, _VERSION)

        def bad(why: str) -> IndexError_:
            return IndexError_(f"{path}: {why}")

        if len(payload) < 4:
            raise bad("payload shorter than its doc count")
        (n_docs,) = struct.unpack_from("<I", payload)
        if n_docs == 0:
            raise bad("corpus is empty")
        start = 4 + 4 * n_docs
        if len(payload) < start:
            raise bad(f"payload of {len(payload)} bytes is shorter than the "
                      f"size table of {n_docs} docs")
        cuts = (np.cumsum(np.frombuffer(payload, _U32, n_docs, 4), dtype=np.int64)
                + start).tolist()
        if cuts[-1] > len(payload):
            raise bad(f"doc sizes overrun the payload by {cuts[-1] - len(payload)} bytes")
        if cuts[-1] < len(payload):
            raise bad(f"{len(payload) - cuts[-1]} bytes left after the last doc")
        try:
            raw_docs = [payload[a:b].decode("utf-8") for a, b in zip([start] + cuts, cuts)]
        except UnicodeDecodeError:
            raise bad("a doc text is not UTF-8") from None
        return cls(raw_docs)

    def fingerprint(self) -> str:
        """Stable digest of the indexed corpus, for cache keys: the sha256 of
        the payload `save` writes, whose doc sizes tell every split of the
        texts apart."""
        return hashlib.sha256(self._payload()).hexdigest()

    # --- scoring -----------------------------------------------------------

    def bm25_score(self, query_terms, doc_id: int) -> float:
        """Okapi BM25 of one document; absent terms contribute zero.

        Scalar and term by term: the reference search_topk is tested against.
        """
        if not 0 <= doc_id < self.n_docs:
            raise IndexError_(f"doc id {doc_id} outside 0..{self.n_docs - 1}")
        dl = self.doc_lengths[doc_id]
        norm = K1 * (1.0 - B + B * dl / self.avg_doc_length)
        score = 0.0
        for term in query_terms:
            plist = self.postings.get(term)
            if plist is None:
                continue
            i = int(np.searchsorted(plist[:, 0], doc_id))
            if i == len(plist) or plist[i, 0] != doc_id:
                continue
            tf = int(plist[i, 1])
            score += _idf(self.n_docs, len(plist)) * tf * (K1 + 1.0) / (tf + norm)
        return score

    def event_query(self, event: str) -> list[str]:
        return [t for t in tokenize(event) if t not in STOPWORDS]

    def evidence_set(self, doc_ids, scores) -> EvidenceSet:
        """The hits, in rank order, as a set over this index's doc tokens."""
        return EvidenceSet(doc_ids, scores, self.doc_tokens)

    def search_topk(self, event: str, k: int = DEFAULT_TOP_K) -> EvidenceSet:
        """Top-k positive-scoring paragraphs for the event, plus the empty slot.

        Each query term's precomputed weights, repeats included, are added
        into one float64 score buffer in query order, so each score is
        bm25_score's sum to the bit: a term held by every doc as one dense
        row, any other term at its doc ids.  Ranking is (score desc, doc id
        asc).  Only the docs strictly above `_kth_bound`'s lower bound on the
        k-th largest score are sorted; when fewer than k are, the bound is
        the k-th score.  The docs strictly above the k-th score come first,
        then the lowest-id docs tied at it, so the thousands of ties a term
        in most docs makes are never sorted.  Zero-scoring docs are never
        returned, so fewer than k come back when fewer than k docs score.
        """
        k = _check_k(k)
        # each query term's row in the sorted terms, repeats included
        rows = [i for i in map(self._rank.get, self.event_query(event))
                if i is not None]
        if not rows or not k:
            return self.evidence_set((), ())
        scores = np.zeros(self.n_docs)
        for i in rows:
            span = slice(self._bounds[i], self._bounds[i + 1])
            if span.stop - span.start == self.n_docs:
                scores += self._weights[span]
            else:
                np.add.at(scores, self._postings[span, 0], self._weights[span])
        # weights are positive, so a doc scores above zero exactly when it
        # holds a query term; kth is zero when fewer than k docs score
        kth = _kth_bound(scores, k)
        above = np.flatnonzero(scores > kth)
        if len(above) >= k:
            top = scores[above]
            kth = np.sort(top)[-k]
            above = above[top > kth]
        top = scores[above]
        ids = above[np.lexsort((above, -top))]
        if kth > 0:
            ids = np.concatenate((ids, _lowest_ties(scores, kth, k - len(ids))))
        return self.evidence_set(ids, scores[ids])


def _check_k(k) -> int:
    """k as an int; IndexError_ unless it is a non-negative integer (not a bool)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise IndexError_(f"k must be a non-negative integer, got {k!r}")
    return int(k)


def _kth_bound(scores: np.ndarray, k: int) -> float:
    """A lower bound on the k-th largest score, for k >= 1.

    The k-th largest of every (len // 4k)-th score, about 4k of them: at
    least k docs reach it.  Zero when the sample holds fewer than k scores.
    """
    sample = scores[::max(1, len(scores) // (4 * k))]
    return np.partition(sample, -k)[-k] if len(sample) >= k else 0.0


def _lowest_ties(scores: np.ndarray, kth: float, m: int) -> np.ndarray:
    """The m lowest ids of the docs scoring exactly kth, or all when fewer do.

    Scans a prefix of 8m scores, then one eight times as long, and so on:
    with thousands of ties the first prefix holds enough of them, and
    finding every tie in the corpus would cost several times as much.
    """
    stop = 8 * m
    while True:
        ties = np.flatnonzero(scores[:stop] == kth)
        if len(ties) >= m or stop >= len(scores):
            return ties[:m]
        stop *= 8


def _record(event: bytes, hit: EvidenceSet) -> bytes:
    """One cache line for the event's UTF-8 bytes and its hits: CRC-32 of the
    text, a space, the text, a newline."""
    text = b" ".join((hexlify(event),
                      hexlify(hit.doc_ids.astype(_U32).tobytes()),
                      hexlify(hit.scores.astype(_F64).tobytes())))
    return b"%08x %s\n" % (zlib.crc32(text), text)


def _parse_record(line: bytes, n_docs: int):
    """(event, doc ids, scores) of one cache line; ValueError saying what is wrong."""
    crc, _, text = line.partition(b" ")
    if crc != b"%08x" % zlib.crc32(text):
        raise ValueError("checksum mismatch")
    try:
        event, ids, scores = map(unhexlify, text.split(b" "))
        event = event.decode("utf-8")
    except ValueError:  # a field count, hex digit or UTF-8 byte that is wrong
        raise ValueError("corrupt cache record") from None
    if len(scores) % 8 or 2 * len(ids) != len(scores):
        raise ValueError(f"{len(ids)} bytes of doc ids and {len(scores)} of "
                         f"scores are not uint32 and float64 pairs")
    ids, scores = np.frombuffer(ids, _U32), np.frombuffer(scores, _F64)
    if (ids >= n_docs).any():
        raise ValueError(f"doc id {ids.max()} outside 0..{n_docs - 1}")
    if not np.isfinite(scores).all():
        raise ValueError(f"score {scores[~np.isfinite(scores)][0]} is not finite")
    return event, ids, scores


class RetrievalCache:
    """Per-(index, k) retrieval memo, persisted one record a line in a file
    under cache_dir.  A k that search_topk would reject raises IndexError_
    before anything is created under cache_dir.
    """

    def __init__(self, index: InvertedIndex, k: int, cache_dir):
        self.index = index
        self.k = k = _check_k(k)
        self._memo: dict[str, EvidenceSet] = {}
        Path(cache_dir).mkdir(parents=True, exist_ok=True)
        self.path = Path(cache_dir) / f"retrieval-{index.fingerprint()[:16]}-k{k}-v3.txt"
        self._load()

    def _load(self) -> None:
        """Read the persisted records.

        A record is one ASCII line of four space-separated fields: the
        CRC-32 of the three after it as 8 hex digits, then hex of the event's
        UTF-8 bytes, of the little-endian uint32 doc ids and of the
        little-endian float64 scores, one id and one score per hit in rank
        order.  Files of earlier layouts have other names and are left alone.
        Every record is written with its newline, so trailing bytes without
        one were torn by a crash mid-append and are cut from the file.  Any
        other line raises, naming the file and line, if its checksum is wrong,
        a field is missing or not hex, the event is not UTF-8, the id and
        score fields do not pair up, a doc id is outside the index or a score
        is not finite.  A record passing the checks is kept as its doc id and
        score arrays; its items are built when first read.
        """
        if not self.path.exists():
            return
        n_docs = self.index.n_docs
        data = self.path.read_bytes()
        *lines, torn = data.split(b"\n")
        if torn:
            os.truncate(self.path, len(data) - len(torn))
        for n, line in enumerate(lines, 1):
            try:
                event, doc_ids, scores = _parse_record(line, n_docs)
            except ValueError as e:
                raise IndexError_(f"{self.path} line {n}: {e}") from None
            self._memo[event] = self.index.evidence_set(doc_ids, scores)

    def get(self, event: str) -> EvidenceSet:
        """The event's hits: from the memo, or searched, appended and kept.
        An event with no UTF-8 form raises IndexError_ before any search."""
        hit = self._memo.get(event)
        if hit is None:
            key = _utf8(event, "event", repr(event))
            hit = self.index.search_topk(event, self.k)
            self._append(_record(key, hit))
            self._memo[event] = hit
        return hit

    def _append(self, line: bytes) -> None:
        """Append one record in one O_APPEND write; a short write is cut back
        off the file, so the next record starts a fresh line, and raises."""
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            n = os.write(fd, line)
            if n != len(line):
                os.ftruncate(fd, os.fstat(fd).st_size - n)
                raise OSError(f"{self.path}: wrote {n} of a {len(line)}-byte cache record")
        finally:
            os.close(fd)
