"""The three seeded workloads, their set-up, oracles and metrics.

Every workload is a closed loop with one client in one process: the next
operation starts only after the previous one returned.  The package only
ever sees inputs generated here from the workload seed.

- retrieve: a query stream with a fixed share of repeats through a
  persisted RetrievalCache over a large toy corpus.  BM25 scoring dominates;
  the transformer, autodiff and optim layers do no work.
- train: rounds of one stage-1, one stage-2 and one stage-3 mini-batch, each
  one tape, one backward and one Adam step.  Retrieval is warmed in set-up
  and beam search never runs.
- decode: cached retrieval, evidence encoding, prior code, evidence choice
  and beam search per dev (event, dimension) group, with no tape.

Spans are opened here, around calls into the package, never inside it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from eviq import autodiff as ad
from eviq import evidence as ev
from eviq import generator as gen
from eviq import optim
from eviq import retrieval as rt
from eviq import textdata as td
from eviq import toydata
from eviq import transformer as tf
from eviq import vqvae as vq
import hostspeed as hs
from tracer import NullTracer, Tracer, percentile, self_times

WORKLOADS = ("retrieve", "train", "decode")
SCORE_TOL = 1e-9       # BM25 score and beam log-probability agreement
TOP_K = rt.DEFAULT_TOP_K
REPEAT_SHARE = 0.4     # retrieve: share of queries that repeat an earlier one
BATCH_SIZE = 2         # train: examples per mini-batch of each stage
LR = 5e-4              # train: Adam learning rate


@dataclass(frozen=True)
class Knobs:
    """Size knobs of one workload; recorded with every result."""
    n_events: int
    n_clusters: int = 8
    setup_repeats: int = 3
    oracle_queries: int = 16       # retrieve: rankings checked and digested
    brute_events: int = 100        # retrieve: corpus size of the brute-force check
    d_model: int = 128
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 512
    n_codes: int = 16
    rounds_per_second: float = 5.0  # train: rounds = this x --seconds
    beam_width: int = 10
    max_steps: int = 5


DEFAULT_KNOBS = {
    # 14k events give ~21k docs; every doc holds "personx", so a cache miss
    # walks ~21k postings, and a 30 s run still times well over 1,000 queries
    "retrieve": Knobs(n_events=14000, setup_repeats=3),
    "train": Knobs(n_events=200, setup_repeats=5),
    "decode": Knobs(n_events=200, setup_repeats=5),
}

# Which end-to-end metric each per-layer metric should move, on which
# workload.  A traced run emits exactly these names; their units and
# directions are in BENCHMARK.json.
LAYER_MAP = {
    "toydata.make_s": "setup_s on every workload",
    "textdata.load_dataset_s": "setup_s on every workload",
    "textdata.vocab_build_s": "setup_s on every workload",
    "retrieval.index.build_s": "setup_s on retrieve",
    "retrieval.index.save_s": "setup_s on retrieve",
    "retrieval.index.load_s": "setup_s on retrieve",
    "retrieval.index.bytes": "setup_s on retrieve",
    "retrieval.search_topk.ms_p50": "ops_per_s on retrieve",
    "retrieval.search_topk.ms_p99": "ops_per_s, op_p90_ms on retrieve",
    "retrieval.postings_per_query": "ops_per_s on retrieve",
    "retrieval.cache.hit_rate": "ops_per_s on retrieve",
    "retrieval.cache.hit_us": "ops_per_s on retrieve",
    "retrieval.cache.miss_ms": "ops_per_s on retrieve",
    "retrieval.cache.appends": "ops_per_s on retrieve",
    "retrieval.cache.load_s": "setup_s on train and decode",
    "transformer.encoder_forward.ms": "ops_per_s on train (stage 1)",
    "transformer.encoder_forward.tokens_per_call": "ops_per_s on train (stage 1)",
    "transformer.decoder_forward.ms": "ops_per_s on train (stage 1)",
    "transformer.decoder_forward.tokens_per_call": "ops_per_s on train (stage 1)",
    "autodiff.backward.ms": "ops_per_s on train",
    "autodiff.tape_nodes": "ops_per_s on train",
    "optim.adam_step.ms": "ops_per_s on train",
    "optim.param_count": "ops_per_s on train",
    "vqvae.assign.us": "ops_per_s on train (stages 1, 2)",
    "vqvae.quantization_loss.us": "ops_per_s on train (stage 1)",
    "vqvae.classifier_distribution.ms": "ops_per_s on train (stage 2) and decode",
    "vqvae.kl_divergence.us": "ops_per_s on train (stage 2)",
    "vqvae.code_utilization": "none; domain count",
    "vqvae.code_perplexity": "none; domain count",
    "evidence.encode_evidence.ms": "ops_per_s on train (stage 3) and decode",
    "evidence.items_per_call": "ops_per_s on train (stage 3) and decode",
    "evidence.select.us": "ops_per_s on train (stage 3) and decode",
    "evidence.encode_item.ms": "ops_per_s on train (stage 3)",
    "evidence.reward_rate": "none; domain rate",
    "generator.generation_nll.taped_ms": "ops_per_s on train (stage 3)",
    "generator.generation_nll.untaped_ms": "ops_per_s on train (stage 3)",
    "generator.beam_search.ms_p50": "ops_per_s on decode",
    "generator.beam_search.ms_p90": "op_p90_ms on decode",
    "generator.beam_steps": "ops_per_s on decode",
    "generator.truncated_rate": "none; domain rate",
    "trace.overhead_pct": "none; traced vs untraced ops_per_s",
}

# The operation each workload times.  Its end-to-end ops_per_s, op_p50_ms
# and op_p90_ms are scaled to the reference host speed (hostspeed.py); the
# workload-specific names printed beside them are wall-clock.
OPS = {"retrieve": "query", "train": "training round", "decode": "decoded event"}
GATED = ("setup_s", "ops_per_s", "op_p90_ms")


# --- set-up ------------------------------------------------------------------


class TracedIndex:
    """Forwards to an InvertedIndex and spans the searches a cache makes.

    Handed to RetrievalCache in place of the index, so cache misses show up
    as retrieval.search_topk child spans without touching the package.
    """

    def __init__(self, index: rt.InvertedIndex, tracer):
        self._index = index
        self._tracer = tracer
        self.searched: list[str] = []

    def __getattr__(self, name):
        return getattr(self._index, name)

    def search_topk(self, event: str, k: int = TOP_K) -> rt.EvidenceSet:
        self.searched.append(event)
        with self._tracer.span("retrieval.search_topk"):
            return self._index.search_topk(event, k)


@dataclass
class Model:
    enc_cfg: tf.TransformerConfig
    dec_cfg: tf.TransformerConfig
    post: dict      # posterior encoder, also the evidence encoder
    dec: dict       # latent decoder in stage 1, generator in stage 3
    prior: dict     # prior encoder; with head, the code classifier
    head: ad.Tensor
    codebook: ad.Tensor

    def copy(self) -> "Model":
        def dup(params):
            return {k: ad.Tensor(v.data.copy()) for k, v in params.items()}
        return replace(self, post=dup(self.post), dec=dup(self.dec),
                       prior=dup(self.prior),
                       head=ad.Tensor(self.head.data.copy()),
                       codebook=ad.Tensor(self.codebook.data.copy()))

    def named(self) -> dict:
        out = {}
        for prefix, params in (("post.", self.post), ("dec.", self.dec),
                               ("prior.", self.prior)):
            out.update({prefix + k: v for k, v in params.items()})
        out["head"] = self.head
        out["codebook"] = self.codebook
        return out


def init_model(vocab_size: int, knobs: Knobs, seed: int) -> Model:
    rng = np.random.default_rng([seed, 1])
    enc_cfg = tf.TransformerConfig(n_layers=knobs.n_layers, n_heads=knobs.n_heads,
                                   d_model=knobs.d_model, d_ff=knobs.d_ff)
    dec_cfg = replace(enc_cfg, causal=True)
    post = tf.init_params(enc_cfg, vocab_size, rng)
    dec = tf.init_params(dec_cfg, vocab_size, rng)
    prior = tf.init_params(enc_cfg, vocab_size, rng)
    head = ad.Tensor(rng.uniform(-0.1, 0.1, size=(knobs.d_model, knobs.n_codes)))
    codebook = vq.init_codebook(knobs.n_codes, knobs.d_model, rng)
    return Model(enc_cfg, dec_cfg, post, dec, prior, head, codebook)


@dataclass
class Setup:
    workdir: Path
    train_examples: list
    train_groups: list
    dev_groups: list
    index: rt.InvertedIndex
    vocab: td.Vocab
    model: Model | None
    cache: rt.RetrievalCache | None
    traced_index: TracedIndex | None


def set_up(workload: str, workdir: Path, seed: int, knobs: Knobs, tracer) -> Setup:
    """Data, vocab, index build/save/load; for train and decode also weights
    and a warmed, reloaded retrieval cache."""
    workdir.mkdir(parents=True)
    with tracer.span("toydata.make_toy_dataset"):
        toydata.make_toy_dataset(seed, knobs.n_events, knobs.n_clusters, workdir)
    with tracer.span("textdata.load_dataset"):
        train_examples, train_groups = td.load_dataset(workdir / "train.jsonl")
    with tracer.span("textdata.load_dataset"):
        _, dev_groups = td.load_dataset(workdir / "dev.jsonl")
    with tracer.span("retrieval.InvertedIndex.build"):
        built = rt.InvertedIndex.build(workdir / "corpus.txt")
    with tracer.span("retrieval.InvertedIndex.save"):
        built.save(workdir / "index.bin")
    with tracer.span("retrieval.InvertedIndex.load"):
        index = rt.InvertedIndex.load(workdir / "index.bin")
    streams = [ex.event_tokens for g in train_groups + dev_groups for ex in g.members]
    streams += [ex.inference_tokens for g in train_groups + dev_groups for ex in g.members]
    streams += index.doc_tokens
    with tracer.span("textdata.Vocab.build"):
        vocab = td.Vocab.build(streams)
    if workload == "retrieve":
        return Setup(workdir, train_examples, train_groups, dev_groups, index,
                     vocab, None, None, None)
    with tracer.span("transformer.init_params"):
        model = init_model(len(vocab), knobs, seed)
    traced = TracedIndex(index, tracer)
    cache_dir = workdir / "cache"
    warm = rt.RetrievalCache(traced, TOP_K, cache_dir)
    for g in train_groups + dev_groups:
        with tracer.span("retrieval.RetrievalCache.get"):
            warm.get(g.members[0].event_raw)
    with tracer.span("retrieval.RetrievalCache.load"):
        cache = rt.RetrievalCache(traced, TOP_K, cache_dir)
    return Setup(workdir, train_examples, train_groups, dev_groups, index, vocab,
                 model, cache, traced)


# --- shared steps --------------------------------------------------------------


def evidence_ids(vocab: td.Vocab, item: rt.EvidenceItem) -> list[int]:
    return vocab.encode(list(item.tokens))


def posterior_ids(vocab: td.Vocab, ex: td.Example) -> list[int]:
    return (vocab.encode(list(ex.event_tokens)) + [vocab.dim_id(ex.dimension), vocab.sep_id]
            + vocab.encode(list(ex.inference_tokens)) + [vocab.cls_id])


def prior_ids(vocab: td.Vocab, ex: td.Example) -> list[int]:
    return vocab.encode(list(ex.event_tokens)) + [vocab.dim_id(ex.dimension), vocab.cls_id]


def posterior_code(m: Model, vocab: td.Vocab, ex: td.Example, tracer) -> vq.NearestCode:
    ids = posterior_ids(vocab, ex)
    with ad.no_tape():
        with tracer.span("transformer.encoder_forward", tokens=len(ids)):
            enc = tf.encoder_forward(m.post, m.enc_cfg, ids, cls_id=vocab.cls_id)
        with tracer.span("vqvae.assign_to_nearest_code"):
            return vq.assign_to_nearest_code(m.codebook, enc)


def choose_evidence(m: Model, vocab: td.Vocab, cache, ex: td.Example, tracer):
    """Decode-time evidence choice: prior argmax code, then nearest item."""
    with tracer.span("retrieval.RetrievalCache.get"):
        es = cache.get(ex.event_raw)
    with tracer.span("evidence.encode_evidence", items=len(es.items)):
        ctx = ev.encode_evidence(m.post, m.enc_cfg, es, vocab)
    ids = prior_ids(vocab, ex)
    with ad.no_tape():
        with tracer.span("vqvae.classifier_distribution", tokens=len(ids)):
            dist = vq.classifier_distribution(m.prior, m.enc_cfg, m.head, ids,
                                              cls_id=vocab.cls_id)
    code = int(np.argmax(dist.data))
    with tracer.span("evidence.select_evidence"):
        _, item = ev.select_evidence(ctx, m.codebook.data[code])
    return code, item


def postings_per_query(index: rt.InvertedIndex, events: list) -> float:
    """Mean postings a scoring pass walks: the list lengths of the query terms."""
    if not events:
        return 0.0
    return statistics.fmean(sum(len(index.postings.get(t, ())) for t in index.event_query(e))
                            for e in events)


def count_lines(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh)


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


# --- oracles --------------------------------------------------------------------


def ranking(es: rt.EvidenceSet) -> list:
    return [(it.doc_id, it.score) for it in es.retrieved]


def brute_force_ranking(index: rt.InvertedIndex, event: str, k: int) -> list:
    """Ranking by bm25_score over every doc: score desc, doc id asc."""
    query = index.event_query(event)
    scored = ((index.bm25_score(query, d), d) for d in range(index.n_docs))
    ranked = sorted(((s, d) for s, d in scored if s > 0.0),
                    key=lambda p: (-p[0], p[1]))[:k]
    return [(d, s) for s, d in ranked]


def rankings_agree(got: list, want: list, tol: float = SCORE_TOL) -> bool:
    """Same doc ids in the same order, scores within tol."""
    return (len(got) == len(want)
            and all(gd == wd and abs(gs - ws) <= tol
                    for (gd, gs), (wd, ws) in zip(got, want)))


def ranking_consistent(index: rt.InvertedIndex, event: str, got: list, k: int,
                       tol: float = SCORE_TOL) -> bool:
    """Cheap check of a ranking on an index too large to brute-force.

    Each score must equal bm25_score of its doc, the order must be (score
    desc, doc id asc), and the length must be min(k, docs sharing a term).
    """
    query = index.event_query(event)
    matching = set()
    for term in query:
        matching.update(d for d, _ in index.postings.get(term, ()))
    if len(got) != min(k, len(matching)):
        return False
    keys = [(-s, d) for d, s in got]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    return all(abs(index.bm25_score(query, d) - s) <= tol for d, s in got)


def recomputed_logprob(m: Model, vocab: td.Vocab, ev_ids, event_ids, dimension,
                       tokens) -> float:
    """Log-probability of a generated continuation by full recomputation.

    A finished hypothesis ends with the end marker and is scored by
    sequence_logprob directly; a truncated one is scored with the end marker
    appended, minus the end marker's own log-probability.
    """
    tokens = list(tokens)
    if tokens and tokens[-1] == vocab.eos_id:
        return gen.sequence_logprob(m.dec, m.dec_cfg, vocab, ev_ids, event_ids,
                                    dimension, tokens)
    full = gen.sequence_logprob(m.dec, m.dec_cfg, vocab, ev_ids, event_ids,
                                dimension, tokens + [vocab.eos_id])
    prefix = gen.assemble(vocab, m.dec_cfg, ev_ids, event_ids, dimension).input_ids
    seq = np.concatenate([prefix, np.array(tokens, dtype=np.int64)])
    return full - float(gen.next_token_logprobs(m.dec, m.dec_cfg, seq)[vocab.eos_id])


def logprob_agrees(reported: float, recomputed: float, tol: float = SCORE_TOL) -> bool:
    return abs(reported - recomputed) <= tol


def losses_ok(values) -> bool:
    return all(math.isfinite(v) for v in values)


# --- results -------------------------------------------------------------------


@dataclass
class Pass:
    """One timed pass: its counts, timings and what it produced."""
    attempted: int
    failed: int
    named: dict
    digest: str
    layer_counts: dict
    scaled: list           # each operation's time at the reference host speed
    per_op: int = 1        # examples per operation

    def rate(self) -> float:
        return self.per_op * len(self.scaled) / sum(self.scaled)


class Tally:
    """Failed/attempted tally of operations and oracle checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)


def _op_failed(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# --- retrieve --------------------------------------------------------------------


def query_stream(events: list, repeat_share: float, rng):
    """Endless queries; each repeats a uniformly drawn earlier one with
    probability repeat_share, else takes the next unseen event."""
    order = rng.permutation(len(events))
    seen = []
    while True:
        if seen and rng.random() < repeat_share:
            yield seen[int(rng.integers(len(seen)))]
        else:
            seen.append(events[order[len(seen) % len(order)]])
            yield seen[-1]


def retrieve_pass(s: Setup, knobs: Knobs, seed: int, seconds: float, tracer,
                  tally: Tally, tag: str, host: hs.HostSpeed) -> Pass:
    events = [g.members[0].event_raw for g in s.train_groups + s.dev_groups]
    stream = query_stream(events, REPEAT_SHARE, np.random.default_rng([seed, 2]))
    cache_dir = s.workdir / f"cache-{tag}"
    traced = TracedIndex(s.index, tracer)
    cache = rt.RetrievalCache(traced, TOP_K, cache_dir)
    first: dict[str, list] = {}
    latencies, scaled = [], []
    failed = 0
    deadline = perf_counter() + seconds
    issued = set()
    while perf_counter() < deadline:
        event = next(stream)
        issued.add(event)
        host.tick()
        t0 = perf_counter()
        try:
            with tracer.span("bench.query"):
                with tracer.span("retrieval.RetrievalCache.get"):
                    es = cache.get(event)
        except Exception:
            failed += 1
            _op_failed(f"query {event!r}")
            es = None
        latencies.append(perf_counter() - t0)
        scaled.append(latencies[-1] * host.scale())
        if es is not None and event not in first and len(first) < knobs.oracle_queries:
            first[event] = ranking(es)

    # outside the timed loop: persisted cache, rankings, digest
    i = len(latencies)
    distinct = len(issued)
    appends = count_lines(cache.path)
    tally.check(appends == distinct, f"{appends} cache appends for {distinct} distinct queries")
    with tracer.span("retrieval.RetrievalCache.load"):
        reloaded = rt.RetrievalCache(s.index, TOP_K, cache_dir)
    for event, got in first.items():
        tally.check(ranking(reloaded.get(event)) == got, f"reloaded ranking of {event!r}")
        tally.check(ranking_consistent(s.index, event, got, TOP_K),
                    f"ranking of {event!r} disagrees with bm25_score")
    named = {
        "queries_per_s": (i / sum(latencies), "1/s"),
        "query_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "query_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "query_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
    }
    counts = {"appends": appends, "postings": postings_per_query(s.index, traced.searched)}
    digest = sha256_json([[e, [[d, float(sc).hex()] for d, sc in r]] for e, r in first.items()])
    return Pass(i, failed, named, digest, counts, scaled)


def brute_force_check(workdir: Path, seed: int, knobs: Knobs, tally: Tally) -> None:
    """search_topk against bm25_score over every doc of a small seeded corpus."""
    small = workdir / "brute"
    toydata.make_toy_dataset(seed, knobs.brute_events, knobs.n_clusters, small)
    index = rt.InvertedIndex.build(small / "corpus.txt")
    _, groups = td.load_dataset(small / "dataset.jsonl")
    rng = np.random.default_rng([seed, 4])
    picks = rng.choice(len(groups), size=min(knobs.oracle_queries, len(groups)), replace=False)
    for p in picks:
        event = groups[p].members[0].event_raw
        tally.check(rankings_agree(ranking(index.search_topk(event, TOP_K)),
                                   brute_force_ranking(index, event, TOP_K)),
                    f"search_topk vs brute force for {event!r}")


# --- train -----------------------------------------------------------------------


def _minibatch(params: dict, state: optim.AdamState, every: dict, loss_fns: list,
               tracer) -> float:
    """One tape over the batch, one backward, one Adam step; returns the loss."""
    optim.clear_grads(every)
    with ad.tape() as tp:
        loss = ad.scale(ad.add_n([fn() for fn in loss_fns]), 1.0 / len(loss_fns))
    with tracer.span("autodiff.GradTape.backward", nodes=len(tp.nodes)):
        tp.backward(loss)
    n_params = sum(p.data.size for p in params.values())
    with tracer.span("optim.adam_step", params=n_params):
        optim.adam_step(params, state, lr=LR)
    return loss.item()


def _stage1_loss(m: Model, vocab: td.Vocab, ex: td.Example, rng, tracer, codes: list):
    ids = posterior_ids(vocab, ex)
    with tracer.span("transformer.encoder_forward", tokens=len(ids)):
        enc = tf.encoder_forward(m.post, m.enc_cfg, ids, cls_id=vocab.cls_id,
                                 train=True, rng=rng)
    with tracer.span("vqvae.assign_to_nearest_code"):
        near = vq.assign_to_nearest_code(m.codebook, enc)
    codes.append(near.index)
    with tracer.span("vqvae.straight_through"):
        latent = vq.straight_through(enc, near)
    asm = gen.assemble(vocab, m.dec_cfg, [vocab.empty_id],
                       vocab.encode(list(ex.event_tokens)), ex.dimension,
                       vocab.encode(list(ex.inference_tokens)))
    with tracer.span("transformer.decoder_forward", tokens=len(asm.input_ids)):
        logits = tf.decoder_forward(m.dec, m.dec_cfg, asm.input_ids, z=latent,
                                    train=True, rng=rng)
    with tracer.span("autodiff.cross_entropy"):
        recon = ad.scale(ad.cross_entropy(logits, asm.target_ids, mask=asm.target_mask),
                         float(asm.target_mask.sum()))
    with tracer.span("vqvae.quantization_loss"):
        return vq.quantization_loss(enc, m.codebook, near, recon)


def _stage2_loss(m: Model, vocab: td.Vocab, group: td.EventGroup, n_codes: int, rng, tracer):
    codes = [posterior_code(m, vocab, ex, tracer).index for ex in group.members]
    with tracer.span("vqvae.code_frequencies"):
        target = vq.code_frequencies([group.key] * len(codes), codes, n_codes)[group.key]
    ids = prior_ids(vocab, group.members[0])
    with tracer.span("vqvae.classifier_distribution", tokens=len(ids)):
        dist = vq.classifier_distribution(m.prior, m.enc_cfg, m.head, ids,
                                          cls_id=vocab.cls_id, train=True, rng=rng)
    with tracer.span("vqvae.kl_divergence"):
        return vq.kl_divergence(target, dist)


def _stage3_loss(m: Model, vocab: td.Vocab, cache, ex: td.Example, rng, tracer,
                 rewards: list):
    row = posterior_code(m, vocab, ex, tracer).row
    with tracer.span("retrieval.RetrievalCache.get"):
        es = cache.get(ex.event_raw)
    with tracer.span("evidence.encode_evidence", items=len(es.items)):
        ctx = ev.encode_evidence(m.post, m.enc_cfg, es, vocab)
    with tracer.span("evidence.select_evidence"):
        chosen, item = ev.select_evidence(ctx, row)
    with tracer.span("evidence.pick_counter"):
        counter = ev.pick_counter(len(es.items), chosen, rng)
    event_ids = vocab.encode(list(ex.event_tokens))
    target = vocab.encode(list(ex.inference_tokens))
    with tracer.span("generator.generation_nll", taped=1):
        nll = gen.generation_nll(m.dec, m.dec_cfg, vocab, evidence_ids(vocab, item),
                                 event_ids, ex.dimension, target, train=True, rng=rng)
    with ad.no_tape():
        with tracer.span("generator.generation_nll", taped=0):
            counter_nll = gen.generation_nll(
                m.dec, m.dec_cfg, vocab, evidence_ids(vocab, es.items[counter]),
                event_ids, ex.dimension, target)
    with tracer.span("evidence.compute_reward"):
        reward = ev.compute_reward(-nll.item(), -counter_nll.item())
    rewards.append(reward)
    with tracer.span("evidence.encode_item", tokens=len(ctx.token_ids[chosen])):
        vec = ev.encode_item(m.post, m.enc_cfg, ctx, chosen, train=True, rng=rng)
    with tracer.span("evidence.selection_pull_loss"):
        pull = ev.selection_pull_loss(vec, row, reward)
    return ad.add(nll, pull)


def _cycle(items: list, rng):
    while True:
        for j in rng.permutation(len(items)):
            yield items[j]


def train_pass(s: Setup, knobs: Knobs, seed: int, seconds: float, tracer,
               tally: Tally, tag: str, host: hs.HostSpeed) -> Pass:
    m = s.model.copy()
    every = m.named()
    stage_params = (
        {k: v for k, v in every.items() if k.startswith(("post.", "dec.")) or k == "codebook"},
        {k: v for k, v in every.items() if k.startswith("prior.") or k == "head"},
        {k: v for k, v in every.items() if k.startswith(("post.", "dec."))},
    )
    states = [optim.AdamState() for _ in range(3)]
    rng = np.random.default_rng([seed, 3])
    examples = _cycle(s.train_examples, rng)
    groups = _cycle(s.train_groups, rng)
    b = BATCH_SIZE
    n_rounds = max(1, round(knobs.rounds_per_second * seconds))
    codes: list[int] = []
    rewards: list[int] = []
    stage_s = [0.0, 0.0, 0.0]
    latencies, scaled = [], []
    failed = 0
    for r in range(n_rounds):
        batches = (
            [lambda ex=next(examples): _stage1_loss(m, s.vocab, ex, rng, tracer, codes)
             for _ in range(b)],
            [lambda g=next(groups): _stage2_loss(m, s.vocab, g, knobs.n_codes, rng, tracer)
             for _ in range(b)],
            [lambda ex=next(examples): _stage3_loss(m, s.vocab, s.cache, ex, rng, tracer,
                                                    rewards)
             for _ in range(b)],
        )
        host.tick()
        t_round = perf_counter()
        with tracer.span("bench.round"):
            for k, fns in enumerate(batches):
                t0 = perf_counter()
                try:
                    with tracer.span(f"bench.stage{k + 1}"):
                        loss = _minibatch(stage_params[k], states[k], every, fns, tracer)
                    ok = losses_ok([loss])
                except Exception:
                    _op_failed(f"round {r} stage {k + 1}")
                    ok = False
                if not ok:
                    failed += b
                stage_s[k] += perf_counter() - t0
        latencies.append(perf_counter() - t_round)
        scaled.append(latencies[-1] * host.scale())

    # outside the timed loop: per-token dev NLL with decode's evidence choice
    nll_sum, n_tokens = 0.0, 0
    for g in s.dev_groups:
        _, item = choose_evidence(m, s.vocab, s.cache, g.members[0], NullTracer())
        for ex in g.members:
            with ad.no_tape():
                nll = gen.generation_nll(m.dec, m.dec_cfg, s.vocab, evidence_ids(s.vocab, item),
                                         s.vocab.encode(list(ex.event_tokens)), ex.dimension,
                                         s.vocab.encode(list(ex.inference_tokens)))
            nll_sum += nll.item()
            n_tokens += len(ex.inference_tokens) + 1
    dev_nll = nll_sum / n_tokens
    tally.check(math.isfinite(dev_nll), "dev NLL is finite")
    per_round = 3 * b
    named = {
        "train_examples_per_s": (per_round * n_rounds / sum(latencies), "1/s"),
        "stage1_examples_per_s": (b * n_rounds / stage_s[0], "1/s"),
        "stage2_examples_per_s": (b * n_rounds / stage_s[1], "1/s"),
        "stage3_examples_per_s": (b * n_rounds / stage_s[2], "1/s"),
        "round_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "round_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "dev_token_nll": (dev_nll, "nats"),
    }
    h = hashlib.sha256()
    for name, p in sorted(every.items()):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(p.data).tobytes())
    counts = {"codes": codes, "rewards": rewards}
    return Pass(per_round * n_rounds, failed, named, h.hexdigest(), counts, scaled, per_round)


# --- decode ----------------------------------------------------------------------


def decode_pass(s: Setup, knobs: Knobs, seed: int, seconds: float, tracer,
                tally: Tally, tag: str, host: hs.HostSpeed) -> Pass:
    m = s.model
    vocab = s.vocab
    groups = s.dev_groups
    latencies, scaled, outputs = [], [], []
    failed = 0
    deadline = perf_counter() + seconds
    i = 0
    # at least one full cycle over the dev groups, so the digest is whole
    while perf_counter() < deadline or i < len(groups):
        ex = groups[i % len(groups)].members[0]
        host.tick()
        t0 = perf_counter()
        try:
            with tracer.span("bench.event"):
                code, item = choose_evidence(m, vocab, s.cache, ex, tracer)
                ev_ids = evidence_ids(vocab, item)
                event_ids = vocab.encode(list(ex.event_tokens))
                with tracer.span("generator.beam_search"):
                    res = gen.beam_search(m.dec, m.dec_cfg, vocab, ev_ids, event_ids,
                                          ex.dimension, width=knobs.beam_width,
                                          max_steps=knobs.max_steps)
            outputs.append((i % len(groups), code, ev_ids, event_ids, ex.dimension, res))
        except Exception:
            failed += 1
            _op_failed(f"decode of {ex.event_raw!r}")
        latencies.append(perf_counter() - t0)
        scaled.append(latencies[-1] * host.scale())
        i += 1

    # outside the timed loop: recompute every best hypothesis's log-probability
    first: dict[int, tuple] = {}
    for g, code, ev_ids, event_ids, dim, res in outputs:
        best = res.hypotheses[0]
        again = recomputed_logprob(m, vocab, ev_ids, event_ids, dim, best.tokens)
        if not logprob_agrees(best.logprob, again):
            failed += 1
            print(f"check failed: beam logprob {best.logprob!r} vs recomputed {again!r}",
                  file=sys.stderr)
        first.setdefault(g, best.tokens)
        tally.check(first[g] == best.tokens, f"decode of dev group {g} is deterministic")
    n_tokens = sum(len(o[-1].hypotheses[0].tokens) for o in outputs)
    named = {
        "decode_events_per_s": (i / sum(latencies), "1/s"),
        "decode_event_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "decode_event_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "decode_tokens_per_s": (n_tokens / sum(latencies), "1/s"),
    }
    counts = {
        "codes": [o[1] for o in outputs],
        "beam_steps": [max(len(h.tokens) for h in o[-1].hypotheses) for o in outputs],
        "truncated": [o[-1].truncated for o in outputs],
    }
    digest = sha256_json([list(first[g]) for g in sorted(first)])
    return Pass(i, failed, named, digest, counts, scaled)


PASSES = {"retrieve": retrieve_pass, "train": train_pass, "decode": decode_pass}


# --- per-layer metrics ----------------------------------------------------------


def layer_metrics(spans, setup: Setup, traced: Pass, overhead_pct: float) -> dict:
    """Every LAYER_MAP metric from the traced pass and its set-ups.

    A layer the workload never calls reads 0.
    """
    selfs = self_times(spans)
    searched_parents = {s.parent for s in spans if s.name == "retrieval.search_topk"}
    by_name: dict[str, list] = {}
    for i, (sp, t) in enumerate(zip(spans, selfs)):
        by_name.setdefault(sp.name, []).append((i, sp, t))

    def rows(name, **match):
        return [r for r in by_name.get(name, ())
                if all(r[1].attrs.get(k) == v for k, v in match.items())]

    def mean_self(name, scale, **match):
        r = rows(name, **match)
        return statistics.fmean(t for _, _, t in r) * scale if r else 0.0

    def pct_self(name, q, scale):
        r = rows(name)
        return percentile([t for _, _, t in r], q) * scale if r else 0.0

    def mean_attr(name, attr):
        r = rows(name)
        return statistics.fmean(sp.attrs[attr] for _, sp, _ in r) if r else 0.0

    gets = [(i, sp.end - sp.start) for i, sp, _ in rows("retrieval.RetrievalCache.get")]
    hits = [d for i, d in gets if i not in searched_parents]
    misses = [d for i, d in gets if i in searched_parents]
    counts = traced.layer_counts
    codes = counts.get("codes", [])
    usage = np.bincount(codes, minlength=1) if codes else np.zeros(1)
    p = usage[usage > 0] / max(1, usage.sum())
    rewards = counts.get("rewards", [])
    truncated = counts.get("truncated", [])
    if "appends" in counts:
        postings, appends = counts["postings"], counts["appends"]
    else:   # train and decode search only while warming the cache in set-up
        postings = postings_per_query(setup.index, setup.traced_index.searched)
        appends = count_lines(setup.cache.path)
    return {
        "toydata.make_s": mean_self("toydata.make_toy_dataset", 1.0),
        "textdata.load_dataset_s": mean_self("textdata.load_dataset", 1.0),
        "textdata.vocab_build_s": mean_self("textdata.Vocab.build", 1.0),
        "retrieval.index.build_s": mean_self("retrieval.InvertedIndex.build", 1.0),
        "retrieval.index.save_s": mean_self("retrieval.InvertedIndex.save", 1.0),
        "retrieval.index.load_s": mean_self("retrieval.InvertedIndex.load", 1.0),
        "retrieval.index.bytes": float(os.path.getsize(setup.workdir / "index.bin")),
        "retrieval.search_topk.ms_p50": pct_self("retrieval.search_topk", 50, 1e3),
        "retrieval.search_topk.ms_p99": pct_self("retrieval.search_topk", 99, 1e3),
        "retrieval.postings_per_query": postings,
        "retrieval.cache.hit_rate": len(hits) / len(gets) if gets else 0.0,
        "retrieval.cache.hit_us": statistics.fmean(hits) * 1e6 if hits else 0.0,
        "retrieval.cache.miss_ms": statistics.fmean(misses) * 1e3 if misses else 0.0,
        "retrieval.cache.appends": float(appends),
        "retrieval.cache.load_s": mean_self("retrieval.RetrievalCache.load", 1.0),
        "transformer.encoder_forward.ms": mean_self("transformer.encoder_forward", 1e3),
        "transformer.encoder_forward.tokens_per_call": mean_attr("transformer.encoder_forward", "tokens"),
        "transformer.decoder_forward.ms": mean_self("transformer.decoder_forward", 1e3),
        "transformer.decoder_forward.tokens_per_call": mean_attr("transformer.decoder_forward", "tokens"),
        "autodiff.backward.ms": mean_self("autodiff.GradTape.backward", 1e3),
        "autodiff.tape_nodes": mean_attr("autodiff.GradTape.backward", "nodes"),
        "optim.adam_step.ms": mean_self("optim.adam_step", 1e3),
        "optim.param_count": mean_attr("optim.adam_step", "params"),
        "vqvae.assign.us": mean_self("vqvae.assign_to_nearest_code", 1e6),
        "vqvae.quantization_loss.us": mean_self("vqvae.quantization_loss", 1e6),
        "vqvae.classifier_distribution.ms": mean_self("vqvae.classifier_distribution", 1e3),
        "vqvae.kl_divergence.us": mean_self("vqvae.kl_divergence", 1e6),
        "vqvae.code_utilization": float(len(p)) if codes else 0.0,
        "vqvae.code_perplexity": float(np.exp(-(p * np.log(p)).sum())) if codes else 0.0,
        "evidence.encode_evidence.ms": mean_self("evidence.encode_evidence", 1e3),
        "evidence.items_per_call": mean_attr("evidence.encode_evidence", "items"),
        "evidence.select.us": mean_self("evidence.select_evidence", 1e6),
        "evidence.encode_item.ms": mean_self("evidence.encode_item", 1e3),
        "evidence.reward_rate": (sum(r > 0 for r in rewards) / len(rewards)) if rewards else 0.0,
        "generator.generation_nll.taped_ms": mean_self("generator.generation_nll", 1e3, taped=1),
        "generator.generation_nll.untaped_ms": mean_self("generator.generation_nll", 1e3, taped=0),
        "generator.beam_search.ms_p50": pct_self("generator.beam_search", 50, 1e3),
        "generator.beam_search.ms_p90": pct_self("generator.beam_search", 90, 1e3),
        "generator.beam_steps": statistics.fmean(counts["beam_steps"]) if counts.get("beam_steps") else 0.0,
        "generator.truncated_rate": (sum(truncated) / len(truncated)) if truncated else 0.0,
        "trace.overhead_pct": overhead_pct,
    }


# --- one run ----------------------------------------------------------------------


def environment(workload: str, seed: int, seconds: float, knobs: Knobs) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loop": "closed, one client, one process",
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "knobs": asdict(knobs),
        "constants": {"repeat_share": REPEAT_SHARE, "batch_size": BATCH_SIZE, "lr": LR,
                      "top_k": TOP_K, "score_tol": SCORE_TOL},
        "host_speed": {"ref_s": hs.REF_S, "probe_every_s": hs.PROBE_EVERY_S,
                       "window": hs.WINDOW},
        "beam": {"width": knobs.beam_width, "max_steps": knobs.max_steps},
    }


@dataclass
class Result:
    attempted: int
    failed: int
    end_to_end: dict       # contract metric name -> (value, unit)
    named: dict            # workload-specific metric name -> (value, unit)
    per_layer: dict | None
    record: dict


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        knobs: Knobs | None = None, trace_path: Path | None = None) -> Result:
    """Set up several times, run the timed pass, check outputs.

    With trace, an untraced pass is followed by a traced one from the same
    set-up; the per-layer metrics come from the traced pass and its set-ups,
    and the throughput gap between the two is the tracing overhead.
    """
    knobs = knobs or DEFAULT_KNOBS[workload]
    tracer = Tracer() if trace else NullTracer()
    host = hs.HostSpeed()
    host.probe(hs.WINDOW)
    setup_times, setup_scaled = [], []
    setup = None
    for r in range(knobs.setup_repeats):
        if setup is not None:
            shutil.rmtree(setup.workdir)
        before = host.scale()
        t0 = perf_counter()
        setup = set_up(workload, workdir / f"setup{r}", seed, knobs, tracer)
        setup_times.append(perf_counter() - t0)
        host.probe(hs.WINDOW)
        setup_scaled.append(setup_times[-1] * (before + host.scale()) / 2)

    tally = Tally()
    if workload == "retrieve":
        brute_force_check(workdir, seed, knobs, tally)
    run_pass = PASSES[workload]
    plain = run_pass(setup, knobs, seed, seconds, NullTracer(), tally, "plain", host)
    passes = [plain]
    per_layer = None
    overhead = None
    if trace:
        traced = run_pass(setup, knobs, seed, seconds, tracer, tally, "traced", host)
        passes.append(traced)
        tally.check(traced.digest == plain.digest, "traced and untraced outputs agree")
        overhead = plain.rate() / traced.rate() - 1.0
        per_layer = layer_metrics(tracer.spans, setup, traced, overhead * 100.0)
        if trace_path is not None:
            tracer.dump(trace_path)

    named = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": (plain.rate(), "1/s"),
        "op_p50_ms": (percentile(plain.scaled, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(plain.scaled, 90) * 1e3, "ms"),
        "host_scale": (hs.REF_S / statistics.median(host.timings), "ratio"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
        **plain.named,
    }
    record = {
        "workload": workload,
        "operation": OPS[workload],
        "operations_timed": len(plain.scaled),
        "setup_wall_s_each": setup_times,
        "digest": plain.digest,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "tracing_overhead_pct": None if overhead is None else overhead * 100.0,
        "env": environment(workload, seed, seconds, knobs),
    }
    return Result(
        attempted=sum(p.attempted for p in passes) + tally.attempted,
        failed=sum(p.failed for p in passes) + tally.failed,
        end_to_end={k: named[k] for k in GATED}, named=named, per_layer=per_layer,
        record=record)
