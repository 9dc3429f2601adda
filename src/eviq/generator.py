"""Evidence-conditioned autoregressive generation.

The generator consumes one flat token sequence: evidence paragraph,
separator, event, dimension tag, begin marker, then the target prefix.
Scoring sums next-token log-probabilities over the target positions
(end marker included).

Decoding is a beam search with deterministic tie-breaking and a
length-normalized final ranking.  It runs the decoder incrementally: one
forward over the prefix fills a per-layer key/value cache, and each step
after that is one forward over just the live hypotheses' newest tokens,
one row each, attending to the cache.  Survivors come from the
(hypotheses, vocab) matrix of cumulative log-probabilities: the entries at
or above its 2*width-th largest value are the only ones the keep and finish
rules can reach, and one lexsort orders them by score, then by token
sequence.  The cache then follows each survivor's parent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, cross_entropy, no_tape, scale
from .textdata import (
    MAX_EVENT_TOKENS,
    MAX_EVIDENCE_TOKENS,
    MAX_INFERENCE_TOKENS,
    Vocab,
)
from .transformer import (
    KVCache,
    TransformerConfig,
    cached_next_logits,
    decoder_forward,
)

_SEGMENT_CAPS = (("evidence", MAX_EVIDENCE_TOKENS),
                 ("event", MAX_EVENT_TOKENS),
                 ("target", MAX_INFERENCE_TOKENS))


@dataclass(frozen=True)
class AssembledInput:
    """Teacher-forced training view of one example.

    input_ids feeds the decoder; target_ids and target_mask align with it
    position-for-position, masking in exactly the steps that predict the
    target tokens plus the trailing end marker.
    """
    input_ids: np.ndarray
    target_ids: np.ndarray
    target_mask: np.ndarray
    prefix_len: int   # length of [evidence, sep, event, dim, bos]


def _check_segments(config: TransformerConfig, evidence_ids, event_ids,
                    target_ids) -> None:
    for name, cap, seq in (
            (_SEGMENT_CAPS[0][0], _SEGMENT_CAPS[0][1], evidence_ids),
            (_SEGMENT_CAPS[1][0], _SEGMENT_CAPS[1][1], event_ids),
            (_SEGMENT_CAPS[2][0], _SEGMENT_CAPS[2][1], target_ids)):
        if len(seq) > cap:
            raise ShapeError(
                f"{name} segment has {len(seq)} tokens, cap {cap}")
    total = len(evidence_ids) + len(event_ids) + len(target_ids) + 3
    if total > config.max_len:
        raise ShapeError(f"assembled sequence {total} tokens exceeds "
                         f"max_len {config.max_len}")


def assemble(vocab: Vocab, config: TransformerConfig, evidence_ids,
             event_ids, dimension: str, target_ids=()) -> AssembledInput:
    """Lay out [evidence, sep, event, dim tag, bos, target] for training.

    target_ids excludes the end marker; the mask covers the positions whose
    next-token predictions are the target tokens followed by the end marker.
    """
    evidence_ids = list(evidence_ids)
    event_ids = list(event_ids)
    target_ids = list(target_ids)
    _check_segments(config, evidence_ids, event_ids, target_ids)
    prefix = evidence_ids + [vocab.sep_id] + event_ids \
        + [vocab.dim_id(dimension)] + [vocab.bos_id]
    input_ids = np.array(prefix + target_ids, dtype=np.int64)
    n = len(input_ids)
    target = np.zeros(n, dtype=np.int64)
    mask = np.zeros(n, dtype=np.float64)
    # position i predicts input[i+1]; the last target position predicts EOS
    want = target_ids + [vocab.eos_id]
    start = len(prefix) - 1
    target[start:start + len(want)] = want
    mask[start:start + len(want)] = 1.0
    return AssembledInput(input_ids=input_ids, target_ids=target,
                          target_mask=mask, prefix_len=len(prefix))


def generation_nll(params: dict, config: TransformerConfig, vocab: Vocab,
                   evidence_ids, event_ids, dimension: str, target_ids,
                   train: bool = False, rng=None) -> Tensor:
    """Summed negative log-probability of the target plus its end marker."""
    asm = assemble(vocab, config, evidence_ids, event_ids, dimension,
                   target_ids)
    logits = decoder_forward(params, config, asm.input_ids, train=train,
                             rng=rng)
    mean_nll = cross_entropy(logits, asm.target_ids, mask=asm.target_mask)
    return scale(mean_nll, float(asm.target_mask.sum()))


def sequence_logprob(params: dict, config: TransformerConfig, vocab: Vocab,
                     evidence_ids, event_ids, dimension: str,
                     target_with_end) -> float:
    """Sum of stepwise log-probabilities of the target, end marker last."""
    target_with_end = list(target_with_end)
    if not target_with_end or target_with_end[-1] != vocab.eos_id:
        raise ShapeError("target sequence must end with the end marker")
    with no_tape():
        nll = generation_nll(params, config, vocab, evidence_ids, event_ids,
                             dimension, target_with_end[:-1])
    return -nll.item()


def next_token_logprobs(params: dict, config: TransformerConfig,
                        prefix_ids) -> np.ndarray:
    """Log next-token distribution after the given prefix; no recording."""
    with no_tape():
        logits = decoder_forward(params, config, prefix_ids).data[-1]
    return _log_softmax(logits)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities over the last axis, one distribution per row."""
    m = logits.max(axis=-1, keepdims=True)
    return logits - (m + np.log(np.exp(logits - m).sum(axis=-1,
                                                         keepdims=True)))


@dataclass(frozen=True)
class Hypothesis:
    tokens: tuple          # generated ids, end marker included when finished
    logprob: float         # raw cumulative log-probability
    finished: bool

    def score(self, length_norm: str = "mean") -> float:
        if length_norm == "none" or not self.tokens:
            return self.logprob
        return self.logprob / len(self.tokens)


@dataclass(frozen=True)
class BeamResult:
    hypotheses: list       # best first, scored per length_norm
    truncated: bool        # nothing finished within the step budget


def beam_search(params: dict, config: TransformerConfig, vocab: Vocab,
                evidence_ids, event_ids, dimension: str, width: int = 10,
                max_steps: int = 32, length_norm: str = "mean") -> BeamResult:
    """Top-width end-marker-terminated continuations of the prefix.

    Pruning keeps the width best raw cumulative log-probabilities; the final
    ranking uses the length-normalized score.  Score ties break by token-id
    order, so results are deterministic.
    """
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    if max_steps < 1 or max_steps > MAX_INFERENCE_TOKENS:
        raise ValueError(
            f"max_steps must be in 1..{MAX_INFERENCE_TOKENS}, got {max_steps}")
    if length_norm not in ("mean", "none"):
        raise ValueError(f"unknown length_norm {length_norm!r}")
    base = assemble(vocab, config, evidence_ids, event_ids, dimension)
    prefix = base.input_ids
    if len(prefix) + max_steps > config.max_len:
        raise ShapeError(f"prefix {len(prefix)} + {max_steps} decode steps "
                         f"exceeds max_len {config.max_len}")
    cache = KVCache()
    logp = _log_softmax(cached_next_logits(params, config, [prefix], cache))
    tokens = np.zeros((1, 0), dtype=np.int64)   # one row per live hypothesis
    cum = np.zeros(1)                           # their raw log-probabilities
    finished: list[Hypothesis] = []
    for step in range(max_steps):
        if step:
            cache.reorder(parents)
            logp = _log_softmax(cached_next_logits(params, config,
                                                   tokens[:, -1:], cache))
        scores = (cum[:, None] + logp).ravel()
        # each parent has one end-marked expansion, so the first width
        # unfinished survivors sit in the top 2*width; ties at the cut stay
        n = scores.size - 2 * width
        cand = (np.flatnonzero(scores >= np.partition(scores, n)[n]) if n > 0
                else np.arange(scores.size))
        parent, tok = np.divmod(cand, logp.shape[1])
        rank = np.zeros(len(tokens), dtype=np.int64)
        if step:
            rank[np.lexsort(tokens.T[::-1])] = np.arange(len(tokens))
        cand_order = np.lexsort((tok, rank[parent], -scores[cand]))
        keep = []
        for r, c in enumerate(cand_order):
            if tok[c] == vocab.eos_id:
                # a hypothesis finishes only while competitive: its end-marked
                # expansion must sit within the top width this step
                if r < width:
                    finished.append(Hypothesis(
                        tokens=tuple(tokens[parent[c]].tolist())
                        + (vocab.eos_id,),
                        logprob=float(scores[cand[c]]), finished=True))
            elif len(keep) < width:
                keep.append(c)
        parents = parent[keep]
        tokens = np.hstack([tokens[parents], tok[keep][:, None]])
        cum = scores[cand[keep]]
        if not keep or len(finished) >= width:
            break
    if finished:
        finished.sort(key=lambda h: (-h.score(length_norm), h.tokens))
        return BeamResult(hypotheses=finished[:width], truncated=False)
    leftovers = [Hypothesis(tokens=tuple(t), logprob=float(c), finished=False)
                 for t, c in zip(tokens.tolist(), cum)]
    leftovers.sort(key=lambda h: (-h.score(length_norm), h.tokens))
    return BeamResult(hypotheses=leftovers[:width], truncated=True)
