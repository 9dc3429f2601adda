"""Evidence encoding, nearest-evidence selection, and the selection reward.

Every retrieved paragraph, plus the always-present empty placeholder, is
encoded to one pooled context vector.  A latent code row picks the nearest
context vector by vqvae.nearest_row, the rule that also snaps encoder
vectors to codes; generation conditions on that paragraph alone.  During
stage-3 training the chosen paragraph is scored against a random counter
paragraph, and the resulting +/-1 reward decides whether the chosen context
vector is pulled toward or pushed away from the code row, by the squared
distance to a frozen copy of the row.

A context vector depends only on the encoder weights and the paragraph's own
encoder input, never on the event, so encode_evidence keeps one table of
pooled vectors shared by every call in the process.  Its key is an item's
encoder input ids (``ids.tobytes()``), which are the whole input of the
forward: the same key means the same vector under any index or vocabulary.
The table holds rows for one set of weights only.  It keeps a private copy
of the params arrays and the config it was filled under, and on every call
compares them bit for bit with the caller's (same names, dtypes and shapes,
equal int64 views); on any difference, such as an in-place optimizer step,
another params dict or another config, it drops every row and copies the new
weights.  Its size is therefore bounded by the distinct paragraphs encoded
under one set of weights: at most (docs + 1) * d_model * 8 bytes, plus one
copy of the weights.

A miss batch above two capped paragraphs' rows is encoded in two halves, the
second on the worker thread of eviq.cores, so that stage-3 training, whose
every Adam step empties the table, uses both cores.  The packed forward
keeps each sequence's rows apart except in matrix products, so a split
moves a vector only by rounding in those products: within 1e-12 of one
per-set pass, as any table row already is.  The same bound covers the
pooled forward itself, which carries only the last rows of each paragraph
past the last attention: its vectors are within 1e-12 of a forward that
carries every row.  Context vectors feed only
nearest_row, so a split can change a pick only between two paragraphs
within that distance of a tie.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tensor, no_tape, scale, squared_distance
from .cores import both, halves
from .retrieval import EvidenceSet
from .textdata import MAX_EVIDENCE_TOKENS, Vocab
from .transformer import (TransformerConfig, batch_encoder_forward,
                          encoder_forward)
from .vqvae import nearest_row


@dataclass
class ContextVectors:
    """Pooled context vectors for one evidence set, one row per item.

    vectors holds plain values (no tape), copied out of the process-wide
    table keyed by each item's token_ids, so writing into it never reaches
    the table.  token_ids keeps the encoder inputs so any single item can be
    re-encoded under a tape when its gradient is needed.  The final row
    always belongs to the empty placeholder.
    """
    vectors: np.ndarray          # (n_items, d_model)
    token_ids: list
    evidence: EvidenceSet


def evidence_token_ids(vocab: Vocab, evidence: EvidenceSet) -> list:
    """Encoder input ids per item: the item's tokens plus the summary token.

    The empty placeholder's tokens are just the empty marker, so its input
    becomes exactly [empty marker, summary token].
    """
    return [np.array(vocab.encode(list(item.tokens)) + [vocab.cls_id],
                     dtype=np.int64)
            for item in evidence.items]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


@dataclass
class _Table:
    """Pooled vectors by encoder input bytes, valid for one weight snapshot."""
    config: TransformerConfig | None = None
    weights: dict = field(default_factory=dict)
    rows: dict = field(default_factory=dict)

    def sync(self, params: dict, config: TransformerConfig) -> None:
        """Drop every row unless params and config match the snapshot bitwise."""
        if (config == self.config and params.keys() == self.weights.keys()
                and all(_same_bits(p.data, self.weights[name])
                        for name, p in params.items())):
            return
        self.config = config
        self.weights = {name: p.data.copy() for name, p in params.items()}
        self.rows = {}


_TABLE = _Table()

# Rows (tokens plus summary token) of two paragraphs at the evidence cap.
# A miss batch of at most this many rows is encoded in one call, so a set
# missing only a few paragraphs pays no hand-off to the worker thread.
_SPLIT_ROWS = 2 * (MAX_EVIDENCE_TOKENS + 1)


def encode_evidence(params: dict, config: TransformerConfig,
                    evidence: EvidenceSet, vocab: Vocab) -> ContextVectors:
    """Context vectors for every item, encoding only paragraphs not yet seen.

    Items missing from the table under these exact weights are encoded
    without recording gradients, each distinct input once.  A batch of more
    than _SPLIT_ROWS rows is cut in two halves of near-equal row count,
    encoded one on the caller's thread and one on eviq.cores' worker; the
    table is written by the caller, after both halves succeed.
    """
    ids = evidence_token_ids(vocab, evidence)
    keys = [s.tobytes() for s in ids]
    _TABLE.sync(params, config)
    missing = {k: s for k, s in zip(keys, ids) if k not in _TABLE.rows}
    if missing:
        new, seqs = list(missing), list(missing.values())

        def encode(part) -> np.ndarray:
            with no_tape():
                return batch_encoder_forward(params, config, [seqs[i] for i in part],
                                             cls_id=vocab.cls_id).data

        sizes = [len(s) for s in seqs]
        parts = halves(sizes) if sum(sizes) > _SPLIT_ROWS else (range(len(seqs)),)
        outs = both(encode, *parts) if len(parts) == 2 else (encode(parts[0]),)
        for part, out in zip(parts, outs):
            _TABLE.rows.update(zip([new[i] for i in part], out))
    return ContextVectors(vectors=np.stack([_TABLE.rows[k] for k in keys]),
                          token_ids=ids, evidence=evidence)


def encode_item(params: dict, config: TransformerConfig,
                context: ContextVectors, index: int,
                train: bool = False, rng=None) -> Tensor:
    """Re-encode one item under the active tape so gradients can flow."""
    if not 0 <= index < len(context.token_ids):
        raise ShapeError(f"evidence index {index} outside "
                         f"0..{len(context.token_ids) - 1}")
    return encoder_forward(params, config, context.token_ids[index],
                           train=train, rng=rng)


def select_evidence(context: ContextVectors, code_row: np.ndarray):
    """Nearest context vector to the code row, by nearest_row."""
    index = nearest_row(context.vectors, code_row)
    return index, context.evidence.items[index]


def compute_reward(logp_chosen: float, logp_counter: float) -> int:
    """+1 when the chosen evidence strictly beats the counter, else -1."""
    return 1 if logp_chosen > logp_counter else -1


def pick_counter(n_items: int, chosen: int, rng: np.random.Generator):
    """Uniform index over all items except the chosen one; None if alone."""
    if n_items < 1 or not 0 <= chosen < n_items:
        raise ValueError(f"chosen {chosen} outside 0..{n_items - 1}")
    if n_items == 1:
        return None
    j = int(rng.integers(0, n_items - 1))
    return j + 1 if j >= chosen else j


def selection_pull_loss(chosen_vec: Tensor, code_row: np.ndarray,
                        reward: int) -> Tensor:
    """reward * squared distance between the chosen vector and the code row.

    The code row enters as a plain array: in stage 3 the codebook is frozen
    and must receive no gradient from this term.
    """
    if reward not in (1, -1):
        raise ValueError(f"reward must be +1 or -1, got {reward}")
    row = np.asarray(code_row).reshape(1, -1)
    return scale(squared_distance(chosen_vec, row), float(reward))
