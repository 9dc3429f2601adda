"""Evidence encoding, nearest-evidence selection, and the selection reward.

Every retrieved paragraph, plus the always-present empty placeholder, is
encoded to one pooled context vector.  A latent code row picks the nearest
context vector; generation conditions on that paragraph alone.  During
stage-3 training the chosen paragraph is scored against a random counter
paragraph, and the resulting +/-1 reward decides whether the chosen context
vector is pulled toward or pushed away from the code row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    constant,
    no_tape,
    scale,
    squared_norm,
    sub,
)
from .retrieval import EvidenceSet
from .textdata import Vocab
from .transformer import (TransformerConfig, batch_encoder_forward,
                          encoder_forward)


@dataclass
class ContextVectors:
    """Pooled context vectors for one evidence set, one row per item.

    vectors holds plain values (no tape); token_ids keeps the encoder inputs
    so any single item can be re-encoded under a tape when its gradient is
    needed.  The final row always belongs to the empty placeholder.
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


def encode_evidence(params: dict, config: TransformerConfig,
                    evidence: EvidenceSet, vocab: Vocab) -> ContextVectors:
    """Encode every item in one pass without recording gradients."""
    ids = evidence_token_ids(vocab, evidence)
    with no_tape():
        rows = batch_encoder_forward(params, config, ids,
                                     cls_id=vocab.cls_id).data
    return ContextVectors(vectors=rows, token_ids=ids, evidence=evidence)


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
    """Nearest context vector to the code row; lowest index wins ties."""
    row = np.asarray(code_row).reshape(-1)
    if row.shape[0] != context.vectors.shape[1]:
        raise ShapeError(f"code width {row.shape[0]} != context width "
                         f"{context.vectors.shape[1]}")
    diff = context.vectors - row
    index = int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
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
    row = constant(np.asarray(code_row).reshape(1, -1))
    return scale(squared_norm(sub(chosen_vec, row)), float(reward))
