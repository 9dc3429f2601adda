"""Discrete latent machinery: codebook, nearest-code assignment, losses.

An encoder vector is snapped to its nearest codebook row; the decoder
consumes the row through a straight-through substitution so reconstruction
gradients reach the encoder unchanged.  The codebook itself learns only by
chasing encoder vectors; the encoder additionally pays a commitment penalty
for drifting from its assigned row.  A separate classifier head learns, per
event, to match the relative frequencies with which that event's examples
landed on each code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    accumulate_new,
    add,
    add_n,
    constant,
    custom_op,
    gather_rows,
    matmul,
    scale,
    softmax_lastdim,
    squared_norm,
    sub,
)
from .transformer import TransformerConfig, encoder_forward

COMMIT_WEIGHT = 0.25


def init_codebook(n_codes: int, width: int, rng: np.random.Generator) -> Tensor:
    if n_codes < 2:
        raise ValueError(f"need at least 2 codes, got {n_codes}")
    return Tensor(rng.uniform(-0.1, 0.1, size=(n_codes, width)))


@dataclass(frozen=True)
class NearestCode:
    """One-hot assignment of an encoder vector to a codebook row.

    row and enc_snapshot hold the values frozen at assignment time; losses
    treat them as constants wherever a stop-gradient is required, so the
    assignment itself carries every pin the loss terms need.
    """
    index: int
    row: np.ndarray            # (1, width), copy of the winning code
    enc_snapshot: np.ndarray   # (1, width), copy of the encoder vector
    distance: float


def assign_to_nearest_code(codebook: Tensor, enc_vec: Tensor) -> NearestCode:
    """Nearest row by Euclidean distance; ties go to the lowest index."""
    if enc_vec.shape != (1, codebook.shape[1]):
        raise ShapeError(f"encoder vector shape {enc_vec.shape}, "
                         f"want (1, {codebook.shape[1]})")
    diff = codebook.data - enc_vec.data
    d2 = np.einsum("ij,ij->i", diff, diff)
    j = int(np.argmin(d2))
    return NearestCode(index=j, row=codebook.data[j:j + 1].copy(),
                       enc_snapshot=enc_vec.data.copy(),
                       distance=float(np.sqrt(d2[j])))


def straight_through(enc_vec: Tensor, nearest: NearestCode) -> Tensor:
    """Value of the assigned row, gradient of the identity map.

    Computed as enc_vec plus the pinned offset (row - snapshot), so the
    backward pass hands the decoder's latent gradient to the encoder
    unchanged.  The offset pins are the assignment-time values.
    """
    return add(enc_vec, constant(nearest.row - nearest.enc_snapshot))


def quantization_loss(enc_vec: Tensor, codebook: Tensor, nearest: NearestCode,
                      recon_nll: Tensor, commit_weight: float = COMMIT_WEIGHT
                      ) -> Tensor:
    """recon_nll + ||pin(enc) - row||^2 + w * ||enc - pin(row)||^2.

    recon_nll must have been computed from straight_through(enc_vec,
    nearest).  Routing: the codebook row moves only under the middle term,
    the encoder sees the reconstruction gradient plus the commitment pull,
    the decoder sees reconstruction only.
    """
    if commit_weight <= 0.0:
        raise ValueError(f"commit weight must be > 0, got {commit_weight}")
    if recon_nll.shape != ():
        raise ShapeError(f"recon_nll must be scalar, got {recon_nll.shape}")
    live_row = gather_rows(codebook, np.array([nearest.index]))
    codebook_pull = squared_norm(sub(constant(nearest.enc_snapshot), live_row))
    commitment = squared_norm(sub(enc_vec, constant(nearest.row)))
    return add_n([recon_nll, codebook_pull, scale(commitment, commit_weight)])


def code_frequencies(group_keys, code_indices, n_codes: int
                     ) -> dict[str, np.ndarray]:
    """Per event group, how often its examples landed on each code.

    group_keys and code_indices run parallel over examples.  Counts are
    integers divided once by the group size, so each vector sums to 1
    exactly.
    """
    counts: dict[str, np.ndarray] = {}
    for key, idx in zip(group_keys, code_indices, strict=True):
        if not 0 <= idx < n_codes:
            raise ValueError(f"code index {idx} outside 0..{n_codes - 1}")
        if key not in counts:
            counts[key] = np.zeros(n_codes, dtype=np.int64)
        counts[key][idx] += 1
    return {k: c / c.sum() for k, c in counts.items()}


def classifier_distribution(enc_params: dict, config: TransformerConfig,
                            head: Tensor, token_ids, cls_id=None,
                            train: bool = False, rng=None) -> Tensor:
    """Distribution over codes for an event: softmax of pooled vector x head."""
    pooled = encoder_forward(enc_params, config, token_ids, cls_id=cls_id,
                             train=train, rng=rng)
    if head.shape[0] != pooled.shape[1]:
        raise ShapeError(f"classifier head rows {head.shape[0]} != "
                         f"encoder width {pooled.shape[1]}")
    return softmax_lastdim(matmul(pooled, head))


def kl_divergence(target: np.ndarray, model: Tensor) -> Tensor:
    """Sum of target * ln(target / model), with 0 * ln 0 = 0.

    target is a fixed probability vector; gradient flows into model only.
    """
    p = np.asarray(target, dtype=np.float64).reshape(-1)
    q = model.data.reshape(-1)
    if p.shape != q.shape:
        raise ShapeError(f"distribution sizes differ: {p.shape} vs {q.shape}")
    if np.any(q <= 0.0):
        raise ValueError("model distribution has a non-positive entry")
    live = p > 0.0
    val = float(np.sum(p[live] * np.log(p[live] / q[live])))

    def back(g):
        gs = float(np.asarray(g).item())
        d = np.zeros_like(q)
        d[live] = -p[live] / q[live]
        accumulate_new(model, d.reshape(model.shape) * gs)

    return custom_op(np.array(val), (model,), back)


def sample_code(probs, rng: np.random.Generator) -> int:
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    return int(rng.choice(len(p), p=p / p.sum()))


def code_utilization(code_indices, n_codes: int) -> np.ndarray:
    counts = np.zeros(n_codes, dtype=np.int64)
    for idx in code_indices:
        if not 0 <= idx < n_codes:
            raise ValueError(f"code index {idx} outside 0..{n_codes - 1}")
        counts[idx] += 1
    return counts
