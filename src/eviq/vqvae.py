"""Discrete latent machinery: codebook, nearest-code assignment, losses.

One distance rule serves both of EGG's discrete choices: nearest_row finds
the row nearest a query by Euclidean distance, lowest index on ties, both
for the codebook row of an encoder vector here and for the evidence
paragraph of a code row in evidence.select_evidence.  An encoder vector is
snapped to its nearest codebook row; the decoder consumes the row through a
straight-through substitution so reconstruction gradients reach the encoder
unchanged.  The codebook itself learns only by chasing encoder vectors; the
encoder additionally pays a commitment penalty for drifting from its
assigned row.  Both pulls are autodiff.squared_distance to a frozen copy of
the other side.  A separate classifier head learns, per event, to match the
relative frequencies with which that event's examples landed on each code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    NumericError,
    ShapeError,
    Tensor,
    accumulate_new,
    add,
    add_n,
    custom_op,
    gather_rows,
    matmul,
    scale,
    softmax_lastdim,
    squared_distance,
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


def nearest_row(rows: np.ndarray, x) -> int:
    """Index of the row of (n, width) rows nearest x by Euclidean distance.

    Ties go to the lowest index.  A non-finite squared distance raises
    NumericError: NaN compares false with everything, so argmin would pick
    whatever row the NaN happens to sit at.
    """
    x = np.asarray(x).reshape(-1)
    if x.shape[0] != rows.shape[1]:
        raise ShapeError(f"query width {x.shape[0]} != row width {rows.shape[1]}")
    diff = rows - x
    d2 = np.einsum("ij,ij->i", diff, diff)
    bad = np.flatnonzero(~np.isfinite(d2))
    if bad.size:
        j = int(bad[0])
        raise NumericError(f"squared distance to row {j} is {d2[j]}: the "
                           "query or that row is not finite")
    return int(np.argmin(d2))


def assign_to_nearest_code(codebook: Tensor, enc_vec: Tensor) -> NearestCode:
    """Nearest codebook row to the (1, width) encoder vector, by nearest_row."""
    if enc_vec.shape != (1, codebook.shape[1]):
        raise ShapeError(f"encoder vector shape {enc_vec.shape}, "
                         f"want (1, {codebook.shape[1]})")
    j = nearest_row(codebook.data, enc_vec.data)
    return NearestCode(index=j, row=codebook.data[j:j + 1].copy(),
                       enc_snapshot=enc_vec.data.copy())


def straight_through(enc_vec: Tensor, nearest: NearestCode) -> Tensor:
    """Value of the assigned row, gradient of the identity map.

    Computed as enc_vec plus the pinned offset (row - snapshot), so the
    backward pass hands the decoder's latent gradient to the encoder
    unchanged.  The offset pins are the assignment-time values.
    """
    return add(enc_vec, Tensor(nearest.row - nearest.enc_snapshot))


def quantization_loss(enc_vec: Tensor, codebook: Tensor, nearest: NearestCode,
                      recon_nll: Tensor) -> Tensor:
    """recon_nll + ||pin(enc) - row||^2 + COMMIT_WEIGHT * ||enc - pin(row)||^2.

    recon_nll must have been computed from straight_through(enc_vec,
    nearest).  Routing: the codebook row moves only under the middle term,
    the encoder sees the reconstruction gradient plus the commitment pull,
    the decoder sees reconstruction only.
    """
    if recon_nll.shape != ():
        raise ShapeError(f"recon_nll must be scalar, got {recon_nll.shape}")
    live_row = gather_rows(codebook, np.array([nearest.index]))
    codebook_pull = squared_distance(live_row, nearest.enc_snapshot)
    commitment = squared_distance(enc_vec, nearest.row)
    return add_n([recon_nll, codebook_pull, scale(commitment, COMMIT_WEIGHT)])


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
    Only codes the target holds must have positive model mass: a softmax
    entry that underflowed to 0 where the target is 0 adds nothing.
    """
    p = np.asarray(target, dtype=np.float64).reshape(-1)
    q = model.data.reshape(-1)
    if p.shape != q.shape:
        raise ShapeError(f"distribution sizes differ: {p.shape} vs {q.shape}")
    live = p > 0.0
    bad = np.flatnonzero(live & (q <= 0.0))
    if bad.size:
        j = int(bad[0])
        raise NumericError(f"model gives code {j} probability {q[j]} where "
                           f"the target gives {p[j]}: KL is infinite")
    val = float(np.sum(p[live] * np.log(p[live] / q[live])))

    def back(g):
        gs = float(np.asarray(g).item())
        d = np.zeros_like(q)
        d[live] = -p[live] / q[live]
        accumulate_new(model, d.reshape(model.shape) * gs)

    return custom_op(np.array(val), back)
