"""Adam over named parameter tensors, with state that survives checkpointing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .cores import both, halves


class OptimError(RuntimeError):
    pass


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float = 5e-5) -> None:
    """One bias-corrected Adam update, in place on param.data.

    Moment decays 0.9 and 0.999, epsilon 1e-8.  A parameter with no gradient
    is left untouched.  A learning rate that is not finite and positive, one
    tensor listed under two names, a gradient or stored moment whose shape is
    not its parameter's, or any non-finite gradient aborts the whole step
    before anything is mutated, naming the parameters.

    Each parameter's update reads and writes only its own data, gradient and
    moments, so the parameters are cut in two halves of near-equal element
    count and the second half is updated on eviq.cores' worker thread while
    the caller updates the first.  Every parameter gets the same expression
    on the same arrays as in one serial loop, so the result is bitwise the
    same on one core or two.
    """
    if not (math.isfinite(lr) and lr > 0):
        raise OptimError(f"learning rate must be finite and positive, got {lr!r}")
    seen = {}
    for name, p in params.items():
        earlier = seen.setdefault(id(p), name)
        if earlier != name:
            raise OptimError(f"parameters {earlier!r} and {name!r} are one tensor")
        if p.grad is None:
            continue
        for what, arr in (("gradient", p.grad), ("first moment", state.m.get(name)),
                          ("second moment", state.v.get(name))):
            if arr is not None and arr.shape != p.data.shape:
                raise OptimError(f"{what} of shape {arr.shape} for parameter "
                                 f"{name!r} of shape {p.data.shape}")
        if not np.isfinite(p.grad).all():
            raise OptimError(f"non-finite gradient for parameter {name!r}")
    stepped = [name for name, p in params.items() if p.grad is not None]
    for name in stepped:
        for moments in (state.m, state.v):
            if moments.get(name) is None:
                moments[name] = np.zeros_like(params[name].data)
    state.step += 1
    t = state.step
    c1 = 1.0 - _BETA1 ** t
    c2 = 1.0 - _BETA2 ** t

    def update(names: list[str]) -> None:
        for name in names:
            p = params[name]
            g, m, v = p.grad, state.m[name], state.v[name]
            # lr * (m / c1) / (sqrt(v / c2) + _EPS), operation for operation,
            # written into two scratch buffers instead of a fresh array per operation.
            step = np.empty_like(m)
            den = np.empty_like(v)
            m *= _BETA1
            m += np.multiply(1.0 - _BETA1, g, out=step)
            v *= _BETA2
            v += np.multiply(1.0 - _BETA2, np.multiply(g, g, out=den), out=den)
            np.multiply(lr, np.divide(m, c1, out=step), out=step)
            np.add(np.sqrt(np.divide(v, c2, out=den), out=den), _EPS, out=den)
            p.data -= np.divide(step, den, out=step)

    first, second = halves([params[name].data.size for name in stepped])
    both(update, [stepped[i] for i in first], [stepped[i] for i in second])


def clear_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
