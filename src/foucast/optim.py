"""AdamW over the flat real view of a ParamSet.

Moments live on the flat vector, so complex parameters are optimized as
independent (re, im) coordinates.  Frozen parameters keep their values and
moments bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .params import ParamSet


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


_NAMES = [f.name for f in fields(OptimizerState)]
# The AdamW scalars, every field after the step, in checkpoint-header order.
OPTIMIZER_SCALARS = tuple(_NAMES[_NAMES.index("step") + 1 :])


def init_state(theta: ParamSet, **scalars: float) -> OptimizerState:
    """Zero moments for ``theta``; ``scalars`` override OptimizerState's defaults."""
    return OptimizerState(m=np.zeros(theta.size), v=np.zeros(theta.size), **scalars)


def adamw_step(
    theta: ParamSet,
    grad: ParamSet,
    state: OptimizerState,
    frozen: frozenset[str] | set[str] = frozenset(),
) -> tuple[ParamSet, OptimizerState]:
    """One decoupled-weight-decay Adam update; returns new params and state."""
    flat = theta.to_flat()
    g = grad.to_flat()
    if g.shape != flat.shape:
        raise ValueError(f"gradient size {g.shape} does not match parameters {flat.shape}")

    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g**2
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_flat = flat - state.lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * flat)

    slices = theta.flat_slices()
    for name in frozen:
        sl = slices[name]
        new_flat[sl], m[sl], v[sl] = flat[sl], state.m[sl], state.v[sl]

    return theta.from_flat(new_flat), replace(state, m=m, v=v, step=t)
