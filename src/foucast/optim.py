"""AdamW over the flat real view of a ParamSet.

Moments live on the flat vector, so complex parameters are optimized as
independent (re, im) coordinates.  Frozen parameters are skipped entirely:
values are carried over bit-exactly and their moments are not advanced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def init_state(
    theta: ParamSet,
    lr: float = 0.001,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.01,
) -> OptimizerState:
    n = theta.size
    return OptimizerState(
        m=np.zeros(n), v=np.zeros(n), step=0, lr=lr,
        beta1=beta1, beta2=beta2, eps=eps, weight_decay=weight_decay,
    )


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

    live = np.ones(flat.size, dtype=bool)
    slices = theta.flat_slices()
    for name in frozen:
        live[slices[name]] = False

    t = state.step + 1
    m = state.m.copy()
    v = state.v.copy()
    m[live] = state.beta1 * m[live] + (1.0 - state.beta1) * g[live]
    v[live] = state.beta2 * v[live] + (1.0 - state.beta2) * g[live] ** 2
    m_hat = m[live] / (1.0 - state.beta1**t)
    v_hat = v[live] / (1.0 - state.beta2**t)

    new_flat = flat.copy()
    new_flat[live] -= state.lr * (
        m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * flat[live]
    )

    return theta.from_flat(new_flat), replace(state, m=m, v=v, step=t)
