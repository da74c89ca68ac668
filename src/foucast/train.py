"""Two-phase training loop.

Phase 1 learns to populate the memory bank: slots are ordinary trainable
parameters queried with ground-truth sequences, renormalized to unit
magnitude after every optimizer step.  Phase 2 freezes the bank bit-exactly
and switches the query to the input-sequence path; everything else keeps
training.  The optimizer's step count is the run's only counter: the phase,
and with it the freeze, is ``TrainConfig.phase_of(opt.step)``.  Batch
composition depends only on (seed, step), so an interrupted run resumed from
a checkpoint retraces the original trajectory.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .model import EPS_UNIT, ModelConfig, NowcastModel, collect_grads, forward_tape, loss_tape, make_leaves
from .optim import OPTIMIZER_SCALARS, OptimizerState, adamw_step, init_state
from .params import ParamSet
from .pool import default_workers, fan_out
from .synth import CovariateGrid, RadarSequence


class TrainError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    lr: float = OptimizerState.lr
    batch: int = 2
    phase1_steps: int = 100
    phase2_steps: int = 300
    seed: int = 0
    weight_decay: float = OptimizerState.weight_decay
    # AdamW constants: class attributes, not fields, so no config key sets them
    beta1, beta2, eps = OptimizerState.beta1, OptimizerState.beta2, OptimizerState.eps

    def validate(self) -> None:
        for f in fields(self):
            if not (value := getattr(self, f.name)) >= 0:  # NaN fails as well
                raise TrainError(f"{f.name} = {value} must be nonnegative")
            if not np.isfinite(value):
                raise TrainError(f"{f.name} = {value} must be finite")
        if self.batch < 1:
            raise TrainError(f"batch = {self.batch} must be >= 1")
        if self.lr <= 0:
            raise TrainError(f"lr = {self.lr} must be positive")

    @property
    def total_steps(self) -> int:
        return self.phase1_steps + self.phase2_steps

    def phase_of(self, step: int) -> int:
        return 1 if step < self.phase1_steps else 2


@dataclass
class PreparedEvent:
    """Event with covariates already regridded to the hidden grid."""

    frames: np.ndarray       # (T+K, 1, hw, hw)
    cov_aligned: np.ndarray | None


@dataclass
class TrainState:
    model: NowcastModel
    opt: OptimizerState
    history: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def step(self) -> int:
        """Steps taken so far: the optimizer's count."""
        return self.opt.step


def prepare_events(
    model: NowcastModel, events: list[tuple[RadarSequence, CovariateGrid]]
) -> list[PreparedEvent]:
    return [PreparedEvent(frames=seq.frames, cov_aligned=model.align_covariates(cov))
            for seq, cov in events]


def batch_indices(seed: int, step: int, n_events: int, batch: int) -> np.ndarray:
    """Deterministic per-step sampling, independent of training history."""
    rng = np.random.default_rng([seed, step])
    return rng.integers(0, n_events, size=min(batch, n_events))


# A step's samples run on worker threads where a sample's full-resolution activation,
# hw * hw * enc_channels[0], has this many elements, and on spawned worker processes below it.
# Below it GIL-free numpy kernels are too short for a second thread to gain (2 vCPUs: 0.95x at
# 2**15, 0.99x at 2**16, 1.35x at 2**17), while a process does not share the interpreter lock:
# train_ablation (2**15) ran 1.33x the serial samples/s (51.5 -> 68.6, median of 10 pairs).
# Above it pickling costs more than the lock: the paper-default step took 324-379 ms on
# processes against 297-335 ms on threads, with about 9 MB pickled per task.
POOL_MIN_ELEMENTS = 1 << 17


def samples_on_processes(cfg: ModelConfig) -> bool:
    """Whether a train step's samples run on worker processes rather than threads."""
    return cfg.hw * cfg.hw * cfg.enc_channels[0] < POOL_MIN_ELEMENTS


def sample_grads(
    params: ParamSet, cfg: ModelConfig, phase: int, scale: float, ev: PreparedEvent
) -> tuple[float, ParamSet | None]:
    """One sample's loss value and its gradients scaled by ``scale``, or None for them if the
    loss is not finite (then nothing is swept).

    The graph is built on the sample's own leaves over ``params``' arrays, so samples
    share no tape state; the function reads no other state, so a pool thread or a
    worker process can run it.
    """
    leaves = make_leaves(params)
    pred = forward_tape(
        leaves, cfg, ev.frames[: cfg.t_in], ev.cov_aligned, phase=phase,
        gt_frames=ev.frames if phase == 1 else None,
    )
    sample_loss = loss_tape(pred, ev.frames[cfg.t_in :], cfg.lam)
    if not np.isfinite(sample_loss.value):
        return sample_loss.value, None
    ad.backward(ad.mul(sample_loss, scale))
    return sample_loss.value, collect_grads(params, leaves)


def train_step(state: TrainState, prepared: list[PreparedEvent], tcfg: TrainConfig) -> float:
    """One optimizer step; returns the batch loss.

    Each sample is one ``fan_out`` task of ``sample_grads`` (on processes where
    ``samples_on_processes`` says so), so a step holds one live tape per worker; a
    non-finite batch loss or summed gradient raises before the optimizer moves.
    Gradients are summed last sample first, the order of one shared graph's sweep,
    so the step does not depend on the pool size or kind.
    """
    model = state.model
    cfg = model.cfg
    step = state.step
    phase = tcfg.phase_of(step)
    idx = list(batch_indices(tcfg.seed, step, len(prepared), tcfg.batch))
    scale = 1.0 / len(idx)

    task = functools.partial(sample_grads, model.params, cfg, phase, scale)
    try:
        per_sample = fan_out(task, [prepared[i] for i in idx], default_workers(),
                             samples_on_processes(cfg))
    except ad.AutodiffError as exc:  # e.g. a forward pass that overflows after a diverged step
        raise TrainError(f"step {step}: {exc}") from exc
    loss_value = float(sum(value for value, _ in per_sample) * scale)
    if not np.isfinite(loss_value):
        raise TrainError(f"non-finite loss {loss_value} at step {step}")
    grads = per_sample[-1][1]
    for _, earlier in reversed(per_sample[:-1]):
        grads.flat += earlier.flat
    if not np.all(np.isfinite(grads.flat)):
        raise TrainError(f"non-finite gradient at step {step}")

    frozen = frozenset({"memory.slots"}) if phase == 2 else frozenset()
    model.params, state.opt = adamw_step(model.params, grads, state.opt, frozen=frozen)
    if phase == 1:
        with ad.no_grad():
            model.params["memory.slots"] = ad.cunit(model.params["memory.slots"], EPS_UNIT).value
    state.history.append((step, phase, loss_value))
    return loss_value


def train_model(
    model: NowcastModel,
    events: list[tuple[RadarSequence, CovariateGrid]],
    tcfg: TrainConfig,
    log_path: str | Path | None = None,
    state: TrainState | None = None,
) -> TrainState:
    """Run the two-phase protocol from ``state`` (or fresh) to completion."""
    if not events:
        raise TrainError("no training events")
    if state is None:
        opt = init_state(model.params, **{key: getattr(tcfg, key) for key in OPTIMIZER_SCALARS})
        state = TrainState(model=model, opt=opt)
    prepared = prepare_events(model, events)

    log_fh = None
    writer = None
    if log_path is not None:
        log_fh = open(log_path, "a+", newline="")
        log_fh.seek(0)
        # rewrite the header and earlier steps' rows: a resume drops what ran past its checkpoint
        rows = [r for r in csv.reader(log_fh) if r and r[0].isdecimal() and int(r[0]) < state.step]
        log_fh.truncate(0)
        writer = csv.writer(log_fh)
        writer.writerows([["step", "phase", "loss"], *rows])
    try:
        while state.step < tcfg.total_steps:
            loss = train_step(state, prepared, tcfg)
            if writer is not None:
                writer.writerow([state.step - 1, tcfg.phase_of(state.step - 1), f"{loss:.8f}"])
    finally:
        if log_fh is not None:
            log_fh.close()
    return state
