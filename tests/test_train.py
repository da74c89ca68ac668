import numpy as np
import pytest

from foucast import autodiff as ad
from foucast.model import NowcastModel
from foucast.optim import init_state
from foucast.train import (
    TrainConfig, TrainError, TrainState, prepare_events, train_model, train_step,
)
from micro import make_events, micro_cfg


def test_training_reduces_loss():
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=0)
    events = make_events(cfg)
    tcfg = TrainConfig(lr=0.003, batch=2, phase1_steps=10, phase2_steps=30, seed=0)
    state = train_model(model, events, tcfg)
    first = np.mean([h[2] for h in state.history[:5]])
    last = np.mean([h[2] for h in state.history[-5:]])
    assert last < first


def test_identical_runs_identical_loss_curves():
    cfg = micro_cfg()
    events = make_events(cfg)
    tcfg = TrainConfig(lr=0.002, batch=2, phase1_steps=4, phase2_steps=6, seed=1)

    def run():
        model = NowcastModel.initialize(cfg, seed=1)
        return train_model(model, events, tcfg)

    s1, s2 = run(), run()
    assert s1.history == s2.history
    assert s1.model.params.flat.tobytes() == s2.model.params.flat.tobytes()


def test_phase1_slots_move_and_stay_unit():
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=2)
    prepared = prepare_events(model, make_events(cfg))
    tcfg = TrainConfig(lr=0.01, batch=2, phase1_steps=6, phase2_steps=0, seed=2)
    state = TrainState(model=model, opt=init_state(model.params, lr=tcfg.lr))
    while state.step < tcfg.total_steps:
        before = model.params["memory.slots"].tobytes()
        train_step(state, prepared, tcfg)
        after = model.params["memory.slots"]
        assert after.tobytes() != before, f"phase-1 step {state.step - 1} left the bank alone"
        assert np.max(np.abs(np.abs(after) - 1.0)) < 1e-9


def test_phase2_bank_bytes_frozen():
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=3)
    events = make_events(cfg)
    tcfg = TrainConfig(lr=0.01, batch=2, phase1_steps=3, phase2_steps=12, seed=3)
    # run phase 1 alone first, snapshot, then continue into phase 2
    state = train_model(
        model, events, TrainConfig(lr=0.01, batch=2, phase1_steps=3, phase2_steps=0, seed=3)
    )
    snapshot = model.params["memory.slots"].tobytes()
    state = train_model(model, events, tcfg, state=state)
    assert model.params["memory.slots"].tobytes() == snapshot
    # other parameters kept training through phase 2
    assert state.step == 15
    assert [phase for _, phase, _ in state.history] == [1] * 3 + [2] * 12


def test_phase1_zero_means_memory_never_updates():
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=4)
    init_bytes = model.params["memory.slots"].tobytes()
    events = make_events(cfg)
    tcfg = TrainConfig(lr=0.01, batch=1, phase1_steps=0, phase2_steps=8, seed=4)
    train_model(model, events, tcfg)
    assert model.params["memory.slots"].tobytes() == init_bytes


def test_loss_log_written(tmp_path):
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=5)
    events = make_events(cfg)
    tcfg = TrainConfig(lr=0.002, batch=1, phase1_steps=2, phase2_steps=2, seed=5)
    log = tmp_path / "log.csv"
    train_model(model, events, tcfg, log_path=log)
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "step,phase,loss"
    assert len(lines) == 5
    assert lines[1].startswith("0,1,") and lines[-1].startswith("3,2,")


def test_no_events_rejected():
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=6)
    with pytest.raises(TrainError):
        train_model(model, [], TrainConfig())


def train_with_pool(monkeypatch, workers, steps=(2, 2), processes=False):
    """Train the micro config on ``workers`` threads, or on worker processes, its own pool."""
    from foucast import train

    monkeypatch.setenv("FOUCAST_THREADS", str(workers))
    if not processes:
        monkeypatch.setattr(train, "POOL_MIN_ELEMENTS", 0)  # thread-pool the micro config too
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=7)
    tcfg = TrainConfig(lr=0.003, batch=3, phase1_steps=steps[0], phase2_steps=steps[1], seed=7)
    return train_model(model, make_events(cfg), tcfg)


def test_pool_size_does_not_change_training(monkeypatch):
    """Losses, parameters and moments are bit-identical for pools of 1, 2 and 3 workers,
    threads (switching far more often than usual) or processes."""
    import sys

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runs = [train_with_pool(monkeypatch, w) for w in (1, 2, 3)]
    finally:
        sys.setswitchinterval(interval)
    runs += [train_with_pool(monkeypatch, w, processes=True) for w in (1, 2, 3)]
    for other in runs[1:]:
        assert other.history == runs[0].history
        assert np.array_equal(other.model.params.flat, runs[0].model.params.flat)
        assert np.array_equal(other.opt.m, runs[0].opt.m)
        assert np.array_equal(other.opt.v, runs[0].opt.v)


@pytest.mark.parametrize("phase", [1, 2])
def test_step_gradient_equals_one_shared_graph(monkeypatch, phase):
    """The pooled step reproduces, bit for bit, the sweep of one graph over shared leaves."""
    from foucast import pool, train
    from foucast.model import collect_grads, forward_tape, loss_tape, make_leaves
    from foucast.optim import init_state

    monkeypatch.setenv("FOUCAST_THREADS", "2")
    monkeypatch.setattr(train, "POOL_MIN_ELEMENTS", 0)
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=8)
    prepared = train.prepare_events(model, make_events(cfg))
    tcfg = TrainConfig(batch=3, phase1_steps=2 - phase, phase2_steps=1, seed=8)

    leaves = make_leaves(model.params)
    total = None
    with pool.one_blas_thread():
        for i in train.batch_indices(tcfg.seed, 0, len(prepared), tcfg.batch):
            ev = prepared[i]
            pred = forward_tape(leaves, cfg, ev.frames[: cfg.t_in], ev.cov_aligned,
                                phase=phase, gt_frames=ev.frames if phase == 1 else None)
            sample_loss = loss_tape(pred, ev.frames[cfg.t_in :], cfg.lam)
            total = sample_loss if total is None else ad.add(total, sample_loss)
        loss = ad.mul(total, 1.0 / tcfg.batch)
        ad.backward(loss)
    expected = collect_grads(model.params, leaves)

    stepped = []
    adamw_step = train.adamw_step

    def recording_adamw(params, grads, *args, **kwargs):
        stepped.append(grads)
        return adamw_step(params, grads, *args, **kwargs)

    monkeypatch.setattr(train, "adamw_step", recording_adamw)
    state = train.TrainState(model=model, opt=init_state(model.params))
    assert train.train_step(state, prepared, tcfg) == float(loss.value)
    assert np.array_equal(stepped[0].flat, expected.flat)


@pytest.mark.parametrize("phase", [1, 2])
@pytest.mark.parametrize("workers,processes", [(1, False), (2, False), (1, True), (2, True)])
def test_step_matches_per_name_oracle(monkeypatch, phase, workers, processes):
    """Two steps on the flat layout match, bit for bit, gradients summed and AdamW applied
    one parameter at a time, on threads or worker processes."""
    import oracles
    from foucast import pool, train
    from foucast.model import forward_tape, loss_tape, make_leaves

    monkeypatch.setenv("FOUCAST_THREADS", str(workers))
    if not processes:
        monkeypatch.setattr(train, "POOL_MIN_ELEMENTS", 0)
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=5)
    assert train.samples_on_processes(cfg) == processes
    prepared = prepare_events(model, make_events(cfg))
    tcfg = TrainConfig(lr=0.003, batch=3, phase1_steps=2 if phase == 1 else 0,
                       phase2_steps=2 if phase == 2 else 0, seed=5)
    state = TrainState(model=model, opt=init_state(model.params, lr=tcfg.lr))

    def grads_by_name(params, ev, scale):
        leaves = make_leaves(params)
        pred = forward_tape(leaves, cfg, ev.frames[: cfg.t_in], ev.cov_aligned, phase=phase,
                            gt_frames=ev.frames if phase == 1 else None)
        ad.backward(ad.mul(loss_tape(pred, ev.frames[cfg.t_in :], cfg.lam), scale))
        return {name: np.zeros_like(a) if leaves[name].grad is None else leaves[name].grad
                for name, a in params}

    for step in range(2):
        idx = train.batch_indices(tcfg.seed, step, len(prepared), tcfg.batch)
        params = {name: a.copy() for name, a in model.params}
        with pool.one_blas_thread():
            per_sample = [grads_by_name(model.params, prepared[i], 1.0 / len(idx)) for i in idx]
        opt = state.opt
        want, m, v = oracles.train_step_by_name(
            params, per_sample, opt.m, opt.v, opt.step, phase, lr=opt.lr, beta1=opt.beta1,
            beta2=opt.beta2, eps=opt.eps, weight_decay=opt.weight_decay)
        train_step(state, prepared, tcfg)
        for name, a in model.params:
            assert np.array_equal(a, want[name]) and a.dtype == want[name].dtype, name
        assert np.array_equal(state.opt.m, m) and np.array_equal(state.opt.v, v)


def recording(monkeypatch, module, name, seen, record):
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(record())
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def test_pool_workers_run_one_blas_thread(monkeypatch, blas_at_two):
    """Every pass of the step sees one BLAS thread; the count is restored after the step."""
    import threading

    from foucast import train

    def record():
        return threading.get_ident(), blas_at_two()

    seen = []
    recording(monkeypatch, train, "forward_tape", seen, record)
    recording(monkeypatch, ad, "backward", seen, record)
    train_with_pool(monkeypatch, 2, steps=(1, 1))
    assert len(seen) == 2 * 2 * 3 and {count for _, count in seen} == {1}
    idents = {ident for ident, _ in seen}  # the calling thread and a pool thread
    assert threading.get_ident() in idents and len(idents) > 1
    assert blas_at_two() == 2


@pytest.mark.parametrize("workers", [1, 2])
def test_blas_threads_restored_when_step_raises(monkeypatch, blas_at_two, workers):
    from foucast import train

    def failing_forward(*args, **kwargs):
        raise RuntimeError("forward failed")

    monkeypatch.setattr(train, "forward_tape", failing_forward)
    with pytest.raises(RuntimeError, match="forward failed"):
        train_with_pool(monkeypatch, workers)
    assert blas_at_two() == 2


@pytest.mark.parametrize("poisoned", ["every_sample", "one_sample"])
def test_non_finite_loss_raises_before_any_backward(monkeypatch, poisoned):
    """A NaN loss, in every sample or in one, stops the step before the optimizer moves."""
    from foucast import train

    monkeypatch.setenv("FOUCAST_THREADS", "2")
    monkeypatch.setattr(train, "POOL_MIN_ELEMENTS", 0)
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=2)
    prepared = prepare_events(model, make_events(cfg))
    tcfg = TrainConfig(lr=0.003, batch=3, phase1_steps=2, phase2_steps=2, seed=2)
    state = TrainState(model=model, opt=init_state(model.params, lr=tcfg.lr))
    train_step(state, prepared, tcfg)  # a good step first, so the moments are not zero

    def snapshot():
        return (model.params.flat.tobytes(), state.opt.m.tobytes(),
                state.opt.v.tobytes(), state.opt.step, list(state.history))

    before = snapshot()
    bad = prepared[2].frames  # step 1 draws events [0, 2, 0]: event 2 is the middle sample
    assert list(train.batch_indices(tcfg.seed, 1, len(prepared), tcfg.batch)) == [0, 2, 0]
    loss_tape = train.loss_tape

    def poisoning_loss(pred, target, lam):
        loss = loss_tape(pred, target, lam)
        hit = poisoned == "every_sample" or np.shares_memory(target, bad)
        return ad.mul(loss, np.nan) if hit else loss

    monkeypatch.setattr(train, "loss_tape", poisoning_loss)
    swept = []
    recording(monkeypatch, ad, "backward", swept, lambda: True)
    with pytest.raises(TrainError, match="non-finite loss nan at step 1"):
        train_step(state, prepared, tcfg)
    assert snapshot() == before
    # the finite samples may sweep; a poisoned one never does
    assert len(swept) == (0 if poisoned == "every_sample" else 2)


def test_step_holds_one_sample_tape_at_a_time(monkeypatch):
    """Each sample's tape is freed once its gradients are collected: when a sample's
    forward pass starts, no earlier sample's loss node is alive."""
    import gc

    from foucast import train

    monkeypatch.setenv("FOUCAST_THREADS", "1")
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=7)
    prepared = prepare_events(model, make_events(cfg))
    tcfg = TrainConfig(batch=3, phase1_steps=1, phase2_steps=0, seed=7)
    # Var has no weakref slot, so liveness is a search of the collector's objects by node id
    loss_ids, alive = [], []
    loss_tape, forward_tape = train.loss_tape, train.forward_tape

    def recording_loss(*args):
        loss = loss_tape(*args)
        loss_ids.append(loss._id)
        return loss

    def checking_forward(*args, **kwargs):
        gc.collect()
        alive.append(sum(isinstance(o, ad.Var) and o._id in loss_ids for o in gc.get_objects()))
        return forward_tape(*args, **kwargs)

    monkeypatch.setattr(train, "loss_tape", recording_loss)
    monkeypatch.setattr(train, "forward_tape", checking_forward)
    train_step(TrainState(model=model, opt=init_state(model.params)), prepared, tcfg)
    assert len(loss_ids) == 3 and alive == [0, 0, 0]


def test_without_blas_setter_step_runs_on_one_worker(monkeypatch):
    """Where BLAS threads cannot be held at one, a pool would oversubscribe: run serially."""
    import threading

    from foucast import pool, train

    monkeypatch.setattr(pool, "_openblas_threads", lambda: None)
    threads = []
    recording(monkeypatch, train, "forward_tape", threads, threading.get_ident)
    recording(monkeypatch, ad, "backward", threads, threading.get_ident)
    train_with_pool(monkeypatch, 3, steps=(1, 1))
    assert threads == [threading.get_ident()] * (2 * 2 * 3)


class WithPid:
    """Picklable wrapper of a pool task that also returns the pid of the process running it."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, item):
        import os

        return os.getpid(), self.fn(item)


def test_small_samples_step_on_worker_processes(monkeypatch):
    """Below POOL_MIN_ELEMENTS a step's samples run on processes, which do not share the
    interpreter lock: every W-th sample in the caller, the rest in another process."""
    import os

    from foucast import pool, train

    monkeypatch.setattr(pool, "_openblas_threads", lambda: (lambda: 1, lambda n: None))
    small, big = micro_cfg(), micro_cfg(hw=128, hidden_hw=32, enc_channels=(8, 8, 8))
    assert train.samples_on_processes(small) and not train.samples_on_processes(big)
    assert pool.pool_threads(4, 3) == (3, 1)
    monkeypatch.setenv("FOUCAST_THREADS", "3")
    pids = []

    def recording_fan_out(fn, items, max_workers, processes):
        out = pool.fan_out(WithPid(fn), items, max_workers, processes)
        pids.append([pid for pid, _ in out])
        return [result for _, result in out]

    monkeypatch.setattr(train, "fan_out", recording_fan_out)
    model = NowcastModel.initialize(small, seed=7)
    train_model(model, make_events(small, n=4), TrainConfig(batch=4, phase1_steps=1, phase2_steps=1))
    assert len(pids) == 2
    for step in pids:
        assert [pid == os.getpid() for pid in step] == [True, False, False, True]


def test_error_in_a_worker_process_names_the_step(monkeypatch, blas_at_two):
    """A forward pass that overflows in a worker process, not in the caller, still stops the
    step with a TrainError that names it, and the caller's BLAS count is restored."""
    from foucast import pool, train

    monkeypatch.setenv("FOUCAST_THREADS", "2")
    cfg = micro_cfg()
    assert train.samples_on_processes(cfg) and pool.pool_threads(2, 2) == (2, 1)
    model = NowcastModel.initialize(cfg, seed=0)
    good, huge = prepare_events(model, make_events(cfg, n=2))
    huge.frames = huge.frames.copy()
    huge.frames[: cfg.t_in] = 1e308  # overflows the forward pass, before any loss
    tcfg = TrainConfig(batch=2, phase1_steps=1, phase2_steps=0, seed=1)
    # sample 0 runs in the caller, sample 1 in the worker
    assert list(train.batch_indices(tcfg.seed, 0, 2, tcfg.batch)) == [0, 1]
    state = TrainState(model=model, opt=init_state(model.params))
    with np.errstate(all="ignore"), pytest.raises(TrainError, match="^step 0: ") as info:
        train_step(state, [good, huge], tcfg)
    assert isinstance(info.value.__cause__, ad.AutodiffError)
    assert state.step == 0 and blas_at_two() == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_gradient_raises_before_the_optimizer_moves(monkeypatch):
    """A summed batch gradient that is not finite (each sample's may be) stops the step."""
    from foucast import train

    monkeypatch.setenv("FOUCAST_THREADS", "1")  # the patch below does not reach worker processes
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=4)
    prepared = prepare_events(model, make_events(cfg))
    tcfg = TrainConfig(lr=0.003, batch=2, phase1_steps=2, phase2_steps=2, seed=4)
    state = TrainState(model=model, opt=init_state(model.params, lr=tcfg.lr))
    train_step(state, prepared, tcfg)
    collect_grads = train.collect_grads

    def overflowing_grads(params, leaves):
        grads = collect_grads(params, leaves)
        grads["dec4.b"][0] = 1e308  # finite per sample; two samples sum to inf
        return grads

    monkeypatch.setattr(train, "collect_grads", overflowing_grads)
    before = (model.params.flat.tobytes(), state.opt.m.tobytes(), state.opt.step)
    with pytest.raises(TrainError, match="non-finite gradient at step 1"):
        train_step(state, prepared, tcfg)
    assert (model.params.flat.tobytes(), state.opt.m.tobytes(), state.opt.step) == before
