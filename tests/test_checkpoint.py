import json
import os
from pathlib import Path

import numpy as np
import pytest

from foucast.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from foucast.model import ModelConfig, NowcastModel
from foucast.optim import init_state
from foucast.synth import SyntheticEventConfig, generate_event
from foucast.train import TrainConfig, TrainState, train_model


def micro_cfg(**kw):
    base = dict(
        t_in=2, k_out=2, hw=16, hidden_hw=4, c_emb=4, depth_l=1, n_blocks=2,
        memory_slots=3, enc_channels=(4, 4, 4), mem_channels=4, lam=0.5,
    )
    base.update(kw)
    return ModelConfig(**base)


def make_events(cfg, n=3, seed=0):
    return [
        generate_event(SyntheticEventConfig(
            seed=seed + i, hw=cfg.hw, t_in=cfg.t_in, k_out=cfg.k_out, n_blobs=2, cov_hw=8))
        for i in range(n)
    ]


def test_round_trip_bit_identical_forward(tmp_path):
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=0)
    opt = init_state(model.params, lr=0.005)
    opt.step = 7
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, opt)

    loaded, opt2, meta = load_checkpoint(path)
    assert meta == {"step": 7}
    assert loaded.cfg == cfg
    assert loaded.params.to_flat().tobytes() == model.params.to_flat().tobytes()
    assert opt2.lr == opt.lr and opt2.step == opt.step
    assert np.array_equal(opt2.m, opt.m) and np.array_equal(opt2.v, opt.v)

    seq, cov = make_events(cfg, n=1, seed=5)[0]
    assert loaded.predict(seq, cov).tobytes() == model.predict(seq, cov).tobytes()


def test_config_mismatch_names_both_values(tmp_path):
    cfg = micro_cfg(depth_l=1)
    model = NowcastModel.initialize(cfg, seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, init_state(model.params))
    with pytest.raises(CheckpointError, match=r"depth_l: checkpoint=1 vs config=2"):
        load_checkpoint(path, expect_cfg=micro_cfg(depth_l=2))


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\x00\x01\x02 not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def rewrite_header(path, edit):
    header, rest = path.read_bytes().split(b"\n", 1)
    head = json.loads(header)
    edit(head)
    path.write_bytes(json.dumps(head).encode() + b"\n" + rest)


@pytest.mark.parametrize("edit,message", [
    (lambda h: h.pop("config"), "header has no 'config'"),
    (lambda h: h.pop("param_names"), "header has no 'param_names'"),
    (lambda h: h.pop("step"), "header has no 'step'"),
    (lambda h: h["config"].pop("lam"), r"lacks key\(s\) lam"),
    # the variant keys of older checkpoints are gone from ModelConfig
    (lambda h: h["config"].update(afno_bias=True, fusion_per_block=False, pfm_mode="per_bin"),
     r"unknown key\(s\) afno_bias, fusion_per_block, pfm_mode"),
    (lambda h: h["param_names"].reverse(), "where the config expects 'enc1.w'"),
    (lambda h: h["config"].update(mem_channels=8), r"'mem1.w' is \(4, 3, 3, 3\)"),
    (lambda h: h["optimizer"].pop("lr"), "optimizer has no 'lr'"),
    (lambda h: h.pop("optimizer"), "header has no 'optimizer'"),
    (lambda h: h.update(optimizer=None), "optimizer = null is not an object of lr, "),
    (lambda h: h.update(optimizer=[0.001]), r"optimizer = \[0.001\] is not an object"),
    (lambda h: h.update(step="x"), 'step = "x" is not an integer >= 0'),
    (lambda h: h.update(step=None), "step = null is not an integer >= 0"),
    (lambda h: h.update(step=-3), "step = -3 is not an integer >= 0"),
    (lambda h: h.update(step=2.7), r"step = 2.7 is not an integer >= 0"),
    (lambda h: h.update(step=2.0), r"step = 2.0 is not an integer >= 0"),
    (lambda h: h.update(step=True), "step = true is not an integer >= 0"),
], ids=["no_config", "no_param_names", "no_step", "config_lacks_key", "older_variant_keys",
        "param_order", "param_shape", "optimizer_lacks_lr", "no_optimizer", "null_optimizer",
        "list_optimizer", "string_step", "null_step", "negative_step", "fractional_step",
        "float_step", "bool_step"])
def test_header_that_does_not_fit_is_named(tmp_path, edit, message):
    model = NowcastModel.initialize(micro_cfg(), seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, init_state(model.params))
    rewrite_header(path, edit)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("moment,edit", [
    ("m", lambda a: a[:-5]), ("m", lambda a: np.concatenate([a, a[:1]])),
    ("v", lambda a: np.where(np.arange(a.size) == 3, np.nan, a)),
], ids=["m_short", "m_long", "v_nan"])
def test_optimizer_moments_that_do_not_fit_are_named(tmp_path, moment, edit):
    """Moments that do not fit the parameters stop the load, not the first AdamW step."""
    model = NowcastModel.initialize(micro_cfg(), seed=1)
    opt = init_state(model.params)
    setattr(opt, moment, edit(getattr(opt, moment)))
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, opt)
    with pytest.raises(CheckpointError, match=rf"optimizer\.{moment} is not {model.params.size} "):
        load_checkpoint(path)


def test_write_is_fsynced_before_it_replaces_the_file(tmp_path, monkeypatch):
    """The temp file's bytes reach the disk before the rename makes them the checkpoint."""
    calls = []
    fsync, replace = os.fsync, Path.replace

    def record_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_size))
        fsync(fd)

    def record_replace(self, target):
        calls.append(("replace", Path(target).name))
        return replace(self, target)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(Path, "replace", record_replace)
    model = NowcastModel.initialize(micro_cfg(), seed=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, init_state(model.params))
    assert calls == [("fsync", path.stat().st_size), ("replace", "m.ckpt")]
    assert not Path(str(path) + ".tmp").exists()


def resume_from(path, events, tcfg):
    m_res, opt_res, meta = load_checkpoint(path)
    assert meta == {"step": opt_res.step}
    return train_model(m_res, events, tcfg, state=TrainState(model=m_res, opt=opt_res))


def interrupted_run(tmp_path):
    """A 6-step run, and a checkpoint of the same run interrupted after step 5."""
    cfg = micro_cfg()
    events = make_events(cfg)
    tcfg = TrainConfig(lr=0.002, batch=2, phase1_steps=2, phase2_steps=4, seed=7)
    s_full = train_model(NowcastModel.initialize(cfg, seed=7), events, tcfg)
    m_part = NowcastModel.initialize(cfg, seed=7)
    s_part = train_model(
        m_part, events, TrainConfig(lr=0.002, batch=2, phase1_steps=2, phase2_steps=3, seed=7)
    )
    path = tmp_path / "part.ckpt"
    save_checkpoint(path, m_part, s_part.opt)
    return s_full, path, events, tcfg


def test_resume_matches_uninterrupted(tmp_path):
    s_full, path, events, tcfg = interrupted_run(tmp_path)
    resumed = resume_from(path, events, tcfg)
    assert resumed.history == s_full.history[5:]
    assert resumed.model.params.to_flat().tobytes() == s_full.model.params.to_flat().tobytes()


def test_older_header_keys_are_ignored(tmp_path):
    """Headers that stored the step beside a phase and a freeze flag load and resume alike."""
    s_full, path, events, tcfg = interrupted_run(tmp_path)

    def older_keys(head):
        head.update(phase=2, frozen_memory=True)
        head["optimizer"]["step"] = head["step"]

    rewrite_header(path, older_keys)
    resumed = resume_from(path, events, tcfg)
    assert resumed.history == s_full.history[5:]
    assert resumed.model.params.to_flat().tobytes() == s_full.model.params.to_flat().tobytes()
