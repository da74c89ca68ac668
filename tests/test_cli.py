import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from foucast.cli import main
from foucast.config import ConfigError, DataConfig, EvalConfig, RunConfig, load_config

TINY_INI = """\
[model]
t_in = 2
k_out = 2
hw = 16
hidden_hw = 4
c_emb = 4
depth_l = 1
n_blocks = 2
memory_slots = 3
enc_channels = 4, 4, 4
mem_channels = 4
lambda = 0.5
{model_extra}

[train]
lr = 0.002
batch = 2
phase1_steps = {p1}
phase2_steps = {p2}
seed = 0

[data]
n_events = {n_events}
n_blobs = 2
cov_hw = 8
{data_extra}

[eval]
thresholds = 16, 74
{eval_extra}
"""


def write_ini(path, n_events=4, p1=2, p2=3, model_extra="", data_extra="", eval_extra=""):
    path.write_text(TINY_INI.format(
        n_events=n_events, p1=p1, p2=p2, model_extra=model_extra,
        data_extra=data_extra, eval_extra=eval_extra,
    ))
    return path


def save_initial_checkpoint(path, ini):
    """A checkpoint of the config's model at seed 0 with fresh AdamW state at [train] settings."""
    from foucast.checkpoint import save_checkpoint
    from foucast.model import NowcastModel
    from foucast.optim import init_state

    cfg = load_config(ini)
    model = NowcastModel.initialize(cfg.model, seed=0)
    save_checkpoint(path, model, init_state(
        model.params, lr=cfg.train.lr, weight_decay=cfg.train.weight_decay))
    return path


def rewrite_header(path, edit):
    """Apply ``edit`` to a checkpoint's JSON header, keeping its blobs."""
    header, rest = path.read_bytes().split(b"\n", 1)
    head = json.loads(header)
    edit(head)
    path.write_bytes(json.dumps(head).encode() + b"\n" + rest)


# --- config parsing ---------------------------------------------------------


def test_config_defaults_and_overrides(tmp_path):
    ini = write_ini(tmp_path / "c.ini", model_extra="modules_enabled = {pfm, ifa}")
    cfg = load_config(ini)
    assert cfg.model.t_in == 2 and cfg.model.lam == 0.5
    assert cfg.model.enable_pfm and not cfg.model.enable_fm and cfg.model.enable_ifa
    assert cfg.eval.thresholds == (16.0, 74.0)
    assert cfg.tag() == "pfm+ifa"
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    assert load_config(empty) == RunConfig()


def test_config_unknown_key_named(tmp_path):
    ini = write_ini(tmp_path / "c.ini", model_extra="banana = 1")
    with pytest.raises(ConfigError, match=r"\[model\] banana"):
        load_config(ini)
    # optimizer constants are dataclass fields but not config keys
    # and neither are deleted keys: one model variant, one key per training setting
    for section, key in [("train", "beta1"), ("model", "pfm_mode"), ("train", "steps")]:
        ini.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            load_config(ini)


def test_config_bad_value_named(tmp_path):
    ini = write_ini(tmp_path / "c.ini", data_extra="noise_amp = many")
    with pytest.raises(ConfigError, match="noise_amp"):
        load_config(ini)


def test_eval_grid_below_ssim_window_fails_before_work(tmp_path, capsys):
    """hw = 8 passes [model], synth and train, but eval scores SSIM over an 11 px window:
    eval rejects it by key before the checkpoint or manifest is read (neither exists)."""
    ini = write_ini(tmp_path / "c.ini")
    ini.write_text(ini.read_text().replace("hw = 16\nhidden_hw = 4", "hw = 8\nhidden_hw = 2"))
    load_config(ini)
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(tmp_path / "none.ckpt"),
               "--manifest", str(tmp_path / "none.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: [model] hw = 8 is below the 11 px SSIM window" in err and "none" not in err


def test_config_grid_floor_is_a_model_error(tmp_path):
    """A model grid under the data generator's floor is reported against [model]."""
    ini = write_ini(tmp_path / "c.ini")
    ini.write_text(ini.read_text().replace("hw = 16\nhidden_hw = 4", "hw = 4\nhidden_hw = 1"))
    with pytest.raises(ConfigError, match=r"^\[model\] hw=4 is below the 8 px grid floor"):
        load_config(ini)


@pytest.mark.parametrize("old,new,key", [
    ("n_blocks = 2", "n_blocks = 0", "n_blocks = 0"),  # validate divides c_emb by it
    ("n_blocks = 2", "n_blocks = -2", "n_blocks = -2"),
    ("mem_channels = 4", "mem_channels = 0", "mem_channels = 0"),
    ("enc_channels = 4, 4, 4", "enc_channels = 4, 0, 4", "enc_channels[1] = 0"),
])
def test_config_model_counts_must_be_positive(tmp_path, capsys, old, new, key):
    """Every [model] count fails at load, naming its key, before init_params can see it."""
    ini = write_ini(tmp_path / "c.ini")
    ini.write_text(ini.read_text().replace(old, new))
    with pytest.raises(ConfigError, match=re.escape(f"[model] {key} must be >= 1")):
        load_config(ini)
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path / "d")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section,old,new,key,rule", [
    ("train", "seed = 0", "seed = -1", "seed = -1", "nonnegative"),
    ("train", "phase1_steps = 2", "phase1_steps = -3", "phase1_steps = -3", "nonnegative"),
    ("train", "seed = 0", "seed = 0\nweight_decay = -0.01", "weight_decay = -0.01", "nonnegative"),
    ("train", "lr = 0.002", "lr = nan", "lr = nan", "nonnegative"),
    ("train", "lr = 0.002", "lr = inf", "lr = inf", "finite"),
    ("train", "seed = 0", "seed = 0\nweight_decay = inf", "weight_decay = inf", "finite"),
    ("data", "n_blobs = 2", "n_blobs = 2\nseed = -3", "seed = -3", "nonnegative"),
    ("train", "batch = 2", "batch = 0", "batch = 0", ">= 1"),
    ("train", "lr = 0.002", "lr = 0", "lr = 0.0", "positive"),
])
def test_config_negative_seeds_and_steps_rejected(tmp_path, capsys, section, old, new, key, rule):
    """A negative seed, step count or weight decay, or a NaN or infinite rate, fails at load,
    not mid-run."""
    ini = write_ini(tmp_path / "c.ini")
    ini.write_text(ini.read_text().replace(old, new))
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key} must be {rule}")):
        load_config(ini)
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path / "d")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section,old,new,message", [
    ("data", "n_blobs = 2", "n_blobs = 2\ntrain_frac = 1.5", "train_frac must lie in [0, 1]"),
    ("data", "n_events = 4", "n_events = -1", "n_events must be nonnegative"),
    ("eval", "thresholds = 16, 74", "thresholds = 16, 300",
     "thresholds entry 300.0 outside [0, 255]"),
    ("eval", "thresholds = 16, 74", "thresholds = 16, 16",
     "thresholds entry 16.0 appears more than once"),
    ("eval", "thresholds = 16, 74", "thresholds = 16, 74\nmodel_tag = a,b",
     "model_tag = 'a,b' must not contain a comma or line break"),
    ("eval", "thresholds = 16, 74", "thresholds = 16, 74\nmodel_tag = a\n  b",
     "model_tag = 'a\\nb' must not contain a comma or line break"),
])
def test_config_data_and_eval_ranges_rejected(tmp_path, capsys, section, old, new, message):
    """A [data] or [eval] setting that would corrupt the split or a metric CSV fails at load,
    naming the setting."""
    ini = write_ini(tmp_path / "c.ini")
    ini.write_text(ini.read_text().replace(old, new))
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {message}")):
        load_config(ini)
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path / "d")]) == 2
    assert f"[{section}] {message}" in capsys.readouterr().err


def test_config_built_in_code_gets_the_load_checks():
    with pytest.raises(ConfigError, match=re.escape("train_frac must lie in [0, 1]")):
        DataConfig(train_frac=2.0).validate()
    with pytest.raises(ConfigError, match=re.escape("thresholds entry 300.0 outside [0, 255]")):
        EvalConfig(thresholds=(300.0,)).validate()


def test_diverged_step_names_its_step(tmp_path, capsys):
    """A finite but huge rate drives step 0's parameters to about 1e300; step 1's forward pass
    overflows, and the run stops with exit 2 and the step, not a traceback."""
    ini = write_ini(tmp_path / "c.ini")
    ini.write_text(ini.read_text().replace("lr = 0.002", "lr = 1e300"))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = main(["train", "--config", str(ini), "--manifest", str(data / "manifest.txt"),
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error: step 1: " in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_diverged_step_warns_nowhere_under_the_callers_errstate(tmp_path, capfd, monkeypatch):
    """The caller's ``np.errstate`` reaches the worker process that runs a step's second
    sample: ignored overflows print no RuntimeWarning there either, and step 1 still stops."""
    import functools

    from foucast import pool

    ini = write_ini(tmp_path / "c.ini")
    ini.write_text(ini.read_text().replace("lr = 0.002", "lr = 1e300"))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    # a pool of its own: a worker spawned now writes to the stderr this test captures
    executor = functools.cache(pool._executor.__wrapped__)
    monkeypatch.setattr(pool, "_executor", executor)
    monkeypatch.setenv("FOUCAST_THREADS", "2")
    try:
        with np.errstate(all="ignore"):
            rc = main(["train", "--config", str(ini), "--manifest", str(data / "manifest.txt"),
                       "--out", str(tmp_path / "run")])
    finally:
        executor(1, True).shutdown()
    out, err = capfd.readouterr()
    assert "train pool 2 worker(s) (processes)" in out
    assert rc == 2 and "error: step 1: " in err
    assert "RuntimeWarning" not in err


def test_eval_overflowing_forecast_exits_2(tmp_path, capsys):
    """A checkpoint with finite but huge parameters overflows the forecast; eval stops with
    exit 2 and the tape's error, naming the event, not a traceback, and writes no metric CSV."""
    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    from foucast.checkpoint import save_checkpoint
    from foucast.model import NowcastModel
    from foucast.optim import init_state

    cfg = load_config(ini)
    model = NowcastModel.initialize(cfg.model, seed=0)
    for name in model.params.names():
        model.params[name] = model.params[name] * 1e200
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model, init_state(model.params, lr=cfg.train.lr))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        rc = main(["eval", "--config", str(ini), "--checkpoint", str(ckpt),
                   "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "error: event 0: half-spectrum contains non-finite entries" in capsys.readouterr().err
    assert not list((tmp_path / "run").glob("metrics_*.csv"))


@pytest.mark.parametrize("text", ["", "model,mse\npfm,1.0,extra\n"])
def test_report_rejects_empty_or_ragged_csv(tmp_path, capsys, text):
    (tmp_path / "metrics_pixel.csv").write_text(text)
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert f"{tmp_path / 'metrics_pixel.csv'} is empty or its rows differ in length" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_argument_rejected(tmp_path, capsys, command):
    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    capsys.readouterr()
    args = ["--manifest", str(data / "manifest.txt")] if command == "train" else []
    rc = main([command, "--config", str(ini), "--out", str(tmp_path / "run"), "--seed", "-1",
               *args])
    assert rc == 2
    assert "seed = -1 must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.ckpt").exists()


def test_config_steps_split_default(tmp_path):
    """Each phase's step count falls back to its own default when not given."""
    ini = tmp_path / "c.ini"
    ini.write_text("[train]\nphase1_steps = 7\n")
    assert load_config(ini).train.phase2_steps == RunConfig().train.phase2_steps
    ini.write_text("[train]\nphase2_steps = 7\n")
    assert load_config(ini).train.phase1_steps == RunConfig().train.phase1_steps


@pytest.mark.parametrize("key,raw,name,value", [
    ("n_blobs", "5", "n_blobs", 5),
    ("advect", "1, 2", "advect_range", (1.0, 2.0)),
    ("growth", "-0.1, 0.2", "growth_range", (-0.1, 0.2)),
    ("anisotropy", "1.5, 3", "anisotropy_range", (1.5, 3.0)),
    ("noise_amp", "0.5", "noise_amp", 0.5),
    ("cov_hw", "12", "cov_hw", 12),
    ("turn", "-0.2, 0.3", "turn_range", (-0.2, 0.3)),
    ("direction_modes", "4", "direction_modes", 4),
    ("size", "0.05, 0.1", "size_range", (0.05, 0.1)),
])
def test_config_data_generator_keys_reach_synth_config(tmp_path, key, raw, name, value):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[data]\n{key} = {raw}\n")
    scfg = load_config(ini).synth_config()
    assert getattr(scfg, name) == value
    assert scfg == dataclasses.replace(RunConfig().synth_config(), **{name: value})


def test_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.ini")


def test_config_meteonet_thresholds(tmp_path):
    ini = write_ini(tmp_path / "c.ini", eval_extra="")
    ini.write_text(ini.read_text().replace("thresholds = 16, 74", "thresholds = 12, 24, 32"))
    cfg = load_config(ini)
    assert cfg.eval.thresholds == (12.0, 24.0, 32.0)


# --- commands ---------------------------------------------------------------


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_synth_stable_hashes(tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", n_events=1)
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path / "a")]) == 0
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path / "b")]) == 0
    fa = tmp_path / "a/events/event_0000_frames.fct"
    fb = tmp_path / "b/events/event_0000_frames.fct"
    assert sha(fa) == sha(fb)


def test_synth_zero_events(tmp_path):
    ini = write_ini(tmp_path / "c.ini", n_events=0)
    assert main(["synth", "--config", str(ini), "--out", str(tmp_path / "d")]) == 0
    text = (tmp_path / "d/manifest.txt").read_text()
    assert "event " not in text


def test_synth_invalid_range_nonzero_exit(tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", data_extra="advect = 5, 1")
    rc = main(["synth", "--config", str(ini), "--out", str(tmp_path / "e")])
    assert rc != 0
    assert "advect" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize("setting,name", [
    ("size = nan, nan", "size_range"),
    ("advect = nan, 1", "advect_range"),
    ("growth = -inf, 0", "growth_range"),
    ("noise_amp = nan", "noise_amp"),
])
def test_non_finite_generator_setting_named(tmp_path, capsys, command, setting, name):
    """Range checks let NaN through, so a non-finite [data] setting is rejected by name first."""
    ini = write_ini(tmp_path / "c.ini", data_extra=setting)
    args = ["--manifest", str(tmp_path / "manifest.txt")] if command == "train" else []
    assert main([command, "--config", str(ini), "--out", str(tmp_path / "d"), *args]) == 2
    assert f"[data] {name} contains non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_train_eval_report_pipeline(tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", n_events=4)
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    assert main(["train", "--config", str(ini), "--manifest", str(data / "manifest.txt"),
                 "--out", str(run)]) == 0
    assert (run / "model.ckpt").exists()
    assert re.search(r"^train pool \d+ worker\(s\) \(processes\), BLAS threads per worker: "
                     r"(1|not settable)$", capsys.readouterr().out, re.MULTILINE)
    log = (run / "train_log.csv").read_text().strip().splitlines()
    assert log[0] == "step,phase,loss" and len(log) == 6

    capsys.readouterr()
    assert main(["eval", "--config", str(ini), "--checkpoint", str(run / "model.ckpt"),
                 "--manifest", str(data / "manifest.txt"), "--out", str(run)]) == 0
    assert re.search(r"^eval pool \d+ worker\(s\), BLAS threads per worker: (1|not settable)$",
                     capsys.readouterr().out, re.MULTILINE)
    csi = (run / "metrics_csi.csv").read_text().splitlines()
    assert csi[0] == "model,threshold,csi,hss"
    assert csi[1].startswith("pfm+fm+ifa,16,")
    assert csi[-1].startswith("pfm+fm+ifa,avg,")
    pixel = (run / "metrics_pixel.csv").read_text().splitlines()
    assert pixel[0] == "model,mse,mae,psnr,ssim"
    lead = (run / "metrics_leadtime.csv").read_text().splitlines()
    assert len(lead) == 3  # header + one row per predicted frame

    capsys.readouterr()
    assert main(["report", "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert "metrics_csi.csv" in out and "pfm+fm+ifa" in out


def processes_carrying(entry: bytes) -> list[int]:
    """Pids of the processes whose environment holds ``entry`` (``NAME=value``)."""
    from pathlib import Path

    pids = []
    for environ in Path("/proc").glob("[0-9]*/environ"):
        try:
            if entry in environ.read_bytes().split(b"\0"):
                pids.append(int(environ.parent.name))
        except OSError:  # gone, or not ours to read
            pass
    return pids


def test_no_process_outlives_a_train_run(tmp_path):
    """A train run on worker processes leaves nothing running once it exits: no worker and
    no multiprocessing resource tracker still carries the run's environment."""
    import os
    import subprocess
    import sys
    import time
    import uuid
    from pathlib import Path

    import foucast
    from foucast import pool

    if not Path("/proc/self/environ").exists():
        pytest.skip("no /proc to scan")
    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    marker = uuid.uuid4().hex
    env = {**os.environ, "FOUCAST_TEST_MARKER": marker, "FOUCAST_THREADS": "2",
           "PYTHONPATH": str(Path(foucast.__file__).parents[1])}
    entry = f"FOUCAST_TEST_MARKER={marker}".encode()
    probe = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"], env=env)
    try:
        assert processes_carrying(entry) == [probe.pid]  # the scan sees a marked process
    finally:
        probe.kill()
        probe.wait()
    # output to files, not pipes: a process left holding a pipe would hold up run() instead
    out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
    with out.open("w") as stdout, err.open("w") as stderr:
        run = subprocess.run(
            [sys.executable, "-m", "foucast.cli", "train", "--config", str(ini),
             "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "run")],
            env=env, stdout=stdout, stderr=stderr, timeout=300,
        )
    assert run.returncode == 0, err.read_text()
    if pool._openblas_threads() is not None:  # else the pool has one worker and starts none
        assert "train pool 2 worker(s) (processes)" in out.read_text()
    # the resource tracker ends once it reads EOF from the exited run: give it a moment
    deadline = time.monotonic() + 10.0
    while (left := processes_carrying(entry)) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert left == []


def test_no_process_outlives_a_killed_train_run(tmp_path):
    """A train run killed outright cannot shut its worker down: the worker sees its parent
    go and exits, and the resource tracker follows it."""
    import os
    import signal
    import subprocess
    import sys
    import time
    import uuid
    from pathlib import Path

    import foucast
    from foucast import pool

    if not Path("/proc/self/environ").exists() or pool._openblas_threads() is None:
        pytest.skip("no /proc to scan, or no BLAS setter and so no worker")
    ini = write_ini(tmp_path / "c.ini", p1=5000, p2=5000)
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    marker = uuid.uuid4().hex
    env = {**os.environ, "FOUCAST_TEST_MARKER": marker, "FOUCAST_THREADS": "2",
           "PYTHONPATH": str(Path(foucast.__file__).parents[1])}
    entry = f"FOUCAST_TEST_MARKER={marker}".encode()
    run = subprocess.Popen(
        [sys.executable, "-m", "foucast.cli", "train", "--config", str(ini),
         "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "run")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
    )
    def worker_started():
        for pid in processes_carrying(entry):
            try:
                if pid != run.pid and b"spawn_main" in Path(f"/proc/{pid}/cmdline").read_bytes():
                    return True
            except OSError:  # gone since the scan
                pass
        return False

    try:
        deadline = time.monotonic() + 60.0
        while not worker_started() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert worker_started() and run.poll() is None
        run.kill()
        run.wait()
        deadline = time.monotonic() + 10.0
        while (left := processes_carrying(entry)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert left == []
    finally:  # whatever is left of the run's session goes with the test
        try:
            os.killpg(run.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        run.wait()


def test_train_determinism_same_seed(tmp_path):
    ini = write_ini(tmp_path / "c.ini", n_events=4)
    data = tmp_path / "data"
    main(["synth", "--config", str(ini), "--out", str(data)])
    main(["train", "--config", str(ini), "--manifest", str(data / "manifest.txt"),
          "--out", str(tmp_path / "r1")])
    main(["train", "--config", str(ini), "--manifest", str(data / "manifest.txt"),
          "--out", str(tmp_path / "r2")])
    l1 = (tmp_path / "r1/train_log.csv").read_text()
    l2 = (tmp_path / "r2/train_log.csv").read_text()
    assert l1 == l2


def test_resumed_train_log_has_one_header(tmp_path):
    """A resume writes the header into a new log and appends to an existing one."""
    ini = write_ini(tmp_path / "c.ini", p1=2, p2=1)
    longer = write_ini(tmp_path / "longer.ini", p1=2, p2=3)
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    assert main(["train", "--config", str(ini), "--manifest", str(data / "manifest.txt"),
                 "--out", str(run)]) == 0
    for out in (tmp_path / "resumed", run):
        assert main(["train", "--config", str(longer), "--manifest", str(data / "manifest.txt"),
                     "--checkpoint", str(run / "model.ckpt"), "--out", str(out)]) == 0
    resumed = (tmp_path / "resumed/train_log.csv").read_text().splitlines()
    assert resumed[0] == "step,phase,loss"
    assert [line[:4] for line in resumed[1:]] == ["3,2,", "4,2,"]
    original = (run / "train_log.csv").read_text().splitlines()
    assert original.count("step,phase,loss") == 1 and original[0] == "step,phase,loss"
    assert len(original) == 1 + 3 + 2


def test_rerun_interrupted_resume_log_matches_uninterrupted(tmp_path, monkeypatch):
    """A resume keeps the log's rows before the checkpoint step and drops the rest, so
    re-running a resume that was interrupted logs each step once."""
    from foucast import train

    short = write_ini(tmp_path / "short.ini", p1=2, p2=0)
    ini = write_ini(tmp_path / "c.ini", p1=2, p2=4)
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0

    def train_to(config, out, *args):
        assert main(["train", "--config", str(config), "--manifest", str(data / "manifest.txt"),
                     "--out", str(out), *args]) == 0

    train_to(ini, tmp_path / "whole")
    run = tmp_path / "run"
    train_to(short, run)
    resume = ["--checkpoint", str(run / "model.ckpt")]
    train_step = train.train_step

    def interrupted_step(state, *args):
        if state.step == 4:
            raise KeyboardInterrupt
        return train_step(state, *args)

    with monkeypatch.context() as patch:
        patch.setattr(train, "train_step", interrupted_step)
        with pytest.raises(KeyboardInterrupt):
            train_to(ini, run, *resume)
    steps = [line.split(",")[0] for line in (run / "train_log.csv").read_text().splitlines()]
    assert steps == ["step", "0", "1", "2", "3"]
    train_to(ini, run, *resume)
    assert (run / "train_log.csv").read_bytes() == (tmp_path / "whole/train_log.csv").read_bytes()


def test_ablation_variants_emit_tagged_rows(tmp_path):
    """modules_enabled toggles produce runnable variants with tagged rows."""
    data = tmp_path / "data"
    base = write_ini(tmp_path / "base.ini", n_events=3, p1=1, p2=1)
    main(["synth", "--config", str(base), "--out", str(data)])
    tags = []
    for name, modules in [("full", "pfm, fm, ifa"), ("no_pfm", "fm, ifa"),
                          ("no_fm", "pfm, ifa"), ("no_ifa", "pfm, fm")]:
        ini = write_ini(
            tmp_path / f"{name}.ini", n_events=3, p1=1, p2=1,
            model_extra=f"modules_enabled = {{{modules}}}",
            eval_extra=f"model_tag = {name}",
        )
        run = tmp_path / f"run_{name}"
        assert main(["train", "--config", str(ini), "--manifest",
                     str(data / "manifest.txt"), "--out", str(run)]) == 0
        assert main(["eval", "--config", str(ini), "--checkpoint", str(run / "model.ckpt"),
                     "--manifest", str(data / "manifest.txt"), "--out", str(run)]) == 0
        first_row = (run / "metrics_pixel.csv").read_text().splitlines()[1]
        tags.append(first_row.split(",")[0])
    assert tags == ["full", "no_pfm", "no_fm", "no_ifa"]


def test_eval_config_mismatch_rejected(tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", n_events=3)
    data = tmp_path / "data"
    run = tmp_path / "run"
    main(["synth", "--config", str(ini), "--out", str(data)])
    main(["train", "--config", str(ini), "--manifest", str(data / "manifest.txt"),
          "--out", str(run)])
    other = write_ini(tmp_path / "other.ini", n_events=3)
    other.write_text(other.read_text().replace("depth_l = 1", "depth_l = 2"))
    rc = main(["eval", "--config", str(other), "--checkpoint", str(run / "model.ckpt"),
               "--manifest", str(data / "manifest.txt"), "--out", str(run)])
    assert rc != 0
    assert "depth_l" in capsys.readouterr().err


HEADER_FAULTS = {
    "header_key": lambda head: head["config"].update(bogus=1),
    "no_optimizer": lambda head: head.update(optimizer=None),  # a save without optimizer state
    "string_step": lambda head: head.update(step="x"),
    "null_step": lambda head: head.update(step=None),
    "negative_step": lambda head: head.update(step=-3),
    "fractional_step": lambda head: head.update(step=2.7),
}


@pytest.mark.parametrize("fault,name", [
    ("header_key", "bogus"), ("nan_param", "enc1.b"), ("no_optimizer", "optimizer"),
    ("string_step", "step"), ("null_step", "step"), ("negative_step", "step"),
    ("fractional_step", "step"),
])
def test_bad_checkpoint_fails_with_named_error(tmp_path, capsys, fault, name):
    """A checkpoint that does not fit its own config stops train and eval with exit code 2."""
    from foucast.checkpoint import save_checkpoint
    from foucast.model import NowcastModel
    from foucast.optim import init_state

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    model = NowcastModel.initialize(load_config(ini).model, seed=0)
    if fault == "nan_param":
        bad = model.params[name].copy()
        bad[0] = np.nan
        model.params[name] = bad
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, model, init_state(model.params, lr=0.002))
    if fault in HEADER_FAULTS:
        rewrite_header(ckpt, HEADER_FAULTS[fault])
    capsys.readouterr()
    for command in ("train", "eval"):
        rc = main([command, "--config", str(ini), "--checkpoint", str(ckpt),
                   "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "run")])
        assert rc == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["two", "0"])
def test_eval_bad_thread_count_fails_before_work(tmp_path, monkeypatch, capsys, value):
    ini = write_ini(tmp_path / "c.ini")
    monkeypatch.setenv("FOUCAST_THREADS", value)
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(tmp_path / "none.ckpt"),
               "--manifest", str(tmp_path / "none.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "FOUCAST_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["two", "0"])
def test_train_bad_thread_count_fails_before_work(tmp_path, monkeypatch, capsys, value):
    """FOUCAST_THREADS is read before the checkpoint and the manifest (neither exists here)."""
    ini = write_ini(tmp_path / "c.ini")
    monkeypatch.setenv("FOUCAST_THREADS", value)
    rc = main(["train", "--config", str(ini), "--checkpoint", str(tmp_path / "none.ckpt"),
               "--manifest", str(tmp_path / "none.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "FOUCAST_THREADS" in err and "none" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit,key", [
    ({"t_in = 2": "t_in = 3", "k_out = 2": "k_out = 1"}, "t_in"),  # 4 frames either way
    ({"hw = 16": "hw = 32", "hidden_hw = 4": "hidden_hw = 8"}, "hw"),
])
def test_manifest_config_mismatch_fails_before_events_load(tmp_path, monkeypatch, capsys,
                                                            command, edit, key):
    """A dataset whose frames do not fit [model] stops train and eval, naming the key."""
    from foucast import cli

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    other = tmp_path / "other.ini"
    text = ini.read_text()
    for old, new in edit.items():
        text = text.replace(old, new)
    other.write_text(text)
    ckpt = tmp_path / "m.ckpt"
    save_initial_checkpoint(ckpt, other)
    loaded = []
    monkeypatch.setattr(cli, "load_event", lambda *a: loaded.append(a))
    args = ["--checkpoint", str(ckpt)] if command == "eval" else []
    rc = main([command, "--config", str(other), "--manifest", str(data / "manifest.txt"),
               "--out", str(tmp_path / "run"), *args])
    assert rc == 2
    assert f"manifest {key} = " in capsys.readouterr().err
    assert loaded == [] and not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_bad_data_config_fails_before_events_load(tmp_path, monkeypatch, capsys, command):
    """A [data] generator setting that synth would reject stops train and eval too."""
    from foucast import cli

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    ckpt = tmp_path / "m.ckpt"
    save_initial_checkpoint(ckpt, ini)
    bad = write_ini(tmp_path / "bad.ini", data_extra="advect = 5, 1")
    loaded = []
    monkeypatch.setattr(cli, "load_event", lambda *a: loaded.append(a))
    args = ["--checkpoint", str(ckpt)] if command == "eval" else []
    rc = main([command, "--config", str(bad), "--manifest", str(data / "manifest.txt"),
               "--out", str(tmp_path / "run"), *args])
    assert rc == 2
    assert "[data] advect" in capsys.readouterr().err
    assert loaded == [] and not (tmp_path / "run").exists()


def test_resume_with_other_learning_rate_fails_before_work(tmp_path, monkeypatch, capsys):
    """A resumed run trains at the checkpoint's optimizer settings, so [train] must agree."""
    from foucast import cli

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    assert main(["train", "--config", str(ini), "--manifest", str(data / "manifest.txt"),
                 "--out", str(run)]) == 0
    other = tmp_path / "other.ini"
    other.write_text(ini.read_text().replace("lr = 0.002", "lr = 0.5"))
    loaded = []
    monkeypatch.setattr(cli, "load_event", lambda *a: loaded.append(a))
    capsys.readouterr()
    rc = main(["train", "--config", str(other), "--manifest", str(data / "manifest.txt"),
               "--checkpoint", str(run / "model.ckpt"), "--out", str(tmp_path / "resumed")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "optimizer lr = 0.002" in err and "0.5" in err
    assert loaded == [] and not (tmp_path / "resumed").exists()


@pytest.mark.parametrize("bad_line", [
    "covstat 0 x0.08 1.0",            # a value that is not a number
    "covstat 99 0.0 1.0",             # a channel the covariates do not have
    "event test frames.fct covs.fct",  # four fields, not five
    "covstat 0 0.0 0.0",              # z-scoring would divide by zero
    "covstat 3 nan 1.0",
    "covstat 7 0.5 -inf",
    "covstat 4 0.5 1.0",              # channel 4 already has its line
    # a split other than train or test, on files that exist
    "event trian events/event_0000_frames.fct events/event_0000_covs.fct "
    "events/event_0000_leads.fct",
])
def test_unparsable_manifest_line_fails_before_events_load(tmp_path, monkeypatch, capsys,
                                                          bad_line):
    """A manifest line that does not parse stops eval with exit code 2, naming the line."""
    from foucast import cli

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    ckpt = tmp_path / "m.ckpt"
    save_initial_checkpoint(ckpt, ini)
    manifest = data / "manifest.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + [bad_line]) + "\n")
    loaded = []
    monkeypatch.setattr(cli, "load_event", lambda *a: loaded.append(a))
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(ckpt),
               "--manifest", str(manifest), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert f"line {len(lines) + 1}: " in capsys.readouterr().err
    assert loaded == [] and not (tmp_path / "run").exists()


def edit_manifest(path, edit):
    """Rewrite the manifest at ``path`` as ``edit`` returns its list of lines."""
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


def set_key(key, line):
    """A manifest edit that replaces the ``key = ...`` line with ``line``."""
    return lambda lines: [line if old.startswith(key + " ") else old for old in lines]


def drop_lines(prefix):
    """A manifest edit that deletes every line starting with ``prefix``."""
    return lambda lines: [line for line in lines if not line.startswith(prefix)]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_manifest_header_numbers_compare_as_numbers(tmp_path, command):
    """A manifest that writes 10 for 10.0 or 16.0 for 16 fits the model, and its events load."""
    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    for old, new in [("cadence_minutes", "cadence_minutes = 10"), ("t_in", "t_in = 2.0"),
                     ("k_out", "k_out = 2e0"), ("hw", "hw = 16.0")]:
        edit_manifest(data / "manifest.txt", set_key(old, new))
    ckpt = save_initial_checkpoint(tmp_path / "m.ckpt", ini)
    args = ["--checkpoint", str(ckpt)] if command == "eval" else []
    assert main([command, "--config", str(ini), "--manifest", str(data / "manifest.txt"),
                 "--out", str(tmp_path / "run"), *args]) == 0


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("edit,message", [
    (set_key("hw", "hw = sixteen"), "manifest hw = sixteen is not a number"),
    (set_key("cadence_minutes", "cadence_minutes = 10 min"),
     "manifest cadence_minutes = 10 min is not a number"),
    (drop_lines("k_out "), "manifest k_out = None is not a number"),
    (set_key("t_in", "t_in = nan"), "manifest t_in = nan does not match the model's t_in = 2"),
    # covariates are z-scored with the manifest's stats, so every channel needs its line
    (drop_lines("covstat 19 "), "no covstat line for covariate channel(s) 19"),
    (drop_lines("covstat "), "no covstat line for covariate channel(s) 0, 1, 2, "),
], ids=["word", "unit", "missing", "nan", "covstat_19_missing", "no_covstat"])
def test_manifest_header_that_does_not_fit_is_named(tmp_path, monkeypatch, capsys,
                                                    command, edit, message):
    """A header number that is not one, or a missing covstat channel, stops train and eval."""
    from foucast import cli

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    ckpt = save_initial_checkpoint(tmp_path / "m.ckpt", ini)
    edit_manifest(data / "manifest.txt", edit)
    loaded = []
    monkeypatch.setattr(cli, "load_event", lambda *a: loaded.append(a))
    args = ["--checkpoint", str(ckpt)] if command == "eval" else []
    rc = main([command, "--config", str(ini), "--manifest", str(data / "manifest.txt"),
               "--out", str(tmp_path / "run"), *args])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert loaded == [] and not (tmp_path / "run").exists()


def test_eval_non_finite_frames_fail_before_work(tmp_path, capsys):
    """A NaN radar frame stops eval at load time, before any event is scored."""
    from foucast import tensorfile
    from foucast.synth import read_manifest

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    ckpt = tmp_path / "m.ckpt"
    save_initial_checkpoint(ckpt, ini)
    path = read_manifest(data / "manifest.txt").split("test")[0].frames_path
    frames = tensorfile.read_tensor(path)
    frames[-1, 0, 0, 0] = np.nan
    tensorfile.write_tensor(path, frames)
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(ckpt),
               "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "frames contains non-finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_short_frames_file_fails_at_load(tmp_path, capsys, command):
    """Frames one short of t_in + k_out stop train and eval at load, naming the file."""
    from foucast import tensorfile
    from foucast.synth import read_manifest

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    ckpt = tmp_path / "m.ckpt"
    save_initial_checkpoint(ckpt, ini)
    split = "test" if command == "eval" else "train"
    path = read_manifest(data / "manifest.txt").split(split)[0].frames_path
    tensorfile.write_tensor(path, tensorfile.read_tensor(path)[:-1])
    capsys.readouterr()
    args = ["--checkpoint", str(ckpt)] if command == "eval" else []
    rc = main([command, "--config", str(ini), "--manifest", str(data / "manifest.txt"),
               "--out", str(tmp_path / "run"), *args])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and "(3, 1, 16, 16) do not match" in err
    assert not (tmp_path / "run").exists()


def test_eval_truncated_event_file_names_manifest_line_and_file(tmp_path, capsys):

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    ckpt = tmp_path / "m.ckpt"
    save_initial_checkpoint(ckpt, ini)
    path = data / "events/event_0003_covs.fct"
    path.write_bytes(path.read_bytes()[:-10])
    lineno = next(i for i, line in enumerate((data / "manifest.txt").read_text().splitlines(), 1)
                  if "event_0003" in line)
    capsys.readouterr()
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(ckpt),
               "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"manifest.txt line {lineno}: {path}: truncated payload" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("fault,message", [
    (lambda leads: leads[::-1].copy(), "lead_minutes must be strictly increasing"),
    (lambda leads: leads[:-1].copy(), "lead_minutes must have shape (2,), got (1,)"),
], ids=["reversed", "one_short"])
def test_eval_bad_covariate_leads_fail_at_load(tmp_path, capsys, fault, message):
    """A leads file out of order or one entry short stops eval when the event loads."""
    from foucast import tensorfile
    from foucast.synth import read_manifest

    ini = write_ini(tmp_path / "c.ini")
    ini.write_text(ini.read_text().replace("k_out = 2", "k_out = 4"))
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    ckpt = tmp_path / "m.ckpt"
    save_initial_checkpoint(ckpt, ini)
    path = read_manifest(data / "manifest.txt").split("test")[0].leads_path
    tensorfile.write_tensor(path, fault(tensorfile.read_tensor(path)))
    capsys.readouterr()
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(ckpt),
               "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_checks_checkpoint_before_data(tmp_path, capsys):
    """A bad checkpoint is reported before the manifest is read (here it does not exist)."""
    ini = write_ini(tmp_path / "c.ini")
    ckpt = tmp_path / "m.ckpt"
    ckpt.write_bytes(b"\x00\x01 not a checkpoint")
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(ckpt),
               "--manifest", str(tmp_path / "none.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "checkpoint" in err and "none.txt" not in err


def micro_model_and_events(n):
    from foucast.model import ModelConfig, NowcastModel
    from foucast.synth import SyntheticEventConfig, generate_event

    cfg = ModelConfig(t_in=2, k_out=2, hw=16, hidden_hw=4, c_emb=4, depth_l=1,
                      n_blocks=2, memory_slots=3, enc_channels=(4, 4, 4), mem_channels=4)
    events = [generate_event(SyntheticEventConfig(seed=s, hw=16, t_in=2, k_out=2,
                                                  n_blobs=2, cov_hw=8))
              for s in range(n)]
    return NowcastModel.initialize(cfg, seed=1), events


def test_thread_pool_reduction_deterministic(monkeypatch):
    """FOUCAST_THREADS fans out evaluation without changing the results."""
    from foucast.evaluate import default_workers, evaluate_model

    monkeypatch.setenv("FOUCAST_THREADS", "3")
    assert default_workers() == 3

    model, events = micro_model_and_events(5)
    serial = evaluate_model(model, events, [16.0, 74.0], tag="m", max_workers=1)
    pooled = evaluate_model(model, events, [16.0, 74.0], tag="m", max_workers=3)
    assert serial.csi == pooled.csi and serial.hss == pooled.hss
    assert serial.mse == pooled.mse and serial.ssim == pooled.ssim


def test_default_workers_counts_usable_cores(monkeypatch):
    """A process pinned to one core gets a one-worker pool, whatever the host has."""
    import os

    from foucast.evaluate import default_workers

    monkeypatch.delenv("FOUCAST_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert default_workers() == 1


def test_eval_pool_workers_run_one_blas_thread(blas_at_two):
    """Every predict, on the calling thread or a pool thread, sees one BLAS thread;
    the count is restored after."""
    import threading

    from foucast.evaluate import evaluate_model

    model, events = micro_model_and_events(4)
    seen = []
    predict = model.predict

    def recording_predict(seq, cov):
        seen.append((threading.get_ident(), blas_at_two()))
        return predict(seq, cov)

    model.predict = recording_predict
    evaluate_model(model, events, [16.0, 74.0], max_workers=2)
    assert [count for _, count in seen] == [1, 1, 1, 1]
    assert len({ident for ident, _ in seen}) > 1
    assert blas_at_two() == 2


def test_fan_out_keeps_item_order_and_maps_every_wth_item_on_the_caller(monkeypatch):
    import threading

    from foucast import pool

    monkeypatch.setattr(pool, "_openblas_threads", lambda: (lambda: 1, lambda n: None))
    caller = threading.get_ident()
    out = pool.fan_out(lambda x: (x * x, threading.get_ident() == caller), list(range(7)), 3)
    assert [square for square, _ in out] == [x * x for x in range(7)]
    assert [k for k, (_, on_caller) in enumerate(out) if on_caller] == [0, 3, 6]


def square_and_pid(x):
    import os

    return x * x, os.getpid()


def blas_threads(_):
    from foucast import pool

    return pool._openblas_threads()[0]()


def test_fan_out_to_processes_keeps_item_order_and_maps_every_wth_item_on_the_caller(
        monkeypatch):
    import os

    from foucast import pool

    monkeypatch.setattr(pool, "_openblas_threads", lambda: (lambda: 1, lambda n: None))
    out = pool.fan_out(square_and_pid, list(range(7)), 3, processes=True)
    assert [square for square, _ in out] == [x * x for x in range(7)]
    assert [k for k, (_, pid) in enumerate(out) if pid == os.getpid()] == [0, 3, 6]


def test_worker_processes_run_one_blas_thread(blas_at_two):
    from foucast import pool

    assert pool.fan_out(blas_threads, [0, 1, 2, 3], 2, processes=True) == [1, 1, 1, 1]
    assert blas_at_two() == 2


def sleep_and_pid(seconds):
    import os
    import time

    time.sleep(seconds)
    return os.getpid()


def test_worker_processes_leave_sigint_to_the_caller(monkeypatch):
    """A Ctrl-C signals the whole process group; a worker that took it could leave its
    result half-sent and the caller waiting forever, so the task runs on to its end."""
    import os
    import signal
    import threading

    from foucast import pool

    monkeypatch.setattr(pool, "_openblas_threads", lambda: (lambda: 1, lambda n: None))
    worker = pool.fan_out(sleep_and_pid, [0.0, 0.0], 2, processes=True)[1]
    assert worker != os.getpid()
    timer = threading.Timer(0.3, os.kill, (worker, signal.SIGINT))
    timer.start()
    try:  # item 1 sleeps for a second in the worker, which gets SIGINT after 0.3 s
        out = pool.fan_out(sleep_and_pid, [0.0, 1.0], 2, processes=True)
    except KeyboardInterrupt:
        pytest.fail("SIGINT interrupted the worker's task")
    finally:
        timer.cancel()
    assert out == [os.getpid(), worker]


def test_worker_process_error_raises_in_the_caller_after_blas_is_restored(blas_at_two):
    import math

    from foucast import pool

    with pytest.raises(ValueError, match="math domain error"):
        pool.fan_out(math.sqrt, [1.0, -1.0], 2, processes=True)
    assert blas_at_two() == 2


NESTED_FAN_OUT = """\
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy  # noqa: F401  (maps the OpenBLAS the pool holds at one thread)

from foucast import pool


def job(_):
    return pool.fan_out(abs, [-1, -2, -3, -4], 2, processes=True)


if __name__ == "__main__":
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as ex:
        print(ex.submit(job, 0).result())
"""


def test_child_process_that_fans_out_to_processes_exits(tmp_path):
    """A multiprocessing child joins its own children when it exits, so its worker
    processes must have been shut down by then, or it would wait forever."""
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    import foucast

    script = tmp_path / "nested.py"
    script.write_text(NESTED_FAN_OUT)
    env = {**os.environ, "PYTHONPATH": str(Path(foucast.__file__).parents[1])}
    run = subprocess.Popen([sys.executable, str(script)], env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = run.communicate(timeout=120)
    finally:  # a hung child and its workers are stopped with the script
        if run.poll() is None:
            os.killpg(run.pid, signal.SIGKILL)
            run.communicate()
    assert run.returncode == 0, err
    assert out.strip() == "[1, 2, 3, 4]"


POOL_BEFORE_NUMPY = """\
from foucast import pool

print(pool.fan_out(abs, [-1, -2, -3, -4], 2, processes=True), pool.pool_threads(2, 4))
"""


def test_pool_imported_before_numpy_still_finds_the_blas_setter():
    """The BLAS setter lookup is cached for the process; a lookup made before numpy mapped
    OpenBLAS would find none, and every fan-out in that process would run on one worker."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import foucast

    env = {**os.environ, "PYTHONPATH": str(Path(foucast.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", POOL_BEFORE_NUMPY], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[1, 2, 3, 4] (2, 1)"


@pytest.mark.parametrize("workers", [1, 2])
def test_eval_restores_blas_threads_when_predict_raises(blas_at_two, workers):
    from foucast.evaluate import evaluate_model

    model, events = micro_model_and_events(3)

    def failing_predict(seq, cov):
        raise RuntimeError("predict failed")

    model.predict = failing_predict
    with pytest.raises(RuntimeError, match="predict failed"):
        evaluate_model(model, events, [16.0, 74.0], max_workers=workers)
    assert blas_at_two() == 2


def test_eval_without_blas_setter_uses_one_worker(monkeypatch):
    """Where BLAS threads cannot be held at one, the pool would oversubscribe: run serially."""
    import threading

    from foucast import evaluate, pool

    monkeypatch.setattr(pool, "_openblas_threads", lambda: None)
    assert pool.pool_threads(4, 5) == (1, None)
    model, events = micro_model_and_events(3)
    threads = []
    predict = model.predict

    def recording_predict(seq, cov):
        threads.append(threading.get_ident())
        return predict(seq, cov)

    model.predict = recording_predict
    evaluate.evaluate_model(model, events, [16.0, 74.0], max_workers=4)
    assert threads == [threading.get_ident()] * 3


def test_eval_report_bit_identical_across_pool_sizes_at_default_config():
    """At the paper-default size, where OpenBLAS threads its GEMMs, the pool size
    does not change a single bit of the report."""
    import dataclasses

    from foucast.evaluate import evaluate_model
    from foucast.model import NowcastModel
    from foucast.synth import generate_event

    cfg = RunConfig()
    model = NowcastModel.initialize(cfg.model, seed=1)
    events = [generate_event(cfg.synth_config(seed=s)) for s in range(3)]
    thresholds = list(cfg.eval.thresholds)
    serial = evaluate_model(model, events, thresholds, max_workers=1)
    pooled = evaluate_model(model, events, thresholds, max_workers=2)
    assert dataclasses.asdict(serial) == dataclasses.asdict(pooled)
    assert serial.lead_rows and serial.lead_rows == pooled.lead_rows


def test_perfect_forecast_metrics():
    """Aggregation sanity: evaluating the truth against itself is perfect."""
    from foucast.evaluate import evaluate_model

    model, events = micro_model_and_events(2)
    model.predict = lambda seq, cov: seq.frames[model.cfg.t_in:]  # oracle forecaster
    rep = evaluate_model(model, events, [16.0, 74.0, 133.0], tag="truth", max_workers=2)
    assert rep.csi_avg == 1.0 and rep.hss_avg == 1.0
    assert rep.mse == 0.0 and rep.mae == 0.0
    assert rep.psnr == np.inf
    assert rep.ssim == pytest.approx(1.0)
