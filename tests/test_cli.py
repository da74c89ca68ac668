import hashlib

import numpy as np
import pytest

from foucast.cli import main
from foucast.config import ConfigError, RunConfig, load_config

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
    ini.write_text("[train]\nbeta1 = 0.8\n")
    with pytest.raises(ConfigError, match=r"\[train\] beta1"):
        load_config(ini)


def test_config_bad_value_named(tmp_path):
    ini = write_ini(tmp_path / "c.ini", data_extra="noise_amp = many")
    with pytest.raises(ConfigError, match="noise_amp"):
        load_config(ini)


def test_config_steps_split_default(tmp_path):
    ini = (tmp_path / "c.ini")
    ini.write_text("[train]\nsteps = 400\n")
    cfg = load_config(ini)
    assert cfg.train.phase1_steps == 100 and cfg.train.phase2_steps == 300


def test_config_steps_conflicts_with_phase_keys(tmp_path):
    ini = tmp_path / "c.ini"
    ini.write_text("[train]\nsteps = 1000\nphase1_steps = 10\n")
    with pytest.raises(ConfigError, match="steps cannot be combined with phase1_steps"):
        load_config(ini)


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


def test_train_eval_report_pipeline(tmp_path, capsys):
    ini = write_ini(tmp_path / "c.ini", n_events=4)
    data = tmp_path / "data"
    run = tmp_path / "run"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    assert main(["train", "--config", str(ini), "--manifest", str(data / "manifest.txt"),
                 "--out", str(run)]) == 0
    assert (run / "model.ckpt").exists()
    log = (run / "train_log.csv").read_text().strip().splitlines()
    assert log[0] == "step,phase,loss" and len(log) == 6

    assert main(["eval", "--config", str(ini), "--checkpoint", str(run / "model.ckpt"),
                 "--manifest", str(data / "manifest.txt"), "--out", str(run)]) == 0
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
    other = write_ini(tmp_path / "other.ini", n_events=3, model_extra="fusion_per_block = true")
    rc = main(["eval", "--config", str(other), "--checkpoint", str(run / "model.ckpt"),
               "--manifest", str(data / "manifest.txt"), "--out", str(run)])
    assert rc != 0
    assert "fusion_per_block" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["two", "0"])
def test_eval_bad_thread_count_fails_before_work(tmp_path, monkeypatch, capsys, value):
    ini = write_ini(tmp_path / "c.ini")
    monkeypatch.setenv("FOUCAST_THREADS", value)
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(tmp_path / "none.ckpt"),
               "--manifest", str(tmp_path / "none.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "FOUCAST_THREADS" in capsys.readouterr().err


def test_eval_non_finite_frames_fail_before_work(tmp_path, capsys):
    """A NaN radar frame stops eval at load time, before the checkpoint is read."""
    from foucast import tensorfile
    from foucast.synth import read_manifest

    ini = write_ini(tmp_path / "c.ini")
    data = tmp_path / "data"
    assert main(["synth", "--config", str(ini), "--out", str(data)]) == 0
    path = read_manifest(data / "manifest.txt").split("test")[0].frames_path
    frames = tensorfile.read_tensor(path)
    frames[-1, 0, 0, 0] = np.nan
    tensorfile.write_tensor(path, frames)
    rc = main(["eval", "--config", str(ini), "--checkpoint", str(tmp_path / "none.ckpt"),
               "--manifest", str(data / "manifest.txt"), "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "frames contains non-finite" in capsys.readouterr().err


def test_thread_pool_reduction_deterministic(monkeypatch):
    """FOUCAST_THREADS fans out evaluation without changing the results."""
    from foucast.evaluate import default_workers, evaluate_model
    from foucast.model import ModelConfig, NowcastModel
    from foucast.synth import SyntheticEventConfig, generate_event

    monkeypatch.setenv("FOUCAST_THREADS", "3")
    assert default_workers() == 3

    cfg = ModelConfig(t_in=2, k_out=2, hw=16, hidden_hw=4, c_emb=4, depth_l=1,
                      n_blocks=2, memory_slots=3, enc_channels=(4, 4, 4), mem_channels=4)
    model = NowcastModel.initialize(cfg, seed=1)
    events = [generate_event(SyntheticEventConfig(seed=s, hw=16, t_in=2, k_out=2,
                                                  n_blobs=2, cov_hw=8))
              for s in range(5)]
    serial = evaluate_model(model, events, [16.0, 74.0], tag="m", max_workers=1)
    pooled = evaluate_model(model, events, [16.0, 74.0], tag="m", max_workers=3)
    assert serial.csi == pooled.csi and serial.hss == pooled.hss
    assert serial.mse == pooled.mse and serial.ssim == pooled.ssim


def test_perfect_forecast_metrics():
    """Aggregation sanity: evaluating the truth against itself is perfect."""
    from foucast.evaluate import evaluate_model
    from foucast.model import ModelConfig, NowcastModel
    from foucast.synth import SyntheticEventConfig, generate_event

    cfg = ModelConfig(t_in=2, k_out=2, hw=16, hidden_hw=4, c_emb=4, depth_l=1,
                      n_blocks=2, memory_slots=3, enc_channels=(4, 4, 4), mem_channels=4)
    model = NowcastModel.initialize(cfg, seed=0)
    model.predict = lambda seq, cov: seq.frames[cfg.t_in:]  # oracle forecaster
    events = [generate_event(SyntheticEventConfig(seed=s, hw=16, t_in=2, k_out=2,
                                                  n_blobs=2, cov_hw=8))
              for s in range(2)]
    rep = evaluate_model(model, events, [16.0, 74.0, 133.0], tag="truth", max_workers=2)
    assert rep.csi_avg == 1.0 and rep.hss_avg == 1.0
    assert rep.mse == 0.0 and rep.mae == 0.0
    assert rep.psnr == np.inf
    assert rep.ssim == pytest.approx(1.0)
