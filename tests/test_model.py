import numpy as np
import pytest

from foucast.autodiff import AutodiffError, Var, backward, no_grad
from foucast.model import (
    ModelConfig,
    ModelError,
    NowcastModel,
    collect_grads,
    encode_tape,
    forward_tape,
    hidden_forward_tape,
    init_params,
    loss_tape,
    make_leaves,
    mem_encode_tape,
    regrid,
)
from foucast.synth import CovariateGrid, N_COV_CHANNELS, SyntheticEventConfig, generate_event
from oracles import afno_apply, combined_loss, memory_match, numpy_hidden_composition, unit_normalize


def micro_cfg(**kw):
    base = dict(
        t_in=2, k_out=2, hw=16, hidden_hw=4, c_emb=4, depth_l=1, n_blocks=2,
        memory_slots=3, enc_channels=(4, 4, 4), mem_channels=4, lam=0.5,
    )
    base.update(kw)
    return ModelConfig(**base)


def rand_field(rng, h, w, c):
    return rng.standard_normal((h, w, c))


# --- regrid -----------------------------------------------------------------


def test_regrid_identity_before_normalization():
    rng = np.random.default_rng(0)
    fields = rng.standard_normal((4, N_COV_CHANNELS, 8, 8))
    cov = CovariateGrid(fields=fields, lead_minutes=np.array([10.0, 20.0, 30.0, 40.0]))
    out = regrid(cov, cov.lead_minutes, (8, 8), normalize=False)
    assert np.allclose(out, fields, atol=1e-12)


def test_regrid_ramp_and_midpoint():
    ys, xs = np.mgrid[0:8, 0:8].astype(float)
    ramp = 3.0 * xs - 1.0 * ys
    fields = np.zeros((2, N_COV_CHANNELS, 8, 8))
    fields[0] = ramp
    fields[1] = ramp + 10.0
    cov = CovariateGrid(fields=fields, lead_minutes=np.array([10.0, 30.0]))
    out = regrid(cov, np.array([20.0]), (15, 15), normalize=False)
    oy, ox = np.mgrid[0:15, 0:15].astype(float)
    want = 3.0 * (ox * 7 / 14) - 1.0 * (oy * 7 / 14) + 5.0
    assert np.max(np.abs(out[0, 0] - want)) < 1e-10


def test_regrid_zscore_uses_attached_stats():
    fields = np.ones((2, N_COV_CHANNELS, 4, 4))
    cov = CovariateGrid(
        fields=fields,
        lead_minutes=np.array([10.0, 20.0]),
        mean=np.full(N_COV_CHANNELS, 0.5),
        std=np.full(N_COV_CHANNELS, 2.0),
    )
    out = regrid(cov, np.array([10.0]), (4, 4))
    assert np.allclose(out, 0.25)


def test_regrid_empty_rejected():
    cov = CovariateGrid(fields=np.zeros((0, N_COV_CHANNELS, 4, 4)),
                        lead_minutes=np.zeros(0))
    with pytest.raises(ModelError):
        regrid(cov, np.array([10.0]), (4, 4))


# --- encoders ---------------------------------------------------------------


def test_encode_shape_contract_full_scale():
    cfg = ModelConfig()  # 5 frames at 128x128 -> 32x32 hidden
    params = init_params(cfg, np.random.default_rng(0))
    leaves = make_leaves(params)
    with no_grad():
        h = encode_tape(np.random.default_rng(1).random((5, 1, 128, 128)), leaves, cfg)
    assert h.value.shape == (cfg.c_emb, 32, 32)


def test_encode_zero_input_zero_bias_gives_zero():
    cfg = micro_cfg()
    params = init_params(cfg, np.random.default_rng(2))
    with no_grad():
        h = encode_tape(np.zeros((2, 1, 16, 16)), make_leaves(params), cfg)
    assert np.all(h.value == 0.0)


def test_encode_deterministic():
    cfg = micro_cfg()
    params = init_params(cfg, np.random.default_rng(3))
    x = np.random.default_rng(4).random((2, 1, 16, 16))
    with no_grad():
        a = encode_tape(x, make_leaves(params), cfg)
        b = encode_tape(x, make_leaves(params), cfg)
    assert a.value.tobytes() == b.value.tobytes()


def test_mem_encode_half_spectrum_shape():
    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(5))
    seq = np.random.default_rng(6).random((25, 1, 128, 128))
    with no_grad():
        z = mem_encode_tape(seq, make_leaves(params), cfg)
    assert z.value.shape == (32, 17, cfg.c_emb)
    # any sequence length goes through the same summary
    with no_grad():
        z2 = mem_encode_tape(seq[:5], make_leaves(params), cfg)
    assert z2.value.shape == (32, 17, cfg.c_emb)


def test_mem_encode_zero_sequence():
    cfg = micro_cfg()
    params = init_params(cfg, np.random.default_rng(7))
    with no_grad():
        z = mem_encode_tape(np.zeros((4, 1, 16, 16)), make_leaves(params), cfg)
    assert np.all(z.value == 0)


def test_mem_encode_is_dft_of_encoder_output():
    """The spectral query equals the transform of the separately taken features."""
    cfg = micro_cfg()
    params = init_params(cfg, np.random.default_rng(20))
    seq = np.random.default_rng(21).random((4, 1, 16, 16))
    leaves = make_leaves(params)
    with no_grad():
        z = mem_encode_tape(seq, leaves, cfg)
        # same stack, transform applied separately to the real feature map
        from foucast import autodiff as ad
        from foucast.model import _conv_relu

        flat = seq.reshape(4, 16, 16)
        summary = np.stack([flat.mean(axis=0), flat[-1], flat[-1] - flat[0]])
        h = _conv_relu(ad.Var(summary), leaves, "mem1")
        h = _conv_relu(h, leaves, "mem2", stride=2)
        h = _conv_relu(h, leaves, "mem3", stride=2)
        h = _conv_relu(h, leaves, "mem4", act=False)
    want = np.fft.rfft2(h.value.transpose(1, 2, 0), axes=(0, 1))
    assert np.max(np.abs(z.value - want)) < 1e-15


def test_phase2_query_is_two_step_composition():
    """Input query equals channel alignment applied to the encoded spectrum."""
    from foucast.model import afno_tape

    cfg = micro_cfg()
    params = init_params(cfg, np.random.default_rng(22))
    seq = np.random.default_rng(23).random((2, 1, 16, 16))
    leaves = make_leaves(params)
    with no_grad():
        encoded = mem_encode_tape(seq, leaves, cfg)
        query = afno_tape(encoded, leaves, "align", cfg)
    want = afno_apply(encoded.value, params["align.w1"], params["align.w2"],
                      params["align.b1"], params["align.b2"])
    assert query.value.shape == (cfg.hidden_hw, cfg.wf, cfg.c_emb)
    assert np.max(np.abs(query.value - want)) < 1e-15


# --- hidden stack -----------------------------------------------------------


def identity_leaves(cfg, params):
    """Force gates/weights to exact identity settings."""
    params = params.copy()
    for layer in range(cfg.depth_l):
        params[f"blk{layer}.attn"] = np.ones((cfg.hidden_hw, cfg.wf, cfg.c_emb), complex)
        params[f"blk{layer}.gate"] = np.ones(cfg.c_emb)
        nb = cfg.n_blocks
        eye = np.broadcast_to(np.eye(cfg.c_emb // nb, dtype=complex),
                              (nb, cfg.c_emb // nb, cfg.c_emb // nb)).copy()
        params[f"blk{layer}.afno.w1"] = eye.copy()
        params[f"blk{layer}.afno.w2"] = eye.copy()
    return make_leaves(params)


def test_hidden_forward_identity_composition():
    cfg = micro_cfg(c_emb=1, n_blocks=1, depth_l=2)
    params = init_params(cfg, np.random.default_rng(8))
    leaves = identity_leaves(cfg, params)
    # positive impulse: spectrum is a positive constant, so split-ReLU is safe
    h = np.zeros((4, 4, 1))
    h[0, 0, 0] = 0.7
    f_match = unit_normalize(np.fft.rfft2(h, axes=(0, 1)))  # aligned memory: w_phase = 0
    with no_grad():
        out = hidden_forward_tape(Var(h), Var(h), Var(f_match), leaves, cfg)
    assert np.max(np.abs(out.value - h)) < 1e-10


def test_hidden_forward_zero_input():
    cfg = micro_cfg()
    params = init_params(cfg, np.random.default_rng(9))
    with no_grad():
        out = hidden_forward_tape(
            Var(np.zeros((4, 4, 4))), None, None, make_leaves(params), cfg
        )
    assert np.all(out.value == 0.0)


@pytest.mark.parametrize("seed,mode", [(0, "per_bin"), (1, "per_bin"), (2, "per_channel")])
def test_hidden_forward_matches_numpy_composition(seed, mode):
    rng = np.random.default_rng(seed)
    cfg = micro_cfg(c_emb=8, n_blocks=2, depth_l=2, hw=32, hidden_hw=8, pfm_mode=mode)
    params = init_params(cfg, rng)
    h = rand_field(rng, 8, 8, 8)
    cov_emb = rand_field(rng, 8, 8, 8)
    query = rng.standard_normal((8, 5, 8)) + 1j * rng.standard_normal((8, 5, 8))
    f_match = memory_match(query, params["memory.slots"])[1]

    with no_grad():
        got = hidden_forward_tape(
            Var(h), Var(cov_emb), Var(f_match), make_leaves(params), cfg
        ).value
    want = numpy_hidden_composition(h, cov_emb, f_match, params, cfg)
    assert np.max(np.abs(got - want)) < 1e-10


# --- full forward -----------------------------------------------------------


def micro_batch(cfg, seed=0):
    scfg = SyntheticEventConfig(
        seed=seed, hw=cfg.hw, t_in=cfg.t_in, k_out=cfg.k_out, n_blobs=2, cov_hw=8
    )
    seq, cov = generate_event(scfg)
    return seq, cov


def test_forward_shape_and_range():
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=0)
    seq, cov = micro_batch(cfg)
    pred = model.predict(seq, cov)
    assert pred.shape == (cfg.k_out, 1, cfg.hw, cfg.hw)
    assert np.all(pred >= 0.0) and np.all(pred <= 1.0)


def test_forward_deterministic():
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=1)
    seq, cov = micro_batch(cfg, seed=3)
    assert model.predict(seq, cov).tobytes() == model.predict(seq, cov).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", ["enc1.b", "blk0.attn"])
def test_predict_non_finite_parameter_raises(name):
    """A NaN parameter stops at the inverse transform instead of forecasting NaN."""
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=1)
    seq, cov = micro_batch(cfg, seed=3)
    bad = model.params[name].copy()
    bad.flat[0] = np.nan
    model.params[name] = bad
    with pytest.raises(AutodiffError, match="non-finite"):
        model.predict(seq, cov)


def test_forward_full_scale_shape():
    cfg = ModelConfig(memory_slots=8)  # default 5 -> 20 frames at 128x128
    model = NowcastModel.initialize(cfg, seed=2)
    scfg = SyntheticEventConfig(seed=0, hw=128, t_in=5, k_out=20, n_blobs=2)
    seq, cov = generate_event(scfg)
    pred = model.predict(seq, cov)
    assert pred.shape == (20, 1, 128, 128)


def test_phase_routing_tags_and_validation():
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=3)
    seq, cov = micro_batch(cfg, seed=5)
    leaves = make_leaves(model.params)
    aligned = model.align_covariates(cov)
    inputs = seq.frames[: cfg.t_in]

    with no_grad():
        _, tr1 = forward_tape(leaves, cfg, inputs, aligned, phase=1, gt_frames=seq.frames)
        _, tr2 = forward_tape(leaves, cfg, inputs, aligned, phase=2)
    assert tr1.query_source == "gt"
    assert tr2.query_source == "input"
    assert tr1.alpha.shape == (cfg.hidden_hw, cfg.wf, cfg.memory_slots)

    with pytest.raises(ModelError):
        forward_tape(leaves, cfg, inputs, aligned, phase=1)  # missing gt
    with pytest.raises(ModelError):
        forward_tape(leaves, cfg, inputs, aligned, phase=3)
    with pytest.raises(ModelError):
        forward_tape(leaves, cfg, inputs, aligned, phase=1, gt_frames=seq.frames[:3])


def test_modules_can_be_disabled():
    seq = None
    for flags in [(False, True, True), (True, False, True), (True, True, False),
                  (False, False, False)]:
        cfg = micro_cfg(enable_pfm=flags[0], enable_fm=flags[1], enable_ifa=flags[2])
        model = NowcastModel.initialize(cfg, seed=4)
        if seq is None:
            seq, cov = micro_batch(cfg, seed=6)
        pred = model.predict(seq, cov)
        assert pred.shape == (cfg.k_out, 1, cfg.hw, cfg.hw)


def test_fusion_per_block_flag_runs():
    cfg = micro_cfg(fusion_per_block=True, depth_l=2)
    model = NowcastModel.initialize(cfg, seed=5)
    seq, cov = micro_batch(cfg, seed=7)
    pred = model.predict(seq, cov)
    assert pred.shape == (cfg.k_out, 1, cfg.hw, cfg.hw)


def test_afno_bias_can_be_disabled():
    cfg = micro_cfg(afno_bias=False)
    model = NowcastModel.initialize(cfg, seed=7)
    # biases in params but inert: forward ignores them entirely
    model.params["blk0.afno.b1"] = np.full_like(model.params["blk0.afno.b1"], 9.0 + 9.0j)
    seq, cov = micro_batch(cfg, seed=9)
    with_bias_garbage = model.predict(seq, cov)
    model.params["blk0.afno.b1"] = np.zeros_like(model.params["blk0.afno.b1"])
    assert np.array_equal(model.predict(seq, cov), with_bias_garbage)


def test_gradient_reaches_every_parameter_group():
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=6)
    seq, cov = micro_batch(cfg, seed=8)
    leaves = make_leaves(model.params)
    aligned = model.align_covariates(cov)
    pred, _ = forward_tape(leaves, cfg, seq.frames[: cfg.t_in], aligned, phase=2)
    loss = loss_tape(pred, seq.frames[cfg.t_in :], lam=cfg.lam)
    backward(loss)
    grads = collect_grads(model.params, leaves)
    for name, g in grads:
        assert np.any(g != 0), f"dead branch: no gradient reached {name}"


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(hw=100, hidden_hw=32).validate()
    with pytest.raises(ModelError):
        ModelConfig(c_emb=6, n_blocks=4).validate()
    with pytest.raises(ModelError):
        ModelConfig(lam=1.5).validate()


def test_loss_tape_matches_numpy_combined_loss():
    rng = np.random.default_rng(10)
    pred = rng.random((3, 1, 8, 8))
    gt = rng.random((3, 1, 8, 8))
    for lam in (0.0, 0.57, 1.0):
        with no_grad():
            got = float(loss_tape(Var(pred), gt, lam).value)
        assert got == pytest.approx(combined_loss(pred, gt, lam), rel=1e-12)
