"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The directional-ablation
criterion is split in two so each direction reports independently; the nine
trainings behind it run once, in two spawned processes, via a module-scoped
fixture.
"""

import dataclasses
import functools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from foucast import autodiff as ad
from foucast.autodiff import Var, no_grad
from foucast.checkpoint import load_checkpoint, save_checkpoint
from foucast.metrics import (
    average_over_thresholds,
    contingency,
    csi,
    hss,
    ssim,
)
from foucast.model import (
    ModelConfig,
    NowcastModel,
    attention_tape,
    forward_tape,
    hidden_forward_tape,
    init_params,
    loss_tape,
    make_leaves,
    memory_match_tape,
    modulate_tape,
    phase_align_tape,
    regrid,
)
from foucast.params import ParamSet
from foucast.synth import CADENCE_MINUTES, SyntheticEventConfig, generate_event
from foucast.train import TrainConfig, TrainState, train_model
from foucast.metrics import PIXEL_SCALE, mse as mse_metric
from gradcheck import grad_check, total
from micro import make_events, micro_cfg, rand_spectrum, with_event_stats
from oracles import (
    alignment_scores,
    alignment_weights,
    gaussian_window,
    memory_match,
    naive_dft2,
    numpy_hidden_composition,
    unit_normalize,
)


def announce(tag: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {tag}: {detail}"


# -- 1: spectral oracle suite -------------------------------------------------


def test_criterion_1_spectral_oracles():
    """The tape's own transforms, as the model runs them, against the naive DFT."""
    start = time.time()
    rng = np.random.default_rng(1001)
    worst_fwd = worst_rt = worst_pv = 0.0
    with no_grad():
        for _ in range(50):
            h = int(rng.integers(2, 17))
            w = int(rng.integers(2, 17))
            c = int(rng.integers(1, 5))
            x = rng.standard_normal((h, w, c))
            want = naive_dft2(x)
            half = ad.rfft2(x)
            for got in (ad.fft2(x).value, half.value):
                err = np.abs(got - want[:, : got.shape[1]])
                worst_fwd = max(worst_fwd, float(np.max(err)))
            worst_rt = max(worst_rt, float(np.max(np.abs(ad.irfft2_real(half, w).value - x))))
            spatial = float(np.sum(x * x))
            spectral = float(np.sum(np.abs(ad.hermitian_expand(half, w).value) ** 2) / (h * w))
            worst_pv = max(worst_pv, abs(spatial - spectral) / max(spatial, 1e-300))
    elapsed = time.time() - start
    ok = worst_fwd < 1e-10 and worst_rt < 1e-12 and worst_pv < 1e-10 and elapsed < 10.0
    announce(
        "1 spectral-oracles", ok,
        f"naive-DFT {worst_fwd:.2e} (<1e-10), round-trip {worst_rt:.2e} (<1e-12), "
        f"Parseval {worst_pv:.2e} (<1e-10), {elapsed:.1f}s (<10s)",
    )


# -- 2: fusion invariant suite ------------------------------------------------


def test_criterion_2_fusion_invariants():
    start = time.time()
    rng = np.random.default_rng(1002)
    n = 1000
    cfg = ModelConfig(c_emb=4)

    def attend(f, wl, gate):
        leaves = {"blk0.attn": Var(wl), "blk0.gate": Var(gate)}
        return attention_tape(Var(f), leaves, 0, cfg).value

    w_sum_err = s_bound = fuse_mag_err = mod_mag_err = 0.0
    for _ in range(n):
        fh = rand_spectrum(rng, 3, 4, 4)
        fm = rand_spectrum(rng, 3, 4, 4)
        s = alignment_scores(fh, fm)
        s_bound = max(s_bound, float(np.max(np.abs(s))) - 1.0)
        w = alignment_weights(fh, fm)
        w_sum_err = max(w_sum_err, float(np.max(np.abs(w.sum(axis=-1) - 1.0))))
        assert np.all(w >= 0)
        beta = float(rng.uniform(0.05, 0.95))
        logit = float(np.log(beta / (1 - beta)))
        with no_grad():
            mix = ad.sigmoid(Var(np.array(logit)))
            out = modulate_tape(Var(fh), Var(fm), mix).value
        p = out / np.where(np.abs(out) < 1e-300, 1.0, np.abs(out))
        fuse_mag_err = max(fuse_mag_err, float(np.max(np.abs(np.abs(p) - 1.0))))
        mod_mag_err = max(
            mod_mag_err, float(np.max(np.abs(np.abs(out) - w * np.abs(fh))))
        )

    sim_bound = wp_bound = match_bound = align_mag_err = 0.0
    for _ in range(n):
        slots = np.exp(1j * rng.uniform(-np.pi, np.pi, size=(int(rng.integers(1, 9)), 4)))
        q = rand_spectrum(rng, 3, 4, 4)
        fh = rand_spectrum(rng, 3, 4, 4)
        with no_grad():
            _, f_match = memory_match_tape(Var(q), Var(slots))
            out = phase_align_tape(Var(fh), f_match).value
        f_match = f_match.value
        match_bound = max(match_bound, float(np.max(np.abs(f_match))) - 1.0)
        unit_h = unit_normalize(fh)
        sim = (unit_h * np.conj(f_match)).real
        sim_bound = max(sim_bound, float(np.max(np.abs(sim))) - 1.0)
        wp = 0.5 * (1 - sim)
        wp_bound = max(wp_bound, float(max(np.max(wp) - 1.0, -np.min(wp))))
        align_mag_err = max(
            align_mag_err, float(np.max(np.abs(np.abs(out) - np.abs(fh))))
        )

    ifa_identity_err = ifa_reduce_err = 0.0
    for _ in range(n):
        f = rand_spectrum(rng, 3, 4, 4)
        wl = rand_spectrum(rng, 3, 4, 4)
        scale = max(1.0, float(np.max(np.abs(f))))
        with no_grad():
            ident = attend(f, wl, np.ones(4))
            red = attend(f, wl, np.zeros(4))
        ifa_identity_err = max(
            ifa_identity_err, float(np.max(np.abs(ident - f))) / scale
        )
        ifa_reduce_err = max(ifa_reduce_err, float(np.max(np.abs(red - wl * f))))

    elapsed = time.time() - start
    ok = (
        w_sum_err < 1e-12 and s_bound <= 1e-12 and fuse_mag_err < 1e-12
        and mod_mag_err < 1e-12 and sim_bound <= 1e-9 and wp_bound <= 1e-9
        and match_bound <= 1e-9 and align_mag_err < 1e-12
        and ifa_identity_err <= 1e-15 and ifa_reduce_err == 0.0
        and elapsed < 30.0
    )
    announce(
        "2 fusion-invariants", ok,
        f"weight-sum {w_sum_err:.2e}, |s|-1 {s_bound:.2e}, phasor-mag {fuse_mag_err:.2e}, "
        f"mod-mag {mod_mag_err:.2e}, |sim|-1 {sim_bound:.2e}, w_phase bound {wp_bound:.2e}, "
        f"|f_match|-1 {match_bound:.2e}, align-mag {align_mag_err:.2e}, "
        f"ifa-ident {ifa_identity_err:.2e}, ifa-reduce {ifa_reduce_err:.2e}, "
        f"{elapsed:.1f}s (<30s), 1000 cases each",
    )


# -- 3: composition oracle ----------------------------------------------------


def test_criterion_3_composition_oracle():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        cfg = ModelConfig(
            t_in=2, k_out=2, hw=64, hidden_hw=16, c_emb=8, depth_l=2, n_blocks=2,
            memory_slots=6, enc_channels=(4, 8, 8), mem_channels=4,
        )
        params = init_params(cfg, rng)
        h = rng.standard_normal((16, 16, 8))
        cov_emb = rng.standard_normal((16, 16, 8))
        query = rand_spectrum(rng, 16, 9, 8)
        f_match = memory_match(query, params["memory.slots"])[1]
        with no_grad():
            got = hidden_forward_tape(
                Var(h), Var(cov_emb), Var(f_match), make_leaves(params), cfg
            ).value
        want = numpy_hidden_composition(h, cov_emb, f_match, params, cfg)
        worst = max(worst, float(np.max(np.abs(got - want))))
    announce(
        "3 composition-oracle", worst < 1e-10,
        f"hidden stack vs independent module composition: max |diff| {worst:.2e} "
        f"(<1e-10) over 20 random models (c_emb=8, L=2, 16x16 hidden)",
    )


# -- 4: gradient suite ----------------------------------------------------------


def _fd(f, theta, tol=1e-4):
    report = grad_check(f, theta, h=1e-5, tol=tol)
    assert report.passed, str(report)
    return report.max_rel_err


def test_criterion_4_gradient_suite():
    start = time.time()
    rng = np.random.default_rng(1004)
    worst = 0.0

    # spectral transform chain
    theta = ParamSet({"x": rng.standard_normal((4, 6, 2))})
    probe = rand_spectrum(rng, 4, 4, 2)

    def f_dft(p):
        z = ad.rfft2(p["x"])
        back = ad.irfft2_real(z, 6)
        full = ad.fft2(p["x"])
        return ad.add(total(ad.mul(back, back)), ad.mean(ad.cabs(full)))

    worst = max(worst, _fd(f_dft, theta))

    # memory matching: softmax over slots, unit normalization, phase rotation
    slots0 = np.exp(1j * rng.uniform(-np.pi, np.pi, (5, 3)))
    theta = ParamSet({
        "slots": slots0 + 0.1 * rand_spectrum(rng, 1, 1, 15).reshape(5, 3),
        "q": rand_spectrum(rng, 3, 4, 3),
        "h": rand_spectrum(rng, 3, 4, 3),
    })

    def f_mem(p):
        from foucast.model import memory_match_tape, phase_align_tape

        alpha, f_match = memory_match_tape(p["q"], p["slots"])
        out = phase_align_tape(p["h"], f_match)
        probe_l = rand_spectrum(np.random.default_rng(7), 3, 4, 3)
        return ad.add(total(ad.mul(alpha, 0.3)), total(ad.creal(ad.mul(out, np.conj(probe_l)))))

    worst = max(worst, _fd(f_mem, theta))

    # modulation: alignment softmax, phasor normalization, fusion
    theta = ParamSet({
        "fh": rand_spectrum(rng, 3, 4, 3),
        "fm": rand_spectrum(rng, 3, 4, 3),
        "logit": np.array(0.37),
    })

    def f_mod(p):
        from foucast.model import modulate_tape

        out = modulate_tape(p["fh"], p["fm"], ad.sigmoid(p["logit"]))
        probe_l = rand_spectrum(np.random.default_rng(8), 3, 4, 3)
        return total(ad.creal(ad.mul(out, np.conj(probe_l))))

    worst = max(worst, _fd(f_mod, theta))

    # full combined loss of a 1-block model, both query routes
    cfg = ModelConfig(t_in=2, k_out=2, hw=16, hidden_hw=4, c_emb=2, depth_l=1,
                      n_blocks=1, memory_slots=2, enc_channels=(2, 2, 2),
                      mem_channels=2, lam=0.5)
    model = NowcastModel.initialize(cfg, seed=0)
    jrng = np.random.default_rng(11)
    for name, a in model.params:
        if np.iscomplexobj(a):
            jitter = 0.05 * (jrng.standard_normal(a.shape) + 1j * jrng.standard_normal(a.shape))
        else:
            jitter = 0.05 * jrng.standard_normal(a.shape)
        model.params[name] = a + jitter  # generic point, off guard discontinuities
    scfg = SyntheticEventConfig(seed=3, hw=16, t_in=2, k_out=2, n_blobs=1, cov_hw=8,
                                size_range=(0.15, 0.25))
    seq, cov = generate_event(scfg)
    aligned = regrid(with_event_stats(cov, cfg), np.arange(1, 3) * CADENCE_MINUTES, (4, 4))
    for phase in (1, 2):
        def f_model(leaves, phase=phase):
            pred = forward_tape(leaves, cfg, seq.frames[:2], aligned, phase=phase,
                                gt_frames=seq.frames if phase == 1 else None)
            return loss_tape(pred, seq.frames[2:], cfg.lam)

        worst = max(worst, _fd(f_model, model.params))

    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 120.0
    announce(
        "4 gradient-suite", ok,
        f"central differences vs reverse mode: worst rel err {worst:.2e} (<1e-4) "
        f"incl. DFT, softmax-over-slots, phasor normalization, phase rotation, and "
        f"the full combined loss on both query routes; {elapsed:.1f}s (<120s)",
    )


# -- 5: two-phase protocol ------------------------------------------------------


def test_criterion_5_two_phase_protocol():
    cfg = micro_cfg()
    events = make_events(cfg)
    model = NowcastModel.initialize(cfg, seed=0)
    init_slots = model.params["memory.slots"].copy()

    # phase 1: slots move, stay unit magnitude
    state = train_model(model, events,
                        TrainConfig(lr=0.01, batch=2, phase1_steps=6, phase2_steps=0, seed=0))
    moved = not np.array_equal(model.params["memory.slots"], init_slots)
    drift = float(np.max(np.abs(np.abs(model.params["memory.slots"]) - 1.0)))

    # phase 2: bank bytes frozen across 100 steps
    snapshot = model.params["memory.slots"].tobytes()
    state = train_model(model, events,
                        TrainConfig(lr=0.01, batch=2, phase1_steps=6, phase2_steps=100, seed=0),
                        state=state)
    frozen_ok = model.params["memory.slots"].tobytes() == snapshot

    # query routing, on a fresh model: the trained one's forecast has gone constant
    fresh = NowcastModel.initialize(cfg, seed=0)
    seq, cov = events[0]
    aligned = fresh.align_covariates(cov)
    replaced = seq.frames.copy()
    replaced[cfg.t_in :] = 1.0 - replaced[cfg.t_in :]
    preds, align_grads = [], []
    for phase, gt in ((1, seq.frames), (1, replaced), (2, None)):
        leaves = make_leaves(fresh.params)
        pred = forward_tape(leaves, cfg, seq.frames[: cfg.t_in], aligned, phase=phase,
                            gt_frames=gt)
        ad.backward(loss_tape(pred, seq.frames[cfg.t_in :], cfg.lam))
        preds.append(pred.value)
        align_grads.append(leaves["align.w1"].grad)
    routing_ok = (not np.array_equal(preds[0], preds[1]) and align_grads[0] is None
                  and align_grads[1] is None and align_grads[2] is not None
                  and bool(np.any(align_grads[2] != 0)))

    ok = moved and drift < 1e-9 and frozen_ok and routing_ok and state.step == 106
    announce(
        "5 two-phase-protocol", ok,
        f"phase-1 slots moved={moved} with unit drift {drift:.2e} (<1e-9); "
        f"bank bytes identical across 100 phase-2 steps={frozen_ok}; "
        f"query routing (future frames move phase 1, only phase 2 reaches align)={routing_ok}",
    )


# -- 6: overfit sanity ----------------------------------------------------------


def test_criterion_6_overfit_sanity():
    start = time.time()
    cfg = ModelConfig(
        t_in=3, k_out=4, hw=64, hidden_hw=16, c_emb=16, depth_l=2, n_blocks=4,
        memory_slots=16, enc_channels=(16, 32, 32), mem_channels=8, lam=0.0,
    )
    events = []
    for s in range(8):
        seq, cov = generate_event(SyntheticEventConfig(
            seed=s, hw=64, t_in=3, k_out=4, n_blobs=1, cov_hw=16,
            noise_amp=0.0, advect_range=(0.3, 1.2), turn_range=(-0.03, 0.03),
            growth_range=(-0.01, 0.01)))
        events.append((seq, with_event_stats(cov, cfg)))
    model = NowcastModel.initialize(cfg, seed=0)
    tcfg = TrainConfig(lr=0.006, batch=4, phase1_steps=125, phase2_steps=375, seed=0)
    state = train_model(model, events, tcfg)
    losses = [h[2] for h in state.history]
    final = float(np.mean(losses[-5:]))
    ratio = final / losses[0]
    elapsed = time.time() - start
    ok = ratio < 0.1 and elapsed < 300.0
    announce(
        "6 overfit-sanity", ok,
        f"tiny model (c_emb=16, L=2), 8 events, 500 steps: loss {losses[0]:.4f} -> "
        f"{final:.4f}, ratio {ratio:.3f} (<0.1) in {elapsed:.0f}s (<300s)",
    )


# -- 7: directional ablation ------------------------------------------------------


ABLATION_SEEDS = (0, 1, 2)
ABLATION_VARIANTS = {"full": (True, True), "no_pfm": (False, True), "no_fm": (True, False)}
ABLATION_CFG = ModelConfig(t_in=3, k_out=6, hw=64, hidden_hw=16, c_emb=8, depth_l=1,
                           n_blocks=2, memory_slots=8, enc_channels=(8, 16, 16),
                           mem_channels=8, lam=0.57)  # the full variant


@functools.cache
def ablation_dataset(seed, n=100):
    """(train, test) split of one seed's 100 events, with the statistics of each event's
    covariates on the grid every variant shares."""
    evs = []
    for i in range(n):
        seq, cov = generate_event(SyntheticEventConfig(
            seed=seed * 1000 + i, hw=64, t_in=3, k_out=6, n_blobs=2, cov_hw=16,
            noise_amp=0.01, advect_range=(1.5, 1.5), turn_range=(0.0, 0.0),
            growth_range=(0.0, 0.0), direction_modes=2,
            anisotropy_range=(1.5, 1.5), size_range=(0.08, 0.10)))
        evs.append((seq, with_event_stats(cov, ABLATION_CFG)))
    return evs[:80], evs[80:]


def ablation_run(seed, variant):
    """Test MSE and MAE of one variant (enable_pfm, enable_fm) trained on one seed."""
    tr, te = ablation_dataset(seed)
    pfm, fm = ABLATION_VARIANTS[variant]
    cfg = dataclasses.replace(ABLATION_CFG, enable_pfm=pfm, enable_fm=fm)
    model = NowcastModel.initialize(cfg, seed=seed)
    train_model(model, tr, TrainConfig(lr=0.003, batch=4, phase1_steps=200,
                                       phase2_steps=200, seed=seed))
    sq = [mse_metric(model.predict(s, c), s.frames[3:]) for s, c in te]
    ab = [float(np.mean(np.abs(PIXEL_SCALE * (model.predict(s, c) - s.frames[3:]))))
          for s, c in te]
    return float(np.mean(sq)), float(np.mean(ab))


def train_on_the_calling_thread():
    """Pool initializer: the two pool processes already fill the cores, so each steps its
    samples itself instead of starting step workers of its own."""
    os.environ["FOUCAST_THREADS"] = "1"


@pytest.fixture(scope="module")
def ablation_results():
    """Train full / no-modulation / no-memory variants on 3 seeds x 100 events.

    The nine trainings share nothing, so they run in two processes; each runs
    exactly the computation it would run here (training is bit-identical at any
    FOUCAST_THREADS).  The processes are spawned, not forked, because this process
    may already hold pool and BLAS threads.
    """
    jobs = [(seed, variant) for seed in ABLATION_SEEDS for variant in ABLATION_VARIANTS]
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"),
                             initializer=train_on_the_calling_thread) as ex:
        scores = dict(zip(jobs, ex.map(ablation_run, *zip(*jobs))))
    return {seed: {variant: scores[seed, variant] for variant in ABLATION_VARIANTS}
            for seed in ABLATION_SEEDS}


def test_criterion_7a_ablation_modulation_direction(ablation_results):
    wins = sum(
        ablation_results[s]["full"][1] <= ablation_results[s]["no_pfm"][1]
        for s in ABLATION_SEEDS
    )
    detail = "; ".join(
        f"seed {s}: full MAE {ablation_results[s]['full'][1]:.2f} vs "
        f"no-modulation {ablation_results[s]['no_pfm'][1]:.2f}"
        for s in ABLATION_SEEDS
    )
    announce(
        "7a ablation-modulation", wins >= 2,
        f"full-model test MAE <= modulation-disabled MAE on {wins}/3 seeds "
        f"(need >=2): {detail}",
    )


def test_criterion_7b_ablation_memory_direction(ablation_results):
    wins = sum(
        ablation_results[s]["no_fm"][0] >= ablation_results[s]["full"][0]
        for s in ABLATION_SEEDS
    )
    detail = "; ".join(
        f"seed {s}: memory-disabled MSE {ablation_results[s]['no_fm'][0]:.2f} vs "
        f"full {ablation_results[s]['full'][0]:.2f}"
        for s in ABLATION_SEEDS
    )
    announce(
        "7b ablation-memory", wins >= 2,
        f"memory-disabled test MSE >= full-model MSE on {wins}/3 seeds "
        f"(need >=2): {detail}",
    )


# -- 8: metric oracles ------------------------------------------------------------


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(1008)
    for _ in range(100):
        pred = (rng.random((16, 16)) > 0.5).astype(float)
        gt = (rng.random((16, 16)) > 0.5).astype(float)
        c = contingency(pred, gt, [128])[0]
        a = b = m = d = 0
        for i in range(16):
            for j in range(16):
                pe, ge = pred[i, j] >= 0.5, gt[i, j] >= 0.5
                a += pe and ge
                b += pe and not ge
                m += ge and not pe
                d += not pe and not ge
        assert tuple(c) == (a, m, b, d)
        want_csi = a / (a + m + b) if (a + m + b) else 0.0
        hd = (a + m) * (m + d) + (a + b) * (b + d)
        want_hss = 2 * (a * d - b * m) / hd if hd else 0.0
        assert csi(c) == want_csi and hss(c) == want_hss

    pred = rng.random((16, 16))
    gt = np.clip(pred + 0.15 * rng.standard_normal((16, 16)), 0, 1)
    kern = gaussian_window()
    vals = []
    for i in range(6):
        for j in range(6):
            pw = pred[i : i + 11, j : j + 11] * 255.0
            gw = gt[i : i + 11, j : j + 11] * 255.0
            mu_p, mu_g = np.sum(kern * pw), np.sum(kern * gw)
            var_p = np.sum(kern * pw * pw) - mu_p**2
            var_g = np.sum(kern * gw * gw) - mu_g**2
            cov = np.sum(kern * pw * gw) - mu_p * mu_g
            c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
            vals.append(((2 * mu_p * mu_g + c1) * (2 * cov + c2))
                        / ((mu_p**2 + mu_g**2 + c1) * (var_p + var_g + c2)))
    ssim_err = abs(ssim(pred, gt) - float(np.mean(vals)))

    sevir = [16.0, 74.0, 133.0, 160.0, 181.0, 219.0]
    meteonet = [12.0, 24.0, 32.0]
    for thresholds in (sevir, meteonet):
        scores = {}
        for t in thresholds:
            scores[t] = csi(contingency(pred, gt, [t])[0])
        avg = average_over_thresholds(scores)
        assert avg == pytest.approx(float(np.mean(list(scores.values()))))

    ok = ssim_err < 1e-9
    announce(
        "8 metric-oracles", ok,
        f"CSI/HSS exactly equal brute-force confusion counts on 100 random 16x16 "
        f"binary instances; SSIM vs literal sliding-window oracle {ssim_err:.2e} "
        f"(<1e-9); SEVIR and MeteoNet threshold lists accepted and averaged",
    )


# -- 9: serialization ---------------------------------------------------------------


def test_criterion_9_serialization(tmp_path):
    cfg = micro_cfg()
    events = make_events(cfg)
    tcfg = TrainConfig(lr=0.002, batch=2, phase1_steps=2, phase2_steps=4, seed=9)

    # save -> load -> forward is bit-identical
    model = NowcastModel.initialize(cfg, seed=9)
    state = train_model(model, events, tcfg)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, state.opt)
    loaded, opt2, meta = load_checkpoint(path)
    seq, cov = events[0]
    bit_identical = loaded.predict(seq, cov).tobytes() == model.predict(seq, cov).tobytes()

    # interrupt after 5 of 6 steps, resume, compare against uninterrupted
    m_full = NowcastModel.initialize(cfg, seed=9)
    s_full = train_model(m_full, events, tcfg)
    m_part = NowcastModel.initialize(cfg, seed=9)
    s_part = train_model(m_part, events,
                         TrainConfig(lr=0.002, batch=2, phase1_steps=2, phase2_steps=3, seed=9))
    p2 = tmp_path / "part.ckpt"
    save_checkpoint(p2, m_part, s_part.opt)
    m_res, opt_res, _ = load_checkpoint(p2)
    train_model(m_res, events, tcfg, state=TrainState(model=m_res, opt=opt_res))
    resume_identical = (
        m_res.params.flat.tobytes() == s_full.model.params.flat.tobytes()
    )

    ok = bit_identical and resume_identical
    announce(
        "9 serialization", ok,
        f"checkpoint round-trip forward bit-identical={bit_identical}; "
        f"interrupted+resumed training matches uninterrupted={resume_identical}",
    )
