import numpy as np
import pytest

from foucast.autodiff import Var, cunit, no_grad
from foucast.model import (
    EPS_UNIT,
    ModelConfig,
    NowcastModel,
    init_params,
    memory_match_tape,
    phase_align_tape,
)
from foucast.synth import SyntheticEventConfig, generate_event
from foucast.train import TrainConfig, train_model
from micro import micro_cfg, rand_spectrum, with_event_stats


def random_slots(n_slots, width, rng):
    """Unit phasors with independent uniformly random phases."""
    return np.exp(1j * rng.uniform(-np.pi, np.pi, size=(n_slots, width)))


def memory_match(query, slots):
    with no_grad():
        alpha, f_match = memory_match_tape(Var(query), Var(slots))
    return alpha.value, f_match.value


def phase_align(f_hid, f_match):
    with no_grad():
        return phase_align_tape(Var(f_hid), Var(f_match)).value


def match_oracle(query, slots):
    """Scalar-loop reference for the per-bin softmax over slots."""
    h, w, c = query.shape
    s = slots.shape[0]
    qn = query / np.abs(query)
    mn = slots / np.abs(slots)
    alpha = np.zeros((h, w, s))
    fm = np.zeros((h, w, c), dtype=complex)
    for i in range(h):
        for j in range(w):
            raw = np.zeros(s)
            for k in range(s):
                raw[k] = sum(
                    (qn[i, j, d] * np.conj(mn[k, d])).real for d in range(c)
                )
            e = np.exp(raw - raw.max())
            alpha[i, j] = e / e.sum()
            fm[i, j] = sum(alpha[i, j, k] * mn[k] for k in range(s))
    return alpha, fm


def test_bank_init_unit_magnitude():
    cfg = ModelConfig(memory_slots=8, c_emb=4, n_blocks=2)
    slots = init_params(cfg, np.random.default_rng(0))["memory.slots"]
    assert slots.shape == (8, 4)
    assert np.max(np.abs(np.abs(slots) - 1.0)) < 1e-12


def test_single_slot_alpha_one_everywhere():
    rng = np.random.default_rng(1)
    slots = random_slots(1, 3, rng)
    q = rand_spectrum(rng, 4, 4, 3)
    alpha, f_match = memory_match(q, slots)
    assert np.allclose(alpha, 1.0)
    assert np.allclose(f_match, np.broadcast_to(slots[0], (4, 4, 3)))


def test_query_equal_to_slot_wins():
    rng = np.random.default_rng(2)
    c = 8
    # orthogonal unit-phasor slots under the real inner product
    base = np.exp(1j * rng.uniform(-np.pi, np.pi, c))
    slots = np.stack([base, base * 1j, -base, -base * 1j])
    q = np.broadcast_to(slots[2], (3, 3, c)).copy()
    alpha, _ = memory_match(q, slots)
    assert np.all(np.argmax(alpha, axis=-1) == 2)
    assert np.all(alpha[..., 2] > np.max(np.delete(alpha, 2, axis=-1), axis=-1))


def test_match_against_brute_force_oracle():
    rng = np.random.default_rng(3)
    slots = random_slots(8, 4, rng)
    q = rand_spectrum(rng, 4, 3, 4)
    got_alpha, got_fm = memory_match(q, slots)
    alpha, fm = match_oracle(q, slots)
    assert np.max(np.abs(got_alpha - alpha)) < 1e-12
    assert np.max(np.abs(got_fm - fm)) < 1e-12
    assert np.max(np.abs(got_fm)) <= 1.0 + 1e-9


def test_match_invariants_randomized():
    rng = np.random.default_rng(4)
    for _ in range(50):
        slots = random_slots(int(rng.integers(1, 9)), 4, rng)
        q = rand_spectrum(rng, 3, 4, 4)
        alpha, f_match = memory_match(q, slots)
        assert np.max(np.abs(alpha.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(alpha >= 0)
        assert np.max(np.abs(f_match)) <= 1.0 + 1e-9


def test_match_channel_mismatch_rejected():
    slots = random_slots(4, 4, np.random.default_rng(5))
    with pytest.raises(ValueError):
        memory_match(np.zeros((2, 2, 3), complex), slots)


def test_phase_align_aligned_noop():
    rng = np.random.default_rng(6)
    f = rand_spectrum(rng, 4, 4, 2)
    fm = f / np.abs(f)  # |f_match| = 1, same phase
    out = phase_align(f, fm)
    assert np.max(np.abs(out - f)) < 1e-12


def test_phase_align_antipodal_full_rotation():
    rng = np.random.default_rng(7)
    f = rand_spectrum(rng, 3, 3, 2)
    fm = -f / np.abs(f)  # opposite phase, unit magnitude
    out = phase_align(f, fm)
    assert np.max(np.abs(np.abs(out) - np.abs(f))) < 1e-12
    # sim = -1 -> w_phase = 1 -> output phase equals matched phase
    dphi = np.angle(out * np.conj(fm))
    assert np.max(np.abs(dphi)) < 1e-9


def test_phase_align_small_match_passthrough():
    rng = np.random.default_rng(8)
    f = rand_spectrum(rng, 3, 3, 2)
    fm = np.full_like(f, 1e-9)
    assert np.array_equal(phase_align(f, fm), f)


def test_phase_align_per_entry_oracle():
    rng = np.random.default_rng(9)
    f = rand_spectrum(rng, 4, 3, 3)
    fm = memory_match(f, random_slots(5, 3, rng))[1]
    out = phase_align(f, fm)
    for idx in np.ndindex(f.shape):
        zh, zm = f[idx], fm[idx]
        ph = zh / abs(zh) if abs(zh) >= 1e-12 else 1.0 + 0.0j
        sim = (ph * np.conj(zm)).real
        assert -1.0 - 1e-9 <= sim <= 1.0 + 1e-9
        w = 0.5 * (1.0 - sim)
        assert 0.0 <= w <= 1.0 + 1e-12
        dphi = np.angle(zm * np.conj(ph))
        want = zh * np.exp(1j * w * dphi) if abs(zm) >= 1e-6 else zh
        assert abs(out[idx] - want) < 1e-12
        assert abs(abs(out[idx]) - abs(zh)) < 1e-12


def test_phase_align_magnitude_preserved_randomized():
    rng = np.random.default_rng(10)
    for _ in range(50):
        f = rand_spectrum(rng, 3, 4, 2)
        fm = memory_match(f, random_slots(6, 2, rng))[1]
        out = phase_align(f, fm)
        assert np.max(np.abs(np.abs(out) - np.abs(f))) < 1e-12


def test_phase_align_idempotent_when_aligned():
    rng = np.random.default_rng(11)
    f = rand_spectrum(rng, 3, 3, 2)
    fm = f / np.abs(f)
    once = phase_align(f, fm)
    twice = phase_align(once, fm)
    assert np.array_equal(once, twice)


def test_phase_align_shorter_arc_bound():
    rng = np.random.default_rng(12)
    f = rand_spectrum(rng, 4, 4, 3)
    fm = memory_match(rand_spectrum(rng, 4, 4, 3), random_slots(4, 3, rng))[1]
    ph = f / np.abs(f)
    sim = (ph * np.conj(fm)).real
    w = 0.5 * (1 - sim)
    dphi = np.angle(fm * np.conj(ph))
    assert np.max(np.abs(w * dphi)) <= np.pi + 1e-12


def test_training_phase_flags():
    """Phase 1 leaves the bank trainable; the first phase-2 step freezes it."""
    tcfg = TrainConfig(lr=0.01, batch=1, phase1_steps=1, phase2_steps=1, seed=13)
    assert [tcfg.phase_of(step) for step in range(3)] == [1, 2, 2]
    cfg = micro_cfg()
    model = NowcastModel.initialize(cfg, seed=13)
    seq, cov = generate_event(SyntheticEventConfig(seed=13, hw=16, t_in=2, k_out=2,
                                                   n_blobs=1, cov_hw=8))
    events = [(seq, with_event_stats(cov, cfg))]
    initial = model.params["memory.slots"].tobytes()
    state = train_model(model, events, TrainConfig(lr=0.01, batch=1, phase1_steps=1,
                                                   phase2_steps=0, seed=13))
    after_phase1 = model.params["memory.slots"].tobytes()
    assert after_phase1 != initial
    train_model(model, events, tcfg, state=state)
    assert model.params["memory.slots"].tobytes() == after_phase1
    assert state.step == 2


def test_renormalized_restores_unit_magnitude():
    """The per-step slot renormalization of phase 1 undoes magnitude drift."""
    drifted = random_slots(4, 4, np.random.default_rng(14)) * 1.01
    assert np.max(np.abs(np.abs(drifted) - 1.0)) > 1e-3
    with no_grad():
        renormalized = cunit(drifted, EPS_UNIT).value
    assert np.max(np.abs(np.abs(renormalized) - 1.0)) < 1e-12
