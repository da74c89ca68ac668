import numpy as np
import pytest

from foucast import autodiff as ad
from foucast.autodiff import Var, no_grad
from foucast.model import modulate_tape
from micro import rand_spectrum
from oracles import alignment_weights


def modulate(f_hid, f_met, beta_logit=0.0):
    with no_grad():
        beta = ad.sigmoid(Var(np.array(beta_logit)))
        return modulate_tape(Var(f_hid), Var(f_met), beta).value


def weights(f_hid, f_met):
    """Channel weights read back from the output modulus |out| = w * |f_hid|."""
    return np.abs(modulate(f_hid, f_met)) / np.abs(f_hid)


def phasor_fuse(phi_hid, phi_met, beta):
    """Modulation of single-channel unit phasors: exactly the fused phasor."""
    logit = float(np.log(beta / (1.0 - beta)))
    return modulate(np.exp(1j * phi_hid)[:, None, None],
                    np.exp(1j * phi_met)[:, None, None], logit)[:, 0, 0]


def weights_oracle(f_hid, f_met, eps):
    """Brute force: per-bin softmax of cosine scores, scalar loops."""
    h, w, c = f_hid.shape
    out = np.zeros((h, w, c))
    for i in range(h):
        for j in range(w):
            s = np.zeros(c)
            for k in range(c):
                zh, zm = f_hid[i, j, k], f_met[i, j, k]
                s[k] = (zh * np.conj(zm)).real / (abs(zh) * abs(zm) + eps)
            e = np.exp(s - s.max())
            out[i, j] = e / e.sum()
    return out


def test_identical_inputs_give_uniform_weights():
    rng = np.random.default_rng(0)
    f = rand_spectrum(rng, 4, 3, 5)
    w = weights(f, f)
    assert np.allclose(w, 1.0 / 5.0, atol=1e-9)


def test_single_channel_weight_is_one():
    rng = np.random.default_rng(1)
    f = rand_spectrum(rng, 4, 4, 1)
    g = rand_spectrum(rng, 4, 4, 1)
    assert np.allclose(weights(f, g), 1.0)


def test_weights_match_brute_force_oracle():
    rng = np.random.default_rng(2)
    f = rand_spectrum(rng, 5, 4, 4)
    g = rand_spectrum(rng, 5, 4, 4)
    got = weights(f, g)
    want = weights_oracle(f, g, eps=1e-8)
    assert np.max(np.abs(got - want)) < 1e-12


def test_scores_bounded_and_weights_normalized():
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = rand_spectrum(rng, 3, 3, 4)
        g = rand_spectrum(rng, 3, 3, 4)
        w = weights(f, g)
        # scores in [-1, 1] bound the log-ratio of any two softmax weights by 2
        assert np.max(np.log(w.max(axis=-1) / w.min(axis=-1))) <= 2.0 + 1e-12
        assert np.max(np.abs(w.sum(axis=-1) - 1.0)) < 1e-12
        assert np.all(w >= 0)


def test_phasor_fuse_limits_and_midpoint():
    phi_h = np.array([0.3])
    phi_m = np.array([1.1])
    near_one = phasor_fuse(phi_h, phi_m, beta=1.0 - 1e-12)
    assert np.allclose(near_one, np.exp(1j * phi_h), atol=1e-9)

    same = phasor_fuse(phi_h, phi_h, beta=0.37)
    assert np.allclose(same, np.exp(1j * phi_h), atol=1e-12)

    mid = phasor_fuse(np.array([0.0]), np.array([np.pi / 2]), beta=0.5)
    assert np.allclose(mid, (1 + 1j) / np.sqrt(2), atol=1e-12)
    assert np.angle(mid[0]) == pytest.approx(np.pi / 4)


def test_phasor_fuse_antipodal_fallback():
    fused = phasor_fuse(np.array([0.0]), np.array([np.pi]), beta=0.5)
    assert fused[0] == 1.0 + 0.0j  # hidden phasor, no error


def test_modulate_identity_when_single_channel_same_field():
    rng = np.random.default_rng(6)
    f = rand_spectrum(rng, 4, 4, 1)
    out = modulate(f, f, beta_logit=0.0)
    assert np.max(np.abs(out - f)) < 1e-12


def test_modulate_zero_hidden_gives_zero():
    rng = np.random.default_rng(7)
    f_met = rand_spectrum(rng, 3, 3, 2)
    out = modulate(np.zeros((3, 3, 2), dtype=complex), f_met)
    assert np.max(np.abs(out)) == 0.0


def test_modulate_matches_step_by_step_composition():
    """Oracle: weights -> reweight -> fuse -> recombine, each step separate."""
    rng = np.random.default_rng(8)
    f_hid = rand_spectrum(rng, 5, 4, 4)
    f_met = rand_spectrum(rng, 5, 4, 4)
    beta = 1.0 / (1.0 + np.exp(-0.4))

    w = weights_oracle(f_hid, f_met, eps=1e-8)
    amp = np.abs(f_hid) * w
    z = beta * np.exp(1j * np.angle(f_hid)) + (1.0 - beta) * np.exp(1j * np.angle(f_met))
    fused = z / np.abs(z)
    want = amp * fused

    got = modulate(f_hid, f_met, beta_logit=0.4)
    assert np.max(np.abs(got - want)) < 1e-12


def test_modulate_magnitude_equals_reweighted_amplitude():
    rng = np.random.default_rng(9)
    for _ in range(50):
        f_hid = rand_spectrum(rng, 4, 3, 3)
        f_met = rand_spectrum(rng, 4, 3, 3)
        out = modulate(f_hid, f_met, beta_logit=-0.7)
        w = alignment_weights(f_hid, f_met)
        assert np.max(np.abs(np.abs(out) - w * np.abs(f_hid))) < 1e-12


def test_fused_phase_on_geodesic():
    rng = np.random.default_rng(10)
    f_hid = rand_spectrum(rng, 4, 4, 2)
    f_met = rand_spectrum(rng, 4, 4, 2)
    beta = 0.62
    p_hid = f_hid / np.abs(f_hid)
    p_met = f_met / np.abs(f_met)
    want = np.angle(beta * p_hid + (1 - beta) * p_met)
    logit = float(np.log(beta / (1 - beta)))
    out = modulate(f_hid, f_met, beta_logit=logit)
    mask = np.abs(out) > 1e-9
    assert np.allclose(np.angle(out)[mask], want[mask], atol=1e-9)


def test_beta_monotone_phase_path():
    """With |dPhi| < pi, increasing beta moves the fused phase toward phi_hid."""
    phi_h = np.array([1.2])
    phi_m = np.array([-0.9])
    angles = []
    for beta in np.linspace(0.05, 0.95, 19):
        fused = phasor_fuse(phi_h, phi_m, beta=float(beta))
        angles.append(float(np.angle(fused[0])))
    diffs = np.diff(angles)
    assert np.all(diffs > 0)  # moving from phi_m toward phi_h
    assert angles[-1] < phi_h[0] + 1e-9 and angles[0] > phi_m[0] - 1e-9


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        modulate(np.zeros((2, 2, 2), complex), np.zeros((2, 2, 3), complex))
