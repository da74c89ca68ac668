import numpy as np
import pytest

from foucast.autodiff import Var, no_grad
from foucast.model import ModelConfig, attention_tape, init_params


def rand_spectrum(rng, h, w, c):
    return rng.standard_normal((h, w, c)) + 1j * rng.standard_normal((h, w, c))


def attend(f, w, gate=None):
    """Bare attention when ``gate`` is None, else gated reinjection."""
    cfg = ModelConfig(c_emb=f.shape[-1], enable_ifa=gate is not None)
    leaves = {"blk0.attn": Var(w)}
    if gate is not None:
        leaves["blk0.gate"] = Var(np.asarray(gate, dtype=np.float64))
    with no_grad():
        return attention_tape(Var(f), leaves, 0, cfg).value


def test_ones_weights_identity():
    rng = np.random.default_rng(0)
    f = rand_spectrum(rng, 4, 3, 2)
    assert np.array_equal(attend(f, np.ones_like(f)), f)


def test_zero_weights_zero_output():
    rng = np.random.default_rng(1)
    f = rand_spectrum(rng, 4, 3, 2)
    assert np.all(attend(f, np.zeros_like(f)) == 0)


def test_attention_matches_scalar_multiply_oracle():
    rng = np.random.default_rng(2)
    f = rand_spectrum(rng, 3, 4, 2)
    w = rand_spectrum(rng, 3, 4, 2)
    got = attend(f, w)
    for i in range(3):
        for j in range(4):
            for k in range(2):
                assert abs(got[i, j, k] - f[i, j, k] * w[i, j, k]) < 1e-15


def test_gate_one_is_exact_identity():
    rng = np.random.default_rng(3)
    f = rand_spectrum(rng, 5, 4, 3)
    w = rand_spectrum(rng, 5, 4, 3)
    out = attend(f, w, np.ones(3))
    assert np.max(np.abs(out - f)) <= 1e-15 * np.max(np.abs(f))


def test_gate_zero_reduces_to_attention():
    rng = np.random.default_rng(4)
    f = rand_spectrum(rng, 5, 4, 3)
    w = rand_spectrum(rng, 5, 4, 3)
    assert np.array_equal(attend(f, w, np.zeros(3)), attend(f, w))


def test_random_gate_matches_per_entry_oracle():
    rng = np.random.default_rng(5)
    f = rand_spectrum(rng, 3, 3, 4)
    w = rand_spectrum(rng, 3, 3, 4)
    g = rng.standard_normal(4)
    got = attend(f, w, g)
    for i in range(3):
        for j in range(3):
            for k in range(4):
                f_out = w[i, j, k] * f[i, j, k]
                want = f_out + g[k] * (f[i, j, k] - f_out)
                assert abs(got[i, j, k] - want) < 1e-15 * max(1.0, abs(want))


def test_affine_in_gate():
    rng = np.random.default_rng(6)
    f = rand_spectrum(rng, 4, 4, 2)
    w = rand_spectrum(rng, 4, 4, 2)
    g0 = rng.standard_normal(2)
    g1 = rng.standard_normal(2)
    t = 0.3
    lhs = attend(f, w, (1 - t) * g0 + t * g1)
    rhs = (1 - t) * attend(f, w, g0) + t * attend(f, w, g1)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_linear_in_input():
    rng = np.random.default_rng(7)
    w = rand_spectrum(rng, 4, 4, 2)
    g = rng.standard_normal(2)
    f1 = rand_spectrum(rng, 4, 4, 2)
    f2 = rand_spectrum(rng, 4, 4, 2)
    lhs = attend(2.0 * f1 - 0.5 * f2, w, g)
    rhs = 2.0 * attend(f1, w, g) - 0.5 * attend(f2, w, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_init_shapes():
    cfg = ModelConfig(t_in=2, k_out=2, hw=16, hidden_hw=4, c_emb=2, depth_l=1,
                      n_blocks=1, memory_slots=2, enc_channels=(2, 2, 2), mem_channels=2)
    params = init_params(cfg, np.random.default_rng(8))
    w = params["blk0.attn"]
    assert w.shape == (4, 3, 2)
    assert np.max(np.abs(w - 1.0)) < 0.2  # near identity
    assert np.array_equal(params["blk0.gate"], np.full(2, 0.1))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        attend(np.zeros((2, 2, 2), complex), np.zeros((2, 2, 3), complex))
    with pytest.raises(ValueError):
        attend(np.zeros((2, 2, 2), complex), np.zeros((2, 2, 2), complex), np.zeros(3))
