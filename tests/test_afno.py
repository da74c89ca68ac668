import numpy as np
import pytest

from foucast.autodiff import Var, no_grad
from foucast.model import ModelConfig, ModelError, afno_tape, init_params
from micro import rand_spectrum


def draw_weights(c_in, c_out, nb, rng):
    """Variance-preserving complex block weights with zero biases."""
    ib, ob = c_in // nb, c_out // nb

    def draw(shape, fan_in):
        scale = 1.0 / np.sqrt(2.0 * fan_in)
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return {
        "w1": draw((nb, ib, ib), ib),
        "w2": draw((nb, ob, ib), ib),
        "b1": np.zeros((nb, ib), dtype=np.complex128),
        "b2": np.zeros((nb, ob), dtype=np.complex128),
    }


def identity_weights(c, nb):
    eye = np.broadcast_to(np.eye(c // nb, dtype=np.complex128), (nb, c // nb, c // nb))
    zeros = np.zeros((nb, c // nb), dtype=np.complex128)
    return {"w1": eye.copy(), "w2": eye.copy(), "b1": zeros.copy(), "b2": zeros.copy()}


def afno(z, w, name="blk0.afno"):
    leaves = {f"{name}.{k}": Var(v) for k, v in w.items()}
    with no_grad():
        return afno_tape(Var(z), leaves, name, ModelConfig(n_blocks=w["w1"].shape[0])).value


def dense_embed(blocks: np.ndarray) -> np.ndarray:
    """Embed a (n_blocks, out_b, in_b) stack into a dense (out, in) matrix."""
    nb, ob, ib = blocks.shape
    full = np.zeros((nb * ob, nb * ib), dtype=np.complex128)
    for n in range(nb):
        full[n * ob : (n + 1) * ob, n * ib : (n + 1) * ib] = blocks[n]
    return full


def dense_oracle(z, w):
    """Reference: dense matmul per bin using the embedded matrices."""
    w1 = dense_embed(w["w1"])
    w2 = dense_embed(w["w2"])
    b1 = w["b1"].reshape(-1)
    b2 = w["b2"].reshape(-1)
    out = np.zeros(z.shape[:2] + (w2.shape[0],), dtype=np.complex128)
    for i in range(z.shape[0]):
        for j in range(z.shape[1]):
            h = w1 @ z[i, j] + b1
            h = np.maximum(h.real, 0) + 1j * np.maximum(h.imag, 0)
            out[i, j] = w2 @ h + b2
    return out


def test_identity_blocks_pass_nonnegative_input():
    rng = np.random.default_rng(0)
    z = np.abs(rand_spectrum(rng, 4, 3, 8).real) + 1j * np.abs(rand_spectrum(rng, 4, 3, 8).imag)
    assert np.array_equal(afno(z, identity_weights(8, nb=2)), z)


def test_zero_input_zero_biases_gives_zero():
    w = draw_weights(6, 6, 3, np.random.default_rng(1))
    out = afno(np.zeros((5, 4, 6), dtype=np.complex128), w)
    assert np.all(out == 0)


@pytest.mark.parametrize("c,nb,c_out", [(8, 2, 8), (8, 4, 8), (12, 3, 6), (4, 1, 8), (16, 4, 16)])
def test_matches_dense_embedding_oracle(c, nb, c_out):
    rng = np.random.default_rng(2)
    w = draw_weights(c, c_out, nb, rng)
    w["b1"][:] = 0.1 * rand_spectrum(rng, 1, 1, w["b1"].size).reshape(w["b1"].shape)
    w["b2"][:] = 0.1 * rand_spectrum(rng, 1, 1, w["b2"].size).reshape(w["b2"].shape)
    z = rand_spectrum(rng, 5, 4, c)
    assert np.max(np.abs(afno(z, w) - dense_oracle(z, w))) < 1e-12


def test_token_shift_equivariance():
    """Shared weights: permuting spatial bins permutes the output identically."""
    rng = np.random.default_rng(3)
    w = draw_weights(8, 8, 2, rng)
    z = rand_spectrum(rng, 6, 5, 8)
    perm_h = rng.permutation(6)
    perm_w = rng.permutation(5)
    out = afno(z, w)
    out_perm = afno(z[perm_h][:, perm_w], w)
    assert np.array_equal(out[perm_h][:, perm_w], out_perm)


def test_channel_align_shares_kernel():
    rng = np.random.default_rng(4)
    w = draw_weights(6, 10, 2, rng)
    z = rand_spectrum(rng, 3, 4, 6)
    aligned = afno(z, w, name="align")
    assert np.array_equal(aligned, afno(z, w))
    assert aligned.shape == (3, 4, 10)


def test_identity_shaped_alignment():
    rng = np.random.default_rng(5)
    z = rand_spectrum(rng, 3, 3, 4)
    z = np.abs(z.real) + 1j * np.abs(z.imag)
    assert np.array_equal(afno(z, identity_weights(4, 2), name="align"), z)


def test_divisibility_enforced():
    cfg = ModelConfig(c_emb=6, n_blocks=4)
    with pytest.raises(ModelError, match="divisible"):
        init_params(cfg, np.random.default_rng(7))


def test_channel_mismatch_rejected():
    w = draw_weights(8, 8, 2, np.random.default_rng(6))
    with pytest.raises(ValueError):
        afno(np.zeros((2, 2, 6), dtype=np.complex128), w)
