import numpy as np
import pytest

from foucast import spectral
from foucast.autodiff import cunit, no_grad
from foucast.spectral import (
    SpectralError,
    dft2_forward,
    dft2_inverse,
    hermitian_expand,
    parseval_energy,
)


def naive_dft2(x):
    """O(N^4) reference DFT: explicit loops over output bins, per channel."""
    h, w, c = x.shape
    out = np.zeros((h, w, c), dtype=np.complex128)
    ii = np.arange(h)[:, None]
    jj = np.arange(w)[None, :]
    for k1 in range(h):
        for k2 in range(w):
            kern = np.exp(-2j * np.pi * (k1 * ii / h + k2 * jj / w))
            for ch in range(c):
                out[k1, k2, ch] = np.sum(x[:, :, ch] * kern)
    return out


def test_impulse_has_flat_spectrum():
    x = np.zeros((4, 4, 1))
    x[0, 0, 0] = 1.0
    z = dft2_forward(x, layout="full")
    assert np.allclose(z, 1.0 + 0.0j, atol=1e-14)


def test_constant_field_is_dc_only():
    c = 2.5
    n = 6
    x = np.full((n, n, 1), c)
    z = dft2_forward(x, layout="full")
    assert z[0, 0, 0] == pytest.approx(c * n * n)
    z[0, 0, 0] = 0.0
    assert np.max(np.abs(z)) < 1e-10


def test_forward_matches_naive_dft():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 8, 2))
    want = naive_dft2(x)
    got = dft2_forward(x, layout="full")
    assert np.max(np.abs(got - want)) < 1e-10
    half = dft2_forward(x, layout="half")
    assert half.shape == (8, 5, 2)
    assert np.max(np.abs(half - want[:, :5])) < 1e-10


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((16, 16, 3))
    back = dft2_inverse(dft2_forward(x), width=16)
    assert np.max(np.abs(back - x)) < 1e-12


def test_inverse_of_all_ones_spectrum_is_impulse():
    z = np.ones((4, 4, 1), dtype=np.complex128)
    x = dft2_inverse(z, layout="full")
    want = np.zeros((4, 4, 1))
    want[0, 0, 0] = 1.0
    assert np.max(np.abs(x - want)) < 1e-14


def test_inverse_recovers_field_from_naive_spectrum():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 6, 2))
    z = naive_dft2(x)
    back = dft2_inverse(z, layout="full")
    assert np.max(np.abs(back - x)) < 1e-10


@pytest.mark.parametrize("shape", [(8, 8, 2), (5, 7, 1), (4, 6, 3)])
def test_half_and_full_layouts_agree_after_expansion(shape):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape)
    full = dft2_forward(x, layout="full")
    half = dft2_forward(x, layout="half")
    assert np.max(np.abs(hermitian_expand(half, shape[1]) - full)) < 1e-12
    back = dft2_inverse(half, width=shape[1])
    assert np.max(np.abs(back - x)) < 1e-12


def test_linearity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 8, 2))
    y = rng.standard_normal((8, 8, 2))
    a, b = 1.7, -0.3
    lhs = dft2_forward(a * x + b * y)
    rhs = a * dft2_forward(x) + b * dft2_forward(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_non_finite_input_rejected():
    x = np.zeros((2, 2, 1))
    x[0, 0, 0] = np.nan
    with pytest.raises(SpectralError):
        dft2_forward(x)
    z = np.zeros((2, 2, 1), dtype=np.complex128)
    z[0, 0, 0] = np.inf + 0j
    with pytest.raises(SpectralError):
        dft2_inverse(z, width=2)


def test_unit_normalize():
    """Unit normalization is ``autodiff.cunit``; checked here on plain values."""
    with no_grad():
        assert np.allclose(cunit(np.array([3.0 + 4.0j])).value, [0.6 + 0.8j], atol=1e-15)
        assert cunit(np.array([0.0 + 0.0j])).value[0] == 1.0 + 0.0j
        rng = np.random.default_rng(8)
        z = rng.standard_normal((4, 4, 2)) + 1j * rng.standard_normal((4, 4, 2))
        out = cunit(z, eps=1e-12).value
    assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12


def test_parseval():
    x = np.zeros((4, 4, 1))
    assert parseval_energy(x, dft2_forward(x)) == (0.0, 0.0)

    x[1, 2, 0] = 1.0
    spatial, spect = parseval_energy(x, dft2_forward(x))
    assert spatial == pytest.approx(1.0)
    assert spect == pytest.approx(1.0)

    rng = np.random.default_rng(9)
    y = rng.standard_normal((8, 8, 2))
    spatial, spect = parseval_energy(y, dft2_forward(y))
    assert abs(spatial - spect) / spatial < 1e-10


def test_parseval_shape_mismatch_rejected():
    x = np.zeros((4, 4, 1))
    z = dft2_forward(np.zeros((4, 6, 1)))
    with pytest.raises(SpectralError):
        parseval_energy(x, z)


def test_acceptance_naive_oracle_sweep():
    rng = np.random.default_rng(42)
    for _ in range(10):
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        c = int(rng.integers(1, 5))
        x = rng.standard_normal((h, w, c))
        assert np.max(np.abs(dft2_forward(x, layout="full") - naive_dft2(x))) < 1e-10


def test_half_width():
    assert spectral.half_width(32) == 17
    assert spectral.half_width(5) == 3
