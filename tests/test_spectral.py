"""The tape's Fourier transforms, checked on plain values.

These are the transforms the model runs: ``fft2``/``rfft2`` forward, the
Hermitian half layout and its expansion, and ``irfft2_real`` back.
"""

import numpy as np
import pytest

from foucast import autodiff as ad
from foucast.autodiff import AutodiffError, cunit, no_grad
from oracles import naive_dft2


def fft2(x):
    with no_grad():
        return ad.fft2(x).value


def rfft2(x):
    with no_grad():
        return ad.rfft2(x).value


def ifft2(z):
    with no_grad():
        return ad.ifft2(z).value


def expand(z, width):
    with no_grad():
        return ad.hermitian_expand(z, width).value


def irfft2_real(z, width):
    with no_grad():
        return ad.irfft2_real(z, width).value


def test_impulse_has_flat_spectrum():
    x = np.zeros((4, 4, 1))
    x[0, 0, 0] = 1.0
    z = fft2(x)
    assert np.allclose(z, 1.0 + 0.0j, atol=1e-14)


def test_constant_field_is_dc_only():
    c = 2.5
    n = 6
    x = np.full((n, n, 1), c)
    z = fft2(x)
    assert z[0, 0, 0] == pytest.approx(c * n * n)
    z[0, 0, 0] = 0.0
    assert np.max(np.abs(z)) < 1e-10


def test_forward_matches_naive_dft():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((8, 8, 2))
    want = naive_dft2(x)
    got = fft2(x)
    assert np.max(np.abs(got - want)) < 1e-10
    half = rfft2(x)
    assert half.shape == (8, 5, 2)
    assert np.max(np.abs(half - want[:, :5])) < 1e-10


def test_round_trip_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((16, 16, 3))
    back = irfft2_real(rfft2(x), 16)
    assert np.max(np.abs(back - x)) < 1e-12


def test_inverse_of_all_ones_spectrum_is_impulse():
    z = np.ones((4, 4, 1), dtype=np.complex128)
    x = ifft2(z).real
    want = np.zeros((4, 4, 1))
    want[0, 0, 0] = 1.0
    assert np.max(np.abs(x - want)) < 1e-14


def test_inverse_recovers_field_from_naive_spectrum():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 6, 2))
    back = ifft2(naive_dft2(x)).real
    assert np.max(np.abs(back - x)) < 1e-10


@pytest.mark.parametrize("shape", [(8, 8, 2), (5, 7, 1), (4, 6, 3), (2, 1, 1), (1, 2, 1)])
def test_half_and_full_layouts_agree_after_expansion(shape):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(shape)
    full = fft2(x)
    half = rfft2(x)
    assert np.max(np.abs(expand(half, shape[1]) - full)) < 1e-12
    back = irfft2_real(half, shape[1])
    assert np.max(np.abs(back - x)) < 1e-12


def test_linearity():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((8, 8, 2))
    y = rng.standard_normal((8, 8, 2))
    a, b = 1.7, -0.3
    lhs = rfft2(a * x + b * y)
    rhs = a * rfft2(x) + b * rfft2(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_non_finite_input_rejected():
    """A NaN field or an infinite spectrum stops at the expansion, not in the output."""
    x = np.zeros((2, 2, 1))
    x[0, 0, 0] = np.nan
    with pytest.raises(AutodiffError, match="non-finite"):
        irfft2_real(rfft2(x), 2)
    z = np.zeros((2, 2, 1), dtype=np.complex128)
    z[0, 0, 0] = np.inf + 0j
    with pytest.raises(AutodiffError, match="non-finite"):
        irfft2_real(z, 2)


def test_unit_normalize():
    """Unit normalization is ``autodiff.cunit``; checked here on plain values."""
    with no_grad():
        assert np.allclose(cunit(np.array([3.0 + 4.0j])).value, [0.6 + 0.8j], atol=1e-15)
        assert cunit(np.array([0.0 + 0.0j])).value[0] == 1.0 + 0.0j
        rng = np.random.default_rng(8)
        z = rng.standard_normal((4, 4, 2)) + 1j * rng.standard_normal((4, 4, 2))
        out = cunit(z, eps=1e-12).value
    assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12


def parseval_energy(x):
    """(sum x^2, sum |Z|^2 / (H*W)) with Z the expanded half-spectrum of x."""
    h, w = x.shape[0], x.shape[1]
    full = expand(rfft2(x), w)
    return float(np.sum(x * x)), float(np.sum(np.abs(full) ** 2) / (h * w))


def test_parseval():
    x = np.zeros((4, 4, 1))
    assert parseval_energy(x) == (0.0, 0.0)

    x[1, 2, 0] = 1.0
    spatial, spect = parseval_energy(x)
    assert spatial == pytest.approx(1.0)
    assert spect == pytest.approx(1.0)

    rng = np.random.default_rng(9)
    y = rng.standard_normal((8, 8, 2))
    spatial, spect = parseval_energy(y)
    assert abs(spatial - spect) / spatial < 1e-10


def test_parseval_shape_mismatch_rejected():
    """A half-spectrum expanded to a width it was not taken at is rejected."""
    z = rfft2(np.zeros((4, 6, 1)))
    with pytest.raises(AutodiffError, match="does not match width"):
        expand(z, 4)


def test_acceptance_naive_oracle_sweep():
    rng = np.random.default_rng(42)
    for _ in range(10):
        h = int(rng.integers(2, 17))
        w = int(rng.integers(2, 17))
        c = int(rng.integers(1, 5))
        x = rng.standard_normal((h, w, c))
        assert np.max(np.abs(fft2(x) - naive_dft2(x))) < 1e-10


def test_half_width():
    assert ad.half_width(32) == 17
    assert ad.half_width(5) == 3
