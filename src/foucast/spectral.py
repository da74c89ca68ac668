"""Complex spectra and 2D discrete Fourier transforms.

Conventions used by the whole package:

* Real fields are ``(H, W, C)`` float64 arrays; the transform acts on the two
  spatial axes independently per channel.
* Forward transform is unnormalized; the inverse carries the ``1/(H*W)``
  factor (numpy's "backward" norm).
* Real inputs are stored as a Hermitian half-spectrum ``(H, W//2 + 1, C)``;
  ``layout`` selects between the stored half and the full spectrum.  The half
  layout drops the conjugate-redundant columns, so inversion needs the
  original ``width``.
"""

from __future__ import annotations

import numpy as np

HALF = "half"
FULL = "full"


class SpectralError(ValueError):
    """Invalid input to a spectral operation."""


def _require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise SpectralError(f"{what} contains non-finite entries")


def _as_field(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise SpectralError(f"expected (H, W, C) field, got shape {x.shape}")
    _require_finite(x, "field")
    return x


def _as_spectrum(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.complex128)
    _require_finite(z, "spectrum")
    return z


def half_width(width: int) -> int:
    """Number of stored columns for a Hermitian half-spectrum of ``width``."""
    return width // 2 + 1


def dft2_forward(x: np.ndarray, layout: str = HALF) -> np.ndarray:
    """Per-channel 2D DFT of a real field, unnormalized.

    ``layout="half"`` stores the Hermitian half-spectrum (last spatial axis
    trimmed to ``W//2 + 1``); ``layout="full"`` keeps all ``W`` columns.
    """
    x = _as_field(x)
    if layout == HALF:
        return np.fft.rfft2(x, axes=(0, 1))
    if layout == FULL:
        return np.fft.fft2(x, axes=(0, 1))
    raise SpectralError(f"unknown layout {layout!r}")


def hermitian_expand(z: np.ndarray, width: int) -> np.ndarray:
    """Reconstruct the full spectrum from a stored half-spectrum.

    Missing columns ``w`` are filled with ``conj(z[-h, width-w])``.  Stored
    columns are taken as-is, so the expansion is exact for true transforms of
    real fields and well-defined for arbitrary half-spectra.
    """
    z = _as_spectrum(z)
    hf = half_width(width)
    if z.shape[1] != hf:
        raise SpectralError(
            f"half-spectrum has {z.shape[1]} columns, expected {hf} for width {width}"
        )
    h = z.shape[0]
    full = np.empty((h, width) + z.shape[2:], dtype=np.complex128)
    full[:, :hf] = z
    rows = (-np.arange(h)) % h
    for w in range(hf, width):
        full[:, w] = np.conj(z[rows, width - w])
    return full


def dft2_inverse(z: np.ndarray, width: int | None = None, layout: str = HALF) -> np.ndarray:
    """Inverse 2D DFT scaled by ``1/(H*W)``, returning a real field.

    For the half layout the inverse is defined as the real part of the full
    inverse of the Hermitian expansion; for actual transforms of real fields
    this is the exact round trip.
    """
    z = _as_spectrum(z)
    if layout == HALF:
        if width is None:
            raise SpectralError("half-layout inverse requires the original width")
        full = hermitian_expand(z, width)
    elif layout == FULL:
        full = z
    else:
        raise SpectralError(f"unknown layout {layout!r}")
    return np.fft.ifft2(full, axes=(0, 1)).real


def parseval_energy(x: np.ndarray, z: np.ndarray, layout: str = HALF) -> tuple[float, float]:
    """Spatial and spectral energy of a (field, spectrum) pair.

    Returns ``(sum x^2, sum |z|^2 / (H*W))`` with full-spectrum accounting;
    under the package's DFT convention the two agree.
    """
    x = _as_field(x)
    h, w = x.shape[0], x.shape[1]
    z = _as_spectrum(z)
    if layout == HALF:
        full = hermitian_expand(z, w)
    elif layout == FULL:
        full = z
    else:
        raise SpectralError(f"unknown layout {layout!r}")
    if full.shape != x.shape:
        raise SpectralError(f"spectrum shape {z.shape} does not match field {x.shape}")
    spatial = float(np.sum(x * x))
    spectral = float(np.sum(np.abs(full) ** 2) / (h * w))
    return spatial, spectral
