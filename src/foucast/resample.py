"""Linear resampling as weight matrices, and a Gaussian blur bit-equal to scipy's.

``lerp_matrix`` builds the linear-interpolation weights from one increasing
axis to another, clamped at the ends.  Bilinear spatial resizing applies one
such matrix per axis; temporal alignment applies one along the time axis.
Spatial coordinates are endpoint-aligned, so affine fields are reproduced
exactly at any target resolution and same-size resampling is the identity.
"""

from __future__ import annotations

import functools

import numpy as np


def lerp_matrix(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """(len(dst), len(src)) weights that linearly interpolate samples at ``src`` to ``dst``.

    ``src`` must be non-empty and strictly increasing; ``dst`` outside its
    range takes the nearest end sample.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = len(src)
    if n == 0:
        raise ValueError("empty source axis")
    if np.any(np.diff(src) <= 0):
        raise ValueError("source points must be strictly increasing")
    pos = np.interp(dst, src, np.arange(n, dtype=np.float64))
    lo = np.minimum(pos.astype(int), max(n - 2, 0))
    frac = pos - lo
    rows = np.arange(len(dst))
    weights = np.zeros((len(dst), n))
    weights[rows, lo] = 1.0 - frac
    weights[rows, np.minimum(lo + 1, n - 1)] += frac
    return weights


def bilinear_resize(field: np.ndarray, out_hw: tuple[int, int]) -> np.ndarray:
    """Resize the trailing two axes of ``field`` to ``out_hw``."""
    field = np.asarray(field, dtype=np.float64)
    h, w = field.shape[-2], field.shape[-1]
    oh, ow = out_hw
    rows = np.linspace(0.0, h - 1.0, oh) if oh > 1 else np.array([(h - 1) / 2.0])
    cols = np.linspace(0.0, w - 1.0, ow) if ow > 1 else np.array([(w - 1) / 2.0])
    return lerp_matrix(np.arange(h), rows) @ field @ lerp_matrix(np.arange(w), cols).T


@functools.cache
def _blur_plan(n: int, sigmas: tuple[float, ...]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Indices of n samples reflect-padded by the largest radius R, the channel order widest
    radius first, scipy's half-kernels in that order, and per tap j how many channels reach j."""
    radii = [int(4.0 * s + 0.5) for s in sigmas]
    order = np.argsort([-r for r in radii], kind="stable")
    taps = np.zeros((len(sigmas), max(radii) + 1))
    for row, c in enumerate(order):
        s, r = sigmas[c], radii[c]
        phi = np.exp(-0.5 / (s * s) * np.arange(-r, r + 1) ** 2)
        taps[row, : r + 1] = (phi / phi.sum())[r:]
    reach = tuple(sum(r >= j for r in radii) for j in range(max(radii) + 1))
    return np.pad(np.arange(n), max(radii), mode="symmetric"), taps[:, :, None, None], order, reach


def gaussian_blur(stack: np.ndarray, sigmas: tuple[float, ...]) -> np.ndarray:
    """Blur each (H, W) field of an (N, C, H, W) stack at ``sigmas[c]`` as scipy does: along
    H then W, x[i] w[0] plus (x[i - j] + x[i + j]) w[j] for j from the radius down to 1."""
    order = _blur_plan(stack.shape[2], tuple(sigmas))[2]
    stack = stack[:, order]
    for _ in range(2):  # H, then W swapped into its place
        idx, w, _, reach = _blur_plan(stack.shape[2], tuple(sigmas))
        r_max, n = w.shape[1] - 1, stack.shape[2]
        padded = stack[:, :, idx]
        acc = padded[:, :, r_max : r_max + n] * w[:, 0]
        for j in range(r_max, 0, -1):  # only channels that reach j: a zero tap turns -0.0 into +0.0
            m = reach[j]
            pair = padded[:, :m, r_max - j : r_max - j + n] + padded[:, :m, r_max + j : r_max + j + n]
            acc[:, :m] += pair * w[:m, j]
        stack = acc.swapaxes(2, 3)
    return stack[:, np.argsort(order)]
