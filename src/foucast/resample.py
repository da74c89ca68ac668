"""Linear resampling as weight matrices.

``lerp_matrix`` builds the linear-interpolation weights from one increasing
axis to another, clamped at the ends.  Bilinear spatial resizing applies one
such matrix per axis; temporal alignment applies one along the time axis.
Spatial coordinates are endpoint-aligned, so affine fields are reproduced
exactly at any target resolution and same-size resampling is the identity.
"""

from __future__ import annotations

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
