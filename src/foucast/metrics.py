"""Verification metrics.

Forecast skill is scored on the 0-255 reflectivity scale: fields arrive in
[0, 1] and are scaled up before thresholding and before pixel/perceptual
metrics, so thresholds and errors are comparable across datasets quoted on
that scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

PIXEL_SCALE = 255.0
PSNR_PERFECT = math.inf  # sentinel for identical inputs


class MetricError(ValueError):
    pass


def _check_match(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise MetricError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return pred, gt


def _frames(x: np.ndarray) -> np.ndarray:
    """View any (..., H, W) stack as (N, H, W)."""
    if x.ndim < 2:
        raise MetricError(f"need at least 2 dims, got {x.shape}")
    return x.reshape(-1, x.shape[-2], x.shape[-1])


# ---------------------------------------------------------------------------
# categorical skill


@dataclass
class ContingencyCounts:
    hits: int = 0
    misses: int = 0
    false_alarms: int = 0
    correct_negatives: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses + self.false_alarms + self.correct_negatives

    def __add__(self, other: "ContingencyCounts") -> "ContingencyCounts":
        return ContingencyCounts(
            self.hits + other.hits,
            self.misses + other.misses,
            self.false_alarms + other.false_alarms,
            self.correct_negatives + other.correct_negatives,
        )


def contingency(pred: np.ndarray, gt: np.ndarray, threshold: float) -> ContingencyCounts:
    """Pixelwise event counts at a 0-255 threshold; event means value >= threshold."""
    if not 0.0 <= threshold <= 255.0:
        raise MetricError(f"threshold must lie in [0, 255], got {threshold}")
    pred, gt = _check_match(pred, gt)
    pe = pred * PIXEL_SCALE >= threshold
    ge = gt * PIXEL_SCALE >= threshold
    hits = int(np.count_nonzero(pe & ge))
    n_pe = int(np.count_nonzero(pe))
    n_ge = int(np.count_nonzero(ge))
    return ContingencyCounts(
        hits=hits,
        misses=n_ge - hits,
        false_alarms=n_pe - hits,
        correct_negatives=pe.size - n_pe - n_ge + hits,
    )


def csi(c: ContingencyCounts) -> float:
    denom = c.hits + c.misses + c.false_alarms
    return c.hits / denom if denom else 0.0


def hss(c: ContingencyCounts) -> float:
    a, b, m, d = c.hits, c.false_alarms, c.misses, c.correct_negatives
    denom = (a + m) * (m + d) + (a + b) * (b + d)
    return 2.0 * (a * d - b * m) / denom if denom else 0.0


# ---------------------------------------------------------------------------
# pixel and perceptual metrics (0-255 scale)


def mse(pred: np.ndarray, gt: np.ndarray) -> float:
    pred, gt = _check_match(pred, gt)
    return float(np.mean((PIXEL_SCALE * (pred - gt)) ** 2))


def psnr(mse_value: float) -> float:
    """Peak signal-to-noise ratio, in dB on the 0-255 scale, of a mean squared error."""
    if mse_value == 0.0:
        return PSNR_PERFECT
    return 10.0 * math.log10(PIXEL_SCALE**2 / mse_value)


@functools.lru_cache(maxsize=16)
def _gaussian_band(n: int, window: int, sigma: float) -> np.ndarray:
    """(n - window + 1, n) matrix whose row i holds the normalised 1-D taps at i.

    The 2-D window is the outer product of these taps, so the windowed mean
    of a frame over all valid positions is ``band_h @ x @ band_w.T``.  The
    cached array is shared by every caller (and eval pool thread), so it is
    read-only.
    """
    half = (window - 1) / 2.0
    g = np.exp(-((np.arange(window) - half) ** 2) / (2.0 * sigma**2))
    g /= g.sum()
    band = np.zeros((n - window + 1, n))
    for i in range(n - window + 1):
        band[i, i : i + window] = g
    band.setflags(write=False)
    return band


def ssim(
    pred: np.ndarray,
    gt: np.ndarray,
    window: int = 11,
    sigma: float = 1.5,
    k1: float = 0.01,
    k2: float = 0.03,
) -> float:
    """Structural similarity with a Gaussian window, valid positions only.

    Inputs are (..., H, W) stacks in [0, 1]; frames are scored independently
    on the 0-255 scale and the scores averaged.  The Gaussian window is
    applied separably, rows then columns.
    """
    pred, gt = _check_match(pred, gt)
    pf = _frames(pred) * PIXEL_SCALE
    gf = _frames(gt) * PIXEL_SCALE
    if pf.shape[1] < window or pf.shape[2] < window:
        raise MetricError(f"frame {pf.shape[1:]} smaller than {window}x{window} window")
    band_h = _gaussian_band(pf.shape[1], window, sigma)
    band_w_t = _gaussian_band(pf.shape[2], window, sigma).T
    c1 = (k1 * PIXEL_SCALE) ** 2
    c2 = (k2 * PIXEL_SCALE) ** 2

    def w_mean(x):
        return band_h @ x @ band_w_t

    mu_p = w_mean(pf)
    mu_g = w_mean(gf)
    var_p = w_mean(pf * pf) - mu_p**2
    var_g = w_mean(gf * gf) - mu_g**2
    cov = w_mean(pf * gf) - mu_p * mu_g
    score = ((2 * mu_p * mu_g + c1) * (2 * cov + c2)) / (
        (mu_p**2 + mu_g**2 + c1) * (var_p + var_g + c2)
    )
    return float(np.mean(score))


def average_over_thresholds(values: dict[float, float]) -> float:
    """Unweighted mean across a configured threshold list."""
    if not values:
        raise MetricError("no thresholds")
    return float(np.mean(list(values.values())))
