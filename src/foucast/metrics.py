"""Verification metrics.

Forecast skill is scored on the 0-255 reflectivity scale: fields arrive in
[0, 1] and are scaled up before thresholding and before pixel/perceptual
metrics, so thresholds and errors are comparable across datasets quoted on
that scale.
"""

from __future__ import annotations

import functools
import math

import numpy as np

PIXEL_SCALE = 255.0
PSNR_PERFECT = math.inf  # sentinel for identical inputs
# SSIM: Gaussian window side and width, and the stabilising constants of Wang et al. (2004)
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


class MetricError(ValueError):
    pass


def _check_match(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise MetricError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    return pred, gt


# ---------------------------------------------------------------------------
# categorical skill


def contingency(pred: np.ndarray, gt: np.ndarray, thresholds) -> np.ndarray:
    """Pixelwise event counts over the last two axes at each 0-255 threshold; event means
    value >= threshold.

    Returns (..., T, 4) int64 counts: hits, misses, false alarms, correct negatives.
    """
    t = np.asarray(thresholds, dtype=np.float64)
    if t.ndim != 1:
        raise MetricError(f"thresholds must be a 1-D list, got shape {t.shape}")
    if not np.all((0.0 <= t) & (t <= 255.0)):  # NaN fails as well
        raise MetricError(f"thresholds must lie in [0, 255], got {thresholds}")
    pred, gt = _check_match(pred, gt)
    t = t[:, None, None]
    pe = (pred * PIXEL_SCALE)[..., None, :, :] >= t
    ge = (gt * PIXEL_SCALE)[..., None, :, :] >= t
    n = pred.shape[-2] * pred.shape[-1]
    # one count_nonzero per (H, W) frame: with an axis it ran 5x slower on 128 x 128 frames
    hits, n_pe, n_ge = (np.array([np.count_nonzero(f) for f in e.reshape(-1, n)],
                                 dtype=np.int64).reshape(e.shape[:-2]) for e in (pe & ge, pe, ge))
    return np.stack([hits, n_ge - hits, n_pe - hits, n - n_pe - n_ge + hits], axis=-1)


def csi(counts) -> float:
    """Critical success index of one (hits, misses, false alarms, correct negatives) row."""
    a, m, b, _ = map(int, counts)
    denom = a + m + b
    return a / denom if denom else 0.0


def hss(counts) -> float:
    """Heidke skill score of one count row, in Python ints: exact at any total, where int64
    products overflow once a report's totals pass about 6e9 pixels."""
    a, m, b, d = map(int, counts)
    denom = (a + m) * (m + d) + (a + b) * (b + d)
    return 2 * (a * d - b * m) / denom if denom else 0.0


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
def _gaussian_band(n: int) -> np.ndarray:
    """(n - SSIM_WINDOW + 1, n) matrix whose row i holds the normalised 1-D taps at i.

    The 2-D window is the outer product of these taps, so the windowed mean
    of a frame over all valid positions is ``band_h @ x @ band_w.T``.  The
    cached array is shared by every caller (and eval pool thread), so it is
    read-only.
    """
    half = (SSIM_WINDOW - 1) / 2.0
    g = np.exp(-((np.arange(SSIM_WINDOW) - half) ** 2) / (2.0 * SSIM_SIGMA**2))
    g /= g.sum()
    band = np.zeros((n - SSIM_WINDOW + 1, n))
    for i in range(n - SSIM_WINDOW + 1):
        band[i, i : i + SSIM_WINDOW] = g
    band.setflags(write=False)
    return band


def ssim(pred: np.ndarray, gt: np.ndarray) -> float:
    """Structural similarity of one (H, W) frame pair in [0, 1], on the 0-255 scale, with a
    Gaussian window at valid positions only, applied separably, rows then columns."""
    pred, gt = _check_match(pred, gt)
    if pred.ndim != 2 or min(pred.shape) < SSIM_WINDOW:
        raise MetricError(f"ssim scores one (H, W) frame of at least {SSIM_WINDOW}x{SSIM_WINDOW}"
                          f" pixels, got {pred.shape}")
    pf, gf = pred * PIXEL_SCALE, gt * PIXEL_SCALE
    band_h = _gaussian_band(pred.shape[0])
    band_w_t = _gaussian_band(pred.shape[1]).T
    c1 = (SSIM_K1 * PIXEL_SCALE) ** 2
    c2 = (SSIM_K2 * PIXEL_SCALE) ** 2

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
