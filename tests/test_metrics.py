import math

import numpy as np
import pytest

from foucast.autodiff import Var, no_grad
from foucast.evaluate import _score_sample
from foucast.metrics import (
    ContingencyCounts,
    MetricError,
    average_over_thresholds,
    contingency,
    csi,
    hss,
    mse,
    psnr,
    ssim,
)
from foucast.model import loss_tape
from oracles import gaussian_window, naive_dft2


def combined_loss(pred, gt, lam):
    with no_grad():
        return float(loss_tape(Var(pred), gt, lam).value)


def test_combined_loss_zero_iff_equal():
    rng = np.random.default_rng(0)
    x = rng.random((3, 1, 8, 8))
    assert combined_loss(x, x, lam=0.57) == 0.0
    y = x.copy()
    y[0, 0, 0, 0] += 0.1
    assert combined_loss(x, y, lam=0.57) > 0.0


def test_combined_loss_lambda_zero_is_mse():
    rng = np.random.default_rng(1)
    pred = rng.random((2, 1, 6, 6))
    gt = rng.random((2, 1, 6, 6))
    got = combined_loss(pred, gt, lam=0.0)
    want = sum(
        (pred.ravel()[i] - gt.ravel()[i]) ** 2 for i in range(pred.size)
    ) / pred.size
    assert abs(got - want) < 1e-12


def test_combined_loss_matches_naive_dft_oracle():
    rng = np.random.default_rng(2)
    pred = rng.random((1, 1, 4, 4))
    gt = rng.random((1, 1, 4, 4))
    want_mse = np.mean((pred - gt) ** 2)
    frame = (0, 0, slice(None), slice(None), None)  # (H, W, 1), the oracle's layout
    want_spec = np.mean(np.abs(naive_dft2(pred[frame]) - naive_dft2(gt[frame])))
    got = combined_loss(pred, gt, lam=1.0)
    assert abs(got - (want_mse + want_spec)) < 1e-10


def test_combined_loss_monotone_in_lambda():
    rng = np.random.default_rng(3)
    pred = rng.random((2, 1, 8, 8))
    gt = rng.random((2, 1, 8, 8))
    losses = [combined_loss(pred, gt, lam) for lam in (0.0, 0.25, 0.5, 1.0)]
    assert all(a < b for a, b in zip(losses, losses[1:]))


def test_contingency_perfect_forecast():
    rng = np.random.default_rng(4)
    x = rng.random((4, 4))
    c = contingency(x, x, threshold=74)
    assert c.misses == 0 and c.false_alarms == 0
    assert c.total == 16


def test_contingency_all_miss():
    gt = np.zeros((4, 4))
    gt[:2, :2] = 1.0
    c = contingency(np.zeros((4, 4)), gt, threshold=16)
    assert c.hits == 0 and c.misses == 4
    assert c.correct_negatives == 12


def test_contingency_hand_built_counts():
    pred = np.zeros((4, 4))
    gt = np.zeros((4, 4))
    # hits at (0,0),(0,1); miss at (1,0); false alarm at (2,2)
    pred[0, 0] = pred[0, 1] = 1.0
    gt[0, 0] = gt[0, 1] = 1.0
    gt[1, 0] = 1.0
    pred[2, 2] = 1.0
    c = contingency(pred, gt, threshold=133)
    assert (c.hits, c.misses, c.false_alarms, c.correct_negatives) == (2, 1, 1, 12)
    assert csi(c) == pytest.approx(0.5)


def test_contingency_threshold_range():
    with pytest.raises(MetricError):
        contingency(np.zeros((2, 2)), np.zeros((2, 2)), 256)


def test_csi_hss_perfect_and_degenerate():
    perfect = ContingencyCounts(hits=5, correct_negatives=11)
    assert csi(perfect) == 1.0
    assert hss(perfect) == 1.0
    empty = ContingencyCounts(correct_negatives=16)
    assert csi(empty) == 0.0
    assert hss(empty) == 0.0


def test_csi_hss_against_formula_sweep():
    rng = np.random.default_rng(5)
    for _ in range(100):
        pred = (rng.random((4, 4)) > 0.5).astype(float)
        gt = (rng.random((4, 4)) > 0.5).astype(float)
        c = contingency(pred, gt, threshold=128)
        a, b, m, d = c.hits, c.false_alarms, c.misses, c.correct_negatives
        denom = a + m + b
        assert csi(c) == (a / denom if denom else 0.0)
        hd = (a + m) * (m + d) + (a + b) * (b + d)
        assert hss(c) == (2 * (a * d - b * m) / hd if hd else 0.0)
        assert 0.0 <= csi(c) <= 1.0
        assert -1.0 - 1e-12 <= hss(c) <= 1.0


def test_pixel_metrics_identical_inputs():
    x = np.random.default_rng(6).random((2, 1, 16, 16))
    assert mse(x, x) == 0.0
    assert psnr(mse(x, x)) == math.inf
    assert ssim(x, x) == pytest.approx(1.0)


def test_mse_psnr_endpoints():
    zero = np.zeros((1, 1, 16, 16))
    one = np.ones((1, 1, 16, 16))
    assert mse(zero, one) == pytest.approx(255.0**2)
    assert psnr(mse(zero, one)) == pytest.approx(0.0)


def test_mse_mae_scalar_loop_oracle():
    """``mse`` and eval's per-lead squared and absolute error sums, by scalar loops."""
    rng = np.random.default_rng(7)
    pred = rng.random((2, 1, 16, 16))
    gt = rng.random((2, 1, 16, 16))
    stats = _score_sample(pred, gt, [16.0])
    for lead in range(2):
        se = ae = 0.0
        for i in range(16):
            for j in range(16):
                d = 255.0 * (pred[lead, 0, i, j] - gt[lead, 0, i, j])
                se += d * d
                ae += abs(d)
        assert mse(pred[lead], gt[lead]) == pytest.approx(se / 256, rel=1e-12)
        assert stats.lead_sq[lead] == pytest.approx(se, rel=1e-12)
        assert stats.lead_abs[lead] == pytest.approx(ae, rel=1e-12)
        assert stats.lead_pix[lead] == 256


def ssim_window_oracle(pred, gt, window=11, sigma=1.5, k1=0.01, k2=0.03):
    """Literal sliding-window SSIM: explicit loops over window positions."""
    p = pred * 255.0
    g = gt * 255.0
    kern = gaussian_window(window, sigma)
    c1 = (k1 * 255.0) ** 2
    c2 = (k2 * 255.0) ** 2
    h, w = p.shape
    vals = []
    for i in range(h - window + 1):
        for j in range(w - window + 1):
            pw = p[i : i + window, j : j + window]
            gw = g[i : i + window, j : j + window]
            mu_p = np.sum(kern * pw)
            mu_g = np.sum(kern * gw)
            var_p = np.sum(kern * pw * pw) - mu_p**2
            var_g = np.sum(kern * gw * gw) - mu_g**2
            cov = np.sum(kern * pw * gw) - mu_p * mu_g
            vals.append(
                ((2 * mu_p * mu_g + c1) * (2 * cov + c2))
                / ((mu_p**2 + mu_g**2 + c1) * (var_p + var_g + c2))
            )
    return float(np.mean(vals))


def test_ssim_matches_sliding_window_oracle():
    rng = np.random.default_rng(8)
    pred = rng.random((16, 16))
    gt = np.clip(pred + 0.1 * rng.standard_normal((16, 16)), 0, 1)
    got = ssim(pred[None], gt[None])
    want = ssim_window_oracle(pred, gt)
    assert abs(got - want) < 1e-9


def noisy_pair(rng, shape, sigma=0.1):
    pred = rng.random(shape)
    return pred, np.clip(pred + sigma * rng.standard_normal(shape), 0, 1)


def test_ssim_non_square_frame_matches_oracle():
    """Rows and columns take different band matrices; swapping them fails here."""
    pred, gt = noisy_pair(np.random.default_rng(21), (16, 24))
    assert abs(ssim(pred[None], gt[None]) - ssim_window_oracle(pred, gt)) < 1e-9
    assert abs(ssim(pred.T[None], gt.T[None]) - ssim_window_oracle(pred.T, gt.T)) < 1e-9


def test_ssim_frame_stack_is_mean_of_oracle():
    pred, gt = noisy_pair(np.random.default_rng(22), (3, 1, 16, 20), sigma=0.2)
    want = np.mean([ssim_window_oracle(pred[i, 0], gt[i, 0]) for i in range(3)])
    assert abs(ssim(pred, gt) - want) < 1e-9


def test_ssim_production_frame_matches_oracle():
    """One 128x128 frame, the size eval scores, with sparse rain-like fields."""
    rng = np.random.default_rng(23)
    pred, gt = noisy_pair(rng, (128, 128), sigma=0.3)
    pred = pred * (rng.random((128, 128)) > 0.7)
    assert abs(ssim(pred[None], gt[None]) - ssim_window_oracle(pred, gt)) < 1e-9


def test_ssim_rejects_small_frames():
    with pytest.raises(MetricError):
        ssim(np.zeros((1, 8, 8)), np.zeros((1, 8, 8)))
    with pytest.raises(MetricError):
        ssim(np.zeros((1, 16, 10)), np.zeros((1, 16, 10)))


def test_average_over_thresholds():
    vals = {16.0: 0.6, 74.0: 0.4, 133.0: 0.2}
    assert average_over_thresholds(vals) == pytest.approx(0.4)
    with pytest.raises(MetricError):
        average_over_thresholds({})
