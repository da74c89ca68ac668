import math
from fractions import Fraction

import numpy as np
import pytest

from foucast.autodiff import Var, no_grad
from foucast.evaluate import _score_sample
from foucast.metrics import (
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
from micro import make_events, micro_cfg
from oracles import eval_scores, naive_dft2, sliding_window_ssim


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
    hits, misses, false_alarms, correct_negatives = contingency(x, x, [74])[0]
    assert misses == 0 and false_alarms == 0
    assert hits + correct_negatives == 16


def test_contingency_all_miss():
    gt = np.zeros((4, 4))
    gt[:2, :2] = 1.0
    hits, misses, _, correct_negatives = contingency(np.zeros((4, 4)), gt, [16])[0]
    assert hits == 0 and misses == 4
    assert correct_negatives == 12


def test_contingency_hand_built_counts():
    pred = np.zeros((4, 4))
    gt = np.zeros((4, 4))
    # hits at (0,0),(0,1); miss at (1,0); false alarm at (2,2)
    pred[0, 0] = pred[0, 1] = 1.0
    gt[0, 0] = gt[0, 1] = 1.0
    gt[1, 0] = 1.0
    pred[2, 2] = 1.0
    c = contingency(pred, gt, [133])[0]
    assert tuple(c) == (2, 1, 1, 12)
    assert csi(c) == pytest.approx(0.5)


def test_contingency_stack_matches_one_frame_one_threshold_calls():
    """(..., H, W) inputs give (..., T, 4) int64 counts, one row per frame and threshold."""
    rng = np.random.default_rng(9)
    pred, gt = rng.random((3, 2, 8, 12)), rng.random((3, 2, 8, 12))
    thresholds = [0.0, 16.0, 133.0, 255.0]
    c = contingency(pred, gt, thresholds)
    assert c.shape == (3, 2, 4, 4) and c.dtype == np.int64
    for i in range(3):
        for j in range(2):
            for k, t in enumerate(thresholds):
                assert tuple(c[i, j, k]) == tuple(contingency(pred[i, j], gt[i, j], [t])[0])
    assert np.all(c.sum(axis=-1) == 8 * 12)


def test_contingency_threshold_range():
    with pytest.raises(MetricError):
        contingency(np.zeros((2, 2)), np.zeros((2, 2)), [256])
    with pytest.raises(MetricError):
        contingency(np.zeros((2, 2)), np.zeros((2, 2)), [16.0, float("nan")])


@pytest.mark.parametrize("thresholds", [128, [[16.0, 74.0]]], ids=["scalar", "2-D"])
def test_contingency_thresholds_must_be_one_dimensional(thresholds):
    with pytest.raises(MetricError, match="1-D"):
        contingency(np.zeros((2, 2)), np.zeros((2, 2)), thresholds)


def test_csi_hss_perfect_and_degenerate():
    perfect = [5, 0, 0, 11]
    assert csi(perfect) == 1.0
    assert hss(perfect) == 1.0
    empty = [0, 0, 0, 16]
    assert csi(empty) == 0.0
    assert hss(empty) == 0.0


def test_csi_hss_against_formula_sweep():
    rng = np.random.default_rng(5)
    for _ in range(100):
        pred = (rng.random((4, 4)) > 0.5).astype(float)
        gt = (rng.random((4, 4)) > 0.5).astype(float)
        c = contingency(pred, gt, [128])[0]
        a, m, b, d = (int(x) for x in c)
        denom = a + m + b
        assert csi(c) == (a / denom if denom else 0.0)
        hd = (a + m) * (m + d) + (a + b) * (b + d)
        assert hss(c) == (2 * (a * d - b * m) / hd if hd else 0.0)
        assert 0.0 <= csi(c) <= 1.0
        assert -1.0 - 1e-12 <= hss(c) <= 1.0


@pytest.mark.parametrize("row", [
    [2**33, 2**32 + 7, 2**31 + 3, 2**34],
    [3 * 2**40 + 1, 2**41 - 5, 2**39 + 11, 2**45 + 3],
    [2**31 - 1, 2**35 + 9, 2**36 + 1, 2**37 - 3],
])
def test_csi_hss_exact_at_large_counts(row):
    """Totals past int64-safe products: an int64 HSS gives 4.0 on the first row."""
    a, m, b, d = row
    counts = np.array(row, dtype=np.int64)  # the reduction's dtype
    want_csi = float(Fraction(a, a + m + b))
    want_hss = float(Fraction(2 * (a * d - b * m), (a + m) * (m + d) + (a + b) * (b + d)))
    assert csi(counts) == want_csi and 0.0 <= csi(counts) <= 1.0
    assert hss(counts) == want_hss and -1.0 <= hss(counts) <= 1.0


def test_pixel_metrics_identical_inputs():
    x = np.random.default_rng(6).random((2, 1, 16, 16))
    assert mse(x, x) == 0.0
    assert psnr(mse(x, x)) == math.inf
    assert ssim(x[0, 0], x[0, 0]) == pytest.approx(1.0)


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
    _, sq, ab, _ = _score_sample(pred, gt, [16.0])
    for lead in range(2):
        se = ae = 0.0
        for i in range(16):
            for j in range(16):
                d = 255.0 * (pred[lead, 0, i, j] - gt[lead, 0, i, j])
                se += d * d
                ae += abs(d)
        assert mse(pred[lead], gt[lead]) == pytest.approx(se / 256, rel=1e-12)
        assert sq[lead] == pytest.approx(se, rel=1e-12)
        assert ab[lead] == pytest.approx(ae, rel=1e-12)


@pytest.mark.parametrize("workers", [1, 2])
def test_evaluate_model_matches_scalar_loop_oracle(monkeypatch, workers):
    """Totals and per-lead rows of the report against per-event, per-lead, per-threshold,
    per-pixel loops, on fixed noisy-truth forecasts."""
    from foucast.evaluate import evaluate_model
    from foucast.model import NowcastModel

    cfg = micro_cfg(k_out=3)
    events = make_events(cfg)
    rng = np.random.default_rng(31)
    targets = [seq.frames[2:] for seq, _ in events]
    forecasts = [np.clip(x + 0.2 * rng.standard_normal(x.shape), 0, 1) for x in targets]
    by_event = {id(seq): f for (seq, _), f in zip(events, forecasts)}
    model = NowcastModel.initialize(cfg, seed=0)
    monkeypatch.setattr(model, "predict", lambda seq, cov: by_event[id(seq)])
    thresholds = [16.0, 74.0, 133.0, 219.0]

    report = evaluate_model(model, events, thresholds, max_workers=workers)
    want = eval_scores(forecasts, targets, thresholds)
    assert report.csi == want["csi"] and report.hss == want["hss"]
    assert 0.0 < min(report.csi.values()) and max(report.csi.values()) < 1.0
    assert report.mse == pytest.approx(want["mse"], rel=1e-12)
    assert report.mae == pytest.approx(want["mae"], rel=1e-12)
    assert report.ssim == pytest.approx(want["ssim"], abs=1e-9)
    assert len(report.lead_rows) == 3
    for row, lead in zip(report.lead_rows, want["leads"]):
        assert (row["csi"], row["hss"]) == (lead["csi"], lead["hss"])
        assert row["mse"] == pytest.approx(lead["mse"], rel=1e-12)
        assert row["mae"] == pytest.approx(lead["mae"], rel=1e-12)
        assert row["ssim"] == pytest.approx(lead["ssim"], abs=1e-9)


def test_ssim_matches_sliding_window_oracle():
    rng = np.random.default_rng(8)
    pred = rng.random((16, 16))
    gt = np.clip(pred + 0.1 * rng.standard_normal((16, 16)), 0, 1)
    got = ssim(pred, gt)
    want = sliding_window_ssim(pred, gt)
    assert abs(got - want) < 1e-9


def noisy_pair(rng, shape, sigma=0.1):
    pred = rng.random(shape)
    return pred, np.clip(pred + sigma * rng.standard_normal(shape), 0, 1)


def test_ssim_non_square_frame_matches_oracle():
    """Rows and columns take different band matrices; swapping them fails here."""
    pred, gt = noisy_pair(np.random.default_rng(21), (16, 24))
    assert abs(ssim(pred, gt) - sliding_window_ssim(pred, gt)) < 1e-9
    assert abs(ssim(pred.T, gt.T) - sliding_window_ssim(pred.T, gt.T)) < 1e-9


def test_ssim_production_frame_matches_oracle():
    """One 128x128 frame, the size eval scores, with sparse rain-like fields."""
    rng = np.random.default_rng(23)
    pred, gt = noisy_pair(rng, (128, 128), sigma=0.3)
    pred = pred * (rng.random((128, 128)) > 0.7)
    assert abs(ssim(pred, gt) - sliding_window_ssim(pred, gt)) < 1e-9


def test_ssim_rejects_small_frames():
    with pytest.raises(MetricError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))
    with pytest.raises(MetricError):
        ssim(np.zeros((16, 10)), np.zeros((16, 10)))
    with pytest.raises(MetricError, match="one"):  # a stack of frames is not one frame
        ssim(np.zeros((1, 16, 16)), np.zeros((1, 16, 16)))


def test_average_over_thresholds():
    vals = {16.0: 0.6, 74.0: 0.4, 133.0: 0.2}
    assert average_over_thresholds(vals) == pytest.approx(0.4)
    with pytest.raises(MetricError):
        average_over_thresholds({})
