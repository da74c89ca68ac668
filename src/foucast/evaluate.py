"""Model evaluation over a dataset split, with CSV report emission.

Samples are scored independently on the worker pool (``pool.fan_out``: the
calling thread scores every W-th event and pool threads the rest, with OpenBLAS
held at one thread) and reduced in manifest order, so the report does not
depend on the pool size.  A forecast that fails names the event's position in
the split.  Categorical scores aggregate the contingency counts over all pixels
before the ratio; pixel errors aggregate sums; SSIM averages per-frame scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics
from .autodiff import AutodiffError
from .model import NowcastModel
from .pool import default_workers, fan_out
from .synth import CADENCE_MINUTES, CovariateGrid, RadarSequence


def _score_sample(pred: np.ndarray, target: np.ndarray, thresholds):
    """One sample's per-lead scores: contingency counts (K, T, 4), and the squared-error
    sum, absolute-error sum and SSIM of each lead, (K,) each."""
    k = pred.shape[0]
    counts = np.zeros((k, len(thresholds), 4), dtype=np.int64)
    sq, ab, ssim = np.zeros(k), np.zeros(k), np.zeros(k)
    for j in range(k):
        p, g = pred[j, 0], target[j, 0]
        counts[j] = metrics.contingency(p, g, thresholds)
        d = metrics.PIXEL_SCALE * (p - g)
        sq[j] = float(np.sum(d * d))
        ab[j] = float(np.sum(np.abs(d)))
        ssim[j] = metrics.ssim(p[None], g[None])
    return counts, sq, ab, ssim


@dataclass
class EvalReport:
    tag: str
    thresholds: list[float]
    csi: dict[float, float] = field(default_factory=dict)
    hss: dict[float, float] = field(default_factory=dict)
    csi_avg: float = 0.0
    hss_avg: float = 0.0
    mse: float = 0.0
    mae: float = 0.0
    psnr: float = 0.0
    ssim: float = 0.0
    lead_rows: list[dict] = field(default_factory=list)  # per-lead breakdown


def evaluate_model(
    model: NowcastModel,
    events: list[tuple[RadarSequence, CovariateGrid]],
    thresholds: list[float],
    tag: str = "model",
    max_workers: int | None = None,
) -> EvalReport:
    if not events:
        raise ValueError("no evaluation events")
    cfg = model.cfg

    def work(item):
        k, (seq, cov) = item
        try:
            pred = model.predict(seq, cov)
        except AutodiffError as exc:  # e.g. a checkpoint whose forecast overflows
            raise AutodiffError(f"event {k}: {exc}") from exc
        return _score_sample(pred, seq.frames[cfg.t_in :], thresholds)

    stats = fan_out(work, list(enumerate(events)), max_workers or default_workers())

    k = cfg.k_out
    counts, lead_sq, lead_ab, lead_ssim = (sum(parts) for parts in zip(*stats))
    total = counts.sum(axis=0)
    lead_pix = len(stats) * cfg.hw * cfg.hw  # every prediction is (k, 1, hw, hw)

    csi = {t: metrics.csi(c) for t, c in zip(thresholds, total)}
    hss = {t: metrics.hss(c) for t, c in zip(thresholds, total)}
    mse = float(lead_sq.sum() / (k * lead_pix))
    lead_mse = lead_sq / lead_pix
    return EvalReport(
        tag=tag, thresholds=list(thresholds), csi=csi, hss=hss,
        csi_avg=metrics.average_over_thresholds(csi), hss_avg=metrics.average_over_thresholds(hss),
        mse=mse, mae=float(lead_ab.sum() / (k * lead_pix)), psnr=metrics.psnr(mse),
        ssim=float(lead_ssim.sum() / (k * len(stats))),
        lead_rows=[{
            "lead": (j + 1) * CADENCE_MINUTES,
            "csi": float(np.mean([metrics.csi(c) for c in counts[j]])),
            "hss": float(np.mean([metrics.hss(c) for c in counts[j]])),
            "mse": lead_mse[j],
            "mae": lead_ab[j] / lead_pix,
            "psnr": metrics.psnr(lead_mse[j]),
            "ssim": lead_ssim[j] / len(stats),
        } for j in range(k)],
    )


def write_reports(out_dir: str | Path, report: EvalReport) -> list[Path]:
    """Emit the three CSV reports; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, header: str, rows: list[str]) -> Path:
        path = out_dir / name
        tmp = path.with_suffix(".tmp")
        tmp.write_text(header + "\n" + "".join(r + "\n" for r in rows))
        tmp.replace(path)
        return path

    return [
        emit(
            "metrics_csi.csv",
            "model,threshold,csi,hss",
            [f"{report.tag},{t:g},{report.csi[t]:.6f},{report.hss[t]:.6f}" for t in report.thresholds]
            + [f"{report.tag},avg,{report.csi_avg:.6f},{report.hss_avg:.6f}"],
        ),
        emit(
            "metrics_pixel.csv",
            "model,mse,mae,psnr,ssim",
            [f"{report.tag},{report.mse:.6f},{report.mae:.6f},{report.psnr:.6f},{report.ssim:.6f}"],
        ),
        emit(
            "metrics_leadtime.csv",
            "model,lead_minutes,csi,hss,mse,mae,psnr,ssim",
            [
                f"{report.tag},{r['lead']:g},{r['csi']:.6f},{r['hss']:.6f},"
                f"{r['mse']:.6f},{r['mae']:.6f},{r['psnr']:.6f},{r['ssim']:.6f}"
                for r in report.lead_rows
            ],
        ),
    ]
