"""Model evaluation over a dataset split, with CSV report emission.

Samples are scored independently (optionally fanned out over a bounded
thread pool, capped by FOUCAST_THREADS) and reduced in manifest order, so
results do not depend on scheduling.  Categorical scores aggregate the
contingency counts over all pixels before the ratio; pixel errors aggregate
sums; SSIM averages per-frame scores.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics
from .config import ConfigError
from .metrics import ContingencyCounts
from .model import NowcastModel
from .synth import CADENCE_MINUTES, CovariateGrid, RadarSequence


def default_workers() -> int:
    """Eval pool size: FOUCAST_THREADS if set (a positive integer), else <= 4."""
    env = os.environ.get("FOUCAST_THREADS")
    if not env:
        return min(4, os.cpu_count() or 1)
    if not env.isdecimal() or int(env) < 1:
        raise ConfigError(f"FOUCAST_THREADS must be a positive integer, got {env!r}")
    return int(env)


@dataclass
class _SampleStats:
    """Per-lead scores of one sample; every total is a sum over the leads."""

    lead_counts: list[dict[float, ContingencyCounts]]
    lead_sq: np.ndarray
    lead_abs: np.ndarray
    lead_ssim: np.ndarray
    lead_pix: np.ndarray


def _score_sample(pred: np.ndarray, target: np.ndarray, thresholds) -> _SampleStats:
    k = pred.shape[0]
    stats = _SampleStats(lead_counts=[], lead_sq=np.zeros(k), lead_abs=np.zeros(k),
                         lead_ssim=np.zeros(k), lead_pix=np.zeros(k))
    for j in range(k):
        p, g = pred[j, 0], target[j, 0]
        stats.lead_counts.append({t: metrics.contingency(p, g, t) for t in thresholds})
        d = metrics.PIXEL_SCALE * (p - g)
        stats.lead_sq[j] = float(np.sum(d * d))
        stats.lead_abs[j] = float(np.sum(np.abs(d)))
        stats.lead_pix[j] = d.size
        stats.lead_ssim[j] = metrics.ssim(p[None], g[None])
    return stats


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

    def work(pair):
        seq, cov = pair
        pred = model.predict(seq, cov)
        return _score_sample(pred, seq.frames[cfg.t_in :], thresholds)

    workers = max_workers or default_workers()
    if workers > 1 and len(events) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            stats = list(pool.map(work, events))
    else:
        stats = [work(pair) for pair in events]

    k = cfg.k_out
    lead_total = [{t: ContingencyCounts() for t in thresholds} for _ in range(k)]
    lead_sq = np.zeros(k)
    lead_ab = np.zeros(k)
    lead_ssim = np.zeros(k)
    lead_pix = np.zeros(k)
    for s in stats:
        for j in range(k):
            for t in thresholds:
                lead_total[j][t] = lead_total[j][t] + s.lead_counts[j][t]
        lead_sq += s.lead_sq
        lead_ab += s.lead_abs
        lead_ssim += s.lead_ssim
        lead_pix += s.lead_pix
    total = {t: sum((lead[t] for lead in lead_total), ContingencyCounts()) for t in thresholds}
    pix = lead_pix.sum()

    report = EvalReport(tag=tag, thresholds=list(thresholds))
    report.csi = {t: metrics.csi(total[t]) for t in thresholds}
    report.hss = {t: metrics.hss(total[t]) for t in thresholds}
    report.csi_avg = metrics.average_over_thresholds(report.csi)
    report.hss_avg = metrics.average_over_thresholds(report.hss)
    report.mse = float(lead_sq.sum() / pix)
    report.mae = float(lead_ab.sum() / pix)
    report.psnr = metrics.psnr(report.mse)
    report.ssim = float(lead_ssim.sum() / (k * len(stats)))
    for j in range(k):
        m = lead_sq[j] / lead_pix[j]
        report.lead_rows.append({
            "lead": (j + 1) * CADENCE_MINUTES,
            "csi": float(np.mean([metrics.csi(lead_total[j][t]) for t in thresholds])),
            "hss": float(np.mean([metrics.hss(lead_total[j][t]) for t in thresholds])),
            "mse": m,
            "mae": lead_ab[j] / lead_pix[j],
            "psnr": metrics.psnr(m),
            "ssim": lead_ssim[j] / len(stats),
        })
    return report


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

    paths = [
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
    return paths
