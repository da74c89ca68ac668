"""Synthetic precipitation events with motion-correlated covariates.

Each event is a sum of advecting anisotropic Gaussian blobs with growth or
decay and optional turning.  Covariates play the role of external forecast
fields: they are built from the *future* trajectory (smoothed rain potential
per pressure level, plus blob-velocity wind components), so their spectral
phase genuinely carries information about what the radar will do next.
Everything is deterministic in the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import tensorfile
from .resample import bilinear_resize

VARIABLES = ("geopotential", "humidity", "temperature", "u_wind", "v_wind")
LEVELS_HPA = (500, 600, 700, 850)
N_COV_CHANNELS = len(VARIABLES) * len(LEVELS_HPA)
CADENCE_MINUTES = 10.0


class SynthError(ValueError):
    pass


def _require_finite(obj, names: tuple[str, ...]) -> None:
    """Reject NaN or infinite entries; min/max range checks let NaN through."""
    for name in names:
        if not np.all(np.isfinite(getattr(obj, name))):
            raise SynthError(f"{name} contains non-finite values")


@dataclass
class RadarSequence:
    frames: np.ndarray   # (n, 1, H, W) in [0, 1]
    minutes: np.ndarray  # (n,) relative to forecast issue at t=0

    def __post_init__(self):
        if self.frames.ndim != 4 or self.frames.shape[1] != 1:
            raise SynthError(f"frames must be (n, 1, H, W), got {self.frames.shape}")
        _require_finite(self, ("frames", "minutes"))
        if np.min(self.frames) < 0.0 or np.max(self.frames) > 1.0:
            raise SynthError("frame values must lie in [0, 1]")
        if len(self.minutes) != len(self.frames):
            raise SynthError("timestamp count must match frame count")
        steps = np.diff(self.minutes)
        if np.any(steps <= 0):
            raise SynthError("timestamps must be strictly increasing")
        if len(steps) > 1 and np.max(np.abs(steps - steps[0])) > 1e-9:
            raise SynthError("timestamps must have uniform cadence")


@dataclass
class CovariateGrid:
    fields: np.ndarray        # (N, M, H', W')
    lead_minutes: np.ndarray  # (N,)
    mean: np.ndarray | None = None  # per-channel z-score stats
    std: np.ndarray | None = None

    def __post_init__(self):
        if self.fields.ndim != 4 or self.fields.shape[1] != N_COV_CHANNELS:
            raise SynthError(
                f"covariates must be (N, {N_COV_CHANNELS}, H', W'), got {self.fields.shape}"
            )
        _require_finite(self, ("fields", "lead_minutes"))


@dataclass
class SyntheticEventConfig:
    seed: int = 0
    hw: int = 128
    t_in: int = 5
    k_out: int = 20
    n_blobs: int = 3
    advect_range: tuple[float, float] = (0.5, 3.0)     # blob speed, px/frame
    growth_range: tuple[float, float] = (-0.05, 0.05)  # log-amplitude per frame
    anisotropy_range: tuple[float, float] = (1.0, 2.5)
    noise_amp: float = 0.02
    cov_hw: int = 16
    turn_range: tuple[float, float] = (-0.1, 0.1)      # heading change, rad/frame
    direction_modes: int = 0  # > 0 snaps initial headings to a compass of this size
    size_range: tuple[float, float] = (0.045, 0.08)    # blob minor axis, fraction of hw

    def validate(self) -> None:
        for name in ("advect_range", "growth_range", "anisotropy_range", "turn_range",
                     "size_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise SynthError(f"{name} is not well-ordered: ({lo}, {hi})")
        if self.advect_range[0] < 0:
            raise SynthError("advect_range must be nonnegative")
        if self.anisotropy_range[0] < 1.0:
            raise SynthError("anisotropy_range must start at >= 1")
        if self.size_range[0] <= 0:
            raise SynthError("size_range must be positive")
        if self.noise_amp < 0:
            raise SynthError("noise_amp must be nonnegative")
        if self.n_blobs < 0:
            raise SynthError("n_blobs must be nonnegative")
        if min(self.hw, self.cov_hw) < 8:
            raise SynthError("grids smaller than 8 px are not supported")
        if self.t_in < 1 or self.k_out < 1:
            raise SynthError("need at least one input and one output frame")


def generate_event(cfg: SyntheticEventConfig) -> tuple[RadarSequence, CovariateGrid]:
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n = cfg.t_in + cfg.k_out
    hw = cfg.hw

    centers0 = rng.uniform(0.25 * hw, 0.75 * hw, (cfg.n_blobs, 2))
    speed = rng.uniform(*cfg.advect_range, cfg.n_blobs)
    heading0 = rng.uniform(-np.pi, np.pi, cfg.n_blobs)
    if cfg.direction_modes > 0:
        step = 2.0 * np.pi / cfg.direction_modes
        heading0 = np.round(heading0 / step) * step
    turn = rng.uniform(*cfg.turn_range, cfg.n_blobs)
    growth = rng.uniform(*cfg.growth_range, cfg.n_blobs)
    amp0 = rng.uniform(0.45, 0.9, cfg.n_blobs)
    sig_minor = rng.uniform(*cfg.size_range, cfg.n_blobs) * hw
    ratio = rng.uniform(*cfg.anisotropy_range, cfg.n_blobs)
    orient = rng.uniform(-np.pi, np.pi, cfg.n_blobs)
    noise = cfg.noise_amp * rng.standard_normal((n, hw, hw))

    # per-frame headings, velocities (vx east / vy south in array coords)
    t_axis = np.arange(n)
    headings = heading0[:, None] + turn[:, None] * t_axis[None, :]
    vx = speed[:, None] * np.cos(headings)
    vy = speed[:, None] * np.sin(headings)
    cx = centers0[:, 1, None] + np.concatenate(
        [np.zeros((cfg.n_blobs, 1)), np.cumsum(vx, axis=1)[:, :-1]], axis=1
    )
    cy = centers0[:, 0, None] + np.concatenate(
        [np.zeros((cfg.n_blobs, 1)), np.cumsum(vy, axis=1)[:, :-1]], axis=1
    )
    amps = np.minimum(amp0[:, None] * np.exp(growth[:, None] * t_axis[None, :]), 1.2)

    inv_cov = np.zeros((cfg.n_blobs, 2, 2))
    for b in range(cfg.n_blobs):
        c, s = np.cos(orient[b]), np.sin(orient[b])
        rot = np.array([[c, -s], [s, c]])
        cov = rot @ np.diag([(ratio[b] * sig_minor[b]) ** 2, sig_minor[b] ** 2]) @ rot.T
        inv_cov[b] = np.linalg.inv(cov)

    ys, xs = np.mgrid[0:hw, 0:hw].astype(np.float64)
    frames = np.zeros((n, hw, hw))
    for t in range(n):
        acc = np.zeros((hw, hw))
        for b in range(cfg.n_blobs):
            dx = xs - cx[b, t]
            dy = ys - cy[b, t]
            m = inv_cov[b]
            q = m[0, 0] * dy * dy + 2.0 * m[0, 1] * dy * dx + m[1, 1] * dx * dx
            acc += amps[b, t] * np.exp(-0.5 * q)
        frames[t] = acc
    frames = np.clip(frames + noise, 0.0, 1.0)

    minutes = (np.arange(n) - (cfg.t_in - 1)) * CADENCE_MINUTES
    seq = RadarSequence(frames=frames[:, None], minutes=minutes)
    cov = _make_covariates(cfg, rng, frames, minutes, cx, cy, vx, vy, amps)
    return seq, cov


def _make_covariates(cfg, rng, frames, minutes, cx, cy, vx, vy, amps) -> CovariateGrid:
    """Forecast-like fields at every other future frame, on the coarse grid."""
    lead_idx = np.arange(cfg.t_in, cfg.t_in + cfg.k_out, 2)
    scale = cfg.cov_hw / cfg.hw
    ys, xs = np.mgrid[0 : cfg.cov_hw, 0 : cfg.cov_hw].astype(np.float64)
    sigma_bump = 0.12 * cfg.cov_hw

    fields = np.zeros((len(lead_idx), N_COV_CHANNELS, cfg.cov_hw, cfg.cov_hw))
    for i, j in enumerate(lead_idx):
        coarse = bilinear_resize(frames[j], (cfg.cov_hw, cfg.cov_hw))
        u_field = np.zeros((cfg.cov_hw, cfg.cov_hw))
        v_field = np.zeros((cfg.cov_hw, cfg.cov_hw))
        for b in range(cx.shape[0]):
            bump = np.exp(
                -0.5
                * ((xs - cx[b, j] * scale) ** 2 + (ys - cy[b, j] * scale) ** 2)
                / sigma_bump**2
            ) * amps[b, j]
            u_field += bump * vx[b, j]
            v_field += bump * vy[b, j]
        ch = 0
        for lvl in range(len(LEVELS_HPA)):
            blur = 0.6 + 0.5 * lvl
            fields[i, ch + 0] = ndimage.gaussian_filter(coarse, 1.0 + 0.6 * lvl)
            fields[i, ch + len(LEVELS_HPA)] = 0.8 * ndimage.gaussian_filter(coarse, 0.8 + 0.5 * lvl)
            fields[i, ch + 2 * len(LEVELS_HPA)] = -ndimage.gaussian_filter(coarse, 1.0 + 0.5 * lvl)
            fields[i, ch + 3 * len(LEVELS_HPA)] = ndimage.gaussian_filter(u_field, blur)
            fields[i, ch + 4 * len(LEVELS_HPA)] = ndimage.gaussian_filter(v_field, blur)
            ch += 1
    fields += 0.02 * rng.standard_normal(fields.shape)
    return CovariateGrid(fields=fields, lead_minutes=minutes[lead_idx].copy())


# ---------------------------------------------------------------------------
# dataset files and manifest


@dataclass
class ManifestEntry:
    split: str
    frames_path: Path
    covs_path: Path
    leads_path: Path


@dataclass
class Manifest:
    path: Path
    meta: dict
    entries: list[ManifestEntry] = field(default_factory=list)
    cov_mean: np.ndarray | None = None
    cov_std: np.ndarray | None = None

    def split(self, tag: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == tag]


def synth_dataset(
    base: SyntheticEventConfig,
    n_events: int,
    out_dir: str | Path,
    train_frac: float = 0.8,
) -> Path:
    """Generate ``n_events`` seeded events, write FCT1 files and a manifest."""
    base.validate()
    out_dir = Path(out_dir)
    (out_dir / "events").mkdir(parents=True, exist_ok=True)
    n_train = int(round(n_events * train_frac))
    entries: list[tuple[str, str, str, str]] = []
    train_fields = []
    for i in range(n_events):
        cfg = replace(base, seed=base.seed + i)
        seq, cov = generate_event(cfg)
        split = "train" if i < n_train else "test"
        stem = f"events/event_{i:04d}"
        tensorfile.write_tensor(out_dir / f"{stem}_frames.fct", seq.frames.astype(np.float32))
        tensorfile.write_tensor(out_dir / f"{stem}_covs.fct", cov.fields.astype(np.float32))
        tensorfile.write_tensor(out_dir / f"{stem}_leads.fct", cov.lead_minutes)
        entries.append((split, f"{stem}_frames.fct", f"{stem}_covs.fct", f"{stem}_leads.fct"))
        if split == "train":
            train_fields.append(cov.fields.astype(np.float32).astype(np.float64))

    if train_fields:
        stacked = np.concatenate([f.transpose(1, 0, 2, 3).reshape(N_COV_CHANNELS, -1)
                                  for f in train_fields], axis=1)
        cov_mean = stacked.mean(axis=1)
        cov_std = np.maximum(stacked.std(axis=1), 1e-6)
    else:
        cov_mean = np.zeros(N_COV_CHANNELS)
        cov_std = np.ones(N_COV_CHANNELS)

    manifest_path = out_dir / "manifest.txt"
    with open(manifest_path, "w") as fh:
        fh.write("# foucast dataset manifest\n")
        fh.write("version = 1\n")
        fh.write(f"cadence_minutes = {CADENCE_MINUTES}\n")
        fh.write(f"t_in = {base.t_in}\n")
        fh.write(f"k_out = {base.k_out}\n")
        fh.write(f"hw = {base.hw}\n")
        fh.write(f"cov_hw = {base.cov_hw}\n")
        for ch in range(N_COV_CHANNELS):
            fh.write(f"covstat {ch} {float(cov_mean[ch])!r} {float(cov_std[ch])!r}\n")
        for split, fp, cp, lp in entries:
            fh.write(f"event {split} {fp} {cp} {lp}\n")
    return manifest_path


def read_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    meta: dict = {}
    entries: list[ManifestEntry] = []
    cov_mean = np.zeros(N_COV_CHANNELS)
    cov_std = np.ones(N_COV_CHANNELS)
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("covstat "):
                _, ch, m, s = line.split()
                cov_mean[int(ch)] = float(m)
                cov_std[int(ch)] = float(s)
            elif line.startswith("event "):
                _, split, fp, cp, lp = line.split()
                entry = ManifestEntry(
                    split=split,
                    frames_path=path.parent / fp,
                    covs_path=path.parent / cp,
                    leads_path=path.parent / lp,
                )
                for p in (entry.frames_path, entry.covs_path, entry.leads_path):
                    if not p.exists():
                        raise SynthError(f"manifest references missing file {p}")
                    tensorfile.validate_header(p)
                entries.append(entry)
            elif "=" in line:
                key, _, value = line.partition("=")
                meta[key.strip()] = value.strip()
    return Manifest(path=path, meta=meta, entries=entries, cov_mean=cov_mean, cov_std=cov_std)


def load_event(entry: ManifestEntry, manifest: Manifest) -> tuple[RadarSequence, CovariateGrid]:
    frames = tensorfile.read_tensor(entry.frames_path).astype(np.float64)
    covs = tensorfile.read_tensor(entry.covs_path).astype(np.float64)
    leads = tensorfile.read_tensor(entry.leads_path).astype(np.float64)
    t_in = int(manifest.meta.get("t_in", 5))
    cadence = float(manifest.meta.get("cadence_minutes", CADENCE_MINUTES))
    minutes = (np.arange(frames.shape[0]) - (t_in - 1)) * cadence
    seq = RadarSequence(frames=frames, minutes=minutes)
    cov = CovariateGrid(
        fields=covs, lead_minutes=leads, mean=manifest.cov_mean, std=manifest.cov_std
    )
    return seq, cov
