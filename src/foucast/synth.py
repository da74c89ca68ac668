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

from . import tensorfile
from .pool import default_workers, fan_out
from .resample import bilinear_resize, gaussian_blur

VARIABLES = ("geopotential", "humidity", "temperature", "u_wind", "v_wind")
LEVELS_HPA = (500, 600, 700, 850)
N_COV_CHANNELS = len(VARIABLES) * len(LEVELS_HPA)
CADENCE_MINUTES = 10.0
MANIFEST_VERSION = "1"
MIN_GRID_PX = 8  # smallest radar or covariate grid side
# Per variable: gain, blur sigma at level 0 and its step per level; the last two blur the winds.
_LEVEL_BLURS = ((1.0, 1.0, 0.6), (0.8, 0.8, 0.5), (-1.0, 1.0, 0.5), (1.0, 0.6, 0.5), (1.0, 0.6, 0.5))


class SynthError(ValueError):
    pass


def _require_finite(obj, names: tuple[str, ...]) -> None:
    """Reject NaN or infinite entries; min/max range checks let NaN through."""
    for name in names:
        if not np.all(np.isfinite(getattr(obj, name))):
            raise SynthError(f"{name} contains non-finite values")


@dataclass
class RadarSequence:
    frames: np.ndarray  # (n, 1, H, W) in [0, 1], every CADENCE_MINUTES

    def __post_init__(self):
        if self.frames.ndim != 4 or self.frames.shape[1] != 1:
            raise SynthError(f"frames must be (n, 1, H, W), got {self.frames.shape}")
        _require_finite(self, ("frames",))
        if np.min(self.frames) < 0.0 or np.max(self.frames) > 1.0:
            raise SynthError("frame values must lie in [0, 1]")


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
        n, shape = self.fields.shape[0], np.shape(self.lead_minutes)
        if shape != (n,):
            raise SynthError(f"lead_minutes must have shape ({n},), got {shape}")
        _require_finite(self, ("fields", "lead_minutes"))
        if np.any(np.diff(self.lead_minutes) <= 0):
            raise SynthError("lead_minutes must be strictly increasing")


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
        if self.seed < 0:
            raise SynthError(f"seed = {self.seed} must be nonnegative")
        ranges = ("advect_range", "growth_range", "anisotropy_range", "turn_range", "size_range")
        _require_finite(self, (*ranges, "noise_amp"))
        for name in ranges:
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
        if min(self.hw, self.cov_hw) < MIN_GRID_PX:
            raise SynthError(f"grids smaller than {MIN_GRID_PX} px are not supported")
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

    cov = _make_covariates(cfg, rng, frames, cx, cy, vx, vy, amps)
    return RadarSequence(frames=frames[:, None]), cov


def _make_covariates(cfg, rng, frames, cx, cy, vx, vy, amps) -> CovariateGrid:
    """Forecast-like fields at every other future frame, on the coarse grid.

    Lead minutes count from the forecast issue time, the last input frame.
    """
    lead_idx = np.arange(cfg.t_in, cfg.t_in + cfg.k_out, 2)
    scale = cfg.cov_hw / cfg.hw
    ys, xs = np.mgrid[0 : cfg.cov_hw, 0 : cfg.cov_hw].astype(np.float64)
    sigma_bump = 0.12 * cfg.cov_hw

    coarse = np.stack([bilinear_resize(frames[j], (cfg.cov_hw, cfg.cov_hw)) for j in lead_idx])
    u_field = np.zeros_like(coarse)
    v_field = np.zeros_like(coarse)
    for i, j in enumerate(lead_idx):
        for b in range(cx.shape[0]):
            bump = np.exp(
                -0.5
                * ((xs - cx[b, j] * scale) ** 2 + (ys - cy[b, j] * scale) ** 2)
                / sigma_bump**2
            ) * amps[b, j]
            u_field[i] += bump * vx[b, j]
            v_field[i] += bump * vy[b, j]
    fields = _level_fields(coarse, u_field, v_field)
    fields += 0.02 * rng.standard_normal(fields.shape)
    return CovariateGrid(fields=fields, lead_minutes=(lead_idx - (cfg.t_in - 1)) * CADENCE_MINUTES)


def _level_fields(coarse, u_field, v_field) -> np.ndarray:
    """(N, M, H', W') channels from (N, H', W') lead stacks, variable-major then level;
    one blur filters every lead of every channel as a 2-D field on its own."""
    n = len(LEVELS_HPA)
    gains, sigmas = zip(*((g, s0 + step * lvl) for g, s0, step in _LEVEL_BLURS for lvl in range(n)))
    stack = np.stack((coarse, u_field, v_field), axis=1)[:, [0] * 3 * n + [1] * n + [2] * n]
    return np.array(gains)[:, None, None] * gaussian_blur(stack, sigmas)


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


def split_problem(n_events: int, train_frac: float) -> str | None:
    """What is wrong with a dataset of ``n_events`` split at ``train_frac``, or None."""
    if n_events < 0:
        return f"n_events must be nonnegative, got {n_events}"
    if not 0.0 <= train_frac <= 1.0:  # NaN fails as well
        return f"train_frac must lie in [0, 1], got {train_frac}"
    return None


def synth_dataset(
    base: SyntheticEventConfig,
    n_events: int,
    out_dir: str | Path,
    train_frac: float = 0.8,
) -> Path:
    """Generate ``n_events`` seeded events, write FCT1 files and a manifest.

    Each event is one ``fan_out`` task that generates it and writes its files;
    the manifest follows in event order, so no byte depends on the pool size.
    """
    base.validate()
    if problem := split_problem(n_events, train_frac):
        raise SynthError(problem)
    workers = default_workers()
    out_dir = Path(out_dir)
    (out_dir / "events").mkdir(parents=True, exist_ok=True)
    n_train = int(round(n_events * train_frac))

    def write_event(i: int) -> tuple[str, np.ndarray | None]:
        """The event's manifest line, and its float32 covariates if it is a train event."""
        seq, cov = generate_event(replace(base, seed=base.seed + i))
        split = "train" if i < n_train else "test"
        stem = f"events/event_{i:04d}"
        covs = cov.fields.astype(np.float32)
        tensorfile.write_tensor(out_dir / f"{stem}_frames.fct", seq.frames.astype(np.float32))
        tensorfile.write_tensor(out_dir / f"{stem}_covs.fct", covs)
        tensorfile.write_tensor(out_dir / f"{stem}_leads.fct", cov.lead_minutes)
        line = f"event {split} {stem}_frames.fct {stem}_covs.fct {stem}_leads.fct\n"
        return line, covs if split == "train" else None

    written = fan_out(write_event, list(range(n_events)), workers)
    train_fields = [covs.astype(np.float64) for _, covs in written if covs is not None]
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
        fh.write(f"version = {MANIFEST_VERSION}\n")
        fh.write(f"cadence_minutes = {CADENCE_MINUTES}\n")
        fh.write(f"t_in = {base.t_in}\n")
        fh.write(f"k_out = {base.k_out}\n")
        fh.write(f"hw = {base.hw}\n")
        fh.write(f"cov_hw = {base.cov_hw}\n")
        for ch in range(N_COV_CHANNELS):
            fh.write(f"covstat {ch} {float(cov_mean[ch])!r} {float(cov_std[ch])!r}\n")
        fh.writelines(line for line, _ in written)
    return manifest_path


def read_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    meta: dict = {}
    entries: list[ManifestEntry] = []
    cov_mean = np.full(N_COV_CHANNELS, np.nan)  # NaN: no covstat line yet
    cov_std = np.full(N_COV_CHANNELS, np.nan)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:  # every ValueError below is a line that does not parse; name it
                if line.startswith("covstat "):
                    _, ch, m, s = line.split()
                    ch, m, s = int(ch), float(m), float(s)
                    if not 0 <= ch < N_COV_CHANNELS:
                        raise ValueError(f"covariate channel {ch} outside 0..{N_COV_CHANNELS - 1}")
                    if not (np.isfinite(m) and np.isfinite(s) and s > 0):
                        raise ValueError(f"covariate channel {ch} needs a finite mean and a "
                                         f"finite std > 0, got {m} {s}")
                    if not np.isnan(cov_mean[ch]):
                        raise ValueError(f"covariate channel {ch} has a second covstat line")
                    cov_mean[ch], cov_std[ch] = m, s
                elif line.startswith("event "):
                    _, split, fp, cp, lp = line.split()
                    if split not in ("train", "test"):
                        raise ValueError(f"event split {split!r} is neither train nor test")
                    entry = ManifestEntry(
                        split=split,
                        frames_path=path.parent / fp,
                        covs_path=path.parent / cp,
                        leads_path=path.parent / lp,
                    )
                    for p in (entry.frames_path, entry.covs_path, entry.leads_path):
                        if not p.exists():
                            raise SynthError(f"manifest references missing file {p}")
                        try:
                            tensorfile.validate_header(p)
                        except tensorfile.TensorFileError as exc:
                            raise type(exc)(f"{path} line {lineno}: {p}: {exc.message}",
                                            exc.byte_offset) from None
                    entries.append(entry)
                elif "=" in line:
                    key, _, value = line.partition("=")
                    meta[key.strip()] = value.strip()
            except ValueError as exc:
                raise SynthError(f"{path} line {lineno}: {exc}") from None
    if (version := meta.get("version")) != MANIFEST_VERSION:
        raise SynthError(f"{path}: manifest version {version} is not {MANIFEST_VERSION}")
    for key in ("t_in", "k_out", "hw", "cadence_minutes"):  # the event grid, read as numbers
        try:
            float(meta.get(key))
        except (TypeError, ValueError):
            raise SynthError(f"{path}: manifest {key} = {meta.get(key)} is not a number") from None
    if (missing := np.flatnonzero(np.isnan(cov_mean))).size:
        raise SynthError(f"{path}: no covstat line for covariate channel(s) "
                         f"{', '.join(map(str, missing))}")
    return Manifest(path=path, meta=meta, entries=entries, cov_mean=cov_mean, cov_std=cov_std)


def load_event(entry: ManifestEntry, manifest: Manifest) -> tuple[RadarSequence, CovariateGrid]:
    frames = tensorfile.read_tensor(entry.frames_path).astype(np.float64)
    covs = tensorfile.read_tensor(entry.covs_path).astype(np.float64)
    leads = tensorfile.read_tensor(entry.leads_path).astype(np.float64)
    t_in, k_out, hw = (int(float(manifest.meta[k])) for k in ("t_in", "k_out", "hw"))
    want = (t_in + k_out, 1, hw, hw)
    if frames.shape != want:
        raise SynthError(f"{entry.frames_path}: frames {frames.shape} do not match the "
                         f"manifest's (t_in + k_out, 1, hw, hw) = {want}")
    cov = CovariateGrid(
        fields=covs, lead_minutes=leads, mean=manifest.cov_mean, std=manifest.cov_std
    )
    return RadarSequence(frames=frames), cov
