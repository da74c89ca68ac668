"""Fixtures the tests share: the micro model config, synthetic events carrying
normalisation statistics, random spectra and checkpoint header edits."""

import dataclasses
import json

import numpy as np

from foucast.model import ModelConfig, regrid
from foucast.synth import CADENCE_MINUTES, N_COV_CHANNELS, SyntheticEventConfig, generate_event


def micro_cfg(**kw):
    base = dict(
        t_in=2, k_out=2, hw=16, hidden_hw=4, c_emb=4, depth_l=1, n_blocks=2,
        memory_slots=3, enc_channels=(4, 4, 4), mem_channels=4, lam=0.5,
    )
    base.update(kw)
    return ModelConfig(**base)


def with_event_stats(cov, cfg):
    """``cov`` with the channel mean and std (at least 1e-6) of its own fields attached,
    taken after aligning them to ``cfg``'s forecast leads and hidden grid.

    ``generate_event`` output carries no statistics, and the model z-scores only with
    attached ones, as ``load_event`` attaches a manifest's.  Regridding with zero means
    and unit stds is exact, since ``(x - 0.0) / 1.0 == x``.
    """
    raw = dataclasses.replace(cov, mean=np.zeros(N_COV_CHANNELS), std=np.ones(N_COV_CHANNELS))
    leads = np.arange(1, cfg.k_out + 1) * CADENCE_MINUTES
    aligned = regrid(raw, leads, (cfg.hidden_hw, cfg.hidden_hw))
    return dataclasses.replace(cov, mean=aligned.mean(axis=(0, 2, 3)),
                               std=np.maximum(aligned.std(axis=(0, 2, 3)), 1e-6))


def make_events(cfg, n=3, seed=0):
    """``n`` small events on ``cfg``'s grid, seeds ``seed`` onwards, with their statistics."""
    events = []
    for i in range(n):
        seq, cov = generate_event(SyntheticEventConfig(
            seed=seed + i, hw=cfg.hw, t_in=cfg.t_in, k_out=cfg.k_out, n_blobs=2, cov_hw=8))
        events.append((seq, with_event_stats(cov, cfg)))
    return events


def rand_spectrum(rng, h, w, c):
    return rng.standard_normal((h, w, c)) + 1j * rng.standard_normal((h, w, c))


def rewrite_header(path, edit):
    """Apply ``edit`` to a checkpoint's JSON header, keeping its blobs."""
    header, rest = path.read_bytes().split(b"\n", 1)
    head = json.loads(header)
    edit(head)
    path.write_bytes(json.dumps(head).encode() + b"\n" + rest)
