"""Checkpoint serialization: a JSON header line followed by FCT1 tensor blobs.

Every checkpoint holds the model and its AdamW state.  The header carries the
architecture config, the optimizer's step count, the parameter names and the
optimizer scalars; the blobs carry every parameter, then the moments m and v.
The training phase and the memory freeze follow from the step, so they are
not stored; older headers that also carry the phase, the freeze flag and a
second copy of the step load with those keys ignored.  Round trips are
bit-exact.  A write goes to ``<path>.tmp``, is fsynced, replaces the file and
then fsyncs the directory; a write that fails part-way removes the temp file
and leaves any earlier checkpoint at ``path`` untouched.
Loading against a mismatched config, or a file whose header or parameters do
not fit its own config, is an error naming the offending key or parameter.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from pathlib import Path

import numpy as np

from . import tensorfile
from .model import ModelConfig, NowcastModel, init_params
from .optim import OPTIMIZER_SCALARS, OptimizerState

FORMAT_VERSION = 1


class CheckpointError(IOError):
    pass


def save_checkpoint(path: str | Path, model: NowcastModel, opt: OptimizerState) -> None:
    header = {
        "version": FORMAT_VERSION,
        "config": dataclasses.asdict(model.cfg),
        "step": opt.step,
        "param_names": model.params.names(),
        "optimizer": {key: getattr(opt, key) for key in OPTIMIZER_SCALARS},
    }
    tmp = Path(str(path) + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8") + b"\n")
            for name in model.params.names():
                tensorfile.write_stream(fh, model.params[name])
            tensorfile.write_stream(fh, opt.m)
            tensorfile.write_stream(fh, opt.v)
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    dir_fd = os.open(tmp.parent, os.O_RDONLY)  # make the rename itself durable
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _header_value(header: dict, key: str, where: str = "header"):
    if key not in header:
        raise CheckpointError(f"checkpoint {where} has no {key!r}")
    return header[key]


def _model_config(cfg_dict: dict) -> ModelConfig:
    """The header's architecture config; every ModelConfig field, nothing else."""
    known = [f.name for f in dataclasses.fields(ModelConfig)]
    unknown = sorted(set(cfg_dict) - set(known))
    if unknown:
        raise CheckpointError(f"checkpoint config has unknown key(s) {', '.join(unknown)}")
    missing = [name for name in known if name not in cfg_dict]
    if missing:
        raise CheckpointError(f"checkpoint config lacks key(s) {', '.join(missing)}")
    return ModelConfig(**{**cfg_dict, "enc_channels": tuple(cfg_dict["enc_channels"])})


def load_checkpoint(
    path: str | Path, expect_cfg: ModelConfig | None = None
) -> tuple[NowcastModel, OptimizerState, dict]:
    """Read a checkpoint, checking it against its own config before returning.

    The step must be an integer >= 0, and the optimizer must hold every
    ``OPTIMIZER_SCALARS`` key.  Parameter names, shapes and dtypes must be those
    ``init_params`` gives the header's config, and every value must be finite.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not a JSON object")
        if header.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint version {header.get('version')} != {FORMAT_VERSION}"
            )
        cfg = _model_config(_header_value(header, "config"))
        if expect_cfg is not None:
            mismatches = [
                f"{f.name}: checkpoint={getattr(cfg, f.name)!r} vs config={getattr(expect_cfg, f.name)!r}"
                for f in dataclasses.fields(ModelConfig)
                if getattr(cfg, f.name) != getattr(expect_cfg, f.name)
            ]
            if mismatches:
                raise CheckpointError("config mismatch: " + "; ".join(mismatches))
        step = _header_value(header, "step")
        if type(step) is not int or step < 0:  # bool is an int subclass; JSON true is not a step
            raise CheckpointError(f"checkpoint step = {json.dumps(step)} is not an integer >= 0")
        scalars = _header_value(header, "optimizer")
        if not isinstance(scalars, dict):
            raise CheckpointError(f"checkpoint optimizer = {json.dumps(scalars)} is not an "
                                  f"object of {', '.join(OPTIMIZER_SCALARS)}")
        state = {key: _header_value(scalars, key, "optimizer") for key in OPTIMIZER_SCALARS}
        params = init_params(cfg, np.random.default_rng(0))  # every value is read over below
        names = _header_value(header, "param_names")
        for got, want in itertools.zip_longest(names, params.names()):
            if got != want:
                raise CheckpointError(
                    f"checkpoint parameter {got!r} where the config expects {want!r}"
                )
        for name in names:
            value, want = tensorfile.read_stream(fh), params[name]
            if value.shape != want.shape or value.dtype != want.dtype:
                raise CheckpointError(
                    f"checkpoint parameter {name!r} is {value.shape} {value.dtype}, "
                    f"the config expects {want.shape} {want.dtype}"
                )
            if not np.all(np.isfinite(value)):
                raise CheckpointError(f"checkpoint parameter {name!r} has non-finite values")
            params[name] = value
        for key in ("m", "v"):
            value = state[key] = tensorfile.read_stream(fh)
            if value.shape != (params.size,) or not np.all(np.isfinite(value)):
                raise CheckpointError(
                    f"checkpoint optimizer.{key} is not {params.size} finite values")
    return NowcastModel(cfg=cfg, params=params), OptimizerState(**state, step=step), {"step": step}
