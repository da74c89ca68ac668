"""Command-line entry point: synth, train, eval, report."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .autodiff import AutodiffError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, load_config
from .evaluate import evaluate_model, write_reports
from .metrics import SSIM_WINDOW
from .model import ModelConfig, ModelError, NowcastModel
from .optim import OPTIMIZER_SCALARS
from .pool import default_workers, pool_threads
from .synth import CADENCE_MINUTES, Manifest, SynthError, load_event, read_manifest, synth_dataset
from .tensorfile import TensorFileError
from .train import TrainError, TrainState, samples_on_processes, train_model


def _load_split(manifest: Manifest, split: str, cfg: ModelConfig):
    """The split's events, once the manifest's data is known to fit the model config."""
    expect = dict(t_in=cfg.t_in, k_out=cfg.k_out, hw=cfg.hw, cadence_minutes=CADENCE_MINUTES)
    for key, want in expect.items():
        if float(got := manifest.meta[key]) != want:
            raise ConfigError(f"manifest {key} = {got} does not match the model's {key} = {want}")
    return [load_event(entry, manifest) for entry in manifest.split(split)]


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    scfg = cfg.synth_config(seed=args.seed)
    manifest_path = synth_dataset(scfg, cfg.data.n_events, out, cfg.data.train_frac)
    print(f"wrote {cfg.data.n_events} events, manifest {manifest_path}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    workers = default_workers()
    manifest_path = args.manifest or cfg.data.manifest
    if manifest_path is None:
        raise ConfigError("no manifest: pass --manifest or set [data] manifest")
    tcfg = cfg.train
    if args.seed is not None:
        tcfg = dataclasses.replace(tcfg, seed=args.seed)
        tcfg.validate()
    if args.checkpoint:
        model, opt, meta = load_checkpoint(args.checkpoint, expect_cfg=cfg.model)
        for key in OPTIMIZER_SCALARS:  # a resumed run continues the one that was saved
            if (saved := getattr(opt, key)) != (want := getattr(tcfg, key)):
                raise CheckpointError(
                    f"checkpoint optimizer {key} = {saved!r} does not match the run's {want!r}")
        state = TrainState(model=model, opt=opt)
        print(f"resuming from step {meta['step']}")
    else:
        model = NowcastModel.initialize(cfg.model, seed=tcfg.seed)
        state = None

    manifest = read_manifest(manifest_path)
    events = _load_split(manifest, "train", cfg.model)
    if not events:
        raise TrainError("manifest has no train events")
    pool, blas = pool_threads(workers, min(tcfg.batch, len(events)))
    kind = "processes" if samples_on_processes(cfg.model) else "threads"
    print(f"train pool {pool} worker(s) ({kind}), "
          f"BLAS threads per worker: {blas or 'not settable'}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    state = train_model(model, events, tcfg, log_path=out / "train_log.csv", state=state)
    ckpt = out / "model.ckpt"
    save_checkpoint(ckpt, state.model, state.opt)
    final = state.history[-1][2] if state.history else float("nan")
    print(f"trained {state.step} steps, final loss {final:.6f}, checkpoint {ckpt}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    if cfg.model.hw < SSIM_WINDOW:
        raise ConfigError(f"[model] hw = {cfg.model.hw} is below the {SSIM_WINDOW} px SSIM "
                          f"window eval scores with")
    workers = default_workers()
    manifest_path = args.manifest or cfg.data.manifest
    if manifest_path is None:
        raise ConfigError("no manifest: pass --manifest or set [data] manifest")
    model, _, _ = load_checkpoint(args.checkpoint, expect_cfg=cfg.model)
    manifest = read_manifest(manifest_path)
    events = _load_split(manifest, "test", cfg.model)
    if not events:
        raise ConfigError("manifest has no test events")
    pool, blas = pool_threads(workers, len(events))
    print(f"eval pool {pool} worker(s), BLAS threads per worker: {blas or 'not settable'}")
    report = evaluate_model(
        model, events, list(cfg.eval.thresholds), tag=cfg.tag(),
        max_workers=workers,
    )
    paths = write_reports(args.out, report)
    print(f"csi_avg {report.csi_avg:.4f} hss_avg {report.hss_avg:.4f} "
          f"mse {report.mse:.4f} mae {report.mae:.4f} "
          f"psnr {report.psnr:.4f} ssim {report.ssim:.4f}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def cmd_report(args) -> int:
    out = Path(args.out)
    any_found = False
    for name in ("metrics_csi.csv", "metrics_pixel.csv", "metrics_leadtime.csv"):
        path = out / name
        if not path.exists():
            continue
        any_found = True
        print(f"== {name}")
        cols = [line.split(",") for line in path.read_text().strip().splitlines()]
        if not cols or any(len(row) != len(cols[0]) for row in cols):
            print(f"error: {path} is empty or its rows differ in length", file=sys.stderr)
            return 2
        widths = [max(len(row[i]) for row in cols) for i in range(len(cols[0]))]
        for row in cols:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        print()
    if not any_found:
        print(f"error: no metric CSVs under {out}", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foucast",
        description="Frequency-domain multimodal nowcasting: synthesize data, "
                    "train the two-phase model, evaluate, and report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset + manifest")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="run the two-phase training protocol")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--checkpoint", default=None, help="resume from this checkpoint")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on the test split")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="print the metric CSVs as tables")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SynthError, ModelError, TrainError, AutodiffError,
            CheckpointError, TensorFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
