"""One benchmark workload, run in this process: set up, measure, check, report.

``run.py`` starts this script in a fresh child process with the thread
variables removed from its environment; see README.md.  It prints one JSON
object on its last line of standard output.

    python3 perfbench/workloads.py --workload train_ablation --seed 1 \
        --seconds 30 --trace 0 [--scale tiny]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import foucast  # noqa: E402
from foucast import checkpoint, evaluate, metrics, model, optim, synth, train  # noqa: E402
from foucast.config import RunConfig  # noqa: E402
from foucast.model import ModelConfig  # noqa: E402
from foucast.synth import SyntheticEventConfig  # noqa: E402

import tracer as tracing  # noqa: E402

N_SETUPS = 11  # set-ups per run, spread over the measured time; their median is reported
CSV_HEADERS = {
    "metrics_csi.csv": "model,threshold,csi,hss",
    "metrics_pixel.csv": "model,mse,mae,psnr,ssim",
    "metrics_leadtime.csv": "model,lead_minutes,csi,hss,mse,mae,psnr,ssim",
}
MSE_RTOL = 1e-9
MiB = float(1 << 20)


@dataclass(frozen=True)
class Spec:
    model: ModelConfig
    synth: SyntheticEventConfig  # its seed is replaced by the run's seed
    n_events: int
    train_frac: float
    batch: int = 2
    lr: float = 0.001
    cycle: tuple[int, int] = (0, 0)  # phase-1 and phase-2 steps per train cycle
    # Fixed percentile for the printed step_s_tail / predict_s_tail: at --seconds
    # 30 on 2 cores it leaves about ten ops beyond it, and it stays the same when
    # a change makes ops faster.
    tail_pct: int = 90


def _specs() -> dict[str, dict[str, Spec]]:
    run_cfg = RunConfig()  # the CLI defaults: paper-default model, batch 2
    default_synth = run_cfg.synth_config(seed=0)
    ablation_model = ModelConfig(
        t_in=3, k_out=6, hw=64, hidden_hw=16, c_emb=8, depth_l=1, n_blocks=2,
        memory_slots=8, enc_channels=(8, 16, 16), mem_channels=8, lam=0.57,
    )
    ablation_synth = SyntheticEventConfig(
        hw=64, t_in=3, k_out=6, n_blobs=2, cov_hw=16, noise_amp=0.01,
        advect_range=(1.5, 1.5), turn_range=(0.0, 0.0), growth_range=(0.0, 0.0),
        direction_modes=2, anisotropy_range=(1.5, 1.5), size_range=(0.08, 0.10),
    )
    tiny_model = ModelConfig(
        t_in=2, k_out=2, hw=16, hidden_hw=4, c_emb=4, depth_l=1, n_blocks=2,
        memory_slots=3, enc_channels=(4, 4, 4), mem_channels=4,
    )
    tiny_synth = SyntheticEventConfig(hw=16, t_in=2, k_out=2, n_blobs=2, cov_hw=8)
    full = {
        # Each cycle keeps the phase ratio of the run it stands for: 1:3 for the
        # default 100 + 300 step protocol, 1:1 for the acceptance ablation's
        # 200 + 200 steps.
        "train_default": Spec(run_cfg.model, default_synth, n_events=10, train_frac=0.8,
                              batch=run_cfg.train.batch, lr=run_cfg.train.lr, cycle=(1, 3),
                              tail_pct=85),
        "train_ablation": Spec(ablation_model, ablation_synth, n_events=10, train_frac=0.8,
                               batch=4, lr=0.003, cycle=(8, 8), tail_pct=95),
        "eval_default": Spec(run_cfg.model, default_synth, n_events=10, train_frac=0.2,
                             tail_pct=90),
    }
    tiny = {
        "train_default": Spec(tiny_model, tiny_synth, n_events=4, train_frac=0.5, cycle=(1, 3)),
        "train_ablation": Spec(tiny_model, tiny_synth, n_events=4, train_frac=0.5,
                               batch=4, lr=0.003, cycle=(1, 3)),
        "eval_default": Spec(tiny_model, tiny_synth, n_events=4, train_frac=0.5),
    }
    return {"full": full, "tiny": tiny}


SPECS = _specs()
WORKLOADS = tuple(SPECS["full"])


# ---------------------------------------------------------------------------
# measurement records


@dataclass
class Stats:
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    wall: float = 0.0
    samples: int = 0                       # train samples or evaluated events
    busy: float = 0.0                      # time in train steps or evaluate_model
    rates: list = field(default_factory=list)    # samples / busy time of each cycle
    step_times: dict = field(default_factory=lambda: {1: [], 2: []})
    predict_times: list = field(default_factory=list)
    losses: list = field(default_factory=list)   # first complete cycle
    report: object = None

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        print(f"check failed: {why}", file=sys.stderr)


def _data(spec: Spec, seed: int, work: Path) -> synth.Manifest:
    out = Path(tempfile.mkdtemp(prefix="data-", dir=work))
    scfg = replace(spec.synth, seed=seed)
    return synth.read_manifest(synth.synth_dataset(scfg, spec.n_events, out, spec.train_frac))


class TrainBench:
    """Cycles of the two-phase protocol from one initial state.

    Each cycle restarts from the same parameters, so the losses of every
    cycle retrace the first and the final loss repeats for a fixed seed.
    """

    workers = 0           # no eval pool
    checkpoint_bytes = 0  # no checkpoint

    def __init__(self, spec: Spec, seed: int, work: Path):
        manifest = _data(spec, seed, work)
        events = [synth.load_event(e, manifest) for e in manifest.split("train")]
        net = model.NowcastModel.initialize(spec.model, seed=seed)
        self.spec = spec
        self.params = net.params.copy()
        self.prepared = train.prepare_events(net, events)
        self.tcfg = train.TrainConfig(
            lr=spec.lr, batch=spec.batch, phase1_steps=spec.cycle[0],
            phase2_steps=spec.cycle[1], seed=seed,
        )
        train.train_step(self._fresh_state(), self.prepared, self.tcfg)  # warm-up step

    def _fresh_state(self) -> train.TrainState:
        net = model.NowcastModel(cfg=self.spec.model, params=self.params.copy())
        t = self.tcfg
        opt = optim.init_state(net.params, lr=t.lr, beta1=t.beta1, beta2=t.beta2,
                               eps=t.eps, weight_decay=t.weight_decay)
        return train.TrainState(model=net, opt=opt)

    def cycle(self, stats: Stats) -> None:
        state = self._fresh_state()
        slots = None
        losses = []
        for _ in range(self.tcfg.total_steps):
            step = state.step
            phase = self.tcfg.phase_of(step)
            if phase == 2 and slots is None:
                slots = state.model.params["memory.slots"].tobytes()
            stats.attempted += 1
            t0 = time.perf_counter()
            try:
                loss = train.train_step(state, self.prepared, self.tcfg)
            except Exception as exc:  # an op that raises is a failed op
                stats.fail(1, f"train step {step} raised {exc!r}")
                return
            dt = time.perf_counter() - t0
            stats.step_times[phase].append(dt)
            stats.busy += dt
            stats.samples += min(self.tcfg.batch, len(self.prepared))
            losses.append(loss)
            if not math.isfinite(loss):
                stats.fail(1, f"non-finite loss {loss} at step {step}")
            elif phase == 2 and state.model.params["memory.slots"].tobytes() != slots:
                stats.fail(1, f"memory.slots changed during phase-2 step {step}")
        if not stats.losses:
            stats.losses = losses


class EvalBench:
    """Evaluate a checkpoint over the test split, then predict each event serially."""

    def __init__(self, spec: Spec, seed: int, work: Path):
        manifest = _data(spec, seed, work)
        self.events = [synth.load_event(e, manifest) for e in manifest.split("test")]
        ckpt = manifest.path.parent / "model.ckpt"
        init = model.NowcastModel.initialize(spec.model, seed=seed)
        checkpoint.save_checkpoint(ckpt, init, optim.init_state(init.params))
        self.checkpoint_bytes = ckpt.stat().st_size
        self.net, _, _ = checkpoint.load_checkpoint(ckpt, expect_cfg=spec.model)
        run_cfg = RunConfig(model=spec.model)
        self.thresholds = list(run_cfg.eval.thresholds)
        self.tag = run_cfg.tag()
        self.workers = evaluate.default_workers()
        self.out = manifest.path.parent / "reports"
        self.targets = np.stack([seq.frames[spec.model.t_in:] for seq, _ in self.events])
        # warm-up event
        evaluate.evaluate_model(self.net, self.events[:1], self.thresholds, tag=self.tag,
                                max_workers=self.workers)

    def cycle(self, stats: Stats) -> None:
        n = len(self.events)
        stats.attempted += n
        shutil.rmtree(self.out, ignore_errors=True)  # each cycle must write its reports
        t0 = time.perf_counter()
        try:
            report = evaluate.evaluate_model(self.net, self.events, self.thresholds,
                                             tag=self.tag, max_workers=self.workers)
            evaluate.write_reports(self.out, report)
        except Exception as exc:
            stats.fail(n, f"evaluate raised {exc!r}")
            return
        dt = time.perf_counter() - t0
        stats.busy += dt
        stats.samples += n
        stats.report = report
        problems = self._csv_problems()

        preds = []
        for seq, cov in self.events:
            stats.attempted += 1
            t0 = time.perf_counter()
            try:
                pred = self.net.predict(seq, cov)
            except Exception as exc:
                stats.fail(1, f"predict raised {exc!r}")
                continue
            stats.predict_times.append(time.perf_counter() - t0)
            preds.append(pred)
            if not (np.all(np.isfinite(pred)) and pred.min() >= 0.0 and pred.max() <= 1.0):
                stats.fail(1, "prediction not finite or outside [0, 1]")
        if len(preds) == n:
            mse = metrics.mse(np.stack(preds), self.targets)
            if not abs(mse - report.mse) <= MSE_RTOL * abs(report.mse):
                problems.append(f"EvalReport.mse {report.mse!r} != recomputed {mse!r}")
        if problems:
            stats.fail(n, "; ".join(problems))

    def _csv_problems(self) -> list[str]:
        problems = []
        for name, header in CSV_HEADERS.items():
            path = self.out / name
            if not path.exists():
                problems.append(f"{name} missing")
            elif (first := path.read_text().split("\n", 1)[0]) != header:
                problems.append(f"{name} header {first!r} != {header!r}")
        return problems


# ---------------------------------------------------------------------------
# statistics and report


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(math.ceil(pct * len(xs) / 100), 1) - 1]


def _timed_cycle(bench, stats: Stats) -> None:
    busy, samples = stats.busy, stats.samples
    t0 = time.perf_counter()
    bench.cycle(stats)
    stats.wall += time.perf_counter() - t0
    stats.cycles += 1
    if stats.busy > busy:
        stats.rates.append((stats.samples - samples) / (stats.busy - busy))


def measure(make_bench, seconds: float) -> tuple[Stats, list[float]]:
    """``N_SETUPS`` set-ups, each followed by whole cycles for its share of ``seconds``.

    Spreading the set-ups over the run exposes them to the same drift in
    machine speed as the measured cycles.  Returns the stats and set-up times.
    """
    stats = Stats()
    setup_times = []
    for i in range(N_SETUPS):
        bench = None  # free the previous set-up before making the next
        t0 = time.perf_counter()
        bench = make_bench()
        setup_times.append(time.perf_counter() - t0)
        while stats.cycles <= i or stats.wall < seconds * (i + 1) / N_SETUPS:
            _timed_cycle(bench, stats)
    return stats, setup_times


def measure_traced(bench, seconds: float, tracer) -> tuple[Stats, Stats]:
    """(untraced, traced) stats from cycles that alternate tracing off and on.

    Alternating puts drift in machine speed on both sides of the overhead.
    """
    untraced, traced = Stats(), Stats()
    start = time.perf_counter()
    while traced.cycles == 0 or time.perf_counter() - start < seconds:
        _timed_cycle(bench, untraced)
        tracer.install()
        try:
            _timed_cycle(bench, traced)
        finally:
            tracer.uninstall()
    return untraced, traced


def end_to_end(kind: str, spec: Spec, stats: Stats,
               setup_times: list[float]) -> tuple[dict, list]:
    """BENCHMARK.json metrics (same names on every workload) and the named report table."""
    setup_s = statistics.median(setup_times)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MiB
    # The median over cycles: a burst of load from other tenants of the machine
    # slows a few cycles, not the typical one.
    per_s = statistics.median(stats.rates) if stats.rates else 0.0
    if kind == "train":
        ops = stats.step_times[1] + stats.step_times[2]
    else:
        ops = stats.predict_times
    pct = spec.tail_pct
    tail_s = percentile(ops, pct)
    metrics_out = {
        "setup_s": (setup_s, "s"),
        "samples_per_s": (per_s, "1/s"),
        "op_s_p50": (statistics.median(ops), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    table = [("setup_s", setup_s, "s")]
    if kind == "train":
        table += [
            ("train_samples_per_s", per_s, "1/s"),
            ("p1_step_s_p50", statistics.median(stats.step_times[1]), "s"),
            ("p2_step_s_p50", statistics.median(stats.step_times[2]), "s"),
            (f"step_s_tail (p{pct} of {len(ops)} steps)", tail_s, "s"),
            ("loss_end", stats.losses[-1] if stats.losses else float("nan"), "loss"),
        ]
    else:
        report = stats.report
        table += [
            ("eval_events_per_s", per_s, "1/s"),
            ("eval_mse", report.mse if report else float("nan"), "px^2"),
            ("eval_csi_avg", report.csi_avg if report else float("nan"), "ratio"),
            ("predict_s_p50", statistics.median(ops), "s"),
            (f"predict_s_tail (p{pct} of {len(ops)} events)", tail_s, "s"),
        ]
    table += [
        ("peak_rss_mb", rss, "MB"),
        ("ops_attempted", stats.attempted, "count"),
        ("ops_failed", stats.failed, "count"),
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics_out.items()}, table


def traced_report(bench, args, tracer) -> tuple[dict, list, Stats]:
    """Per-layer metrics: set-ups were traced; measured cycles alternate off and on."""
    setup_spans, tracer.spans = tracer.spans, []
    tracer.graphs.clear()  # the warm-up steps' graphs
    tracer.threads_peak = 0
    setup_io = (tracer.bytes_written, tracer.bytes_read, N_SETUPS * bench.checkpoint_bytes)
    untraced, traced = measure_traced(bench, args.seconds, tracer)
    base = untraced.wall / untraced.attempted
    units = tracing.per_layer_units(ROOT / "BENCHMARK.json")
    values = tracing.summarize(
        units, setup_spans, setup_io, N_SETUPS, tracer.spans, tracer.graphs, traced.samples,
        traced.attempted, bench.workers, tracer.threads_peak,
        traced.wall / traced.attempted - base, base,
    )
    spans_path = ROOT / ".perfbench" / f"spans-{args.workload}.jsonl.gz"
    tracer.spans = setup_spans + tracer.spans
    tracer.write(spans_path)
    stats = Stats(attempted=untraced.attempted + traced.attempted,
                  failed=untraced.failed + traced.failed,
                  cycles=untraced.cycles + traced.cycles)
    return (
        {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        [("spans written", str(spans_path.relative_to(ROOT)), "path")],
        stats,
    )


def _blas() -> dict:
    info: dict = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = cfg.get("name")
        info["config"] = cfg.get("openblas configuration")
    except (KeyError, TypeError, ValueError):
        pass
    info["threads"] = _openblas_threads()
    return info


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS chose, read from the library numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def run_record(args, spec: Spec) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "eval_workers": evaluate.default_workers(),
        "model": {k: getattr(spec.model, k) for k in ("hw", "hidden_hw", "c_emb", "depth_l",
                                                      "k_out", "t_in", "memory_slots")},
        "batch": spec.batch,
        "train_cycle": list(spec.cycle),
        "tail_pct": spec.tail_pct,
        "foucast": str(Path(foucast.__file__).resolve().parent),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SPECS), default="full")
    args = parser.parse_args(argv)
    if not Path(foucast.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"foucast imported from {foucast.__file__}, not from {ROOT / 'src'}")

    spec = SPECS[args.scale][args.workload]
    kind = "eval" if args.workload.startswith("eval") else "train"
    bench_cls = EvalBench if kind == "eval" else TrainBench
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench"))
    tracer = tracing.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
            setup_times = []
            for _ in range(N_SETUPS):
                t0 = time.perf_counter()
                bench = bench_cls(spec, args.seed, work)
                setup_times.append(time.perf_counter() - t0)
            tracer.uninstall()
            result_metrics, table, stats = traced_report(bench, args, tracer)
        else:
            stats, setup_times = measure(lambda: bench_cls(spec, args.seed, work), args.seconds)
            result_metrics, table = end_to_end(kind, spec, stats, setup_times)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    record = run_record(args, spec)
    record["setup_s_all"] = setup_times
    record["cycles"] = stats.cycles
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": result_metrics,
        "table": table,
        "record": record,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
