"""Span tracing of foucast layers from outside the library.

Each traced function is replaced, at the name its caller resolves, by a
wrapper that records a span: id, parent id, name, start, end, thread.  Spans
stay in memory and are written out once, at the end of a run.  A tape op's
reverse rule is timed by wrapping the ``_vjp`` of the Var the op returns.
Graph counts are taken by walking the loss graph just before ``backward``
runs, reading it without changing it.

``install`` patches and ``uninstall`` restores the original functions, so a
run can measure with tracing off and on in one process.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

from foucast import autodiff, checkpoint, evaluate, metrics, model, synth, tensorfile, train

TAPE_OPS = (
    "conv2d", "conv2d_transpose", "matmul", "fft2", "rfft2", "ifft2",
    "hermitian_expand", "cabs", "cunit", "relu", "mul", "softmax", "sigmoid",
)
MODEL_FUNCS = (
    "embed_covariates_tape", "memory_match_tape", "hidden_forward_tape",
    "afno_tape", "decode_tape", "loss_tape", "align_covariates", "predict",
)
PHASED_FUNCS = ("encode_tape", "mem_encode_tape")
SETUP_FUNCS = (
    "synth.synth_dataset", "synth.read_manifest", "synth.load_event",
    "checkpoint.save_checkpoint", "checkpoint.load_checkpoint",
)
SETUP_LAYERS = ("synth", "checkpoint")
OP_LAYERS = ("model", "autodiff", "optim", "metrics", "evaluate")
MiB = float(1 << 20)


def per_layer_units(benchmark_json: Path) -> dict[str, str]:
    """Per-layer metric names with their units, as BENCHMARK.json declares them."""
    spec = json.loads(benchmark_json.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def os_thread_count() -> int:
    return len(os.listdir("/proc/self/task"))


def graph_stats(loss) -> tuple[int, int, int, int]:
    """(nodes, value bytes, cotangents computed, cotangents useful) of a loss graph.

    A cotangent is useful when its parent reaches a ``param:`` leaf, i.e. when
    the contribution can end up in a parameter gradient.
    """
    seen = {loss._id: loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p._id not in seen:
                seen[p._id] = p
                stack.append(p)
    order = sorted(seen.values(), key=lambda v: v._id)  # parents before children
    reaches: dict[int, bool] = {}
    nbytes = computed = useful = 0
    for v in order:
        reaches[v._id] = v.op.startswith("param:") or any(reaches[p._id] for p in v._parents)
        nbytes += v.value.nbytes
        if v._vjp is not None:
            computed += len(v._parents)
            useful += sum(reaches[p._id] for p in v._parents)
    return len(order), nbytes, computed, useful


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, start, end, thread)
        self.graphs: list[tuple[int, int, int, int]] = []
        self.bytes_written = 0
        self.bytes_read = 0
        self.threads_peak = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout_parent = None     # evaluate_model span, parent of pool-thread spans
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self._fanout_parent
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, name, start):
        end = time.perf_counter()
        self._stack().pop()
        self.spans.append((sid, parent, name, start, end, threading.get_ident()))

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, start = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, start)

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers needing more than a span -----------------------------------

    def _wrap_op(self, fn, op):
        fwd_name = f"autodiff.op.{op}.fwd"
        vjp_name = f"autodiff.op.{op}.vjp"
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, start = tracer._open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, fwd_name, start)
            rule = out._vjp
            if rule is not None:
                out._vjp = tracer._wrap(rule, vjp_name)
            return out

        return traced

    def _wrap_phased(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            phase = getattr(tracer._local, "phase", 2)
            sid, parent, start = tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, f"model.{name}.p{phase}", start)

        return traced

    def _wrap_forward(self, fn):
        tracer = self
        inner = self._wrap(fn, "model.forward_tape")

        def traced(*args, **kwargs):
            # forward_tape(leaves, cfg, input_frames, cov_aligned, phase=2, ...)
            tracer._local.phase = kwargs.get("phase", args[4] if len(args) > 4 else 2)
            return inner(*args, **kwargs)

        return traced

    def _wrap_backward(self, fn):
        tracer = self
        inner = self._wrap(fn, "autodiff.backward")

        def traced(loss):
            sid, parent, start = tracer._open()
            try:
                tracer.graphs.append(graph_stats(loss))
            finally:
                tracer._close(sid, parent, "trace.graph_walk", start)
            return inner(loss)

        return traced

    def _wrap_evaluate(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid, parent, start = tracer._open()
            tracer._fanout_parent = sid
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._fanout_parent = None
                tracer._close(sid, parent, "evaluate.evaluate_model", start)

        return traced

    def _wrap_score(self, fn):
        tracer = self
        inner = self._wrap(fn, "evaluate._score_sample")

        def traced(*args, **kwargs):
            tracer.threads_peak = max(tracer.threads_peak, os_thread_count())
            return inner(*args, **kwargs)

        return traced

    def _wrap_io(self, fn, counter):
        tracer = self

        def traced(fh, *args, **kwargs):
            before = fh.tell()
            try:
                return fn(fh, *args, **kwargs)
            finally:
                setattr(tracer, counter, getattr(tracer, counter) + fh.tell() - before)

        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for op in TAPE_OPS:
            self._patch(autodiff, op, self._wrap_op(getattr(autodiff, op), op))
        self._patch(autodiff, "backward", self._wrap_backward(autodiff.backward))
        # train.py imports forward_tape, loss_tape, collect_grads and adamw_step by
        # name, so they are patched where train resolves them.
        forward = self._wrap_forward(model.forward_tape)
        self._patch(train, "forward_tape", forward)
        self._patch(model, "forward_tape", forward)
        self._patch(train, "collect_grads", self._wrap(train.collect_grads, "train.collect_grads"))
        self._patch(train, "adamw_step", self._wrap(train.adamw_step, "optim.adamw_step"))
        self._patch(train, "train_step", self._wrap(train.train_step, "train.train_step"))
        for fn in PHASED_FUNCS:
            self._patch(model, fn, self._wrap_phased(getattr(model, fn), fn))
        owners = {"loss_tape": train, "align_covariates": model.NowcastModel,
                  "predict": model.NowcastModel}
        for fn in MODEL_FUNCS:
            owner = owners.get(fn, model)
            self._patch(owner, fn, self._wrap(getattr(owner, fn), f"model.{fn}"))
        self._patch(metrics, "ssim", self._wrap(metrics.ssim, "metrics.ssim"))
        self._patch(metrics, "contingency", self._wrap(metrics.contingency, "metrics.contingency"))
        self._patch(evaluate, "evaluate_model", self._wrap_evaluate(evaluate.evaluate_model))
        self._patch(evaluate, "_score_sample", self._wrap_score(evaluate._score_sample))
        for name in SETUP_FUNCS:
            mod_name, fn = name.split(".")
            owner = {"synth": synth, "checkpoint": checkpoint}[mod_name]
            self._patch(owner, fn, self._wrap(getattr(owner, fn), name))
        self._patch(tensorfile, "write_stream", self._wrap_io(tensorfile.write_stream, "bytes_written"))
        self._patch(tensorfile, "read_stream", self._wrap_io(tensorfile.read_stream, "bytes_read"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON list per line, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that its children cover."""
    index = {s[0]: i for i, s in enumerate(spans)}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[1] in index:
            children[s[1]].append((s[3], s[4]))
    out = []
    for sid, _, _, start, end, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def _accumulate(values, spans, per, layers) -> None:
    """Add self time and call counts of spans whose module is in ``layers``."""
    for span, self_s in zip(spans, self_times(spans)):
        name = span[2]
        if name.split(".")[0] not in layers:
            continue
        if name.startswith("autodiff.op."):
            base, kind = name.rsplit(".", 1)
            key_s = f"{base}.{kind}_s"
            key_calls = f"{base}.calls" if kind == "fwd" else None
        else:
            key_s, key_calls = f"{name}.s", f"{name}.calls"
        if key_s in values:
            values[key_s] += self_s / per
        if key_calls in values:
            values[key_calls] += 1.0 / per


def summarize(names, setup_spans, setup_io, n_setups, run_spans, graphs, samples, n_ops,
              workers, threads_peak, overhead_s_per_op, untraced_s_per_op) -> dict[str, float]:
    """Per-layer metrics: set-up layers per set-up, all other layers per measured op.

    ``names`` are the metrics to report; span totals under other names are
    dropped, and a derived metric missing from ``names`` raises KeyError.
    ``setup_io`` is (bytes written, bytes read, checkpoint bytes) over all set-ups.
    """
    values = dict.fromkeys(names, 0.0)
    setups = max(n_setups, 1)
    _accumulate(values, setup_spans, setups, SETUP_LAYERS)
    values["tensorfile.bytes_written"] = setup_io[0] / setups
    values["tensorfile.bytes_read"] = setup_io[1] / setups
    values["checkpoint.bytes"] = setup_io[2] / setups

    ops = max(n_ops, 1)
    _accumulate(values, run_spans, ops, OP_LAYERS)
    steps = {s[0] for s in run_spans if s[2] == "train.train_step"}
    for span in run_spans:
        name, dur = span[2], span[4] - span[3]
        if name in ("model.forward_tape", "model.loss_tape") and span[1] in steps:
            values["train.forward_s"] += dur / ops
        elif name == "autodiff.backward":
            values["train.backward_s"] += dur / ops
        elif name in ("train.collect_grads", "optim.adamw_step"):
            values["train.optim_s"] += dur / ops

    if graphs and samples:
        nodes, nbytes, computed, useful = (sum(g[i] for g in graphs) for i in range(4))
        values["autodiff.nodes_per_sample"] = nodes / samples
        values["autodiff.tape_mb_per_sample"] = nbytes / MiB / samples
        values["autodiff.cotangents_computed"] = computed / samples
        values["autodiff.cotangents_useful"] = useful / samples
        values["autodiff.cotangent_useful_ratio"] = useful / computed if computed else 0.0

    evals = [s for s in run_spans if s[2] == "evaluate.evaluate_model"]
    if evals:
        ids = {s[0] for s in evals}
        busy = sum(s[4] - s[3] for s in run_spans
                   if s[1] in ids and s[2] in ("model.predict", "evaluate._score_sample"))
        wall = sum(s[4] - s[3] for s in evals)
        values["evaluate.workers"] = float(workers)
        values["evaluate.parallel_efficiency"] = busy / (wall * workers)
        values["evaluate.os_threads_peak"] = float(threads_peak)

    values["trace.overhead_s_per_op"] = overhead_s_per_op
    values["trace.overhead_ratio"] = (
        overhead_s_per_op / untraced_s_per_op if untraced_s_per_op else 0.0
    )
    if undeclared := values.keys() - set(names):
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    return values
