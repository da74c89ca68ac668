"""foucast benchmark: run one workload in a fresh child process and report it.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0

The child (workloads.py) starts with FOUCAST_THREADS, OPENBLAS_NUM_THREADS
and OMP_NUM_THREADS removed from its environment, so the program picks its
own eval pool size and BLAS thread count.  While it runs, this process polls
the child's OS thread count.  Output: a table of the named metrics, one
``run_record`` JSON line, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every output check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_default", "train_ablation", "eval_default")
THREAD_VARS = ("FOUCAST_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# The child measures for --seconds; imports, set-ups and the last cycle's
# overrun take well under 90 s at full scale on 2 cores.
TIMEOUT_MARGIN_S = 90.0
POLL_S = 0.1


def git_revision(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (root / "src").rglob("*.py"))


def thread_count(pid: int) -> int:
    try:
        return len(os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return 0


def run_child(argv: list[str], env: dict, timeout: float) -> tuple[int, str, int]:
    """Run the workload child; returns (exit code, stdout, peak OS thread count)."""
    child = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "workloads.py"), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + timeout
    peak = 0
    try:
        while True:
            peak = max(peak, thread_count(child.pid))
            try:
                out, _ = child.communicate(timeout=POLL_S)
                return child.returncode, out, peak
            except subprocess.TimeoutExpired:
                if time.monotonic() > deadline:
                    raise
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="foucast benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: hw 16 / hidden 4 configs for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "foucast" / "__init__.py").is_file():
        print(f"error: no foucast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    removed = {k: env.pop(k) for k in THREAD_VARS if k in env}
    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--scale", args.scale]
    timeout = TIMEOUT_MARGIN_S + 2.5 * args.seconds
    try:
        code, out, threads_peak = run_child(child_args, env, timeout)
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {timeout:.0f} s", file=sys.stderr)
        return 3
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        print(f"error: workload exited with code {code}", file=sys.stderr)
        return code or 1
    result = json.loads(lines[-1])

    record = result["record"]
    record.update({
        "git_revision": git_revision(ROOT),
        "src_lines": src_lines(ROOT),
        "env_removed": removed,
        "os_threads_peak": threads_peak,
    })
    for name, value, unit in result["table"]:
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name:<44} {shown:>14} {unit}")
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print("run_record " + json.dumps(record, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
