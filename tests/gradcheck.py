"""Central-difference gradient checks of tape functions (criterion 4 and unit tests).

``grad_check`` compares the reverse-mode gradient of a scalar loss with
central differences over the flat real view of a ``ParamSet``; ``total`` is
the sum reducer the test losses use to make an array scalar.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from foucast.autodiff import Var, as_var, backward, no_grad
from foucast.params import ParamSet


def total(x) -> Var:
    """Sum of every entry of ``x``, on the tape."""
    x = as_var(x)

    def vjp(g):
        return (np.broadcast_to(g, x.value.shape).copy(),)

    return Var(np.sum(x.value), (x,), vjp, op="sum")


def label(params: ParamSet, flat_index: int) -> str:
    """Human-readable name of a flat coordinate, for error reports."""
    for name, sl in params.flat_slices().items():
        if sl.start <= flat_index < sl.stop:
            return f"{name}[{flat_index - sl.start}]"
    raise IndexError(flat_index)


@dataclass
class GradCheckReport:
    """Per-coordinate comparison of reverse-mode and central differences."""

    max_rel_err: float
    worst: str
    passed: bool
    tol: float
    n_coords: int
    rel_errs: np.ndarray = field(repr=False)

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"grad_check {verdict}: max rel err {self.max_rel_err:.3e} "
            f"at {self.worst} over {self.n_coords} coordinates (tol {self.tol:g})"
        )


def _rel_err(a: float, b: float) -> float:
    denom = max(abs(a), abs(b), 1e-6)
    return abs(a - b) / denom


def grad_check(
    f: Callable[[dict[str, Var]], Var],
    theta: ParamSet,
    h: float = 1e-5,
    tol: float = 1e-4,
    coords: Sequence[int] | None = None,
) -> GradCheckReport:
    """Compare reverse-mode gradients of ``f`` against central differences.

    ``f`` receives leaf Vars keyed by parameter name and returns a scalar
    loss Var.  Steps are scaled per coordinate: ``h * max(1, |theta_i|)``.
    ``coords`` optionally restricts the check to a subset of flat indices.
    """
    if h <= 0:
        raise ValueError("h must be positive")

    leaves = {name: Var(a.copy(), op=f"param:{name}") for name, a in theta}
    loss = f(leaves)
    backward(loss)
    grads = ParamSet()
    for name, a in theta:
        g = leaves[name].grad
        grads.add(name, np.zeros_like(a) if g is None else g)
    analytic = grads.to_flat()

    flat = theta.to_flat()
    idx = np.arange(flat.size) if coords is None else np.asarray(coords, dtype=int)

    def eval_at(vec: np.ndarray) -> float:
        ps = theta.from_flat(vec)
        with no_grad():
            out = f({name: Var(a) for name, a in ps})
        return float(out.value)

    rel_errs = np.zeros(len(idx))
    for j, i in enumerate(idx):
        step = h * max(1.0, abs(flat[i]))
        up = flat.copy()
        up[i] += step
        down = flat.copy()
        down[i] -= step
        fd = (eval_at(up) - eval_at(down)) / (2.0 * step)
        if abs(fd - analytic[i]) < 1e-9:
            continue
        rel_errs[j] = _rel_err(analytic[i], fd)

    worst_j = int(np.argmax(rel_errs)) if len(idx) else 0
    max_err = float(rel_errs[worst_j]) if len(idx) else 0.0
    worst = label(theta, int(idx[worst_j])) if len(idx) else "<empty>"
    return GradCheckReport(
        max_rel_err=max_err,
        worst=worst,
        passed=max_err < tol,
        tol=tol,
        n_coords=len(idx),
        rel_errs=rel_errs,
    )
