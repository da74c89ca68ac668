"""Reverse-mode differentiation over numpy arrays, real or complex.

Complex values are differentiated by treating their real and imaginary parts
as independent real coordinates.  The cotangent stored for a complex node is
itself complex, with ``Re(grad) = dL/dRe(value)`` and ``Im(grad) =
dL/dIm(value)``; under this convention the reverse rule of a complex product
``u*v`` is ``g*conj(v)``, and a complex128 gradient viewed as float64 pairs
lines up with the flat real parameter view used by the optimizer and the
finite-difference checker.

The graph built by the ops below is the tape: nodes are created in execution
order and replayed strictly in reverse, so gradients are deterministic for a
fixed forward pass.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools

import numpy as np

_GRAD_ENABLED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "foucast_grad_enabled", default=True
)
_NODE_COUNTER = itertools.count()


class AutodiffError(RuntimeError):
    pass


@contextlib.contextmanager
def no_grad():
    """Disable graph recording; ops compute values only."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


class Var:
    """One node of the tape: a value, its parents, and the reverse rule."""

    __slots__ = ("value", "grad", "op", "_parents", "_vjp", "_id")

    def __init__(self, value, parents=(), vjp=None, op="leaf"):
        v = np.asarray(value)
        if np.iscomplexobj(v):
            v = v.astype(np.complex128, copy=False)
        else:
            v = v.astype(np.float64, copy=False)
        self.value = v
        self.grad = None
        self.op = op
        if _GRAD_ENABLED.get():
            self._parents = tuple(parents)
            self._vjp = vjp
        else:
            self._parents = ()
            self._vjp = None
        self._id = next(_NODE_COUNTER)


def as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g.reshape(shape)


def _accumulate(node: Var, contrib: np.ndarray, op: str, check: bool) -> None:
    c = np.asarray(contrib)
    if check and not np.all(np.isfinite(c)):
        raise AutodiffError(f"non-finite gradient produced by op {op!r}")
    if c.shape != node.value.shape:
        raise AutodiffError(
            f"op {op!r} produced gradient {c.shape} for parent {node.value.shape}"
        )
    if np.iscomplexobj(c) and not np.iscomplexobj(node.value):
        c = c.real
    if node.grad is None:
        node.grad = c.astype(node.value.dtype, order="C")  # a copy: rules may return views
    else:
        node.grad += c


def _sweep(order: list[Var], check: bool) -> None:
    """Run the reverse rules over ``order`` (loss first), from a unit cotangent."""
    for v in order:
        v.grad = None
    order[0].grad = np.ones_like(order[0].value)
    for v in order:
        if v._vjp is None or v.grad is None:
            continue
        contribs = v._vjp(v.grad)
        v.grad = None  # spent: freeing interior cotangents bounds the sweep's memory
        for parent, contrib in zip(v._parents, contribs):
            _accumulate(parent, contrib, v.op, check)


def backward(loss: Var) -> None:
    """Reverse sweep from a scalar real loss; fills ``grad`` on the reachable leaves.

    Finiteness is checked once, on the gradients of the leaves the sweep reached
    (parameters and constant inputs alike).  If one is non-finite, the sweep is
    replayed with every contribution checked, so the error names the first op
    whose reverse rule produced a non-finite value; if every contribution is
    finite, a leaf's sum overflowed, and that raises too.
    """
    if loss.value.size != 1:
        raise AutodiffError(f"loss must be scalar, got shape {loss.value.shape}")
    if np.iscomplexobj(loss.value):
        raise AutodiffError("loss must be real")

    # Reachable subgraph; creation ids increase parent -> child, so sorting
    # by id descending is a topological order of the reverse sweep.
    seen = {loss._id: loss}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p._id not in seen:
                seen[p._id] = p
                stack.append(p)
    order = sorted(seen.values(), key=lambda v: v._id, reverse=True)

    _sweep(order, check=False)
    # Only leaves still hold a gradient: interior cotangents are freed once spent.
    if not all(v.grad is None or np.all(np.isfinite(v.grad)) for v in order):
        _sweep(order, check=True)
        raise AutodiffError("non-finite leaf gradient: finite contributions overflowed in its sum")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.value + b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Var(out, (a, b), vjp, op="add")


def sub(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.value - b.value

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Var(out, (a, b), vjp, op="sub")


def mul(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    out = a.value * b.value

    def vjp(g):
        ga = _unbroadcast(g * np.conj(b.value), a.value.shape)
        gb = _unbroadcast(g * np.conj(a.value), b.value.shape)
        return ga, gb

    return Var(out, (a, b), vjp, op="mul")


def div(a, b) -> Var:
    """Elementwise division by a real denominator."""
    a, b = as_var(a), as_var(b)
    if np.iscomplexobj(b.value):
        raise AutodiffError("div expects a real denominator")
    out = a.value / b.value

    def vjp(g):
        ga = _unbroadcast(g / b.value, a.value.shape)
        gb = _unbroadcast(-g * np.conj(a.value) / (b.value * b.value), b.value.shape)
        return ga, gb

    return Var(out, (a, b), vjp, op="div")


def relu(x) -> Var:
    """ReLU; acts independently on real and imaginary parts of complex input."""
    x = as_var(x)
    if np.iscomplexobj(x.value):
        out = np.maximum(x.value.real, 0.0) + 1j * np.maximum(x.value.imag, 0.0)

        def vjp(g):
            return (g.real * (x.value.real > 0) + 1j * (g.imag * (x.value.imag > 0)),)

    else:
        out = np.maximum(x.value, 0.0)

        def vjp(g):
            return (g * (x.value > 0),)

    return Var(out, (x,), vjp, op="relu")


def cis(theta) -> Var:
    """Unit phasor e^{i theta} of a real angle."""
    theta = as_var(theta)
    c, s = np.cos(theta.value), np.sin(theta.value)

    def vjp(g):
        return (g.imag * c - g.real * s,)

    return Var(c + 1j * s, (theta,), vjp, op="cis")


def sigmoid(x) -> Var:
    x = as_var(x)
    v = x.value
    e = np.exp(-np.abs(v))
    out = np.where(v >= 0, 1.0, e) / (1.0 + e)

    def vjp(g):
        return (g * out * (1.0 - out),)

    return Var(out, (x,), vjp, op="sigmoid")


def softmax(x, axis: int = -1) -> Var:
    x = as_var(x)
    shifted = x.value - np.max(x.value, axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Var(out, (x,), vjp, op="softmax")


# ---------------------------------------------------------------------------
# reductions and shape ops


def mean(x) -> Var:
    """Mean over all entries."""
    x = as_var(x)

    def vjp(g):
        return (np.broadcast_to(np.asarray(g) / x.value.size, x.value.shape).copy(),)

    return Var(np.mean(x.value), (x,), vjp, op="mean")


def reshape(x, shape) -> Var:
    x = as_var(x)

    def vjp(g):
        return (np.reshape(g, x.value.shape),)

    return Var(np.reshape(x.value, shape), (x,), vjp, op="reshape")


def transpose(x, axes) -> Var:
    x = as_var(x)
    inv = np.argsort(axes)

    def vjp(g):
        return (np.transpose(g, inv),)

    return Var(np.transpose(x.value, axes), (x,), vjp, op="transpose")


def where(mask: np.ndarray, a, b) -> Var:
    """Select by a boolean mask fixed at record time (not differentiated)."""
    a, b = as_var(a), as_var(b)
    mask = np.asarray(mask, dtype=bool)
    out = np.where(mask, a.value, b.value)

    def vjp(g):
        ga = _unbroadcast(np.where(mask, g, 0.0), a.value.shape)
        gb = _unbroadcast(np.where(mask, 0.0, g), b.value.shape)
        return ga, gb

    return Var(out, (a, b), vjp, op="where")


def matmul(a, b) -> Var:
    """Matrix product with numpy broadcasting over leading dimensions."""
    a, b = as_var(a), as_var(b)
    out = a.value @ b.value

    def vjp(g):
        ga = _unbroadcast(g @ np.conj(b.value).swapaxes(-1, -2), a.value.shape)
        gb = _unbroadcast(np.conj(a.value).swapaxes(-1, -2) @ g, b.value.shape)
        return ga, gb

    return Var(out, (a, b), vjp, op="matmul")


# ---------------------------------------------------------------------------
# complex structure ops

_GUARD = 1e-12  # adjoints of |z|, arg(z), z/|z| vanish below this magnitude


def creal(z) -> Var:
    z = as_var(z)

    def vjp(g):
        return (g.astype(np.complex128),)

    return Var(z.value.real, (z,), vjp, op="creal")


def conj(z) -> Var:
    z = as_var(z)

    def vjp(g):
        return (np.conj(g),)

    return Var(np.conj(z.value), (z,), vjp, op="conj")


def cabs(z) -> Var:
    """Complex magnitude; zero gradient within the branch-point guard."""
    z = as_var(z)
    r = np.abs(z.value)

    def vjp(g):
        safe = np.where(r < _GUARD, 1.0, r)
        return (np.where(r < _GUARD, 0.0, g * z.value / safe),)

    return Var(r, (z,), vjp, op="cabs")


def carg(z) -> Var:
    """Complex argument in (-pi, pi]; zero gradient within the guard."""
    z = as_var(z)
    r2 = z.value.real**2 + z.value.imag**2

    def vjp(g):
        safe = np.where(r2 < _GUARD**2, 1.0, r2)
        return (np.where(r2 < _GUARD**2, 0.0, g * (1j * z.value) / safe),)

    return Var(np.angle(z.value), (z,), vjp, op="carg")


def cunit(z, eps: float = 1e-12) -> Var:
    """z/|z| with entries of magnitude < eps mapped to 1+0j (zero gradient)."""
    z = as_var(z)
    r = np.abs(z.value)
    small = r < eps
    out = np.divide(z.value, np.where(small, 1.0, r))
    out = np.where(small, 1.0 + 0.0j, out)

    def vjp(g):
        r3 = np.where(small, 1.0, r**3)
        coeff = (np.conj(g) * z.value).imag / r3
        return (np.where(small, 0.0 + 0.0j, coeff * (-1j * z.value)),)

    return Var(out, (z,), vjp, op="cunit")


# ---------------------------------------------------------------------------
# Fourier transforms (axes (0, 1); unnormalized forward, 1/(H*W) inverse).
# A real field of width W is stored as its Hermitian half-spectrum, the first
# ``half_width(W) = W//2 + 1`` columns; ``rfft2`` produces that layout and
# ``hermitian_expand``/``irfft2_real`` take it back with the original width.


def rfft2(x) -> Var:
    """Forward DFT of a real array over axes (0, 1), Hermitian half layout."""
    x = as_var(x)
    if np.iscomplexobj(x.value):
        raise AutodiffError("rfft2 expects a real input")
    h, w = x.value.shape[0], x.value.shape[1]
    out = np.fft.rfft2(x.value, axes=(0, 1))

    def vjp(g):
        full = np.zeros((h, w) + x.value.shape[2:], dtype=np.complex128)
        full[:, : g.shape[1]] = g
        return (np.fft.ifft2(full, axes=(0, 1)).real * (h * w),)

    return Var(out, (x,), vjp, op="rfft2")


def fft2(x) -> Var:
    """Full-spectrum forward DFT of a real array over axes (0, 1)."""
    x = as_var(x)
    if np.iscomplexobj(x.value):
        raise AutodiffError("fft2 expects a real input")
    h, w = x.value.shape[0], x.value.shape[1]

    def vjp(g):
        return (np.fft.ifft2(g, axes=(0, 1)).real * (h * w),)

    return Var(np.fft.fft2(x.value, axes=(0, 1)), (x,), vjp, op="fft2")


def ifft2(z) -> Var:
    """Full-spectrum inverse DFT (complex to complex), scaled by 1/(H*W)."""
    z = as_var(z)
    h, w = z.value.shape[0], z.value.shape[1]

    def vjp(g):
        return (np.fft.fft2(g, axes=(0, 1)) / (h * w),)

    return Var(np.fft.ifft2(z.value, axes=(0, 1)), (z,), vjp, op="ifft2")


def half_width(width: int) -> int:
    """Stored columns of the Hermitian half-spectrum of a real field of ``width``."""
    return width // 2 + 1


def hermitian_expand(z, width: int) -> Var:
    """Expand a half-spectrum to full width by conjugate mirroring.

    Missing column ``w`` is ``conj(z[-k, width - w])`` for row ``k``; stored
    columns are taken as-is, so the expansion is exact for transforms of real
    fields and well defined for any half-spectrum.  Non-finite entries are
    rejected here, before they can become a silent NaN forecast.
    """
    z = as_var(z)
    hf = z.value.shape[1]
    if half_width(width) != hf:
        raise AutodiffError(f"half-spectrum width {hf} does not match width {width}")
    if not np.all(np.isfinite(z.value)):
        raise AutodiffError("half-spectrum contains non-finite entries")
    h = z.value.shape[0]
    rows = (-np.arange(h)) % h
    out = np.empty((h, width) + z.value.shape[2:], dtype=np.complex128)
    out[:, :hf] = z.value
    np.conj(z.value[rows, width - hf : 0 : -1], out=out[:, hf:])

    def vjp(g):
        gz = g[:, :hf].copy()
        gz[rows, width - hf : 0 : -1] += np.conj(g[:, hf:])
        return (gz,)

    return Var(out, (z,), vjp, op="hermitian_expand")


def irfft2_real(z, width: int) -> Var:
    """Real field from a half-spectrum: Re(ifft2(hermitian_expand(z)))."""
    return creal(ifft2(hermitian_expand(z, width)))


# ---------------------------------------------------------------------------
# convolution (channel-first single-sample layout)


def _im2col(x: np.ndarray, k: int, stride: int, pad: int) -> tuple[np.ndarray, int, int]:
    c, h, w = x.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    if k > min(hp, wp):
        raise AutodiffError(f"kernel {(k, k)} does not fit input {x.shape} padded to {(c, hp, wp)}")
    if pad:
        padded = np.zeros((c, hp, wp), dtype=x.dtype)
        padded[:, pad : pad + h, pad : pad + w] = x
        x = padded
    n_h, n_w = (hp - k) // stride + 1, (wp - k) // stride + 1
    sc, sh, sw = x.strides
    win = np.lib.stride_tricks.as_strided(x, (c, k, k, n_h, n_w), (sc, sh, sw, sh * stride, sw * stride))
    return np.ascontiguousarray(win.reshape(c * k * k, n_h * n_w)), n_h, n_w


def _col2im(wt: np.ndarray, m: np.ndarray, c: int, k: int, stride: int,
            padded_hw: tuple[int, int]) -> np.ndarray:
    """Scatter-add ``wt @ m``, an im2col matrix (c*k*k, n_h*n_w), into a (c, H, W) image.

    Pixels go to stride**2 phase buffers by (row, column) remainder.  Zero columns pad the rows
    of ``m`` to the buffer width, so each tap adds one contiguous run per channel, in (i, j)
    order from +0.0: bit-identical to strided adds where no GEMM element depends on the column
    count (OpenBLAS at the model's shapes, as the oracle tests check) and ``wt`` is finite.
    """
    hp, wp = padded_hw
    n_h, n_w = (hp - k) // stride + 1, (wp - k) // stride + 1
    hq, wq = -(-hp // stride), -(-wp // stride)
    width = wq if n_h > 1 else n_w  # one output row needs no gaps (and a 1x1 output stays a GEMV)
    m = m.reshape(-1, n_h, n_w)
    if width != n_w:
        m = np.concatenate([m, np.zeros((len(m), n_h, width - n_w))], axis=2)
    run = n_h * width
    taps = (wt @ m.reshape(-1, run)).reshape(c, k, k, run)
    phases = np.zeros((stride, stride, c, (hq + 1) * wq))  # a spare row for the wrap
    for i in range(k):
        for j in range(k):
            off = (i // stride) * wq + j // stride
            phases[i % stride, j % stride, :, off : off + run] += taps[:, i, j]
    grid = phases.reshape(stride, stride, c, hq + 1, wq)[:, :, :, :hq].transpose(2, 3, 0, 4, 1)
    return grid.reshape(c, hq * stride, wq * stride)[:, :hp, :wp]


def conv2d(x, w, b, stride: int = 1, pad: int = 0) -> Var:
    """2D convolution: x (Cin, H, W), w (Cout, Cin, k, k), b (Cout,)."""
    x, w, b = as_var(x), as_var(w), as_var(b)
    cin, h, ww = x.value.shape
    cout, cin_w, k, _ = w.value.shape
    if cin != cin_w:
        raise AutodiffError(f"conv2d channel mismatch: input {cin}, weight {cin_w}")
    cols, n_h, n_w = _im2col(x.value, k, stride, pad)
    w2 = w.value.reshape(cout, cin * k * k)
    out = (w2 @ cols).reshape(cout, n_h, n_w) + b.value[:, None, None]

    def vjp(g):
        g2 = g.reshape(cout, n_h * n_w)
        # im2col rebuilt from x: the tape keeps the input, not its k*k-fold copy
        gw = (g2 @ _im2col(x.value, k, stride, pad)[0].T).reshape(w.value.shape)
        gx = _col2im(w2.T, g, cin, k, stride, (h + 2 * pad, ww + 2 * pad))
        if pad:
            gx = gx[:, pad:-pad, pad:-pad]
        return gx, gw, g.sum(axis=(1, 2))

    return Var(out, (x, w, b), vjp, op="conv2d")


def conv2d_transpose(x, w, b, stride: int = 1, pad: int = 0) -> Var:
    """Transposed 2D convolution: x (Cin, H, W), w (Cin, Cout, k, k), b (Cout,).

    Output spatial size is ``stride*(H-1) + k - 2*pad``.
    """
    x, w, b = as_var(x), as_var(w), as_var(b)
    cin, h, ww = x.value.shape
    cin_w, cout, k, _ = w.value.shape
    if cin != cin_w:
        raise AutodiffError(f"conv2d_transpose channel mismatch: input {cin}, weight {cin_w}")
    hp = stride * (h - 1) + k
    wp = stride * (ww - 1) + k
    w2 = w.value.reshape(cin, cout * k * k)
    x2 = x.value.reshape(cin, h * ww)
    full = _col2im(w2.T, x.value, cout, k, stride, (hp, wp))
    out = full[:, pad : hp - pad, pad : wp - pad] + b.value[:, None, None]

    def vjp(g):
        gcols, gn_h, gn_w = _im2col(g, k, stride, pad)
        assert (gn_h, gn_w) == (h, ww)
        gx = (w2 @ gcols).reshape(x.value.shape)
        gw = (x2 @ gcols.T).reshape(w.value.shape)
        return gx, gw, g.sum(axis=(1, 2))

    return Var(out, (x, w, b), vjp, op="conv2d_transpose")
