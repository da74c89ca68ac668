import numpy as np
import pytest
from scipy.special import expit

from foucast import autodiff as ad
from foucast.autodiff import Var, backward, no_grad
from foucast.params import ParamSet
from gradcheck import grad_check, total


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def fd_ok(f, theta, tol=1e-4, h=1e-5):
    report = grad_check(f, theta, h=h, tol=tol)
    assert report.passed, str(report)


def test_quadratic_gradient():
    x = Var(np.array([1.0, 2.0, 3.0]))
    loss = total(ad.mul(x, x))
    backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])


def test_constant_loss_zero_gradient():
    x = Var(np.array([1.0, 2.0]))
    loss = total(ad.mul(x, 0.0))
    backward(loss)
    assert np.allclose(x.grad, 0.0)


def test_backward_rejects_nonscalar_and_complex():
    x = Var(np.array([1.0, 2.0]))
    with pytest.raises(ad.AutodiffError):
        backward(ad.mul(x, 2.0))
    z = Var(np.array(1.0 + 1j))
    with pytest.raises(ad.AutodiffError):
        backward(z)


def test_backward_frees_interior_cotangents():
    """Leaves keep their gradients; a node's cotangent is dropped once its rule has run."""
    x = Var(np.array([1.0, 2.0, 3.0]))
    square = ad.mul(x, x)
    loss = total(square)
    backward(loss)
    assert np.allclose(x.grad, [2.0, 4.0, 6.0])
    assert square.grad is None and loss.grad is None


def test_shared_subexpression_accumulates():
    x = Var(np.array(3.0))
    y = ad.add(ad.mul(x, x), x)  # x^2 + x
    backward(y)
    assert x.grad == pytest.approx(7.0)


def test_backward_deterministic():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))

    def run():
        x = Var(a)
        loss = total(ad.mul(ad.softmax(x), ad.sigmoid(x)))
        backward(loss)
        return x.grad.copy()

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_no_grad_builds_no_graph():
    with no_grad():
        x = Var(np.ones(3))
        y = ad.mul(x, x)
    assert y._parents == () and y._vjp is None
    assert np.allclose(y.value, 1.0)  # value math still happens
    backward(total(y))
    assert x.grad is None  # graph was cut inside no_grad


# --- finite-difference checks, one per primitive ---------------------------


def test_fd_elementwise_real():
    rng = np.random.default_rng(1)
    theta = ParamSet({"a": rng.uniform(0.5, 2.0, (3, 4)), "b": rng.uniform(0.5, 2.0, (3, 4))})

    def f(p):
        t = ad.sub(ad.div(ad.mul(p["a"], p["b"]), ad.add(p["b"], 1.0)), p["a"])
        return total(ad.mul(t, t))

    fd_ok(f, theta)


def test_fd_trig_sigmoid():
    """The phasor cis(x) receives a complex cotangent, so both of its parts are checked."""
    rng = np.random.default_rng(2)
    theta = ParamSet({"x": rng.standard_normal((2, 5))})
    probe = cplx(rng, 2, 5)

    def f(p):
        t = ad.creal(ad.mul(ad.cis(ad.mul(p["x"], 1.5)), probe))
        t = ad.add(t, ad.sigmoid(p["x"]))
        return ad.mean(ad.mul(t, t))

    fd_ok(f, theta)


def test_cis_is_the_unit_phasor():
    x = np.linspace(-7.0, 7.0, 29)
    with no_grad():
        z = ad.cis(x).value
    np.testing.assert_allclose(z, np.exp(1j * x), rtol=0, atol=1e-15)


def test_sigmoid_values_match_expit():
    """Both branches of the stable logistic, at overflow-range and signed-zero inputs."""
    v = np.concatenate([
        [800.0, -800.0, 0.0, -0.0, 36.0, -36.0, 710.0, -710.0],
        np.random.default_rng(3).standard_normal(500) * 20.0,
    ])
    with no_grad():
        out = ad.sigmoid(v).value
    assert np.all(np.isfinite(out)) and np.all((out >= 0.0) & (out <= 1.0))
    # exp(-710) is subnormal, where expit rounds to 0: no relative precision below tiny
    np.testing.assert_allclose(out, expit(v), rtol=1e-15, atol=np.finfo(np.float64).tiny)


def test_fd_softmax_axes():
    rng = np.random.default_rng(3)
    theta = ParamSet({"x": rng.standard_normal((3, 4, 5))})
    w = rng.standard_normal((3, 4, 5))

    def f(p):
        return total(ad.mul(ad.softmax(p["x"], axis=-1), w))

    fd_ok(f, theta)


def test_fd_broadcasting():
    rng = np.random.default_rng(4)
    theta = ParamSet({"a": rng.standard_normal((4, 1, 3)), "b": rng.standard_normal((5, 1))})

    def f(p):
        return total(ad.mul(ad.add(p["a"], p["b"]), p["b"]))

    fd_ok(f, theta)


def test_fd_matmul_real_and_complex():
    rng = np.random.default_rng(5)
    theta = ParamSet({
        "a": rng.standard_normal((3, 4)),
        "b": cplx(rng, 4, 2),
        "c": cplx(rng, 2, 2, 3),
    })
    probe = cplx(rng, 2, 3, 3)

    def f(p):
        y = ad.matmul(ad.matmul(p["a"], p["b"]), p["c"])  # broadcasting batch
        return total(ad.creal(ad.mul(y, np.conj(probe))))

    fd_ok(f, theta)


def test_fd_relu_real_and_split_complex():
    rng = np.random.default_rng(6)
    # keep inputs away from the kink
    re = rng.uniform(0.2, 1.0, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3))
    im = rng.uniform(0.2, 1.0, (4, 3)) * rng.choice([-1.0, 1.0], (4, 3))
    theta = ParamSet({"x": re, "z": re + 1j * im})
    probe = cplx(rng, 4, 3)

    def f(p):
        r = total(ad.mul(ad.relu(p["x"]), 0.7))
        c = total(ad.creal(ad.mul(ad.relu(p["z"]), np.conj(probe))))
        return ad.add(r, c)

    fd_ok(f, theta)


def test_fd_complex_structure_ops():
    rng = np.random.default_rng(7)
    z = cplx(rng, 3, 4)
    z += np.sign(z.real) * 0.5 + 1j * np.sign(z.imag) * 0.5  # away from origin
    theta = ParamSet({"z": z, "w": cplx(rng, 3, 4)})
    probe = cplx(rng, 3, 4)

    def f(p):
        t = ad.mul(ad.mul(p["z"], ad.conj(p["w"])), 0.5)
        a = total(ad.mul(ad.cabs(t), 0.3))
        b = total(ad.mul(ad.carg(ad.add(t, 5.0 + 5.0j)), 0.2))
        u = ad.cunit(p["z"])
        c = total(ad.creal(ad.mul(u, np.conj(probe))))
        # Re(-1j * (a + ib)) = b: the imaginary input's gradient path through creal
        d = total(ad.creal(ad.mul(ad.mul(p["z"], ad.cabs(p["w"])), -1j)))
        return ad.add(ad.add(a, b), ad.add(c, d))

    fd_ok(f, theta)


def test_fd_where():
    rng = np.random.default_rng(8)
    theta = ParamSet({"a": rng.standard_normal((4, 4)), "b": rng.standard_normal((4, 4))})
    mask = rng.random((4, 4)) > 0.5

    def f(p):
        return total(ad.mul(ad.where(mask, p["a"], p["b"]), p["a"]))

    fd_ok(f, theta)


def test_fd_reductions_and_shapes():
    rng = np.random.default_rng(9)
    theta = ParamSet({"x": rng.standard_normal((2, 3, 4))})
    probe = rng.standard_normal((4, 6))

    def f(p):
        t = ad.transpose(p["x"], (2, 0, 1))
        t = ad.reshape(t, (4, 6))
        m = ad.mean(ad.mul(t, probe))
        return ad.add(ad.mul(m, m), ad.mean(ad.mul(t, t)))

    fd_ok(f, theta)


def test_fd_dft_chain():
    """Gradient flows correctly through rfft2, expansion, and inverse."""
    rng = np.random.default_rng(10)
    theta = ParamSet({"x": rng.standard_normal((4, 6, 2))})
    probe_c = cplx(rng, 4, 6, 2)
    probe_r = rng.standard_normal((4, 6, 2))

    def f(p):
        z = ad.rfft2(p["x"])
        zf = ad.hermitian_expand(z, 6)
        back = ad.irfft2_real(z, 6)
        a = total(ad.creal(ad.mul(ad.ifft2(ad.mul(zf, 0.5 + 0.25j)), np.conj(probe_c))))
        b = total(ad.mul(back, probe_r))
        return ad.add(a, b)

    fd_ok(f, theta)


def test_fd_hermitian_expand_odd_width():
    """The mirrored-column adjoint at an odd width, where no Nyquist column is stored."""
    rng = np.random.default_rng(17)
    theta = ParamSet({"z": cplx(rng, 5, 4, 2)})
    probe = cplx(rng, 5, 7, 2)

    def f(p):
        return total(ad.creal(ad.mul(ad.hermitian_expand(p["z"], 7), np.conj(probe))))

    fd_ok(f, theta)


def test_fd_fft2_full():
    rng = np.random.default_rng(11)
    theta = ParamSet({"x": rng.standard_normal((5, 3, 2))})
    probe = cplx(rng, 5, 3, 2)

    def f(p):
        return total(ad.cabs(ad.sub(ad.fft2(p["x"]), probe)))

    fd_ok(f, theta)


def test_fd_softmax_dft_elementwise_chain():
    """One chain through softmax, the DFT, and elementwise ops on a 4x4."""
    rng = np.random.default_rng(16)
    theta = ParamSet({"x": rng.standard_normal((4, 4, 1))})
    probe = cplx(rng, 4, 3, 1)

    def f(p):
        s = ad.softmax(p["x"], axis=0)
        z = ad.rfft2(ad.mul(s, ad.add(p["x"], 0.5)))
        return ad.mean(ad.cabs(ad.mul(z, np.conj(probe))))

    fd_ok(f, theta)


def test_dft_adjoint_is_scaled_inverse():
    """The reverse rule of the forward DFT acts as the scaled inverse."""
    rng = np.random.default_rng(12)
    x = Var(rng.standard_normal((4, 4, 1)))
    g = cplx(rng, 4, 4, 1)
    z = ad.fft2(x)
    loss = total(ad.creal(ad.mul(z, np.conj(g))))
    backward(loss)
    want = np.fft.ifft2(g, axes=(0, 1)).real * 16
    assert np.allclose(x.grad, want, atol=1e-12)


@pytest.mark.parametrize("stride,pad,k", [(1, 0, 3), (1, 1, 3), (2, 1, 3), (2, 1, 4)])
def test_fd_conv2d(stride, pad, k):
    rng = np.random.default_rng(13)
    theta = ParamSet({
        "x": rng.standard_normal((2, 6, 6)),
        "w": rng.standard_normal((3, 2, k, k)) * 0.5,
        "b": rng.standard_normal(3),
    })

    def f(p):
        y = ad.conv2d(p["x"], p["w"], p["b"], stride=stride, pad=pad)
        return total(ad.mul(y, y))

    fd_ok(f, theta)


@pytest.mark.parametrize("stride,pad,k", [(1, 0, 3), (2, 1, 4), (2, 0, 2)])
def test_fd_conv2d_transpose(stride, pad, k):
    rng = np.random.default_rng(14)
    theta = ParamSet({
        "x": rng.standard_normal((3, 4, 4)),
        "w": rng.standard_normal((3, 2, k, k)) * 0.5,
        "b": rng.standard_normal(2),
    })

    def f(p):
        y = ad.conv2d_transpose(p["x"], p["w"], p["b"], stride=stride, pad=pad)
        return total(ad.mul(y, y))

    fd_ok(f, theta)


def test_conv2d_transpose_output_size():
    x = Var(np.zeros((1, 16, 16)))
    w = Var(np.zeros((1, 1, 4, 4)))
    y = ad.conv2d_transpose(x, w, np.zeros(1), stride=2, pad=1)
    assert y.value.shape == (1, 32, 32)


def test_grad_check_linear_is_exact():
    rng = np.random.default_rng(15)
    c = rng.standard_normal(6)
    theta = ParamSet({"x": rng.standard_normal(6)})

    def f(p):
        return total(ad.mul(p["x"], c))

    report = grad_check(f, theta, tol=1e-9)
    assert report.passed
    assert report.max_rel_err < 1e-9


def test_grad_check_catches_wrong_adjoint():
    """Negative control: a deliberately wrong vjp must be reported."""

    def bad_square(x):
        x = ad.as_var(x)

        def vjp(g):
            return (g * 3.0 * x.value,)  # wrong: should be 2x

        return Var(x.value**2, (x,), vjp, op="bad_square")

    theta = ParamSet({"x": np.array([1.5, -2.0])})

    def f(p):
        return total(bad_square(p["x"]))

    report = grad_check(f, theta)
    assert not report.passed
    assert report.max_rel_err > 0.1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_in_reverse_sweep_names_op():
    x = Var(np.array([0.0]))

    def vjp(g):
        return (g / (2.0 * np.sqrt(x.value)),)  # value is fine; reverse rule divides by zero

    y = Var(np.sqrt(x.value), (x,), vjp, op="sqrt")
    with pytest.raises(ad.AutodiffError, match="sqrt"):
        backward(total(y))
