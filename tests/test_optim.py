from dataclasses import fields

import numpy as np
import pytest

from foucast.optim import OPTIMIZER_SCALARS, OptimizerState, adamw_step, init_state
from foucast.params import ParamSet
from foucast.train import TrainConfig
from gradcheck import label


def test_paramset_flat_round_trip_bit_exact():
    rng = np.random.default_rng(0)
    ps = ParamSet({
        "w": rng.standard_normal((3, 4)),
        "z": rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)),
        "b": rng.standard_normal(5),
    })
    flat = ps.to_flat()
    assert flat.size == 12 + 8 + 5
    back = ps.from_flat(flat)
    for name, a in ps:
        assert np.array_equal(back[name], a)
        assert back[name].dtype == a.dtype


def test_paramset_ordering_stable():
    ps = ParamSet({"a": np.zeros(2), "b": np.ones(3)})
    assert ps.names() == ["a", "b"]
    sl = ps.flat_slices()
    assert sl["a"] == slice(0, 2) and sl["b"] == slice(2, 5)
    assert label(ps, 3) == "b[1]"


def test_paramset_rejects_duplicates_and_bad_shapes():
    ps = ParamSet({"a": np.zeros(2)})
    with pytest.raises(ValueError):
        ps.add("a", np.zeros(2))
    with pytest.raises(ValueError):
        ps["a"] = np.zeros(3)


def test_zero_grad_zero_decay_leaves_params():
    ps = ParamSet({"w": np.array([1.0, -2.0])})
    state = init_state(ps, weight_decay=0.0)
    new, state = adamw_step(ps, ps.from_flat(np.zeros(ps.size)), state)
    assert np.array_equal(new["w"], ps["w"])
    assert state.step == 1


def test_single_step_matches_hand_computed_update():
    theta0, g = 0.7, 0.3
    lr, b1, b2, eps, wd = 0.001, 0.9, 0.999, 1e-8, 0.01
    ps = ParamSet({"w": np.array([theta0])})
    state = init_state(ps, lr=lr, beta1=b1, beta2=b2, eps=eps, weight_decay=wd)
    new, _ = adamw_step(ps, ParamSet({"w": np.array([g])}), state)
    # closed form for step 1 from m = v = 0
    m_hat = g
    v_hat = g * g
    want = theta0 - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * theta0)
    assert new["w"][0] == pytest.approx(want, rel=1e-15)
    # approximately a signed step of size lr
    assert new["w"][0] == pytest.approx(theta0 - lr * np.sign(g), abs=1e-5)


def test_trajectories_bit_identical():
    def run():
        rng = np.random.default_rng(7)
        ps = ParamSet({"w": rng.standard_normal(4), "z": rng.standard_normal(2) + 1j * rng.standard_normal(2)})
        state = init_state(ps)
        for _ in range(25):
            g = ParamSet({"w": np.sin(ps["w"]), "z": ps["z"] * 0.5})
            ps, state = adamw_step(ps, g, state)
        return ps.to_flat()

    assert np.array_equal(run(), run())


def test_frozen_params_bit_exact_and_moments_untouched():
    rng = np.random.default_rng(8)
    ps = ParamSet({"w": rng.standard_normal(3), "m": rng.standard_normal(4)})
    before = ps["m"].tobytes()
    state = init_state(ps)
    for _ in range(10):
        g = ParamSet({"w": np.ones(3), "m": np.ones(4)})
        ps, state = adamw_step(ps, g, state, frozen={"m"})
    assert ps["m"].tobytes() == before
    assert np.all(state.m[3:] == 0.0) and np.all(state.v[3:] == 0.0)
    assert not np.array_equal(ps["w"], rng.standard_normal(3))


def test_frozen_slice_keeps_warm_moments_and_live_slice_matches_unfrozen_step():
    rng = np.random.default_rng(9)
    ps = ParamSet({"w": rng.standard_normal(3), "m": rng.standard_normal(4)})
    state = init_state(ps)
    for _ in range(3):  # nonzero moments before the freeze
        ps, state = adamw_step(ps, ParamSet({"w": np.sin(ps["w"]), "m": np.cos(ps["m"])}), state)
    g = ParamSet({"w": np.sin(ps["w"]), "m": np.cos(ps["m"])})
    frozen_ps, frozen_state = adamw_step(ps, g, state, frozen={"m"})
    free_ps, free_state = adamw_step(ps, g, state)
    assert np.array_equal(frozen_ps["m"], ps["m"])
    assert np.array_equal(frozen_state.m[3:], state.m[3:])
    assert np.array_equal(frozen_state.v[3:], state.v[3:])
    assert np.array_equal(frozen_ps["w"], free_ps["w"])
    assert np.array_equal(frozen_state.m[:3], free_state.m[:3])
    assert np.array_equal(frozen_state.v[:3], free_state.v[:3])


def test_optimizer_scalars_keep_checkpoint_header_order():
    """The checkpoint header writes the scalars in this order, so it fixes the file's bytes."""
    assert OPTIMIZER_SCALARS == ("lr", "beta1", "beta2", "eps", "weight_decay")


def test_adamw_settings_default_to_optimizer_state():
    state = init_state(ParamSet({"w": np.zeros(2)}), lr=0.5, beta1=0.8)
    assert (state.lr, state.beta1, state.beta2) == (0.5, 0.8, OptimizerState.beta2)
    tcfg = TrainConfig()
    assert all(getattr(tcfg, key) == getattr(OptimizerState, key) for key in OPTIMIZER_SCALARS)


def test_adamw_constants_are_not_train_settings():
    """beta1, beta2 and eps are class attributes of TrainConfig, so no config key sets them."""
    assert not {f.name for f in fields(TrainConfig)} & {"beta1", "beta2", "eps"}


def test_shape_mismatch_rejected():
    ps = ParamSet({"w": np.zeros(3)})
    state = init_state(ps)
    with pytest.raises(ValueError):
        adamw_step(ps, ParamSet({"w": np.zeros(4)}), state)
