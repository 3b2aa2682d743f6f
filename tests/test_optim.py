import numpy as np
import pytest

from esikit.errors import FormatError, ParameterError
from esikit.optim import AdamState, adam_step, load_adam_state, save_adam_state


def test_zero_gradient_no_decay_leaves_params_unchanged():
    state = AdamState(lr=1e-2, weight_decay=0.0)
    p = {"w": np.array([1.0, -2.0, 3.0])}
    adam_step(state, p, {"w": np.zeros(3)})
    np.testing.assert_array_equal(p["w"], [1.0, -2.0, 3.0])


def test_first_step_magnitude_equals_lr():
    # with g=1 at step 1, bias-corrected m_hat/sqrt(v_hat) = 1
    state = AdamState(lr=1e-4, weight_decay=0.0, eps=0.0)
    p = {"w": np.array([0.5])}
    adam_step(state, p, {"w": np.array([1.0])})
    np.testing.assert_allclose(p["w"], [0.5 - 1e-4], atol=1e-12)


def test_decoupled_weight_decay_applied_before_update():
    state = AdamState(lr=0.1, weight_decay=0.5)
    p = {"w": np.array([2.0])}
    adam_step(state, p, {"w": np.array([0.0])})
    # decay shrinks by lr*wd*p = 0.1; zero gradient adds nothing
    np.testing.assert_allclose(p["w"], [2.0 - 0.1 * 0.5 * 2.0], atol=1e-12)


def test_paper_defaults():
    state = AdamState()
    assert state.lr == 1e-4
    assert state.weight_decay == 1e-5
    assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)


def test_trajectory_determinism():
    def run():
        rng = np.random.Generator(np.random.PCG64(3))
        state = AdamState(lr=1e-3)
        p = {"a": rng.standard_normal((4, 4)), "b": rng.standard_normal(4)}
        for _ in range(25):
            grads = {k: rng.standard_normal(v.shape) for k, v in p.items()}
            adam_step(state, p, grads)
        return p

    p1, p2 = run(), run()
    for k in p1:
        np.testing.assert_array_equal(p1[k], p2[k])


def test_shape_mismatch_raises():
    state = AdamState()
    with pytest.raises(ParameterError):
        adam_step(state, {"w": np.zeros(3)}, {"w": np.zeros(4)})


def test_state_round_trip(tmp_path):
    state = AdamState(lr=5e-4, weight_decay=1e-6)
    p = {"w": np.ones((2, 3)), "b": np.zeros(3)}
    for i in range(3):
        adam_step(state, p, {"w": np.full((2, 3), 0.1 * i), "b": np.ones(3)})
    save_adam_state(state, tmp_path)
    back = load_adam_state(tmp_path)
    assert back.step == 3
    assert back.lr == 5e-4
    assert back.weight_decay == 1e-6
    for k in state.m:
        np.testing.assert_allclose(back.m[k], state.m[k], atol=1e-7)
        np.testing.assert_allclose(back.v[k], state.v[k], atol=1e-7)


@pytest.mark.parametrize("m, v", [({"w": np.ones(3)}, {}),
                                  ({"w": np.ones(3)}, {"b": np.ones(2)})])
def test_load_adam_state_needs_one_m_and_one_v_per_param(tmp_path, m, v):
    save_adam_state(AdamState(step=2, m=m, v=v), tmp_path)
    with pytest.raises(FormatError, match="one m and one v"):
        load_adam_state(tmp_path)
