"""SGD/Adam update rules and the step-decay schedule."""

import math

import numpy as np
import pytest

from helpers import zero_transition_params
from semtagger import (ConfigError, DimensionError, OptimState, adam_step,
                       adam_update, clip_grads, init_optim_state, lr_at,
                       sgd_step)
from semtagger import optim as optim_module
from semtagger.crf import NEG_INF


def small_params(seed=0):
    rng = np.random.default_rng(seed)
    return {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}


def small_grads(seed=1):
    rng = np.random.default_rng(seed)
    return {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}


def test_sgd_formula_exact():
    params, grads = small_params(), small_grads()
    new = sgd_step(params, grads, lr=0.05)
    for name in params:
        assert np.array_equal(new[name], params[name] - 0.05 * grads[name])


def test_sgd_does_not_mutate_inputs():
    params, grads = small_params(), small_grads()
    before = {k: v.copy() for k, v in params.items()}
    sgd_step(params, grads, lr=0.1)
    for name in params:
        assert np.array_equal(params[name], before[name])


def test_adam_first_step_by_hand():
    # with bias correction, step one moves by lr * g / (|g| + eps)
    params = {"p": np.array([0.0])}
    grads = {"p": np.array([1.0])}
    state = init_optim_state("adam", params)
    new, state = adam_step(params, grads, state, lr=1e-3)
    want = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert math.isclose(new["p"][0], want, rel_tol=1e-15)
    assert state.step_count == 1


def test_adam_matches_scalar_reference():
    rng = np.random.default_rng(2)
    params = {"w": rng.normal(size=5)}
    state = init_optim_state("adam", params)
    lr, b1, b2, eps = 7e-3, 0.9, 0.999, 1e-8

    # naive elementwise reference implementation
    ref_p = params["w"].copy()
    ref_m = np.zeros(5)
    ref_v = np.zeros(5)
    cur = params
    for t in range(1, 8):
        g = rng.normal(size=5)
        cur, state = adam_step(cur, {"w": g.copy()}, state, lr=lr)
        ref_m = b1 * ref_m + (1 - b1) * g
        ref_v = b2 * ref_v + (1 - b2) * g * g
        m_hat = ref_m / (1 - b1 ** t)
        v_hat = ref_v / (1 - b2 ** t)
        ref_p = ref_p - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.allclose(cur["w"], ref_p, atol=1e-15)


def test_adam_state_is_functional():
    params, grads = small_params(), small_grads()
    state0 = init_optim_state("adam", params)
    _, state1 = adam_step(params, grads, state0, lr=1e-3)
    assert state0.step_count == 0
    assert np.all(state0.m["a"] == 0.0)
    assert state1.step_count == 1
    assert not np.array_equal(state1.m["a"], state0.m["a"])


def test_adam_on_non_contiguous_arrays_matches_contiguous_copies(monkeypatch):
    # 7-element blocks split both tensors into 2-row blocks and a 1-row tail
    monkeypatch.setattr(optim_module, "ADAM_BLOCK", 7)
    rng = np.random.default_rng(3)

    def strided():  # a column slice and a transpose: neither is C-contiguous
        return {"a": rng.normal(size=(7, 6))[:, ::2],
                "b": rng.normal(size=(3, 5)).T}

    params = strided()
    state = OptimState("adam", m={"a": np.zeros((7, 6))[:, ::2],
                                  "b": np.zeros((3, 5)).T},
                       v={"a": np.zeros((7, 6))[:, ::2],
                          "b": np.zeros((3, 5)).T})
    flat = {name: np.ascontiguousarray(p) for name, p in params.items()}
    flat_state = init_optim_state("adam", flat)
    for _ in range(3):
        grads = strided()
        flat, flat_state = adam_step(
            flat, {n: np.ascontiguousarray(g) for n, g in grads.items()},
            flat_state, lr=1e-2)
        returned, _ = adam_step(params, grads, state, lr=1e-2)
        adam_update(params, grads, state, lr=1e-2)
        for got, want in ((returned, flat), (params, flat),
                          (state.m, flat_state.m), (state.v, flat_state.v)):
            assert {n: a.tobytes() for n, a in got.items()} == {
                n: a.tobytes() for n, a in want.items()}
    assert state.step_count == flat_state.step_count == 3


def test_zero_grad_cells_stay_put_under_both_optimizers():
    # the CRF sentinel cells always receive gradient 0 and must remain
    # exactly at the sentinel value under either update rule
    crf = zero_transition_params(3)
    params = {"t": crf.transitions.copy()}
    grads = {"t": np.zeros_like(crf.transitions)}
    grads["t"][0, 0] = 0.5  # some real cell moves

    after_sgd = sgd_step(params, grads, lr=0.1)
    assert np.all(after_sgd["t"][:, 3] == NEG_INF)
    assert after_sgd["t"][0, 0] == params["t"][0, 0] - 0.05

    state = init_optim_state("adam", params)
    after_adam, _ = adam_step(params, grads, state, lr=0.1)
    assert np.all(after_adam["t"][:, 3] == NEG_INF)
    assert after_adam["t"][0, 0] != params["t"][0, 0]


def test_lr_schedule_decays_every_ten_epochs():
    for epoch in range(10):
        assert lr_at(0.01, epoch) == 0.01
    for epoch in range(10, 20):
        assert math.isclose(lr_at(0.01, epoch), 0.001, rel_tol=1e-12)
    assert math.isclose(lr_at(0.01, 20), 0.0001, rel_tol=1e-12)
    assert math.isclose(lr_at(0.01, 35), 0.01 * 0.1 ** 3, rel_tol=1e-12)


def test_lr_schedule_validation():
    with pytest.raises(ConfigError):
        lr_at(0.0, 0)
    with pytest.raises(ConfigError):
        lr_at(0.1, -1)


def test_clip_rescales_to_max_norm():
    grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}  # global norm = 18
    total = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    clipped = clip_grads(grads, max_norm=1.5)
    new_total = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
    assert math.isclose(new_total, 1.5, rel_tol=1e-12)
    # direction preserved
    assert np.allclose(clipped["a"] / clipped["a"][0],
                       grads["a"] / grads["a"][0])
    assert total > 1.5


def test_clip_noop_below_threshold():
    grads = {"a": np.array([0.3, 0.4])}  # norm 0.5
    assert clip_grads(grads, max_norm=1.0) is grads


def test_validation_errors():
    params, grads = small_params(), small_grads()
    with pytest.raises(ConfigError):
        init_optim_state("rmsprop", params)
    with pytest.raises(ConfigError):
        sgd_step(params, grads, lr=0.0)
    with pytest.raises(ConfigError):
        adam_step(params, grads, init_optim_state("sgd", params), lr=1e-3)
    with pytest.raises(DimensionError):
        sgd_step(params, {"a": grads["a"]}, lr=0.1)  # missing key
    bad = {"a": np.zeros((2, 2)), "b": np.zeros(4)}
    with pytest.raises(DimensionError):
        sgd_step(params, bad, lr=0.1)
    with pytest.raises(ConfigError):
        clip_grads(grads, max_norm=0.0)
