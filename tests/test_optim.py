"""Optimizer and schedule behavior against closed forms."""

import math

import numpy as np
import pytest

from detkit.optim import EPS, AdamWState, adamw_step, cosine_lr
from detkit.tensor import ConfigError


def make_params(rng):
    return {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        rng = np.random.default_rng(1)
        params = make_params(rng)
        before = {k: v.copy() for k, v in params.items()}
        state = AdamWState.init(params, weight_decay=0.0)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        adamw_step(params, grads, state, lr=0.1)
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_zero_grad_with_decay_shrinks_multiplicatively(self):
        rng = np.random.default_rng(2)
        params = make_params(rng)
        before = {k: v.copy() for k, v in params.items()}
        state = AdamWState.init(params, weight_decay=0.05)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        adamw_step(params, grads, state, lr=0.1)
        for k in params:
            assert np.allclose(params[k], before[k] * (1.0 - 0.1 * 0.05), atol=1e-15)

    def test_single_scalar_first_step_closed_form(self):
        theta0, g, lr, wd = 0.7, 0.3, 0.01, 0.02
        params = {"x": np.array([theta0])}
        state = AdamWState.init(params, weight_decay=wd)
        adamw_step(params, {"x": np.array([g])}, state, lr)
        # after one step from zero moments: m_hat = g, v_hat = g^2
        want = theta0 - lr * (g / (abs(g) + EPS) + wd * theta0)
        assert params["x"][0] == pytest.approx(want, abs=1e-12)
        assert state.t == 1

    def test_lr_zero_is_identity_on_params(self):
        rng = np.random.default_rng(3)
        params = make_params(rng)
        before = {k: v.copy() for k, v in params.items()}
        state = AdamWState.init(params)
        grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        adamw_step(params, grads, state, lr=0.0)
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_omitted_params_untouched(self):
        rng = np.random.default_rng(4)
        params = make_params(rng)
        before = {k: v.copy() for k, v in params.items()}
        state = AdamWState.init(params)
        adamw_step(params, {"a": np.ones_like(params["a"])}, state, lr=0.1)
        assert not np.array_equal(params["a"], before["a"])
        assert np.array_equal(params["b"], before["b"])

    def test_shape_mismatch_rejected(self):
        params = {"a": np.zeros(3)}
        state = AdamWState.init(params)
        with pytest.raises(ConfigError):
            adamw_step(params, {"a": np.zeros(4)}, state, lr=0.1)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-2, 1e-4) == pytest.approx(1e-2)
        assert cosine_lr(100, 100, 1e-2, 1e-4) == pytest.approx(1e-4)
        assert cosine_lr(50, 100, 1e-2, 1e-4) == pytest.approx((1e-2 + 1e-4) / 2)

    def test_past_the_end_clamps(self):
        assert cosine_lr(150, 100, 1e-2, 1e-4) == 1e-4

    def test_monotone_decay(self):
        vals = [cosine_lr(t, 50, 1.0, 0.0) for t in range(51)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_matches_closed_form(self):
        for t in (0, 7, 13, 50):
            want = 0.001 + 0.5 * (0.01 - 0.001) * (1 + math.cos(math.pi * t / 50))
            assert cosine_lr(t, 50, 0.01, 0.001) == pytest.approx(want, rel=1e-15)
