"""Finite-difference verification of every backward pass, at full case count.

These are the same registered suites the `detkit gradcheck` command runs;
keeping them in the test suite pins the 1e-4 gate at 64-bit precision.
"""

import math

import numpy as np
import pytest

from detkit import gradcheck, ops

# Each suite's 100-case worst error at its gate seed, to the bit: the suites'
# draws, probes and finite differences, and the operators' floating-point
# expressions, change no bit when the code around them is restructured.
CORE_SUITES = {  # seed 7
    "conv2d": 7.4877342253927246e-06,
    "fully_connected": 1.753343207994422e-07,
    "activation_relu": 5.316575792182081e-06,
    "activation_sigmoid": 7.962115334825e-06,
    "activation_mish": 1.4801740789673794e-05,
    "pconv": 7.425258275860908e-05,
    "channel_attention": 8.24760704949191e-06,
    "channel_attention_literal": 1.5035397805257533e-05,
    "spatial_attention": 4.5932051738473145e-06,
    "cbam_sequential": 5.433159616652361e-06,
    "cbam_literal": 5.628469633946951e-06,
    "ciou_loss": 3.4137909684774896e-07,
    "wiou_loss": 4.869031003038038e-07,
}

EXTRA_SUITES = {  # seed 11
    "global_pool": 6.745076273546809e-08,
    "spatial_stats": 1.6379650517420417e-06,
    "spp": 2.7343640621796505e-06,
    "fasternet_block": 8.27580226570035e-06,
    "detection_loss": 7.997000798178511e-07,
}


@pytest.mark.parametrize("name", CORE_SUITES)
def test_core_backward_passes_match_central_differences(name):
    (result,) = gradcheck.run_suites(name, cases=100, seed=7)
    assert result.passed, f"{name}: max rel err {result.max_err}"
    assert result.max_err < 1e-4
    assert result.max_err == CORE_SUITES[name]


@pytest.mark.parametrize("name", EXTRA_SUITES)
def test_supporting_backward_passes_match_central_differences(name):
    (result,) = gradcheck.run_suites(name, cases=100, seed=11)
    assert result.passed, f"{name}: max rel err {result.max_err}"
    assert result.max_err == EXTRA_SUITES[name]


def test_unknown_suite_name_lists_valid_ones():
    from detkit.tensor import ConfigError

    with pytest.raises(ConfigError, match="conv2d"):
        gradcheck.run_suites("no_such_op")


def test_registry_covers_every_core_operator():
    names = set(gradcheck.suite_names())
    assert set(CORE_SUITES) <= names


# The worst error of each redraw run below, to the bit.
REDRAWN_ERRORS = {
    "channel_attention_literal": 5.8359499707267624e-08,
    "spp": 3.565087335222925e-08,
}


@pytest.mark.parametrize("name,cases,seed", [
    ("channel_attention_literal", 1, 1473828573),  # a relu input within 1e-6 of 0
    ("spp", 2, 745203692),                         # two pool candidates within 1e-6
])
def test_probes_near_a_kink_are_redrawn(name, cases, seed):
    """Central differences across a relu or max kink average two slopes; such
    cases are redrawn instead of failing a correct gradient."""
    (result,) = gradcheck.run_suites(name, cases=cases, seed=seed)
    assert result.passed, f"{name}: max rel err {result.max_err}"
    assert result.max_err == REDRAWN_ERRORS[name]


def test_runner_redraws_a_none_and_keeps_the_worst_error(monkeypatch):
    """run_suites calls a suite once per case index, again on the same index
    when it returns None, and reports the largest error returned."""
    calls = []

    def suite(rng, case):
        calls.append(case)
        if case == 1 and calls.count(1) == 1:
            return None
        return (0.25, 0.5, 0.125)[case]

    monkeypatch.setitem(gradcheck._SUITES, "runner_fixture", suite)
    (result,) = gradcheck.run_suites("runner_fixture", cases=3, seed=0)
    assert calls == [0, 1, 1, 2]
    assert (result.cases, result.max_err) == (3, 0.5)


def test_a_nan_gradient_fails_its_suite_and_is_reported(monkeypatch):
    """A NaN in one weight-gradient entry makes that case's error nan, and
    the nan outranks every finite error of the other arguments and cases."""
    real = ops.fully_connected_backward

    def nan_weight_grad(x, weights, upstream):
        gx, gw, gb = real(x, weights, upstream)
        gw = gw.copy()
        gw.flat[0] = np.nan
        return gx, gw, gb

    monkeypatch.setattr(ops, "fully_connected_backward", nan_weight_grad)
    (result,) = gradcheck.run_suites("fully_connected", cases=3, seed=7)
    assert math.isnan(result.max_err)
    assert not result.passed
