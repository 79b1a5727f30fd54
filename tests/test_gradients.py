"""Finite-difference verification of every backward pass, at full case count.

These are the same registered suites the `detkit gradcheck` command runs;
keeping them in the test suite pins the 1e-4 gate at 64-bit precision.
"""

import math

import numpy as np
import pytest
from oracles import entrywise_central_differences

from detkit import blocks, gradcheck, ops

# Each suite's 100-case worst error at its gate seed, to the bit: the suites'
# draws, probes and finite differences, and the operators' floating-point
# expressions, change no bit when the code around them is restructured.
CORE_SUITES = {  # seed 7
    "conv2d": 6.028157658740256e-07,
    "fully_connected": 5.036606362730684e-08,
    "activation_relu": 7.484005284367688e-10,
    "activation_sigmoid": 1.5450985646090973e-06,
    "activation_mish": 9.112859234845088e-08,
    "pconv": 9.56457856855054e-07,
    "channel_attention": 1.4234402089367943e-06,
    "channel_attention_literal": 3.524186739227948e-06,
    "spatial_attention": 1.1380230235274492e-06,
    "cbam_sequential": 5.869895183669753e-06,
    "cbam_literal": 2.1018559885187943e-06,
    "ciou_loss": 3.4137909684774896e-07,
    "wiou_loss": 4.869031003038038e-07,
}

EXTRA_SUITES = {  # seed 11
    "global_pool": 1.027956490494862e-09,
    "spatial_stats": 1.3341941845342406e-08,
    "spp": 1.3981211766804862e-10,
    "fasternet_block": 2.384171632769652e-06,
    "detection_loss": 7.997000798178511e-07,
}

# The suites that check a probe <G, f(x)> of a per-sample forward; the other
# three differentiate a scalar box or detection loss.
PROBE_SUITES = sorted((CORE_SUITES.keys() | EXTRA_SUITES.keys())
                      - {"ciou_loss", "wiou_loss", "detection_loss"})

# The suites whose forward takes parameters besides the batch input.
PARAMETER_SUITES = ["cbam_literal", "cbam_sequential", "channel_attention",
                    "channel_attention_literal", "conv2d", "fasternet_block",
                    "fully_connected", "pconv", "spatial_attention"]


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


def test_probe_suites_run_below_a_tenth_of_the_gate():
    """Differencing the outputs before the inner product with G leaves the
    error to the gradient, not to the rounding of two O(10) probe sums."""
    errors = {**CORE_SUITES, **EXTRA_SUITES}
    assert {name: errors[name] for name in PROBE_SUITES
            if not errors[name] < gradcheck.PASS_THRESHOLD / 10} == {}


@pytest.mark.parametrize("name", PROBE_SUITES)
def test_batched_input_differences_match_one_entry_at_a_time(name, monkeypatch):
    """Every probe-based suite probes its batch input with perturbed copies
    stacked along the batch axis. On a per-sample forward that gives the
    one-entry-at-a-time central differences; a forward that mixed samples
    would not."""
    calls = []
    real = gradcheck.batch_input_slopes

    def spy(forward, x, g):
        slopes = real(forward, x, g)
        calls.append((forward, x, g, slopes))
        return slopes

    monkeypatch.setattr(gradcheck, "batch_input_slopes", spy)
    gradcheck.run_suites(name, cases=1, seed=7)
    assert len(calls) == 1
    forward, x, g, slopes = calls[0]
    oracle = entrywise_central_differences(forward, x, g, gradcheck.FD_STEP)
    assert gradcheck.max_rel_error(slopes, oracle) < 1e-9


def test_batched_input_differences_see_a_forward_that_mixes_samples():
    """The comparison above has teeth: centring over the batch couples the
    samples, and the stacked copies then disagree with the oracle."""
    rng = np.random.default_rng(0)
    x, g = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))

    def centred(v):
        return v - v.mean(axis=0)

    oracle = entrywise_central_differences(centred, x, g, gradcheck.FD_STEP)
    assert gradcheck.max_rel_error(gradcheck.batch_input_slopes(centred, x, g), oracle) > 1e-2


def test_batched_input_differences_see_a_forward_that_reads_the_previous_sample():
    """A copy perturbs one entry position in every sample at once, so a
    forward whose output sample b also reads input sample b - 1 sees two
    perturbations in sample b, and its slopes disagree with the oracle."""
    rng = np.random.default_rng(0)
    x, g = rng.standard_normal((3, 2, 2)), rng.standard_normal((3, 2, 2))

    def with_previous(v):
        return v + np.roll(v, 1, axis=0)

    oracle = entrywise_central_differences(with_previous, x, g, gradcheck.FD_STEP)
    assert gradcheck.max_rel_error(gradcheck.batch_input_slopes(with_previous, x, g), oracle) > 1e-2


@pytest.mark.parametrize("name", PARAMETER_SUITES)
def test_batched_parameter_differences_match_one_entry_at_a_time(name, monkeypatch):
    """Every suite with parameters probes the concatenation of their entries
    with perturbed copies, each parameter passed as one grouped parameter,
    against the batch input tiled once per copy. That gives the central
    differences of the ungrouped forward, one entry of one parameter at a
    time."""
    calls = []
    real = gradcheck.parameter_slopes

    def spy(forward, x, params, g):
        slopes = real(forward, x, params, g)
        calls.append((forward, x, params, g, slopes))
        return slopes

    monkeypatch.setattr(gradcheck, "parameter_slopes", spy)
    gradcheck.run_suites(name, cases=1, seed=7)
    assert len(calls) == 1
    forward, x, params, g, slopes = calls[0]
    assert len(slopes) == len(params)
    for i, (v, num) in enumerate(zip(params, slopes)):
        def one(vv, i=i):
            return forward(x, *params[:i], vv, *params[i + 1:])

        oracle = entrywise_central_differences(one, v, g, gradcheck.FD_STEP)
        assert gradcheck.max_rel_error(num, oracle) < 1e-9


@pytest.mark.parametrize("name", ["conv2d", "pconv"])
def test_batched_parameter_differences_see_a_forward_that_ignores_the_groups(name, monkeypatch):
    """The comparison above has teeth: a grouped conv2d_forward that applies
    group 0's kernel to every group differences copies that hold the same
    perturbation, and every kernel slope reads 0."""
    real = ops.conv2d_forward

    def first_group_only(x, w, b, spec):
        if w.ndim == 5:
            w = np.broadcast_to(w[:1], w.shape)
        return real(x, w, b, spec)

    monkeypatch.setattr(ops, "conv2d_forward", first_group_only)
    monkeypatch.setattr(blocks, "conv2d_forward", first_group_only)
    (result,) = gradcheck.run_suites(name, cases=1, seed=7)
    assert result.max_err == 1.0


# Correct pconv gradients that reported 1.0057e-4 (a false alarm) and
# 5.02e-5 when the two probe sums were differenced; the error, to the bit.
@pytest.mark.parametrize("seed,err", [(1393656021, 3.703405297678748e-06),
                                      (2014114309, 7.779626027052047e-06)])
def test_pconv_seeds_near_the_gate_pass_with_margin(seed, err):
    (result,) = gradcheck.run_suites("pconv", cases=1, seed=seed)
    assert result.passed
    assert result.max_err == err


@pytest.mark.parametrize("backward,index,entry,suite", [
    pytest.param("conv2d_backward", 0, 0, "conv2d", id="conv2d-input"),
    pytest.param("fully_connected_backward", 1, 0, "fully_connected", id="fully_connected-weight"),
    pytest.param("conv2d_backward", 2, 0, "conv2d", id="conv2d-bias"),
    # The chunk seams: the last entry of the second sample's row, and the
    # last entry of the concatenated parameters.
    pytest.param("conv2d_backward", 0, -1, "conv2d", id="conv2d-input-last-of-second-sample"),
    pytest.param("conv2d_backward", 2, -1, "conv2d", id="conv2d-bias-last-of-last-parameter"),
])
def test_a_tenth_of_a_percent_off_in_one_gradient_entry_fails(backward, index, entry, suite,
                                                              monkeypatch):
    """A backward whose gradient (output ``index``) is 0.1 % off in one entry
    fails its suite: the input gradient through the stacked input probes,
    the parameter gradients through the grouped parameter probes."""
    real = getattr(ops, backward)

    def off(*args, **kwargs):
        grads = list(real(*args, **kwargs))
        grads[index] = grads[index].copy()
        grads[index].flat[entry] *= 1.001
        return tuple(grads)

    monkeypatch.setattr(ops, backward, off)
    (result,) = gradcheck.run_suites(suite, cases=3, seed=7)
    assert not result.passed
    assert result.max_err == pytest.approx(0.001 / 1.001, rel=1e-3)


# The probe forwards of each suite's first case at its gate seed: one per
# PROBES_PER_FORWARD entry positions of a batch input sample, and one per
# PROBES_PER_FORWARD entries of all its parameters together.
PROBE_FORWARDS = {
    "activation_mish": 2, "activation_relu": 2, "activation_sigmoid": 2,
    "cbam_literal": 3, "cbam_sequential": 3, "channel_attention": 4,
    "channel_attention_literal": 5, "ciou_loss": 1, "conv2d": 6, "detection_loss": 2,
    "fasternet_block": 2, "fully_connected": 2, "global_pool": 2, "pconv": 10,
    "spatial_attention": 4, "spatial_stats": 2, "spp": 3, "wiou_loss": 1,
}


def test_each_suite_makes_its_pinned_number_of_probe_forwards(monkeypatch):
    """A change that adds probe forwards fails here."""
    forwards = []
    real_input, real_params = gradcheck.batch_input_slopes, gradcheck.parameter_slopes

    def counted(forward):
        def call(*args):
            forwards.append(None)
            return forward(*args)
        return call

    monkeypatch.setattr(gradcheck, "batch_input_slopes", lambda f, *a: real_input(counted(f), *a))
    monkeypatch.setattr(gradcheck, "parameter_slopes", lambda f, *a: real_params(counted(f), *a))
    counts = {}
    for name in gradcheck.suite_names():
        before = len(forwards)
        gradcheck.run_suites(name, cases=1, seed=11 if name in EXTRA_SUITES else 7)
        counts[name] = len(forwards) - before
    assert counts == PROBE_FORWARDS
    assert sum(counts.values()) == 56


def test_unknown_suite_name_lists_valid_ones():
    from detkit.tensor import ConfigError

    with pytest.raises(ConfigError, match="conv2d"):
        gradcheck.run_suites("no_such_op")


def test_registry_covers_every_core_operator():
    names = set(gradcheck.suite_names())
    assert set(CORE_SUITES) <= names


# The worst error of each redraw run below, to the bit.
REDRAWN_ERRORS = {
    "channel_attention_literal": 2.296201298838112e-08,
    "activation_relu": 1.3977811145813603e-10,
    "spp": 1.3977808503122168e-10,
}


@pytest.mark.parametrize("name,cases,seed", [
    ("channel_attention_literal", 1, 1473828573),  # a relu input within 1e-6 of 0
    ("activation_relu", 1, 1056),                  # an input 4.7e-10 from 0
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
