"""Finite-difference verification of every backward pass, at full case count.

These are the same registered suites the `detkit gradcheck` command runs;
keeping them in the test suite pins the 1e-4 gate at 64-bit precision.
"""

import pytest

from detkit import gradcheck

CORE_SUITES = [
    "conv2d",
    "fully_connected",
    "activation_relu",
    "activation_sigmoid",
    "activation_mish",
    "pconv",
    "channel_attention",
    "channel_attention_literal",
    "spatial_attention",
    "cbam_sequential",
    "cbam_literal",
    "ciou_loss",
    "wiou_loss",
]

EXTRA_SUITES = [
    "global_pool",
    "spatial_stats",
    "spp",
    "fasternet_block",
    "detection_loss",
]


@pytest.mark.parametrize("name", CORE_SUITES)
def test_core_backward_passes_match_central_differences(name):
    (result,) = gradcheck.run_suites(name, cases=100, seed=7)
    assert result.passed, f"{name}: max rel err {result.max_err}"
    assert result.max_err < 1e-4


@pytest.mark.parametrize("name", EXTRA_SUITES)
def test_supporting_backward_passes_match_central_differences(name):
    (result,) = gradcheck.run_suites(name, cases=100, seed=11)
    assert result.passed, f"{name}: max rel err {result.max_err}"


def test_unknown_suite_name_lists_valid_ones():
    from detkit.tensor import ConfigError

    with pytest.raises(ConfigError, match="conv2d"):
        gradcheck.run_suites("no_such_op")


def test_registry_covers_every_core_operator():
    names = set(gradcheck.suite_names())
    assert set(CORE_SUITES) <= names


@pytest.mark.parametrize("name,cases,seed", [
    ("channel_attention_literal", 1, 1473828573),  # a relu input within 1e-6 of 0
    ("spp", 2, 745203692),                         # two pool candidates within 1e-6
])
def test_probes_near_a_kink_are_redrawn(name, cases, seed):
    """Central differences across a relu or max kink average two slopes; such
    cases are redrawn instead of failing a correct gradient."""
    (result,) = gradcheck.run_suites(name, cases=cases, seed=seed)
    assert result.passed, f"{name}: max rel err {result.max_err}"


@pytest.mark.parametrize("name,seed,want", [
    ("ciou_loss", 7, 3.4137909684774896e-07),
    ("wiou_loss", 7, 4.869031003038038e-07),
    ("detection_loss", 11, 7.997000798178511e-07),
])
def test_loss_suite_errors_are_pinned(name, seed, want):
    """The loss suites' 100-case worst errors, to the bit: the loss and its
    gradient, and the finite differences taken of them, change no bit when
    the loss is restructured."""
    (result,) = gradcheck.run_suites(name, cases=100, seed=seed)
    assert result.max_err == want
