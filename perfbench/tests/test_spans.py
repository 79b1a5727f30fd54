"""The tracing helper: binding coverage, exact call counts, self-time sums."""

import time
from collections import Counter

import numpy as np
import pytest

from detkit import blocks, cli, model, ops, train
from detkit.model import ToyNetSpec, init_params
from detkit.tensor import Tensor
from spans import Tracer, recompute_mask
from worker import MODULES

# Self times of all spans must add up to the wall time of the traced calls to
# within 1%: only the test's own code between the two top-level calls lies
# outside every span.
SELF_TIME_TOLERANCE = 0.01


@pytest.fixture(scope="module")
def net():
    spec = ToyNetSpec()
    rng = np.random.Generator(np.random.PCG64(7))
    params = init_params(spec, rng)
    x = Tensor(rng.uniform(size=(2, 1, spec.image_size, spec.image_size)))
    return spec, params, x


def traced_step(net):
    spec, params, x = net
    tracer = Tracer()
    with tracer.patch(MODULES):
        head, cache = model.net_forward(params, spec, x)
        split = len(tracer)
        model.net_backward(params, spec, cache, Tensor(np.ones_like(head.data)))
    return tracer, split


def counts(tracer, a):
    return Counter(tracer.names[i] for i in a["name"])


def test_patch_rebinds_every_module_binding_and_restores():
    original = ops.conv2d_forward
    bound_in = [m for m in MODULES if getattr(m, "conv2d_forward", None) is original]
    assert {ops, blocks, model} <= set(bound_in)
    original_init = Tensor.__init__
    with Tracer().patch(MODULES):
        for mod in bound_in:
            assert mod.conv2d_forward is not original
        assert train.net_forward is not original and cli.net_forward is train.net_forward
        assert Tensor.__init__ is not original_init
    for mod in bound_in:
        assert mod.conv2d_forward is original
    assert Tensor.__init__ is original_init


def test_exact_call_counts_for_one_forward_and_one_backward(net):
    tracer, split = traced_step(net)
    a = tracer.arrays()
    bwd = counts(tracer, tracer.arrays(split))
    fwd = counts(tracer, a) - bwd
    # stem 1 + two blocks x (pconv, pw1, pw2) + CBAM spatial 1 + head 1
    assert fwd["ops.conv2d_forward"] == 9
    assert fwd["ops.activation"] == 3
    assert fwd["model.stem.fwd"] == 2  # conv and activation
    for layer in ("block1", "block2", "spp", "cbam", "head"):
        assert fwd[f"model.{layer}.fwd"] == 1
    assert bwd["ops.conv2d_backward"] == 9
    for layer in ("block1", "block2", "spp", "cbam", "head"):
        assert bwd[f"model.{layer}.bwd"] == 1
    assert "model.unmatched_site" not in fwd + bwd
    # Backward reruns, per block, pconv (1 conv), pw1 (1 conv) and the
    # activation; CBAM reruns its spatial stats and conv.
    assert bwd["ops.conv2d_forward"] == 5
    mask = recompute_mask(tracer.names, a)
    assert mask[:split].sum() == 0
    recomputed = Counter(tracer.names[i] for i in a["name"][mask])
    assert recomputed == {"blocks.pconv_forward": 2, "ops.conv2d_forward": 3,
                          "ops.activation": 2, "blocks.channel_attention": 1,
                          "ops.spatial_stats": 1}
    assert tracer.tensor_inits > 0


def test_spans_nest_and_self_times_cover_the_traced_wall_time(net):
    spec, params, x = net
    tracer = Tracer()
    with tracer.patch(MODULES):
        t0 = time.perf_counter()
        head, cache = model.net_forward(params, spec, x)
        model.net_backward(params, spec, cache, Tensor(np.ones_like(head.data)))
        wall = time.perf_counter() - t0
    a = tracer.arrays()
    roots = a["parent"] < 0
    assert [tracer.names[i] for i in a["name"][roots]] == ["model.net_forward", "model.net_backward"]
    # Every span lies inside its parent's interval, one level deeper, and its
    # children are exactly the spans one level deeper inside that interval.
    inner = np.nonzero(~roots)[0]
    p = a["parent"][inner]
    assert np.all(a["start"][inner] >= a["start"][p]) and np.all(a["end"][inner] <= a["end"][p])
    assert np.all(a["depth"][inner] == a["depth"][p] + 1)
    for i in range(len(a["dur"])):
        inside = ((a["depth"] == a["depth"][i] + 1) & (a["start"] >= a["start"][i])
                  & (a["end"] <= a["end"][i]))
        assert np.array_equal(np.nonzero(inside)[0], np.nonzero(a["parent"] == i)[0])
    assert np.all(a["self"] >= 0)
    assert a["self"].sum() <= wall
    assert wall - a["self"].sum() <= SELF_TIME_TOLERANCE * wall


def test_arrays_from_offset_drop_earlier_parents(net):
    tracer, split = traced_step(net)
    tail = tracer.arrays(split)
    assert tail["parent"][0] == -1
    assert np.all(tail["parent"] < np.arange(len(tail["parent"])))
