"""Grouped parameters: a conv or FC parameter with one extra leading axis of
G groups runs G equal, consecutive slices of the batch, slice g against
parameter g. Gradcheck passes the perturbed copies of one parameter this way,
so each group's output must be the bits of an ungrouped forward on its
slice.

A forward that groups one parameter still runs its other layers on the whole
batch of G·n samples. Their convolutions are one matrix product per sample,
but a fully connected layer is one product over the batch, whose rows BLAS
may round differently at another row count (ROADMAP item 3). The widths here
are those of the gradient suites, at which its rows do not depend on the row
count: at least 2 rows and 2 outputs, and fewer than 32 inputs.
"""

import numpy as np
import pytest

from detkit import blocks, ops
from detkit.tensor import ConfigError

GROUPS = (1, 2, 5)
DTYPES = (np.float32, np.float64)
ROWS = 2  # samples per group


def _assert_groups_match_ungrouped(forward, x, params, groups, rng):
    """forward(x, params) with each parameter grouped in turn, the others
    shared, and then with every parameter grouped: slice g of the output is
    forward on slice g of x with group g's parameters, bit for bit."""
    for names in [[name] for name in params] + [list(params)]:
        grouped = dict(params)
        for name in names:
            copies = params[name] + rng.standard_normal((groups, *params[name].shape))
            grouped[name] = copies.astype(params[name].dtype)
        out = forward(x, grouped)
        for g in range(groups):
            one = {k: v[g] if k in names else v for k, v in grouped.items()}
            want = forward(x[g * ROWS:(g + 1) * ROWS], one)
            got = out[g * ROWS:(g + 1) * ROWS]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (names, g)


def _draw(rng, dtype, **shapes):
    return {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}


@pytest.mark.parametrize("groups", GROUPS)
@pytest.mark.parametrize("dtype", DTYPES)
class TestGroupedOps:
    @pytest.mark.parametrize("k,s,bias", [(1, 1, True), (1, 2, False), (3, 1, True),
                                          (3, 2, True), (3, 1, False), (1, 1, False)])
    def test_conv2d(self, groups, dtype, k, s, bias):
        rng = np.random.default_rng(k * 10 + s)
        spec = ops.ConvSpec(3, 4, k, s, (k - 1) // 2)
        x = rng.standard_normal((groups * ROWS, 3, 6, 5)).astype(dtype)
        params = _draw(rng, dtype, w=(4, 3, k, k), **({"b": (4,)} if bias else {}))
        _assert_groups_match_ungrouped(
            lambda v, p: ops.conv2d_forward(v, p["w"], p.get("b"), spec), x, params, groups, rng)

    def test_fully_connected(self, groups, dtype):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((groups * ROWS, 5)).astype(dtype)
        _assert_groups_match_ungrouped(lambda v, p: ops.fully_connected(v, p["w"], p["b"]), x,
                                       _draw(rng, dtype, w=(3, 5), b=(3,)), groups, rng)


@pytest.mark.parametrize("groups", GROUPS)
@pytest.mark.parametrize("dtype", DTYPES)
class TestGroupedBlocks:
    def test_pconv(self, groups, dtype):
        rng = np.random.default_rng(2)
        spec = blocks.PConvSpec(5, 2, 3)
        x = rng.standard_normal((groups * ROWS, 5, 4, 4)).astype(dtype)
        _assert_groups_match_ungrouped(lambda v, p: blocks.pconv_forward(v, p["w"], spec), x,
                                       _draw(rng, dtype, w=(2, 2, 3, 3)), groups, rng)

    def test_fasternet_block(self, groups, dtype):
        rng = np.random.default_rng(3)
        spec = blocks.FasterNetBlockSpec(blocks.PConvSpec(4, 2, 3))
        x = rng.standard_normal((groups * ROWS, 4, 4, 4)).astype(dtype)
        params = blocks.fasternet_block_init(spec, rng, dtype)
        _assert_groups_match_ungrouped(lambda v, p: blocks.fasternet_block_forward(v, p, spec)[0],
                                       x, params, groups, rng)

    @pytest.mark.parametrize("mode", ["prose", "literal"])
    def test_channel_attention(self, groups, dtype, mode):
        rng = np.random.default_rng(4)
        spec = blocks.CBAMSpec(4, reduction=2, channel_mlp=mode)
        d = spec.mlp_width
        x = rng.standard_normal((groups * ROWS, 4, 3, 3)).astype(dtype)
        params = _draw(rng, dtype, **{"fc1.w": (d, 4), "fc1.b": (d,), "fc2.w": (4, d), "fc2.b": (4,)})
        _assert_groups_match_ungrouped(lambda v, p: blocks.channel_attention(v, p, spec)[0],
                                       x, params, groups, rng)

    @pytest.mark.parametrize("kernel", [1, 3])
    def test_spatial_attention(self, groups, dtype, kernel):
        rng = np.random.default_rng(5)
        spec = blocks.CBAMSpec(3, spatial_kernel=kernel)
        x = rng.standard_normal((groups * ROWS, 3, 4, 4)).astype(dtype)
        params = _draw(rng, dtype, **{"spatial.w": (1, 2, kernel, kernel), "spatial.b": (1,)})
        _assert_groups_match_ungrouped(lambda v, p: blocks.spatial_attention(v, p, spec)[0],
                                       x, params, groups, rng)

    @pytest.mark.parametrize("composition", ["sequential", "literal"])
    def test_cbam(self, groups, dtype, composition):
        rng = np.random.default_rng(6)
        spec = blocks.CBAMSpec(4, reduction=2, spatial_kernel=3, composition=composition)
        x = rng.standard_normal((groups * ROWS, 4, 3, 3)).astype(dtype)
        params = {k: rng.standard_normal(v.shape).astype(dtype)
                  for k, v in blocks.cbam_init(spec, rng).items()}
        _assert_groups_match_ungrouped(lambda v, p: blocks.cbam_forward(v, p, spec)[0],
                                       x, params, groups, rng)


class TestGroupCounts:
    """A group count must divide the batch, and every grouped parameter of a
    call must have the same count."""

    def test_conv2d_groups_that_do_not_divide_the_batch(self):
        spec = ops.ConvSpec(2, 3, 1)
        x = np.zeros((4, 2, 3, 3))
        with pytest.raises(ConfigError, match="do not divide a batch of 4"):
            ops.conv2d_forward(x, np.zeros((3, 3, 2, 1, 1)), None, spec)
        with pytest.raises(ConfigError, match="do not divide a batch of 4"):
            ops.conv2d_forward(x, np.zeros((3, 2, 1, 1)), np.zeros((3, 3)), spec)
        with pytest.raises(ConfigError, match="do not divide a batch of 4"):
            ops.conv2d_forward(x, np.zeros((2, 3, 2, 1, 1)), np.zeros((4, 3)), spec)

    def test_fully_connected_groups_that_do_not_divide_the_batch(self):
        x = np.zeros((6, 2))
        with pytest.raises(ConfigError, match="do not divide a batch of 6"):
            ops.fully_connected(x, np.zeros((4, 3, 2)), np.zeros(3))
        with pytest.raises(ConfigError, match="do not divide a batch of 6"):
            ops.fully_connected(x, np.zeros((3, 2)), np.zeros((5, 3)))
        with pytest.raises(ConfigError, match="do not divide a batch of 6"):
            ops.fully_connected(x, np.zeros((2, 3, 2)), np.zeros((3, 3)))

    def test_a_parameter_with_two_extra_axes_is_rejected(self):
        with pytest.raises(ConfigError, match="does not match spec"):
            ops.conv2d_forward(np.zeros((2, 2, 3, 3)), np.zeros((1, 1, 3, 2, 1, 1)), None,
                               ops.ConvSpec(2, 3, 1))
        with pytest.raises(ConfigError, match="incompatible"):
            ops.fully_connected(np.zeros((2, 2)), np.zeros((1, 1, 3, 2)), np.zeros(3))

    def test_the_backwards_take_one_weight(self):
        with pytest.raises(ConfigError, match="takes one"):
            ops.conv2d_backward(np.zeros((2, 2, 3, 3)), np.zeros((2, 3, 2, 1, 1)),
                                ops.ConvSpec(2, 3, 1), np.zeros((2, 3, 3, 3)))
        with pytest.raises(ConfigError, match="takes one"):
            ops.fully_connected_backward(np.zeros((2, 4)), np.zeros((3, 3, 4)), np.zeros((2, 3)))
