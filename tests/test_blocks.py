"""Partial convolution, residual block, and attention behavior tests."""

import inspect
from dataclasses import fields

import numpy as np
import pytest
from oracles import inline_channel_attention, inline_channel_attention_backward

from detkit import blocks, ops
from detkit.blocks import (
    CBAMSpec,
    FasterNetBlockSpec,
    PConvSpec,
    cbam_backward,
    cbam_forward,
    cbam_init,
    channel_attention,
    channel_attention_backward,
    fasternet_block_backward,
    fasternet_block_forward,
    fasternet_block_init,
    pconv_forward,
    spatial_attention,
    spatial_attention_backward,
)
from detkit.ops import ConvSpec
from detkit.tensor import ConfigError


def _zeroed(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


class TestPConv:
    def test_degenerate_full_conv(self):
        rng = np.random.default_rng(1)
        c = 4
        x = rng.standard_normal((2, c, 5, 5))
        w = rng.standard_normal((c, c, 3, 3))
        spec = PConvSpec(c, c, 3)
        got = pconv_forward(x, w, spec)
        want = ops.conv2d_forward(x, w, None, ConvSpec(c, c, 3, 1, 1))
        assert np.array_equal(got, want)

    def test_pass_through_bit_identical(self):
        rng = np.random.default_rng(2)
        spec = PConvSpec(channels=8, conv_channels=2, kernel=3)
        x = rng.standard_normal((3, 8, 6, 6))
        w = rng.standard_normal((2, 2, 3, 3))
        out = pconv_forward(x, w, spec)
        assert out[:, 2:].tobytes() == x[:, 2:].tobytes()

    def test_front_channels_match_conv_oracle(self):
        rng = np.random.default_rng(3)
        spec = PConvSpec(channels=8, conv_channels=2, kernel=3)
        x = rng.standard_normal((1, 8, 5, 5))
        w = rng.standard_normal((2, 2, 3, 3))
        out = pconv_forward(x, w, spec)
        sub = x[:, :2]
        want = ops.conv2d_forward(sub, w, None, ConvSpec(2, 2, 3, 1, 1))
        assert np.allclose(out[:, :2], want, atol=1e-12)

    def test_spatial_shape_preserved(self):
        spec = PConvSpec(4, 2, 5)
        x = np.zeros((1, 4, 7, 9))
        out = pconv_forward(x, np.zeros((2, 2, 5, 5)), spec)
        assert out.shape == x.shape

    def test_conv_channels_bound(self):
        with pytest.raises(ConfigError):
            PConvSpec(channels=4, conv_channels=5, kernel=3)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            PConvSpec(channels=4, conv_channels=2, kernel=4)

    @pytest.mark.parametrize("kernel", [-1, -3])
    def test_negative_kernel_rejected(self, kernel):
        with pytest.raises(ConfigError, match=f"kernel must be odd and >= 1, got {kernel}"):
            PConvSpec(channels=4, conv_channels=2, kernel=kernel)


class TestFasterNetBlock:
    def _spec(self, c=6):
        return FasterNetBlockSpec(PConvSpec(c, 2, 3), expansion=2.0, activation="mish")

    def test_channels_are_the_pconv_channels(self):
        assert self._spec(c=7).channels == 7
        assert "channels" not in {f.name for f in fields(FasterNetBlockSpec)}

    @pytest.mark.parametrize("expansion", [float("nan"), float("inf"), 0.0, -1.0])
    def test_an_expansion_that_is_not_finite_and_positive_is_rejected(self, expansion):
        """A NaN or infinite ratio would crash math.ceil in hidden."""
        with pytest.raises(ConfigError, match=f"^expansion must be finite and > 0, got {expansion}$"):
            FasterNetBlockSpec(PConvSpec(8, 2, 3), expansion=expansion)

    def test_zero_params_is_identity(self):
        spec = self._spec()
        params = _zeroed(fasternet_block_init(spec, np.random.default_rng(0)))
        x = np.random.default_rng(4).standard_normal((2, 6, 4, 4))
        out, _ = fasternet_block_forward(x, params, spec)
        assert np.array_equal(out, x)

    def test_shape_preserved(self):
        spec = self._spec()
        params = fasternet_block_init(spec, np.random.default_rng(0))
        x = np.random.default_rng(5).standard_normal((2, 6, 5, 7))
        assert fasternet_block_forward(x, params, spec)[0].shape == x.shape

    def test_matches_chained_verified_ops(self):
        spec = self._spec()
        rng = np.random.default_rng(6)
        params = fasternet_block_init(spec, rng)
        x = rng.standard_normal((1, 6, 4, 4))
        pc = pconv_forward(x, params["pconv.w"], spec.pconv)
        z1 = ops.conv2d_forward(pc, params["pw1.w"], params["pw1.b"], spec.pw1_spec)
        a1, _ = ops.activation(z1, "mish")
        z2 = ops.conv2d_forward(a1, params["pw2.w"], params["pw2.b"], spec.pw2_spec)
        want = x + z2
        got, _ = fasternet_block_forward(x, params, spec)
        assert np.allclose(got, want, atol=1e-12)


def _zero_cbam(spec: CBAMSpec) -> dict[str, np.ndarray]:
    return _zeroed(cbam_init(spec, np.random.default_rng(0)))


class TestChannelAttention:
    def test_zero_params_give_half_gate(self):
        spec = CBAMSpec(channels=6, reduction=2)
        p = _zero_cbam(spec)
        x = np.random.default_rng(7).standard_normal((2, 6, 3, 3))
        f_c, cache = channel_attention(x, p, spec)
        assert np.allclose(cache[1], 0.5)
        assert np.allclose(f_c, 0.5 * x)

    def test_gate_strictly_inside_unit_interval(self):
        spec = CBAMSpec(channels=5, reduction=2)
        rng = np.random.default_rng(8)
        p = cbam_init(spec, rng)
        x = rng.standard_normal((3, 5, 4, 4)) * 5
        gate = channel_attention(x, p, spec)[1][1]
        assert gate.shape == (3, 5)
        assert np.all(gate > 0.0) and np.all(gate < 1.0)

    def test_gate_depends_only_on_channel_means(self):
        """Two inputs with equal per-channel means produce identical gates."""
        spec = CBAMSpec(channels=4, reduction=2)
        rng = np.random.default_rng(9)
        p = cbam_init(spec, rng)
        x = rng.standard_normal((1, 4, 4, 4))
        shuffled = x.reshape(1, 4, -1)
        shuffled = np.take_along_axis(
            shuffled, rng.permutation(16)[None, None, :].repeat(4, axis=1), axis=2
        ).reshape(1, 4, 4, 4)
        assert not np.array_equal(shuffled, x)
        m1 = channel_attention(x, p, spec)[1][1]
        m2 = channel_attention(shuffled, p, spec)[1][1]
        assert np.allclose(m1, m2, atol=1e-12)

    def test_literal_mode_square_weights(self):
        spec = CBAMSpec(channels=4, reduction=2, channel_mlp="literal")
        rng = np.random.default_rng(10)
        p = cbam_init(spec, rng)
        assert p["fc1.w"].shape == (4, 4) and p["fc2.w"].shape == (4, 4)
        x = rng.standard_normal((1, 4, 3, 3))
        f_c, cache = channel_attention(x, p, spec)
        # reference evaluation of the square-weight double-application form
        gap = x.mean(axis=(2, 3))
        w1, b1, w2, b2 = p["fc1.w"], p["fc1.b"], p["fc2.w"], p["fc2.b"]
        v1 = np.maximum(gap @ w1.T + b1, 0.0)
        v2 = np.maximum(gap @ w2.T + b2, 0.0)
        z = v1 @ w1.T + b1 + v2 @ w2.T + b2
        want = 1.0 / (1.0 + np.exp(-z))
        assert np.allclose(cache[1], want, atol=1e-12)
        assert np.allclose(f_c, want[:, :, None, None] * x, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("channel_mlp", ["prose", "literal"])
    def test_matches_inline_mlp_oracle_bitwise(self, channel_mlp, dtype):
        """The gate composed of global_pool, fully_connected and relu, and its
        backward through their backward passes, equal the hand-written MLP
        bit for bit: gate, gated map and all five gradients."""
        rng = np.random.default_rng(19)
        for _ in range(40):
            c, n = int(rng.integers(1, 130)), int(rng.integers(1, 6))
            h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            spec = CBAMSpec(channels=c, reduction=int(rng.integers(1, 5)), channel_mlp=channel_mlp)
            d1 = c if channel_mlp == "literal" else spec.hidden
            x, up = (rng.standard_normal((n, c, h, w)).astype(dtype) for _ in range(2))
            w1, w2 = rng.standard_normal((d1, c)).astype(dtype), rng.standard_normal((c, d1)).astype(dtype)
            b1, b2 = rng.standard_normal(d1).astype(dtype), rng.standard_normal(c).astype(dtype)
            p = {"fc1.w": w1, "fc1.b": b1, "fc2.w": w2, "fc2.b": b2}
            f_c, cache = channel_attention(x, p, spec)
            want_m, want_f, want_cache = inline_channel_attention(x, w1, b1, w2, b2, channel_mlp)
            gx, grads = channel_attention_backward(cache, p, spec, up)
            got = (cache[1][:, :, None, None], f_c, gx, *grads.values())
            want = (want_m, want_f,
                    *inline_channel_attention_backward(want_cache, w1, w2, channel_mlp, up))
            assert list(grads) == list(p)
            for g, wv in zip(got, want, strict=True):
                assert g.dtype == wv.dtype and np.array_equal(g, wv)

    def test_dim_mismatch_rejected(self):
        spec = CBAMSpec(channels=4, reduction=2)
        with pytest.raises(ConfigError):
            channel_attention(np.zeros((1, 4, 2, 2)),
                              {"fc1.w": np.zeros((3, 4)), "fc1.b": np.zeros(3),
                               "fc2.w": np.zeros((4, 2)), "fc2.b": np.zeros(4)}, spec)


class TestSpatialAttention:
    def test_zero_conv_gives_half_gate(self):
        spec = CBAMSpec(channels=3)
        x = np.random.default_rng(11).standard_normal((2, 3, 4, 4))
        f_s, cache = spatial_attention(x, {"spatial.w": np.zeros((1, 2, 1, 1)),
                                           "spatial.b": np.zeros(1)}, spec)
        assert np.allclose(cache[2], 0.5)
        assert np.allclose(f_s, 0.5 * x)

    def test_matches_composed_ops(self):
        spec = CBAMSpec(channels=3, spatial_kernel=3)
        rng = np.random.default_rng(12)
        w = rng.standard_normal((1, 2, 3, 3))
        b = rng.standard_normal(1)
        x = rng.standard_normal((1, 3, 5, 5))
        f_s, cache = spatial_attention(x, {"spatial.w": w, "spatial.b": b}, spec)
        stats = ops.spatial_stats(x)
        z = ops.conv2d_forward(stats, w, b, ConvSpec(2, 1, 3, 1, 1))
        want_gate = 1.0 / (1.0 + np.exp(-z))
        assert np.allclose(cache[2], want_gate, atol=1e-12)
        assert np.allclose(f_s, want_gate * x, atol=1e-12)

    def test_gate_range(self):
        spec = CBAMSpec(channels=4, spatial_kernel=1)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 4, 3, 3)) * 4
        w = rng.standard_normal((1, 2, 1, 1))
        m_s = spatial_attention(x, {"spatial.w": w, "spatial.b": rng.standard_normal(1)}, spec)[1][2]
        assert m_s.shape == (2, 1, 3, 3)
        assert np.all(m_s > 0.0) and np.all(m_s < 1.0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            CBAMSpec(channels=3, spatial_kernel=2)

    @pytest.mark.parametrize("kernel", [-1, -3])
    def test_negative_kernel_rejected(self, kernel):
        with pytest.raises(ConfigError, match=f"kernel must be odd and >= 1, got {kernel}"):
            CBAMSpec(channels=3, spatial_kernel=kernel)


class TestCBAM:
    def test_zero_params_sequential_quarters_input(self):
        spec = CBAMSpec(channels=4, composition="sequential")
        x = np.random.default_rng(14).standard_normal((1, 4, 3, 3))
        out, _ = cbam_forward(x, _zero_cbam(spec), spec)
        assert np.allclose(out, 0.25 * x)

    def test_zero_params_literal_squares_input(self):
        spec = CBAMSpec(channels=4, composition="literal")
        x = np.random.default_rng(15).standard_normal((1, 4, 3, 3))
        out, _ = cbam_forward(x, _zero_cbam(spec), spec)
        assert np.allclose(out, 0.25 * x * x)

    def test_sequential_equals_manual_chain(self):
        spec = CBAMSpec(channels=5, reduction=2, composition="sequential")
        rng = np.random.default_rng(16)
        p = cbam_init(spec, rng)
        x = rng.standard_normal((2, 5, 4, 4))
        f_c, _ = channel_attention(x, p, spec)
        want, _ = spatial_attention(f_c, p, spec)
        got, _ = cbam_forward(x, p, spec)
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("composition", ["sequential", "literal"])
    def test_shape_preserved(self, composition):
        spec = CBAMSpec(channels=6, composition=composition)
        rng = np.random.default_rng(17)
        p = cbam_init(spec, rng)
        x = rng.standard_normal((2, 6, 3, 5))
        assert cbam_forward(x, p, spec)[0].shape == x.shape

    @pytest.mark.parametrize("channel_mlp", ["prose", "literal"])
    @pytest.mark.parametrize("composition", ["sequential", "literal"])
    def test_no_input_grad_keeps_the_parameter_gradients(self, composition, channel_mlp):
        """Without the input gradient (a frozen step's neck) the backward
        returns None for it and the same parameter gradients, bit for bit."""
        spec = CBAMSpec(channels=6, reduction=2, spatial_kernel=3, composition=composition,
                        channel_mlp=channel_mlp)
        rng = np.random.default_rng(18)
        p = cbam_init(spec, rng)
        x, up = rng.standard_normal((2, 6, 4, 5)), rng.standard_normal((2, 6, 4, 5))
        _, cache = cbam_forward(x, p, spec)
        gx, full = cbam_backward(cache, p, spec, up)
        no_gx, grads = cbam_backward(cache, p, spec, up, input_grad=False)
        assert gx is not None and no_gx is None
        assert list(grads) == list(full)
        for k in full:
            assert grads[k].tobytes() == full[k].tobytes(), k


# (forward, backward) of each block-level pair, and the store names its
# backward returns gradients for, in store order.
_BLOCK_PAIRS = {
    "fasternet_block": (fasternet_block_forward, fasternet_block_backward,
                        ("pconv.w", "pw1.w", "pw1.b", "pw2.w", "pw2.b")),
    "channel_attention": (channel_attention, channel_attention_backward,
                          ("fc1.w", "fc1.b", "fc2.w", "fc2.b")),
    "spatial_attention": (spatial_attention, spatial_attention_backward,
                          ("spatial.w", "spatial.b")),
    "cbam": (cbam_forward, cbam_backward,
             ("fc1.w", "fc1.b", "fc2.w", "fc2.b", "spatial.w", "spatial.b")),
}


@pytest.mark.parametrize("name", list(_BLOCK_PAIRS))
def test_every_block_follows_one_convention(name):
    """forward(x, params, spec, prefix) returns (output of x's shape, cache);
    backward(cache, params, spec, upstream, prefix) returns (input gradient,
    the gradients of the block's own prefixed parameters in store order), and
    with input_grad=False, where it exists, None and the same gradients bit
    for bit. The store also holds other layers' parameters, as the network's
    does."""
    forward, backward, names = _BLOCK_PAIRS[name]
    prefix = "neck.1."
    rng = np.random.default_rng(21)
    if name == "fasternet_block":
        spec = FasterNetBlockSpec(PConvSpec(6, 2, 3))
        own = fasternet_block_init(spec, rng, prefix=prefix)
    else:
        spec = CBAMSpec(6, reduction=2, spatial_kernel=3)
        own = cbam_init(spec, rng, prefix=prefix)
    store = {"stem.b": np.zeros(6), **own, "head.b": np.zeros(6)}
    x, up = rng.standard_normal((2, 6, 4, 5)), rng.standard_normal((2, 6, 4, 5))
    out, cache = forward(x, store, spec, prefix)
    assert out.shape == x.shape
    gx, grads = backward(cache, store, spec, up, prefix)
    assert gx.shape == x.shape
    assert list(grads) == [prefix + n for n in names]
    for k, g in grads.items():
        assert g.shape == store[k].shape, k
    if "input_grad" in inspect.signature(backward).parameters:
        no_gx, same = backward(cache, store, spec, up, prefix, input_grad=False)
        assert no_gx is None and list(same) == list(grads)
        for k in grads:
            assert same[k].tobytes() == grads[k].tobytes(), k
