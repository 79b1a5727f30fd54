"""Core operator tests: trivial identities, brute-force oracles, invariants."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ACTIVATIONS,
    naive_conv2d,
    naive_sliding_max,
    per_tap_conv2d,
    per_tap_conv2d_backward,
    scan_maxpool_same,
    scan_maxpool_same_backward,
    scan_spatial_stats_backward,
    tap_loop_columns,
)

from detkit import ops
from detkit.ops import ConvSpec
from detkit.tensor import ConfigError


class TestConvForward:
    def test_out_size_same_padding(self):
        spec = ConvSpec(1, 1, kernel=3, stride=1, padding=1)
        assert spec.out_size(32) == 32

    def test_identity_kernel_reproduces_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 1, 4, 4))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = ops.conv2d_forward(x, w, np.zeros(1), ConvSpec(1, 1, 3, 1, 1))
        assert np.allclose(out, x)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        got = ops.conv2d_forward(x, w, b, ConvSpec(3, 4, 3, 2, 1))
        want = naive_conv2d(x, w, b, stride=2, padding=1)
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_matches_naive_oracle_many_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            p = int(rng.integers(0, 3))
            h = int(rng.integers(max(1, k - 2 * p), k + 5))
            if (h - k + 2 * p) // s + 1 < 1:
                continue
            x = rng.standard_normal((2, cin, h, h))
            w = rng.standard_normal((cout, cin, k, k))
            b = rng.standard_normal(cout)
            got = ops.conv2d_forward(x, w, b, ConvSpec(cin, cout, k, s, p))
            want = naive_conv2d(x, w, b, s, p)
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_linearity_in_input(self):
        rng = np.random.default_rng(5)
        spec = ConvSpec(2, 3, 3, 1, 1)
        w = rng.standard_normal((3, 2, 3, 3))
        x = rng.standard_normal((1, 2, 5, 5))
        y = rng.standard_normal((1, 2, 5, 5))
        a, b = 0.37, -1.9
        lhs = ops.conv2d_forward(a * x + b * y, w, None, spec)
        rhs = (a * ops.conv2d_forward(x, w, None, spec)
               + b * ops.conv2d_forward(y, w, None, spec))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_shape_mismatch_rejected(self):
        x = np.zeros((1, 2, 4, 4))
        w = np.zeros((1, 3, 3, 3))
        with pytest.raises(ConfigError):
            ops.conv2d_forward(x, w, None, ConvSpec(3, 1, 3, 1, 1))

    def test_too_small_input_rejected(self):
        spec = ConvSpec(1, 1, kernel=5, stride=1, padding=0)
        with pytest.raises(ConfigError):
            ops.conv2d_forward(np.zeros((1, 1, 3, 3)), np.zeros((1, 1, 5, 5)), None, spec)


class TestConvBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        spec = ConvSpec(2, 3, 3, 1, 1)
        gx, gw, gb = ops.conv2d_backward(x, w, spec, np.zeros((1, 3, 5, 5)))
        assert not gx.any() and not gw.any() and not gb.any()

    def test_scalar_chain_rule(self):
        # 1x1 input and kernel: d<g, w*x>/dw = g*x, /dx = g*w
        x = np.full((1, 1, 1, 1), 3.0)
        w = np.full((1, 1, 1, 1), -2.0)
        g = np.full((1, 1, 1, 1), 5.0)
        gx, gw, gb = ops.conv2d_backward(x, w, ConvSpec(1, 1, 1), g)
        assert gw.item() == pytest.approx(15.0)
        assert gx.item() == pytest.approx(-10.0)
        assert gb.item() == pytest.approx(5.0)


# Every kernel/stride/padding pairing of the grid, stem-like kernel = stride
# included, on rectangular inputs whose two sides are consecutive integers,
# so for any stride > 1 at least one side leaves rows past the last window.
CONV_GRID = [
    (k, s, p, max(1, k - 2 * p) + 2 * s)
    for k, s, p in itertools.product((1, 2, 3, 5, 8), (1, 2, 3, 8), (0, 1, 2))
]


class TestConvMatchesPerTapOracle:
    def test_grid_covers_stem_tiling_and_uneven_sizes(self):
        assert {(k, s) for k, s, _, _ in CONV_GRID if k == s} == {(1, 1), (2, 2), (3, 3), (8, 8)}
        for k, s, p, h in CONV_GRID:
            assert s == 1 or (h + 2 * p - k) % s or (h + 1 + 2 * p - k) % s

    @pytest.mark.parametrize("k,s,p,h", CONV_GRID)
    def test_forward_and_backward(self, k, s, p, h):
        rng = np.random.default_rng(1000 * k + 100 * s + p)
        spec = ConvSpec(2, 3, k, s, p)
        x = rng.standard_normal((2, 2, h, h + 1))
        w = rng.standard_normal((3, 2, k, k))
        b = rng.standard_normal(3)
        want = per_tap_conv2d(x, w, b, s, p)
        got = ops.conv2d_forward(x, w, b, spec)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12
        up = rng.standard_normal(want.shape)
        gx, gw, gb = ops.conv2d_backward(x, w, spec, up)
        for got_g, want_g in zip((gx, gw, gb),
                                 per_tap_conv2d_backward(x, w, s, p, up)):
            assert got_g.shape == want_g.shape
            assert np.max(np.abs(got_g - want_g)) <= 1e-12
        no_gx, gw_only, gb_only = ops.conv2d_backward(x, w, spec, up, input_grad=False)
        assert no_gx is None
        assert gw_only.tobytes() == gw.tobytes() and gb_only.tobytes() == gb.tobytes()


def _assert_columns_match_tap_loop(xp, k, s, columns=ops._columns):
    got, want = columns(xp, k, s), tap_loop_columns(xp, k, s)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()
    return got


class TestGatheredColumns:
    """im2col gathers its columns through one flat window index per
    (padded size, kernel, stride); the tap loop it replaced is the oracle."""

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 4), c=st.integers(1, 6), k=st.integers(1, 5), s=st.integers(1, 3),
           p=st.integers(0, 2), dh=st.integers(0, 4), dw=st.integers(0, 4),
           dtype=st.sampled_from([np.float32, np.float64]), sliced=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_columns_equal_the_tap_loop_bytes(self, n, c, k, s, p, dh, dw, dtype, sliced, seed):
        """Any (mostly non-square) map, padding, dtype and layout, both as
        called directly and as conv2d_backward calls it: on the padded input
        and on the stride-dilated upstream of its transposed convolution.
        A channel slice is what pconv passes; unpadded, it reaches _columns
        as a non-contiguous view."""
        rng = np.random.default_rng(seed)
        h, w = max(1, k - 2 * p) + dh, max(1, k - 2 * p) + dw
        x = rng.standard_normal((n, c + 2 * sliced, h, w)).astype(dtype)[:, :c]
        _assert_columns_match_tap_loop(ops._pad(x, p), k, s)

        spec = ConvSpec(c, 2, k, s, p)
        wt = rng.standard_normal((2, c, k, k)).astype(dtype)
        up = rng.standard_normal((n, 2, spec.out_size(h), spec.out_size(w))).astype(dtype)
        seen, gather = [], ops._columns

        def checked(xp, kk, ss):
            seen.append((kk, ss))
            return _assert_columns_match_tap_loop(xp, kk, ss, gather)

        with mock.patch.object(ops, "_columns", checked):
            ops.conv2d_backward(x, wt, spec, up)
        assert seen[0] == (k, s) and seen[1:] == ([] if k == s else [(k, 1)])

    def test_index_cache_stays_bounded(self):
        """More distinct map shapes than the cache holds: it never grows past
        its bound and every shape's columns still match the oracle."""
        info = ops._window_index.cache_info
        rng = np.random.default_rng(35)
        shapes = [(hp, wp) for hp in range(3, 20) for wp in range(3, 13)]
        assert len(shapes) > info().maxsize
        for hp, wp in shapes:
            _assert_columns_match_tap_loop(rng.standard_normal((1, 2, hp, wp)), 3, 1 + hp % 2)
            assert info().currsize <= info().maxsize
        assert info().currsize == info().maxsize

    def test_cached_index_is_read_only(self):
        index = ops._window_index(5, 6, 3, 2)
        assert index is ops._window_index(5, 6, 3, 2)
        with pytest.raises(ValueError):
            index[0] = 1


class TestSeparableMaxPool:
    @pytest.mark.parametrize("window", [1, 3, 5, 7])
    def test_ties_pick_the_scan_order_winner(self, window):
        """Integer inputs from {0, 1, 2} tie in nearly every window; values,
        winner offsets and the routed gradient equal the scan exactly."""
        rng = np.random.default_rng(window)
        x = rng.integers(0, 3, size=(2, 3, 7, 9)).astype(np.float64)
        pooled, arg = ops._maxpool_same(x, window)
        want_pooled, want_arg = scan_maxpool_same(x, window)
        assert np.array_equal(pooled, want_pooled)
        assert np.array_equal(arg, want_arg)
        up = rng.integers(-4, 5, size=x.shape).astype(np.float64)
        assert np.array_equal(ops._maxpool_same_backward(arg, window, up),
                              scan_maxpool_same_backward(x, window, up))


SPP_WINDOWS = [(3, 5), (5, 9, 13), (5, 3), (3, 3), (1, 3), ()]


class TestSppCascade:
    """spp pools values only, each window cascaded from the one before it as
    SPPF does; spp_backward finds the winners from its input."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("windows", SPP_WINDOWS, ids=str)
    def test_cascaded_values_equal_the_scan_per_window(self, windows, dtype):
        rng = np.random.default_rng(len(windows))
        x = rng.standard_normal((2, 3, 7, 9)).astype(dtype)
        out = ops.spp(x, windows)
        want = np.concatenate([x] + [scan_maxpool_same(x, wsz)[0] for wsz in windows], axis=1)
        assert out.dtype == dtype
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("inputs", ["integers", "relu"])
    @pytest.mark.parametrize("windows", SPP_WINDOWS, ids=str)
    def test_backward_routes_to_the_scan_winners_on_ties(self, windows, inputs):
        """Integer maps from {0, 1, 2} and a relu map that is mostly exact
        zeros tie in nearly every window; the gradient goes to the first
        maximum in row-major scan order, exactly as the scan routes it."""
        rng = np.random.default_rng(21)
        if inputs == "integers":
            x = rng.integers(0, 3, size=(2, 2, 6, 5)).astype(np.float64)
        else:
            x = ops.relu(rng.standard_normal((2, 2, 6, 5)) - 0.7)
        out = ops.spp(x, windows)
        up = rng.integers(-3, 4, size=out.shape).astype(np.float64)
        want = up[:, 0:2].copy()
        for g, wsz in enumerate(windows):
            want += scan_maxpool_same_backward(x, wsz, up[:, 2 * (g + 1):2 * (g + 2)])
        assert np.array_equal(ops.spp_backward(x, windows, up), want)

    def test_forward_finds_no_winners_and_backward_finds_each_once(self, monkeypatch):
        """Forward-only callers (detect, eval, a frozen epoch) never search
        for winners; a full backward searches once per pool window."""
        from detkit.model import ToyNetSpec, init_params, net_backward, net_forward

        calls = []
        real = ops._maxpool_same

        def counting(x, window):
            calls.append(window)
            return real(x, window)

        monkeypatch.setattr(ops, "_maxpool_same", counting)
        spec = ToyNetSpec(image_size=16, stem_channels=4, spp_windows=(3, 5, 9))
        rng = np.random.default_rng(4)
        params = init_params(spec, rng)
        x = rng.uniform(size=(2, 1, 16, 16))
        net_forward(params, spec, x, freeze_backbone=True)
        head, cache = net_forward(params, spec, x)
        assert calls == []
        net_backward(params, spec, cache, rng.standard_normal(head.shape))
        assert calls == [3, 5, 9]


class TestPooling:
    def test_constant_map(self):
        t = np.full((1, 2, 3, 3), 0.7)
        for kind in ("avg", "max"):
            out = ops.global_pool(t, kind)
            assert out.shape == (1, 2, 1, 1)
            assert np.allclose(out, 0.7)

    def test_small_map_values(self):
        t = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert ops.global_pool(t, "avg").item() == pytest.approx(2.5)
        assert ops.global_pool(t, "max").item() == pytest.approx(4.0)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 4, 5))
        got_avg = ops.global_pool(x, "avg")
        got_max = ops.global_pool(x, "max")
        for n in range(2):
            for c in range(3):
                vals = [x[n, c, i, j] for i in range(4) for j in range(5)]
                assert got_avg[n, c, 0, 0] == pytest.approx(sum(vals) / len(vals))
                assert got_max[n, c, 0, 0] == pytest.approx(max(vals))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            ops.global_pool(np.zeros((1, 1, 2, 2)), "median")

    def test_avg_backward_is_a_read_only_view_of_the_copied_broadcast(self):
        """The avg gradient keeps the bits of the full copy it replaces; being
        read-only, a caller that wrote into it would raise."""
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 5))
        up = rng.standard_normal((2, 3, 1, 1))
        got = ops.global_pool_backward(x, "avg", up)
        want = np.broadcast_to(up / 20, x.shape).copy()
        assert got.shape == want.shape
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        assert not got.flags.writeable


class TestMeansMatchNpMean:
    """global_pool's average and spatial_stats' channel mean sum and divide
    as np.mean does: the same bits, in float32 and float64, over counts that
    are not powers of two."""

    SHAPES = [(2, 3, 7, 5), (1, 5, 13, 11), (3, 7, 3, 3), (2, 120, 8, 8), (1, 6, 1, 9)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_bits(self, shape, dtype):
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            x = (rng.standard_normal(shape) * rng.uniform(0.1, 100)).astype(dtype)
            pooled = ops.global_pool(x, "avg")
            assert pooled.dtype == dtype
            assert pooled.view(np.uint8).tobytes() == \
                x.mean(axis=(2, 3), keepdims=True).view(np.uint8).tobytes()
            mean = ops.spatial_stats(x)[:, 1:2]
            assert mean.dtype == dtype
            assert np.ascontiguousarray(mean).view(np.uint8).tobytes() == \
                x.mean(axis=1, keepdims=True).view(np.uint8).tobytes()


class TestSpatialStats:
    def test_single_channel_duplicates(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 1, 3, 3))
        out = ops.spatial_stats(x)
        assert np.allclose(out[:, 0], x[:, 0])
        assert np.allclose(out[:, 1], x[:, 0])

    def test_two_constant_channels(self):
        x = np.zeros((1, 2, 2, 2))
        x[0, 1] = 10.0
        out = ops.spatial_stats(x)
        assert np.allclose(out[0, 0], 10.0)
        assert np.allclose(out[0, 1], 5.0)

    def test_matches_per_pixel_scan(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 5, 3, 4))
        out = ops.spatial_stats(x)
        for n in range(2):
            for i in range(3):
                for j in range(4):
                    col = [x[n, c, i, j] for c in range(5)]
                    assert out[n, 0, i, j] == pytest.approx(max(col))
                    assert out[n, 1, i, j] == pytest.approx(sum(col) / 5)

    def test_backward_routes_ties_to_first_channel(self):
        """{0, 1, 2}-valued inputs tie often; the backward sends each max
        gradient to the first maximal channel, as a per-position scan does."""
        rng = np.random.default_rng(33)
        for c in (1, 2, 5):
            x = rng.integers(0, 3, size=(2, c, 4, 5)).astype(np.float64)
            up = rng.standard_normal((2, 2, 4, 5))
            got = ops.spatial_stats_backward(x, up)
            assert np.array_equal(got, scan_spatial_stats_backward(x, up))

    def test_statistic_on_exact_ties_is_the_channel_max(self):
        """Ties between equal values and between -0.0 and 0.0: the max
        channel is x.max(axis=1) bit for bit and the mean x.mean(axis=1),
        and the backward still routes to the first maximum."""
        rng = np.random.default_rng(34)
        x = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(3, 6, 4, 4))
        out = ops.spatial_stats(x)
        assert out.tobytes() == np.stack([x.max(axis=1), x.mean(axis=1)], axis=1).tobytes()
        up = rng.standard_normal((3, 2, 4, 4))
        got = ops.spatial_stats_backward(x, up)
        assert np.array_equal(got, scan_spatial_stats_backward(x, up))


class TestActivations:
    def test_relu_values(self):
        out, _ = ops.activation(np.array([[[[-1.0, 2.0]]]]), "relu")
        assert out.tolist() == [[[[0.0, 2.0]]]]

    def test_sigmoid_at_zero(self):
        out, _ = ops.activation(np.zeros((1, 1, 1, 1)), "sigmoid")
        assert out.item() == pytest.approx(0.5)

    def test_mish_values(self):
        # x tanh(log(1 + e^x)): exactly 0 at 0; at 20 the softplus saturates
        # to ~20 + 2e-9 and tanh to 1 - 4e-18, so the value is 20 within 1e-6
        x = np.array([[[[0.0, 20.0]]]])
        out, _ = ops.activation(x, "mish")
        assert out[0, 0, 0, 0] == 0.0
        assert abs(out[0, 0, 0, 1] - 20.0) < 1e-6

    def test_relu_idempotent(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 2, 3, 3))
        once, _ = ops.activation(x, "relu")
        twice, _ = ops.activation(once, "relu")
        assert np.array_equal(once, twice)

    # beyond |x| ~ 36.7 float64 rounds sigmoid to exactly 0.0 / 1.0, so the
    # strict mathematical bound is only testable inside that range
    @given(st.floats(min_value=-36, max_value=36, allow_nan=False))
    def test_sigmoid_strictly_inside_unit_interval(self, v):
        out = ops.activation(np.full((1, 1, 1, 1), v), "sigmoid")[0].item()
        assert 0.0 < out < 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", sorted(ACTIVATIONS))
    def test_forward_and_cached_backward_match_oracle_bitwise(self, kind, dtype):
        """The forward and the cache-consuming backward reproduce the
        per-branch oracles bit for bit, on the branch points, the
        underflow and saturation points and random values."""
        special = [0.0, -0.0, 1e-300, -1e-300, 20.0, -20.0, 40.0, -40.0, 710.0, -710.0]
        rng = np.random.default_rng(31)
        values = np.concatenate([special, rng.standard_normal(190) * 8.0]).astype(dtype)
        x = values.reshape(2, 5, 4, 5)
        up = rng.standard_normal(x.shape).astype(dtype)
        fwd, grad = ACTIVATIONS[kind]
        out, cache = ops.activation(x, kind)
        assert out.dtype == dtype
        assert np.array_equal(out, fwd(x))
        got = ops.activation_backward(cache, kind, up)
        assert got.dtype == dtype
        assert np.array_equal(got, grad(x) * up)

    def test_sigmoid_matches_masked_oracle_bitwise(self):
        rng = np.random.default_rng(32)
        for dtype in (np.float32, np.float64):
            x = (rng.standard_normal(997) * 30.0).astype(dtype)
            assert np.array_equal(ops.sigmoid(x), ACTIVATIONS["sigmoid"][0](x))

    def test_backward_rejects_mismatched_upstream(self):
        _, cache = ops.activation(np.zeros((1, 2, 3, 3)), "mish")
        with pytest.raises(ConfigError):
            ops.activation_backward(cache, "mish", np.zeros((1, 2, 3, 4)))


class TestFullyConnected:
    def test_identity_weight(self):
        x = np.array([[1.0, -2.0, 3.0]])
        out = ops.fully_connected(x, np.eye(3), np.zeros(3))
        assert np.allclose(out, x)

    def test_zero_weight_returns_bias(self):
        b = np.array([4.0, 5.0])
        out = ops.fully_connected(np.ones((1, 3)), np.zeros((2, 3)), b)
        assert np.allclose(out, b[None])

    def test_dim_mismatch(self):
        """A feature count other than the weights' and a vector in place of a
        (batch, features) array are both rejected."""
        for x in (np.ones((1, 3)), np.ones(4)):
            with pytest.raises(ConfigError):
                ops.fully_connected(x, np.zeros((2, 4)), np.zeros(2))

    def test_batched_matches_rowwise(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        batched = ops.fully_connected(x, w, b)
        rows = np.concatenate([ops.fully_connected(x[i:i + 1], w, b) for i in range(4)])
        assert np.allclose(batched, rows)


class TestSpp:
    def test_empty_windows_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 4, 4))
        out = ops.spp(x, [])
        assert np.array_equal(out, x)

    def test_constant_input(self):
        x = np.full((1, 2, 4, 4), 1.5)
        out = ops.spp(x, [3])
        assert out.shape == (1, 4, 4, 4)
        assert np.allclose(out, 1.5)

    def test_matches_sliding_max_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 2, 6, 7))
        out = ops.spp(x, [3, 5])
        assert np.array_equal(out[:, 0:2], x)
        assert np.allclose(out[:, 2:4], naive_sliding_max(x, 3))
        assert np.allclose(out[:, 4:6], naive_sliding_max(x, 5))

    def test_even_window_rejected(self):
        with pytest.raises(ConfigError):
            ops.spp(np.zeros((1, 1, 4, 4)), [4])

    def test_backward_rejects_an_even_window(self):
        """spp_backward takes its windows from the caller and checks them
        as spp does."""
        with pytest.raises(ConfigError, match="pool window 4 must be odd"):
            ops.spp_backward(np.zeros((1, 1, 4, 4)), [4], np.zeros((1, 2, 4, 4)))


@settings(max_examples=60, deadline=None)
@given(
    in_size=st.integers(min_value=1, max_value=40),
    k=st.integers(min_value=1, max_value=7),
    p=st.integers(min_value=0, max_value=3),
    s=st.integers(min_value=1, max_value=3),
)
def test_conv_shape_law_matches_execution(in_size, k, p, s):
    """floor((in - k + 2p)/s) + 1 agrees with the executed output shape for
    every valid random configuration."""
    predicted = (in_size - k + 2 * p) // s + 1
    if predicted < 1 or in_size + 2 * p < k:
        return
    x = np.zeros((1, 1, in_size, in_size))
    w = np.zeros((1, 1, k, k))
    out = ops.conv2d_forward(x, w, None, ConvSpec(1, 1, k, s, p))
    assert out.shape[2] == predicted and out.shape[3] == predicted
