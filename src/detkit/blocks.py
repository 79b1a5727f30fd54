"""Partial convolution, the residual block built on it, and CBAM attention.

Partial convolution runs a regular convolution over the first ``conv_channels``
input channels and passes the remaining channels through untouched, which is
where its memory-traffic savings come from (see :mod:`detkit.cost`).

CBAM composes a channel gate (per-channel weights from globally pooled
statistics pushed through a two-layer MLP) with a spatial gate (per-position
weights from channel-wise max/mean maps pushed through a small convolution).
The channel gate composes the verified ``global_pool``, ``fully_connected``
and ``relu`` and feeds its MLP the average-pooled descriptor g only; CBAM's
eq. 2 also passes the max-pooled descriptor through the shared MLP.
Two selectable formulations exist for each half and all four are implemented:

* ``channel_mlp="prose"``: the bottleneck MLP, sigma(W2 relu(W1 g + b1) + b2).
* ``channel_mlp="literal"``: both branches consume the pooled vector with
  square c-by-c weights and the gate re-applies them,
  sigma(W1 v1 + b1 + W2 v2 + b2) with v_i = relu(W_i g + b_i).
* ``composition="sequential"`` (default): spatial attention runs on the
  channel-gated map.
* ``composition="literal"``: both gates run on the raw input and their gated
  maps are multiplied elementwise, which squares the input contribution.

Parameters live in the flat ``<layer>.<param>`` store of :mod:`detkit.model`,
and the block, CBAM and its two halves share one convention: a forward
``(x, params, spec, prefix)`` returns ``(output, cache)``, the cache holding
the intermediates its backward needs, and the backward ``(cache, params,
spec, upstream, prefix)`` returns ``(input gradient, its own parameters'
gradients keyed like params)`` and recomputes nothing. ``prefix`` is
``"block1."``, ``"block2."`` or ``"cbam."`` inside the network and ``""``
standalone. Feature maps, weights, gradients and caches are bare ndarrays,
as in :mod:`detkit.ops`; the partial convolution takes its one kernel as an
array, as the ops do.
The block keeps its activation's cache (for mish, exp(-|x|) and
tanh(softplus(x))); the spatial gate keeps its input, from which the backward
takes the channel argmax of its statistics.
All backward passes are hand-derived and verified against central finite
differences by the gradient-check suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ops import (
    ConvSpec,
    _grouped,
    activation,
    activation_backward,
    conv2d_backward,
    conv2d_forward,
    fully_connected,
    fully_connected_backward,
    global_pool,
    global_pool_backward,
    relu,
    relu_grad,
    sigmoid,
    spatial_stats,
    spatial_stats_backward,
)
from .tensor import ConfigError


@dataclass(frozen=True)
class PConvSpec:
    """Partial convolution: conv the first conv_channels, pass the rest through.

    Stride is 1 and padding (kernel - 1) // 2, so spatial shape is preserved.
    """

    channels: int
    conv_channels: int
    kernel: int = 3

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")
        if not 1 <= self.conv_channels <= self.channels:
            raise ConfigError(
                f"conv_channels must be in [1, {self.channels}], got {self.conv_channels}"
            )
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and >= 1, got {self.kernel}")
        self.conv_spec  # built now, so that its weight check runs when the spec is made

    @cached_property
    def conv_spec(self) -> ConvSpec:
        return ConvSpec(
            in_channels=self.conv_channels,
            out_channels=self.conv_channels,
            kernel=self.kernel,
            stride=1,
            padding=(self.kernel - 1) // 2,
        )


@dataclass(frozen=True)
class CBAMSpec:
    """Attention block configuration.

    hidden width of the prose-mode MLP is max(1, channels // reduction).
    spatial_kernel must be odd and positive; the default 1 keeps the spatial gate pointwise.
    """

    channels: int
    reduction: int = 4
    spatial_kernel: int = 1
    composition: str = "sequential"
    channel_mlp: str = "prose"

    def __post_init__(self):
        if self.channels < 1:
            raise ConfigError("channels must be >= 1")
        if self.reduction < 1:
            raise ConfigError(f"reduction must be >= 1, got {self.reduction}")
        if self.spatial_kernel < 1 or self.spatial_kernel % 2 == 0:
            raise ConfigError(f"spatial_kernel must be odd and >= 1, got {self.spatial_kernel}")
        if self.composition not in ("sequential", "literal"):
            raise ConfigError(f"composition must be 'sequential' or 'literal', got {self.composition!r}")
        if self.channel_mlp not in ("prose", "literal"):
            raise ConfigError(f"channel_mlp must be 'prose' or 'literal', got {self.channel_mlp!r}")
        self.spatial_conv_spec  # built now, so that its weight check runs when the spec is made

    @property
    def hidden(self) -> int:
        return max(1, self.channels // self.reduction)

    @property
    def mlp_width(self) -> int:
        """Output width of the channel MLP's first layer, input width of its
        second: hidden in prose mode, channels in literal mode."""
        return self.channels if self.channel_mlp == "literal" else self.hidden

    @cached_property
    def spatial_conv_spec(self) -> ConvSpec:
        return ConvSpec(
            in_channels=2,
            out_channels=1,
            kernel=self.spatial_kernel,
            stride=1,
            padding=(self.spatial_kernel - 1) // 2,
        )


@dataclass(frozen=True)
class FasterNetBlockSpec:
    """Residual block: partial conv, then a two-layer pointwise conv MLP."""

    pconv: PConvSpec
    expansion: float = 2.0
    activation: str = "mish"

    def __post_init__(self):
        # also false for NaN; an infinite ratio has no hidden width
        if not 0.0 < self.expansion < math.inf:
            raise ConfigError(f"expansion must be finite and > 0, got {self.expansion}")
        # built now, so that their weight checks run when the spec is made
        self.pw1_spec, self.pw2_spec

    @property
    def channels(self) -> int:
        return self.pconv.channels

    @property
    def hidden(self) -> int:
        return math.ceil(self.expansion * self.channels)

    @cached_property
    def pw1_spec(self) -> ConvSpec:
        return ConvSpec(self.channels, self.hidden, kernel=1)

    @cached_property
    def pw2_spec(self) -> ConvSpec:
        return ConvSpec(self.hidden, self.channels, kernel=1)


def he_normal(rng: np.random.Generator, shape, fan_in: int, dtype=np.float64) -> np.ndarray:
    """He-normal draw: standard normal scaled by sqrt(2 / fan_in)."""
    return (rng.standard_normal(shape) * math.sqrt(2.0 / fan_in)).astype(dtype)


# ---------------------------------------------------------------------------
# partial convolution
# ---------------------------------------------------------------------------

def pconv_forward(x: np.ndarray, weights: np.ndarray, spec: PConvSpec) -> np.ndarray:
    """Convolve channels [0, conv_channels); copy channels [conv_channels, c)
    through bit-identically. Spatial shape is preserved."""
    if x.shape[1] != spec.channels:
        raise ConfigError(f"input has {x.shape[1]} channels, spec expects {spec.channels}")
    cp = spec.conv_channels
    conv_out = conv2d_forward(x[:, :cp], weights, None, spec.conv_spec)
    if cp == spec.channels:
        return conv_out
    return np.concatenate([conv_out, x[:, cp:]], axis=1)


def pconv_backward(x: np.ndarray, weights: np.ndarray, spec: PConvSpec, upstream: np.ndarray):
    """Gradients w.r.t. input and kernel; pass-through channels carry the
    upstream gradient unchanged."""
    if upstream.shape != x.shape:
        raise ConfigError("upstream shape must match input (pconv preserves shape)")
    cp = spec.conv_channels
    gx_front, gw, _ = conv2d_backward(x[:, :cp], weights, spec.conv_spec, upstream[:, :cp])
    if cp == spec.channels:
        return gx_front, gw
    return np.concatenate([gx_front, upstream[:, cp:]], axis=1), gw


# ---------------------------------------------------------------------------
# FasterNet-style residual block
# ---------------------------------------------------------------------------

def fasternet_block_init(
    spec: FasterNetBlockSpec, rng: np.random.Generator, dtype=np.float64, prefix: str = ""
) -> dict[str, np.ndarray]:
    """He-normal kernels and zero biases, keyed ``prefix + "pconv.w"`` etc."""
    cp, k = spec.pconv.conv_channels, spec.pconv.kernel
    c, hid = spec.channels, spec.hidden
    return {
        prefix + "pconv.w": he_normal(rng, (cp, cp, k, k), cp * k * k, dtype),
        prefix + "pw1.w": he_normal(rng, (hid, c, 1, 1), c, dtype),
        prefix + "pw1.b": np.zeros(hid, dtype=dtype),
        prefix + "pw2.w": he_normal(rng, (c, hid, 1, 1), hid, dtype),
        prefix + "pw2.b": np.zeros(c, dtype=dtype),
    }


def fasternet_block_forward(x: np.ndarray, params, spec: FasterNetBlockSpec, prefix: str = ""):
    """x + PW2(act(PW1(pconv(x)))) with 1x1 convs PW1: c -> hidden, PW2 back.

    Returns (output, cache) for :func:`fasternet_block_backward`."""
    pc = pconv_forward(x, params[prefix + "pconv.w"], spec.pconv)
    z1 = conv2d_forward(pc, params[prefix + "pw1.w"], params[prefix + "pw1.b"], spec.pw1_spec)
    a1, act_cache = activation(z1, spec.activation)
    z2 = conv2d_forward(a1, params[prefix + "pw2.w"], params[prefix + "pw2.b"], spec.pw2_spec)
    return x + z2, (x, pc, act_cache, a1)


def fasternet_block_backward(
    cache, params, spec: FasterNetBlockSpec, upstream: np.ndarray, prefix: str = ""
):
    """Returns (input gradient, parameter gradients keyed like ``params``)."""
    x, pc, act_cache, a1 = cache
    if upstream.shape != x.shape:
        raise ConfigError("upstream shape must match input (block preserves shape)")
    g_a1, g_pw2w, g_pw2b = conv2d_backward(a1, params[prefix + "pw2.w"], spec.pw2_spec, upstream)
    g_z1 = activation_backward(act_cache, spec.activation, g_a1)
    g_pc, g_pw1w, g_pw1b = conv2d_backward(pc, params[prefix + "pw1.w"], spec.pw1_spec, g_z1)
    g_x_branch, g_pconvw = pconv_backward(x, params[prefix + "pconv.w"], spec.pconv, g_pc)
    grads = {
        prefix + "pconv.w": g_pconvw,
        prefix + "pw1.w": g_pw1w,
        prefix + "pw1.b": g_pw1b,
        prefix + "pw2.w": g_pw2w,
        prefix + "pw2.b": g_pw2b,
    }
    return upstream + g_x_branch, grads


# ---------------------------------------------------------------------------
# channel attention
# ---------------------------------------------------------------------------

def _check_channel_dims(spec: CBAMSpec, w1, b1, w2, b2) -> None:
    """The trailing shapes; a leading axis of groups is left to the ops."""
    c, d = spec.channels, spec.mlp_width
    want1, want2 = (d, c), (c, d)
    if w1.shape[-2:] != want1 or b1.shape[-1:] != (want1[0],):
        raise ConfigError(f"first layer wants W1 {want1}, b1 ({want1[0]},)")
    if w2.shape[-2:] != want2 or b2.shape[-1:] != (want2[0],):
        raise ConfigError(f"second layer wants W2 {want2}, b2 ({want2[0]},)")


def channel_attention(x: np.ndarray, params, spec: CBAMSpec, prefix: str = ""):
    """Per-channel gates from the pooled input. Returns (gated feature map,
    cache for :func:`channel_attention_backward`); the cache holds the (n, c)
    gate at index 1. Gates depend on x only through its per-channel means."""
    w1, b1, w2, b2 = (params[prefix + k] for k in ("fc1.w", "fc1.b", "fc2.w", "fc2.b"))
    if x.shape[1] != spec.channels:
        raise ConfigError(f"input has {x.shape[1]} channels, spec expects {spec.channels}")
    _check_channel_dims(spec, w1, b1, w2, b2)
    gap = global_pool(x, "avg")[:, :, 0, 0]
    z1 = fully_connected(gap, w1, b1)
    v1 = relu(z1)
    if spec.channel_mlp == "prose":
        z2 = v2 = None
        z = fully_connected(v1, w2, b2)
    else:
        z2 = fully_connected(gap, w2, b2)
        v2 = relu(z2)
        # (W1 v1 + b1) + W2 v2 + b2: a second fully_connected would add b2 first
        z = _grouped(lambda a, v, w, b: a + np.matmul(v, w.transpose(0, 2, 1)) + b[:, None],
                     (fully_connected(v1, w1, b1), v2), ((w2, 2), (b2, 1)))
    gate = sigmoid(z)
    return gate[:, :, None, None] * x, (x, gate, gap, z1, v1, z2, v2)


def channel_attention_backward(cache, params, spec: CBAMSpec, upstream: np.ndarray,
                               prefix: str = "", input_grad: bool = True):
    """Returns (input gradient, gradients of ``fc1``/``fc2`` keyed like
    ``params``); the input gradient is None when ``input_grad`` is false."""
    x, gate, gap, z1, v1, z2, v2 = cache
    if upstream.shape != x.shape:
        raise ConfigError("upstream shape must match input")
    w1, w2 = params[prefix + "fc1.w"], params[prefix + "fc2.w"]
    d_gate = (upstream * x).sum(axis=(2, 3))
    dz = d_gate * gate * (1.0 - gate)
    if spec.channel_mlp == "prose":
        dv1, gw2, gb2 = fully_connected_backward(v1, w2, dz)
        d_gap, gw1, gb1 = fully_connected_backward(gap, w1, dv1 * relu_grad(z1), input_grad)
    else:
        # W1/b1 and W2/b2 each appear twice: inside their relu branch and in
        # the output combination, so the gradients accumulate across both uses.
        dv1, gw1, gb1 = fully_connected_backward(v1, w1, dz)
        dv2, gw2, gb2 = fully_connected_backward(v2, w2, dz)
        d_gap1, gw1_in, gb1_in = fully_connected_backward(gap, w1, dv1 * relu_grad(z1), input_grad)
        d_gap2, gw2_in, gb2_in = fully_connected_backward(gap, w2, dv2 * relu_grad(z2), input_grad)
        gw1, gb1, gw2, gb2 = gw1 + gw1_in, gb1 + gb1_in, gw2 + gw2_in, gb2 + gb2_in
        d_gap = d_gap1 + d_gap2 if input_grad else None
    grads = {prefix + "fc1.w": gw1, prefix + "fc1.b": gb1, prefix + "fc2.w": gw2, prefix + "fc2.b": gb2}
    if not input_grad:
        return None, grads
    grad_x = upstream * gate[:, :, None, None]
    return grad_x + global_pool_backward(x, "avg", d_gap[:, :, None, None]), grads


# ---------------------------------------------------------------------------
# spatial attention
# ---------------------------------------------------------------------------

def spatial_attention(x: np.ndarray, params, spec: CBAMSpec, prefix: str = ""):
    """Per-position gates from channel max/mean statistics. Returns (gated
    feature map, cache for :func:`spatial_attention_backward`); the cache
    holds the (n, 1, h, w) gate at index 2."""
    stats = spatial_stats(x)
    z = conv2d_forward(stats, params[prefix + "spatial.w"], params[prefix + "spatial.b"],
                       spec.spatial_conv_spec)
    m_s = sigmoid(z)
    return m_s * x, (x, stats, m_s)


def spatial_attention_backward(cache, params, spec: CBAMSpec, upstream: np.ndarray,
                               prefix: str = "", input_grad: bool = True):
    """Returns (input gradient, gradients of ``spatial`` keyed like
    ``params``); the input gradient is None when ``input_grad`` is false."""
    x, stats, m_s = cache
    if upstream.shape != x.shape:
        raise ConfigError("upstream shape must match input")
    d_ms = (upstream * x).sum(axis=1, keepdims=True)
    dz = d_ms * m_s * (1.0 - m_s)
    d_stats, gw, gb = conv2d_backward(stats, params[prefix + "spatial.w"], spec.spatial_conv_spec,
                                      dz, input_grad)
    grads = {prefix + "spatial.w": gw, prefix + "spatial.b": gb}
    if not input_grad:
        return None, grads
    return upstream * m_s + spatial_stats_backward(x, d_stats), grads


# ---------------------------------------------------------------------------
# full block
# ---------------------------------------------------------------------------

def cbam_init(
    spec: CBAMSpec, rng: np.random.Generator, dtype=np.float64, prefix: str = ""
) -> dict[str, np.ndarray]:
    """He-normal weights and zero biases, keyed ``prefix + "fc1.w"`` etc."""
    c, d1, k = spec.channels, spec.mlp_width, spec.spatial_kernel
    return {
        prefix + "fc1.w": he_normal(rng, (d1, c), c, dtype),
        prefix + "fc1.b": np.zeros(d1, dtype=dtype),
        prefix + "fc2.w": he_normal(rng, (c, d1), d1, dtype),
        prefix + "fc2.b": np.zeros(c, dtype=dtype),
        prefix + "spatial.w": he_normal(rng, (1, 2, k, k), 2 * k * k, dtype),
        prefix + "spatial.b": np.zeros(1, dtype=dtype),
    }


def cbam_forward(x: np.ndarray, params, spec: CBAMSpec, prefix: str = ""):
    """Apply both attention gates; returns (output, cache for :func:`cbam_backward`).

    sequential: spatial attention consumes the channel-gated map.
    literal: both gates consume x and the two gated maps are multiplied,
    so the result carries x twice.
    """
    f_c, c_cache = channel_attention(x, params, spec, prefix)
    if spec.composition == "sequential":
        f_s, s_cache = spatial_attention(f_c, params, spec, prefix)
        return f_s, (x, c_cache, s_cache, None, None)
    f_s, s_cache = spatial_attention(x, params, spec, prefix)
    return f_c * f_s, (x, c_cache, s_cache, f_c, f_s)


def cbam_backward(cache, params, spec: CBAMSpec, upstream: np.ndarray, prefix: str = "",
                  input_grad: bool = True):
    """Returns (input gradient, parameter gradients keyed like ``params``); the
    input gradient is None when ``input_grad`` is false. The sequential
    composition still takes the spatial half's input gradient, which feeds
    the channel gate's parameters."""
    x, c_cache, s_cache, f_c, f_s = cache
    if upstream.shape != x.shape:
        raise ConfigError("upstream shape must match input (cbam preserves shape)")
    if spec.composition == "sequential":
        g_fc, g_spatial = spatial_attention_backward(s_cache, params, spec, upstream, prefix)
        grad_x, g_channel = channel_attention_backward(c_cache, params, spec, g_fc, prefix,
                                                       input_grad)
    else:
        gx_c, g_channel = channel_attention_backward(c_cache, params, spec, upstream * f_s,
                                                     prefix, input_grad)
        gx_s, g_spatial = spatial_attention_backward(s_cache, params, spec, upstream * f_c,
                                                     prefix, input_grad)
        grad_x = gx_c + gx_s if input_grad else None
    return grad_x, {**g_channel, **g_spatial}
