"""A small fixed single-scale detector that exercises every operator.

Topology: patchify stem (kernel = stride = overall stride, so the whole net
runs on one grid), two partial-convolution residual blocks, pyramid max
pooling, one CBAM attention block, then a pointwise prediction head emitting
[tx, ty, tw, th, objectness, class logits] per cell.

Every value is a bare ndarray, as in :mod:`detkit.ops` and
:mod:`detkit.blocks`: ``net_forward`` takes the input image batch and returns
the head, ``net_backward`` takes the head gradient. Each reads its array
argument through ``np.asarray``, so an image ``Tensor`` passes as its data.
The head is the one value the model scans for NaN and Inf, by name; the
images were scanned where they were read or generated.

The freeze boundary is the neck, the SPP output: the stem and both blocks
below it form the backbone, CBAM and the head above it train in every phase.
``net_forward(..., freeze_backbone=True)`` keeps no backbone cache, and
``net_forward(..., neck=...)`` starts from a neck computed earlier; either
way ``net_backward`` then stops at the neck, where ``cbam_backward``
computes no input gradient, and returns only the ``cbam.*`` and ``head.*``
gradients, so what trains is decided by what it returns.

``ToyNetSpec`` is the one description of sizes and options; its layer specs
are cached properties, built on first use and not on every call. The
trainer and the CLI read the image size and class count from it, and
``postprocess.decode`` takes only its ``stride``, reading the grid and the
class count from the head it decodes. The layer
sequence itself is written out in three places: ``init_params`` (the flat
``<layer>.<param>`` store, whose order is the ``.dkw`` manifest order),
``net_forward``/``net_backward`` (the call order) and ``cost_layers`` (the
cost model's rows). ``cost_layers`` restates no size: it prices every
convolution with ``cost.conv_cost`` on the ``ConvSpec`` the forward passes
to ``conv2d_forward`` (``stem_spec``, the block's ``pconv.conv_spec``
without a bias, ``pw1_spec``, ``pw2_spec``, the CBAM
``spatial_conv_spec`` and ``head_spec``), and the CBAM MLP on
``cbam_spec``. Tests hold them together: every parameter prefix names a
cost layer, a golden digest pins the initial manifest, a call-order test
pins the layer calls, and a recorded forward checks that the conv rows
price exactly the convolutions it runs. At ``cp_fraction = 1.0`` the
partial convolution covers every channel and is a bias-free full
convolution: that spec is the full-conv twin ``detkit bench`` prices, and
it runs like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .blocks import (
    CBAMSpec,
    FasterNetBlockSpec,
    PConvSpec,
    cbam_backward,
    cbam_forward,
    cbam_init,
    fasternet_block_backward,
    fasternet_block_forward,
    fasternet_block_init,
    he_normal,
)
from .cost import LayerCost, conv_cost, spp_cost
from .ops import (ConvSpec, activation, activation_backward, check_activation, check_pool_windows,
                  conv2d_backward, conv2d_forward, spp, spp_backward)
from .tensor import MAX_ELEMENTS, ConfigError, _require_finite


# The config key of each layer-spec field whose name differs from it.
_SPEC_FIELD_KEYS = {"kernel": "pconv_kernel", "reduction": "cbam_reduction",
                    "spatial_kernel": "cbam_spatial_kernel",
                    "composition": "cbam_composition", "channel_mlp": "cbam_channel_mlp"}


@dataclass(frozen=True)
class ToyNetSpec:
    image_size: int = 64
    in_channels: int = 1
    stem_channels: int = 40
    num_classes: int = 3
    stride: int = 8
    cp_fraction: float = 0.25
    pconv_kernel: int = 3
    expansion: float = 2.0
    spp_windows: tuple[int, ...] = (3, 5)
    cbam_reduction: int = 4
    cbam_spatial_kernel: int = 1
    cbam_composition: str = "sequential"
    cbam_channel_mlp: str = "prose"
    activation: str = "mish"

    def __post_init__(self):
        for name in ("image_size", "in_channels", "num_classes", "stride"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image_size % self.stride != 0:
            raise ConfigError("image_size must be a multiple of stride")
        if self.image_size ** 2 > MAX_ELEMENTS:
            raise ConfigError(f"image_size {self.image_size} is too large to allocate")
        if not 0.0 < self.cp_fraction <= 1.0:
            raise ConfigError("cp_fraction must be in (0, 1]")
        if self.stem_channels < 4:
            raise ConfigError(f"stem_channels must be >= 4, got {self.stem_channels}")
        for name, check in (("spp_windows", check_pool_windows), ("activation", check_activation)):
            try:
                check(getattr(self, name))
            except ConfigError as exc:
                raise ConfigError(f"{name}: {exc}") from None
        # The layer specs check what they own: expansion, the odd kernels,
        # reduction, the CBAM modes and each ConvSpec's weight size. A field's
        # message starts with the field, which names its config key here; a
        # weight's is named by its layer. The stem goes first, since
        # conv_channels rounds stem_channels as a float.
        for layer in ("stem", "block", "cbam", "head"):
            try:
                getattr(self, f"{layer}_spec")
            except ConfigError as exc:
                first = str(exc).split()[0]
                key = layer if first == "weight" else _SPEC_FIELD_KEYS.get(first)
                raise (ConfigError(f"{key}: {exc}") if key else exc) from None

    @property
    def grid(self) -> int:
        return self.image_size // self.stride

    @property
    def conv_channels(self) -> int:
        return max(1, round(self.cp_fraction * self.stem_channels))

    @property
    def neck_channels(self) -> int:
        return self.stem_channels * (1 + len(self.spp_windows))

    @property
    def head_channels(self) -> int:
        return 5 + self.num_classes

    @cached_property
    def stem_spec(self) -> ConvSpec:
        return ConvSpec(self.in_channels, self.stem_channels, kernel=self.stride,
                        stride=self.stride, padding=0)

    @cached_property
    def block_spec(self) -> FasterNetBlockSpec:
        return FasterNetBlockSpec(
            pconv=PConvSpec(self.stem_channels, self.conv_channels, self.pconv_kernel),
            expansion=self.expansion,
            activation=self.activation,
        )

    @cached_property
    def cbam_spec(self) -> CBAMSpec:
        return CBAMSpec(
            channels=self.neck_channels,
            reduction=self.cbam_reduction,
            spatial_kernel=self.cbam_spatial_kernel,
            composition=self.cbam_composition,
            channel_mlp=self.cbam_channel_mlp,
        )

    @cached_property
    def head_spec(self) -> ConvSpec:
        return ConvSpec(self.neck_channels, self.head_channels, kernel=1)


def init_params(spec: ToyNetSpec, rng: np.random.Generator, dtype=np.float64) -> dict[str, np.ndarray]:
    """Fresh parameter store in manifest order. Head biases start with small
    objectness prior (sigmoid(-2)) and a size prior of 2.5 cells so early boxes
    are plausible."""
    st, hd = spec.stem_spec, spec.head_spec
    size_prior = math.log(2.5)
    return {
        "stem.w": he_normal(rng, (st.out_channels, st.in_channels, st.kernel, st.kernel),
                            st.in_channels * st.kernel**2, dtype),
        "stem.b": np.zeros(st.out_channels, dtype=dtype),
        **fasternet_block_init(spec.block_spec, rng, dtype, "block1."),
        **fasternet_block_init(spec.block_spec, rng, dtype, "block2."),
        **cbam_init(spec.cbam_spec, rng, dtype, "cbam."),
        "head.w": he_normal(rng, (hd.out_channels, hd.in_channels, 1, 1), hd.in_channels, dtype) * 0.1,
        "head.b": np.array([0.0, 0.0, size_prior, size_prior, -2.0] + [0.0] * spec.num_classes,
                           dtype=dtype),
    }


class NetCache(NamedTuple):
    """What ``net_backward`` needs from ``net_forward``. ``backbone`` holds the
    input, the stem and block caches and the SPP input; it is None when the
    backbone is frozen, and the backward then stops at ``neck``."""

    backbone: tuple | None
    neck: np.ndarray
    cbam: tuple
    att: np.ndarray


def net_forward(params: dict[str, np.ndarray], spec: ToyNetSpec, x: np.ndarray | None = None,
                neck: np.ndarray | None = None, freeze_backbone: bool = False):
    """Run the detector on the (n, in_channels, image_size, image_size) batch
    x; returns (head (n, 5+K, g, g), NetCache), or raises
    NonFiniteError("non-finite head").

    With ``neck``, the SPP output (n, neck_channels, g, g) of a frozen
    backbone, the backbone is not run and ``x`` is not used. With
    ``freeze_backbone`` the backbone runs but its caches are not kept.
    Either way the cache has no backbone part."""
    backbone = None
    if neck is None:
        x = np.asarray(x)
        if x.shape[1:] != (spec.in_channels, spec.image_size, spec.image_size):
            raise ConfigError(
                f"input shape {x.shape} does not match ({spec.in_channels}, "
                f"{spec.image_size}, {spec.image_size})"
            )
        stem_z = conv2d_forward(x, params["stem.w"], params["stem.b"], spec.stem_spec)
        stem_a, stem_act_cache = activation(stem_z, spec.activation)
        b1, b1_cache = fasternet_block_forward(stem_a, params, spec.block_spec, "block1.")
        b2, b2_cache = fasternet_block_forward(b1, params, spec.block_spec, "block2.")
        neck = spp(b2, spec.spp_windows)
        if not freeze_backbone:
            backbone = (x, stem_act_cache, b1_cache, b2_cache, b2)
    att, cbam_cache = cbam_forward(neck, params, spec.cbam_spec, "cbam.")
    head = conv2d_forward(att, params["head.w"], params["head.b"], spec.head_spec)
    _require_finite("head", head)
    return head, NetCache(backbone, neck, cbam_cache, att)


def net_backward(params: dict[str, np.ndarray], spec: ToyNetSpec, cache: NetCache, upstream: np.ndarray):
    """Gradients of <upstream, head>, keyed and ordered like params: every
    parameter's, or, when the cache has no backbone part, only those of
    ``cbam.*`` and ``head.*``."""
    upstream = np.asarray(upstream)
    g_att, g_headw, g_headb = conv2d_backward(cache.att, params["head.w"], spec.head_spec, upstream)
    g_neck, g_cbam = cbam_backward(cache.cbam, params, spec.cbam_spec, g_att, "cbam.",
                                   input_grad=cache.backbone is not None)
    head_grads = {**g_cbam, "head.w": g_headw, "head.b": g_headb}
    if cache.backbone is None:
        return head_grads
    x, stem_act_cache, b1_cache, b2_cache, b2 = cache.backbone
    g_b2 = spp_backward(b2, spec.spp_windows, g_neck)
    g_b1, g_block2 = fasternet_block_backward(b2_cache, params, spec.block_spec, g_b2, "block2.")
    g_stem_a, g_block1 = fasternet_block_backward(b1_cache, params, spec.block_spec, g_b1, "block1.")
    g_stem_z = activation_backward(stem_act_cache, spec.activation, g_stem_a)
    _, g_stemw, g_stemb = conv2d_backward(x, params["stem.w"], spec.stem_spec, g_stem_z,
                                          input_grad=False)
    return {"stem.w": g_stemw, "stem.b": g_stemb, **g_block1, **g_block2, **head_grads}


def cost_layers(spec: ToyNetSpec) -> list[LayerCost]:
    """Cost rows of one image's pass, in call order, each priced on the spec
    the forward runs that layer with."""
    g = spec.grid
    block, cb = spec.block_spec, spec.cbam_spec
    layers = [conv_cost(spec.stem_spec, spec.image_size, spec.image_size, name="stem")]
    for name in ("block1", "block2"):
        layers += [conv_cost(block.pconv.conv_spec, g, g, bias=False, name=f"{name}.pconv"),
                   conv_cost(block.pw1_spec, g, g, name=f"{name}.pw1"),
                   conv_cost(block.pw2_spec, g, g, name=f"{name}.pw2")]
    return layers + [
        spp_cost(g, g, spec.stem_channels, len(spec.spp_windows), name="spp"),
        conv_cost(ConvSpec(cb.channels, cb.mlp_width, kernel=1), 1, 1, name="cbam.fc1"),
        conv_cost(ConvSpec(cb.mlp_width, cb.channels, kernel=1), 1, 1, name="cbam.fc2"),
        conv_cost(cb.spatial_conv_spec, g, g, name="cbam.spatial"),
        conv_cost(spec.head_spec, g, g, name="head"),
    ]
