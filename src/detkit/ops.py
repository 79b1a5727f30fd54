"""Forward and hand-derived backward passes for the core operators.

Conventions shared by every operator here:

* feature maps, weights and gradients are bare ndarrays, feature maps in
  (n, c, h, w) layout;
* zero padding only, square kernels, identical stride in both axes;
* conv output size is floor((in - k + 2p) / s) + 1 per spatial axis;
* a forward returns its output, and its backward takes the forward's
  arguments followed by ``upstream`` and computes the gradients of the
  scalar sum <upstream, output> with respect to each argument. The argmax
  that routes a max gradient and each pool window's winners are found in
  the backward, the one caller that reads them. ``activation`` alone also
  returns a cache, so that its backward reuses what the forward evaluated:
  the sigmoid output, mish's exp(-|x|) and tanh(softplus(x));
* convolution runs as one matrix product over im2col windows. The columns
  are one ``np.take`` of the padded map along a flat window index, built
  once per (padded size, kernel, stride) and kept in a bounded cache;
  when kernel equals stride they are a reshape. Pooling is a separable
  row-then-column max; SPP cascades its pools as YOLOv8's SPPF does, pool 5
  being pool 3 of pool 3;
* ``conv2d_forward`` and ``fully_connected`` take a parameter with one extra
  leading axis of G groups: a conv weight (G, o, c, k, k) or bias (G, o), an
  FC weight (G, out, in) or bias (G, out). The batch is then G equal,
  consecutive slices, slice g uses parameter g, and its matrix product is
  the one an ungrouped call on the slice makes. Only ``gradcheck`` passes
  groups, the perturbed copies of one parameter in one forward; the
  backwards take ungrouped parameters and reject grouped ones.

Max reductions (pooling, per-position channel max) break ties by the first
candidate in scan order, which keeps backward deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import MAX_ELEMENTS, ConfigError


@dataclass(frozen=True)
class ConvSpec:
    """Square-kernel 2-D convolution configuration."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0

    def __post_init__(self):
        if self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("channel counts must be >= 1")
        if self.kernel < 1:
            raise ConfigError("kernel size must be >= 1")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.padding < 0:
            raise ConfigError("padding must be >= 0")
        if self.out_channels * self.in_channels * self.kernel ** 2 > MAX_ELEMENTS:
            raise ConfigError(f"weight ({self.out_channels}, {self.in_channels}, {self.kernel}, "
                              f"{self.kernel}) is too large to allocate")

    def out_size(self, in_size: int) -> int:
        out = (in_size - self.kernel + 2 * self.padding) // self.stride + 1
        if out < 1:
            raise ConfigError(
                f"conv output size {out} < 1 for in={in_size}, k={self.kernel}, "
                f"p={self.padding}, s={self.stride}"
            )
        return out


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _check_conv_args(x: np.ndarray, w: np.ndarray, b, spec: ConvSpec) -> None:
    """The trailing shapes of w and b; a leading axis of groups is left to
    :func:`_grouped`."""
    if x.shape[1] != spec.in_channels:
        raise ConfigError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    if w.ndim not in (4, 5) or w.shape[-4:] != (spec.out_channels, spec.in_channels,
                                                 spec.kernel, spec.kernel):
        raise ConfigError(
            f"weights shape {w.shape} does not match spec "
            f"({spec.out_channels}, {spec.in_channels}, {spec.kernel}, {spec.kernel})"
        )
    if b is not None and (np.ndim(b) not in (1, 2) or np.shape(b)[-1:] != (spec.out_channels,)):
        raise ConfigError(f"bias length must be {spec.out_channels}")


def _grouped(fn, batches: tuple, params: tuple) -> np.ndarray:
    """fn(*batch groups, *parameter groups) on the G groups of a call, with
    the batch axis of its (G, n // G, ...) result restored.

    ``params`` pairs each parameter with its rank. One with an extra leading
    axis holds G groups, and group g of each batch array is the g-th of G
    equal, consecutive slices of its batch. An ungrouped parameter is one
    group, which broadcasts over every group; with none grouped the whole
    batch is the one group. So each group's matrix product is the one that
    an ungrouped call on its slice makes, bit for bit."""
    counts = {p.shape[0] for p, rank in params if p.ndim > rank}
    groups = max(counts, default=1)
    n = batches[0].shape[0]
    if len(counts) > 1 or groups < 1 or n % groups:
        raise ConfigError(f"parameter groups {sorted(counts)} do not divide a batch of {n}")
    out = fn(*(v.reshape(groups, -1, *v.shape[1:]) for v in batches),
             *(p if p.ndim > rank else p[None] for p, rank in params))
    return out.reshape(n, *out.shape[2:])


def _pad(x: np.ndarray, p: int, value: float = 0.0) -> np.ndarray:
    """x with a border of p entries equal to value on both spatial axes."""
    if p == 0:
        return x
    n, c, h, w = x.shape
    shape = (n, c, h + 2 * p, w + 2 * p)
    out = np.zeros(shape, dtype=x.dtype) if value == 0.0 else np.full(shape, value, dtype=x.dtype)
    out[:, :, p:p + h, p:p + w] = x
    return out


@lru_cache(maxsize=128)
def _window_index(hp: int, wp: int, k: int, s: int) -> np.ndarray:
    """Flat offsets into an hp x wp map of every k x k window at stride s,
    ordered (ki, kj, i, j): tap (ki, kj) of output position (i, j) is
    (s * i + ki) * wp + s * j + kj. Read-only: the cache shares it."""
    h_out, w_out = (hp - k) // s + 1, (wp - k) // s + 1
    ki, kj = np.arange(k)[:, None, None, None], np.arange(k)[:, None, None]
    i, j = np.arange(h_out)[:, None], np.arange(w_out)
    index = ((s * i + ki) * wp + s * j + kj).ravel()
    index.flags.writeable = False
    return index


def _columns(xp: np.ndarray, k: int, s: int) -> np.ndarray:
    """im2col: every k x k window of xp at stride s, as (n, c*k*k, h_out*w_out).

    When kernel equals stride the windows tile the input, so the columns are
    an exact reshape (free for a 1x1 kernel); otherwise one ``np.take``
    gathers them from each channel's flattened map through the cached
    :func:`_window_index`."""
    n, c, hp, wp = xp.shape
    h_out, w_out = (hp - k) // s + 1, (wp - k) // s + 1
    if k == s:
        tiles = xp[:, :, :h_out * k, :w_out * k].reshape(n, c, h_out, k, w_out, k)
        return tiles.transpose(0, 1, 3, 5, 2, 4).reshape(n, c * k * k, h_out * w_out)
    cols = np.take(xp.reshape(n, c, hp * wp), _window_index(hp, wp, k, s), axis=2)
    return cols.reshape(n, c * k * k, h_out * w_out)


def _conv_groups(cols: np.ndarray, wg: np.ndarray, *bg: np.ndarray) -> np.ndarray:
    """The kernel times each sample's im2col columns, plus the bias if
    given, on each group of :func:`_grouped`."""
    out = np.matmul(wg.reshape(len(wg), 1, wg.shape[1], -1), cols)
    if bg:
        out += bg[0][:, None, :, None]
    return out


def conv2d_forward(x: np.ndarray, w: np.ndarray, b, spec: ConvSpec) -> np.ndarray:
    """Cross-correlate x with w and add bias.

    Each output element is the dot product of the kernel with the
    zero-padded input window plus the bias for that output channel,
    computed as one matrix product of the kernel with each sample's im2col
    columns. A weight (G, o, c, k, k) or bias (G, o) holds G groups (see
    :func:`_grouped`).
    """
    _check_conv_args(x, w, b, spec)
    k, s, p = spec.kernel, spec.stride, spec.padding
    h_out, w_out = spec.out_size(x.shape[2]), spec.out_size(x.shape[3])
    params = ((w, 4),) if b is None else ((w, 4), (np.asarray(b, dtype=x.dtype), 1))
    out = _grouped(_conv_groups, (_columns(_pad(x, p), k, s),), params)
    return out.reshape(x.shape[0], spec.out_channels, h_out, w_out)


def conv2d_backward(x: np.ndarray, w: np.ndarray, spec: ConvSpec, upstream: np.ndarray,
                    input_grad: bool = True):
    """Gradients of <upstream, conv2d_forward(x, w, b)> w.r.t. x, w and b; the
    first is None when ``input_grad`` is false (x is the network input).

    The input gradient is the transposed convolution: with non-overlapping
    windows (kernel = stride) it is the kernel applied to upstream and
    reshaped back into tiles; otherwise it is a stride-1 correlation of the
    stride-dilated, (k-1)-padded upstream with the flipped kernel."""
    if w.ndim != 4:
        raise ConfigError(f"the backward takes one (o, c, k, k) weight, not {w.shape}")
    _check_conv_args(x, w, None, spec)
    k, s, p = spec.kernel, spec.stride, spec.padding
    n, c, o = x.shape[0], spec.in_channels, spec.out_channels
    h, w_in = x.shape[2:]
    h_out, w_out = spec.out_size(h), spec.out_size(w_in)
    if upstream.shape != (n, o, h_out, w_out):
        raise ConfigError(
            f"upstream shape {upstream.shape} does not match forward output "
            f"({n}, {o}, {h_out}, {w_out})"
        )
    up = upstream.reshape(n, o, h_out * w_out)
    xp = _pad(x, p)
    grad_w = np.tensordot(up, _columns(xp, k, s), axes=([0, 2], [0, 2])).reshape(w.shape)
    grad_b = up.sum(axis=(0, 2))
    if not input_grad:
        return None, grad_w, grad_b
    if k == s:
        tiles = np.matmul(w.reshape(o, -1).T, up).reshape(n, c, k, k, h_out, w_out)
        covered = tiles.transpose(0, 1, 4, 2, 5, 3).reshape(n, c, h_out * k, w_out * k)
    else:
        span_h, span_w = s * (h_out - 1) + 1, s * (w_out - 1) + 1
        dilated = np.zeros((n, o, span_h + 2 * (k - 1), span_w + 2 * (k - 1)), dtype=up.dtype)
        dilated[:, :, k - 1:k - 1 + span_h:s, k - 1:k - 1 + span_w:s] = upstream
        flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
        covered = np.matmul(flipped, _columns(dilated, k, 1))
        covered = covered.reshape(n, c, span_h + k - 1, span_w + k - 1)
    if covered.shape == xp.shape:
        grad_xp = covered
    else:  # rows and columns past the last window get no gradient
        grad_xp = np.zeros_like(xp)
        grad_xp[:, :, :covered.shape[2], :covered.shape[3]] = covered
    return grad_xp[:, :, p:p + h, p:p + w_in], grad_w, grad_b


# ---------------------------------------------------------------------------
# pooling and channel statistics
# ---------------------------------------------------------------------------

def global_pool(x: np.ndarray, kind: str) -> np.ndarray:
    """Per-channel mean or max over all spatial positions, output (n, c, 1, 1)."""
    if x.shape[2] * x.shape[3] < 1:
        raise ConfigError("global pool needs a non-empty spatial extent")
    if kind == "avg":  # np.mean's sum and divide, without its Python wrapper
        return np.add.reduce(x, axis=(2, 3), keepdims=True) / (x.shape[2] * x.shape[3])
    if kind == "max":
        return x.max(axis=(2, 3), keepdims=True)
    raise ConfigError(f"unknown pool kind {kind!r} (want 'avg' or 'max')")


def global_pool_backward(x: np.ndarray, kind: str, upstream: np.ndarray) -> np.ndarray:
    """Gradient of <upstream, global_pool(x, kind)>, shape of x. For "avg" it
    is a read-only broadcast view of upstream / (h * w): callers add it."""
    n, c, h, w = x.shape
    if upstream.shape != (n, c, 1, 1):
        raise ConfigError("upstream must have shape (n, c, 1, 1)")
    if kind == "avg":
        return np.broadcast_to(upstream / (h * w), x.shape)
    if kind == "max":
        flat = x.reshape(n, c, -1)
        gflat = np.zeros_like(flat)
        np.put_along_axis(gflat, flat.argmax(axis=2)[:, :, None], upstream.reshape(n, c, 1), axis=2)
        return gflat.reshape(x.shape)
    raise ConfigError(f"unknown pool kind {kind!r}")


def spatial_stats(x: np.ndarray) -> np.ndarray:
    """Per-position channel statistics: channel 0 is the max over channels,
    channel 1 the mean. Output shape (n, 2, h, w)."""
    if x.shape[1] < 1:
        raise ConfigError("need at least one channel")
    mx = x.max(axis=1, keepdims=True)
    mean = np.add.reduce(x, axis=1, keepdims=True) / x.shape[1]
    return np.concatenate([mx, mean], axis=1)


def spatial_stats_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of <upstream, spatial_stats(x)>: the max channel's share goes
    to each position's first maximal channel."""
    n, c, h, w = x.shape
    if upstream.shape != (n, 2, h, w):
        raise ConfigError("upstream must have shape (n, 2, h, w)")
    arg = x.argmax(axis=1)
    grad = np.zeros_like(x)
    np.put_along_axis(grad, arg[:, None], upstream[:, 0:1], axis=1)
    grad += upstream[:, 1:2] / c
    return grad


def _maxpool_same(x: np.ndarray, window: int):
    """Stride-1 shape-preserving max pool; returns the pooled map and the flat
    window offset ``di * window + dj`` of each winner, which
    :func:`spp_backward` routes its gradient to.

    Separable: the max over each row window, then over each column window of
    those row maxima. The winner is the first maximum in row-major scan order
    of the window: the column pass keeps the smallest row offset holding the
    maximum and the row pass, within that row, the smallest column offset.
    Offsets are scanned in increasing order and a later one takes over only
    when strictly larger, so its offset exceeds every earlier one and a
    running ``maximum`` records it."""
    p = (window - 1) // 2
    h, w = x.shape[2:]
    xp = _pad(x, p, -np.inf)
    row_max = xp[:, :, :, 0:w].copy()
    row_arg = np.zeros(row_max.shape, dtype=np.intp)
    for dj in range(1, window):
        sl = xp[:, :, :, dj:dj + w]
        np.maximum(row_arg, (sl > row_max) * dj, out=row_arg)
        np.maximum(row_max, sl, out=row_max)
    pooled = row_max[:, :, 0:h].copy()
    arg = row_arg[:, :, 0:h].copy()
    for di in range(1, window):
        sl = row_max[:, :, di:di + h]
        np.maximum(arg, (sl > pooled) * (row_arg[:, :, di:di + h] + di * window), out=arg)
        np.maximum(pooled, sl, out=pooled)
    return pooled, arg


def _maxpool_same_backward(arg: np.ndarray, window: int, upstream: np.ndarray) -> np.ndarray:
    """Route each upstream entry to its recorded winner; shape of the input."""
    p = (window - 1) // 2
    w = upstream.shape[3]
    di, dj = np.divmod(arg, window)
    target = np.arange(upstream.size).reshape(upstream.shape) + (di - p) * w + (dj - p)
    grad = np.bincount(target.ravel(), weights=upstream.ravel(), minlength=upstream.size)
    return grad.reshape(upstream.shape).astype(upstream.dtype, copy=False)


def check_pool_windows(pool_windows) -> list[int]:
    """The windows as a list; each must be odd and >= 1."""
    windows = list(pool_windows)
    for wsz in windows:
        if wsz % 2 == 0:
            raise ConfigError(f"pool window {wsz} must be odd")
        if wsz < 1:
            raise ConfigError("pool window must be >= 1")
    return windows


def _maxpool_values(x: np.ndarray, window: int) -> np.ndarray:
    """The pooled map of :func:`_maxpool_same` without the winners: a
    separable row-then-column running ``maximum``. Window 1 is x itself."""
    if window == 1:
        return x
    p = (window - 1) // 2
    h, w = x.shape[2:]
    xp = _pad(x, p, -np.inf)
    row_max = np.maximum(xp[:, :, :, 0:w], xp[:, :, :, 1:1 + w])
    for dj in range(2, window):
        np.maximum(row_max, xp[:, :, :, dj:dj + w], out=row_max)
    pooled = np.maximum(row_max[:, :, 0:h], row_max[:, :, 1:1 + h])
    for di in range(2, window):
        np.maximum(pooled, row_max[:, :, di:di + h], out=pooled)
    return pooled


def spp(x: np.ndarray, pool_windows) -> np.ndarray:
    """Pyramid pooling: concatenate x with one shape-preserving max pool per
    window size. Output channels = c * (1 + len(pool_windows)).

    Pools cascade as in YOLOv8's SPPF: a window b that follows a window
    a <= b is the (b - a + 1) pool of pool a, which covers the same
    -inf-padded b x b window, and a smaller window pools x itself. Max is
    exact, so the values are those of pooling x directly."""
    windows = check_pool_windows(pool_windows)
    parts = [x]
    prev, prev_wsz = x, 1
    for wsz in windows:
        if wsz >= prev_wsz:
            prev = _maxpool_values(prev, wsz - prev_wsz + 1)
        else:
            prev = _maxpool_values(x, wsz)
        prev_wsz = wsz
        parts.append(prev)
    return np.concatenate(parts, axis=1)


def spp_backward(x: np.ndarray, pool_windows, upstream: np.ndarray) -> np.ndarray:
    """Gradient of <upstream, spp(x, pool_windows)>: each pool's share goes
    to its window winners, found here from x."""
    windows = check_pool_windows(pool_windows)
    n, c, h, w = x.shape
    expect_c = c * (1 + len(windows))
    if upstream.shape != (n, expect_c, h, w):
        raise ConfigError(f"upstream must have {expect_c} channels")
    grad = upstream[:, :c].copy()
    for g, wsz in enumerate(windows):
        _, arg = _maxpool_same(x, wsz)
        grad += _maxpool_same_backward(arg, wsz, upstream[:, (g + 1) * c:(g + 2) * c])
    return grad


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    return (x > 0).astype(x.dtype)


def _sigmoid_from_exp(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(x) given e = exp(-|x|): 1 / (1 + e) where x >= 0, e / (1 + e)
    elsewhere. Neither branch can overflow."""
    d = 1.0 + e
    return np.divide(1.0, d, out=e / d, where=x >= 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    return _sigmoid_from_exp(x, np.exp(-np.abs(x)))


def _relu_forward(x):
    return relu(x), (x,)


def _relu_backward(cache, up):
    return relu_grad(cache[0]) * up


def _sigmoid_forward(x):
    s = sigmoid(x)
    return s, (s,)


def _sigmoid_backward(cache, up):
    s, = cache
    return s * (1.0 - s) * up


def _mish_forward(x):
    # x tanh(softplus(x)), softplus(x) = log(1 + e^x) = max(x, 0) + log1p(exp(-|x|))
    e = np.exp(-np.abs(x))
    t = np.tanh(np.maximum(x, 0.0) + np.log1p(e))
    return x * t, (x, e, t)


def _mish_backward(cache, up):
    x, e, t = cache
    return (t + x * (1.0 - t * t) * _sigmoid_from_exp(x, e)) * up


_ACT_FUNCS = {
    "relu": (_relu_forward, _relu_backward),
    "sigmoid": (_sigmoid_forward, _sigmoid_backward),
    "mish": (_mish_forward, _mish_backward),
}


def check_activation(kind: str) -> None:
    if kind not in _ACT_FUNCS:
        raise ConfigError(f"unknown activation {kind!r}")


def activation(x: np.ndarray, kind: str):
    """Elementwise nonlinearity: relu, sigmoid, or mish.

    Returns (output, cache); the cache holds what :func:`activation_backward`
    needs: the input for relu, the output for sigmoid, and for mish the input,
    exp(-|x|) and tanh(softplus(x))."""
    check_activation(kind)
    return _ACT_FUNCS[kind][0](x)


def activation_backward(cache, kind: str, upstream: np.ndarray) -> np.ndarray:
    check_activation(kind)
    if upstream.shape != cache[0].shape:
        raise ConfigError("upstream shape must match input")
    return _ACT_FUNCS[kind][1](cache, upstream)


# ---------------------------------------------------------------------------
# fully connected
# ---------------------------------------------------------------------------

def _fc_groups(xg: np.ndarray, wg: np.ndarray, bg: np.ndarray) -> np.ndarray:
    """x @ W.T + b on each group of :func:`_grouped`."""
    return np.matmul(xg, wg.transpose(0, 2, 1)) + bg[:, None]


def fully_connected(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """out = x @ W.T + b for a (batch, in) input. A weight (G, out, in) or
    bias (G, out) holds G groups (see :func:`_grouped`)."""
    if x.ndim != 2 or weights.ndim not in (2, 3) or x.shape[1] != weights.shape[-1]:
        raise ConfigError(
            f"weight shape {weights.shape} incompatible with (batch, features) input {x.shape}")
    if bias.ndim not in (1, 2) or bias.shape[-1:] != weights.shape[-2:-1]:
        raise ConfigError(f"bias length must be {weights.shape[-2]}")
    return _grouped(_fc_groups, (x,), ((weights, 2), (bias, 1)))


def fully_connected_backward(x: np.ndarray, weights: np.ndarray, upstream: np.ndarray,
                             input_grad: bool = True):
    """Gradients of <upstream, x @ W.T + b> w.r.t. x, W and b; the first is
    None when ``input_grad`` is false."""
    if weights.ndim != 2:
        raise ConfigError(f"the backward takes one (out, in) weight, not {weights.shape}")
    if upstream.shape != (x.shape[0], weights.shape[0]):
        raise ConfigError("upstream shape must match forward output")
    grad_x = upstream @ weights if input_grad else None
    return grad_x, upstream.T @ x, upstream.sum(axis=0)
