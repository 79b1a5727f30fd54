"""Central-finite-difference verification of every hand-derived backward pass.

A registered suite checks one random case: it computes analytic gradients of
the scalar probe <G, f(x)> (G random), compares them against central
differences and returns the worst relative error, or None when its draw lies
on a relu or max kink. ``run_suites`` calls a suite once per case, redrawing a
None, with every case drawn from one seeded generator, and reports the worst
error seen; a non-finite gradient gives a nan error, which is the worst and
fails.

A central difference of the probe takes f(x + h e_k) - f(x - h e_k)
elementwise and only then the inner product with G. Differencing the two probe
sums instead leaves their rounding, about eps |<G, f>| / h with sums of
O(10-100), in every slope: enough to fail a correct gradient on an unlucky
draw. The perturbed copies of a chunk of PROBES_PER_FORWARD probes run in one
forward. Each copy of the batch input (the first argument) perturbs one entry
position in every sample, and the copies are stacked along the batch axis, so
every probed forward must treat each sample on its own: output sample b then
holds only sample b's perturbation. The parameters are probed together, a
chunk of the concatenation of their entries per forward: each parameter is
passed as one grouped parameter (see :mod:`detkit.ops`) of its part of the
copies, with the batch input tiled once per copy. The three loss suites take
the batch input's path with G = 1 over a batch input of one row, a box pair
or a head, whose perturbed copies are the rows of one loss call.

The error metric is |a - n| / max(|a|, |n|, 1e-4): purely relative for
gradients of ordinary size, absolute (scaled by 1e4) for entries near zero.
Every probe-based suite reports below 1e-5 at its 100-case gate seed, a tenth
of the 1e-4 gate that sign, indexing and 0.1 % scaling errors exceed.
"""

from __future__ import annotations

import fnmatch
import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import blocks, losses, ops
from .tensor import ConfigError

FD_STEP = 1e-6
REL_ERR_FLOOR = 1e-4
PASS_THRESHOLD = 1e-4
# Probes per forward: entry positions of every batch input sample, or entries
# of a suite's parameters together. Each forward runs twice as many copies of
# the batch input; more probes per forward save calls but grow the stacked
# arrays.
PROBES_PER_FORWARD = 32


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    if a.shape != n.shape:
        raise ConfigError("gradient shapes differ")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERR_FLOOR)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - n) / denom))


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    cases: int
    max_err: float

    @property
    def passed(self) -> bool:
        return self.max_err < PASS_THRESHOLD


def _worse(a: float, b: float) -> float:
    """The larger error, or nan when either is nan: Python's max keeps its
    first argument against a nan, so a nan gradient would pass unseen."""
    return float(np.maximum(a, b))


# A suite maps (rng, case index) to that case's worst error, or None to redraw.
_SUITES: dict[str, Callable[[np.random.Generator, int], float | None]] = {}


def register(name: str):
    def deco(fn):
        _SUITES[name] = fn
        return fn
    return deco


def suite_names() -> list[str]:
    return sorted(_SUITES)


def run_suites(pattern: str = "*", cases: int = 100, seed: int = 0) -> list[GradCheckResult]:
    if cases < 1 or seed < 0:
        raise ConfigError(f"cases must be >= 1 and seed >= 0, got cases={cases}, seed={seed}")
    names = fnmatch.filter(suite_names(), pattern)
    if not names:
        raise ConfigError(
            f"no gradient suite matches {pattern!r}; valid names: {', '.join(suite_names())}"
        )
    results = []
    for name in names:
        suite, rng = _SUITES[name], np.random.Generator(np.random.PCG64(seed))
        worst = 0.0
        for case in range(cases):
            err = None
            while err is None:
                err = suite(rng, case)
            worst = _worse(worst, err)
        results.append(GradCheckResult(name, cases, worst))
    return results


# Central differences straddle a kink of relu or max when a probe lies within
# one step of it and then average the two one-sided slopes; a suite whose
# kink input lies within KINK_MARGIN of a switch point returns None, and
# run_suites redraws the case.
KINK_MARGIN = 10 * FD_STEP


def _near_kink(relu_input: np.ndarray) -> bool:
    return bool(np.min(np.abs(relu_input)) < KINK_MARGIN)


def _pool_near_tie(x: np.ndarray, window: int) -> bool:
    """Whether the two largest candidates of some same-size pool window
    differ by less than KINK_MARGIN."""
    p = (window - 1) // 2
    h, w = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
    cands = np.stack([xp[:, :, di:di + h, dj:dj + w]
                      for di in range(window) for dj in range(window)])
    top2 = np.sort(cands, axis=0)[-2:]
    return bool(np.min(top2[1] - top2[0]) < KINK_MARGIN)


def _plus_minus(base: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Copies of the (r, p) array base, two per column: copy 2j has column
    entries[j] of every row at orig + FD_STEP and copy 2j + 1 at
    orig - FD_STEP."""
    copies = np.repeat(base[None], 2 * len(entries), axis=0)
    j = np.arange(len(entries))
    copies[2 * j, :, entries] += FD_STEP
    copies[2 * j + 1, :, entries] -= FD_STEP
    return copies


def _probe_slopes(diffs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Central differences <g, f(v + h e_k) - f(v - h e_k)> / 2h from the
    (m, *g.shape) output differences of m entries."""
    return (diffs * g).reshape(len(diffs), -1).sum(axis=1) / (2.0 * FD_STEP)


def _copy_slopes(run: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                 g: np.ndarray) -> np.ndarray:
    """Central differences of the probe <g, f(v)> in every entry of the
    (r, p) array v, whose row b feeds only the b-th of r equal, consecutive
    parts of f's output. Each call of run takes the 2m perturbed copies of
    PROBES_PER_FORWARD columns, stacked along a new leading axis, and returns
    f of each, stacked along the batch axis; a copy perturbs its column in
    every row. Row b's slope reduces a full g-shaped difference that holds
    part b and exact zeros elsewhere, which is what a copy perturbing row b
    alone gives, so its bits do not depend on r."""
    r, p = v.shape
    slopes = np.empty((r, p))
    rows, columns = np.arange(r), np.arange(p)
    for start in range(0, p, PROBES_PER_FORWARD):
        chunk = slice(start, start + PROBES_PER_FORWARD)
        entries = columns[chunk]
        y = run(_plus_minus(v, entries)).reshape(-1, r, g.size // r)
        diffs = np.zeros((len(entries), r, r, g.size // r))
        diffs[:, rows, rows] = y[0::2] - y[1::2]
        slopes[:, chunk] = _probe_slopes(diffs.reshape(-1, *g.shape), g).reshape(-1, r).T
    return slopes


def batch_input_slopes(forward: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                       g: np.ndarray) -> np.ndarray:
    """Central differences of the probe <g, forward(x)> in every entry of the
    batch input x, PROBES_PER_FORWARD entry positions per forward: each
    perturbed copy of x perturbs one position in every sample, and the copies
    are stacked along the batch axis, so forward must treat each sample on
    its own."""
    slopes = _copy_slopes(lambda copies: forward(copies.reshape(-1, *x.shape[1:])),
                          x.reshape(len(x), -1), g)
    return slopes.reshape(x.shape)


def parameter_slopes(forward: Callable[..., np.ndarray], x: np.ndarray, params: tuple,
                     g: np.ndarray) -> list[np.ndarray]:
    """Central differences of the probe <g, forward(x, *params)> in every
    entry of every parameter, PROBES_PER_FORWARD entries of their
    concatenation per forward. x is tiled once per perturbed copy of the
    concatenation, and each parameter is passed as one grouped parameter (see
    :mod:`detkit.ops`) of its slice of the copies, so copy j meets the j-th
    tile. Returns the slopes of each parameter, in order."""
    bounds = np.cumsum([0, *(v.size for v in params)])
    parts = list(zip(params, bounds[:-1], bounds[1:]))

    def run(copies):
        return forward(np.concatenate([x] * len(copies)),
                       *(copies[:, 0, a:b].reshape(-1, *v.shape) for v, a, b in parts))

    slopes = _copy_slopes(run, np.concatenate([v.ravel() for v in params])[None], g)[0]
    return [slopes[a:b].reshape(v.shape) for v, a, b in parts]


def _arg_errors(forward: Callable[..., np.ndarray], g: np.ndarray, args: tuple,
                analytic) -> float:
    """Worst error of analytic[i] against central differences of the probe
    <g, forward(*args)> in args[i], over every argument. args[0] is the batch
    input, probed by :func:`batch_input_slopes`; the others are parameters,
    probed together by :func:`parameter_slopes`."""
    x, params = args[0], args[1:]
    numeric = [batch_input_slopes(lambda v: forward(v, *params), x, g)]
    if params:
        numeric += parameter_slopes(forward, x, params, g)
    worst = 0.0
    for grad, num in zip(analytic, numeric, strict=True):
        worst = _worse(worst, max_rel_error(grad, num))
    return worst


def _param_errors(forward, g: np.ndarray, x: np.ndarray, params: dict,
                  grad_x: np.ndarray, grads: dict) -> float:
    """:func:`_arg_errors` for a forward(x, params) over a parameter dict: each
    parameter is matched to its analytic gradient by name."""
    names = tuple(params)
    return _arg_errors(lambda xx, *vals: forward(xx, dict(zip(names, vals))), g,
                       (x, *params.values()), (grad_x, *(grads[k] for k in names)))


# ---------------------------------------------------------------------------
# tensor_core operators
# ---------------------------------------------------------------------------

@register("conv2d")
def _check_conv2d(rng: np.random.Generator, case: int) -> float:
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    s = int(rng.integers(1, 3))
    p = int(rng.integers(0, 2))
    h = int(rng.integers(k, k + 4))
    spec = ops.ConvSpec(cin, cout, k, s, p)
    x = rng.standard_normal((2, cin, h, h))
    w = rng.standard_normal((cout, cin, k, k))
    b = rng.standard_normal((cout,))
    g = rng.standard_normal((2, cout, spec.out_size(h), spec.out_size(h)))
    return _arg_errors(lambda xx, ww, bb: ops.conv2d_forward(xx, ww, bb, spec), g,
                       (x, w, b), ops.conv2d_backward(x, w, spec, g))


@register("fully_connected")
def _check_fc(rng, case):
    nin, nout, batch = int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 4))
    x = rng.standard_normal((batch, nin))
    w = rng.standard_normal((nout, nin))
    b = rng.standard_normal((nout,))
    g = rng.standard_normal((batch, nout))
    return _arg_errors(ops.fully_connected, g, (x, w, b), ops.fully_connected_backward(x, w, g))


def _check_activation(rng, case, kind):
    x = rng.standard_normal((2, 3, 4, 4)) * 3.0
    g = rng.standard_normal((2, 3, 4, 4))
    if kind == "relu" and _near_kink(x):
        return None
    _, cache = ops.activation(x, kind)
    return _arg_errors(lambda v: ops.activation(v, kind)[0], g, (x,),
                       (ops.activation_backward(cache, kind, g),))


register("activation_relu")(functools.partial(_check_activation, kind="relu"))
register("activation_sigmoid")(functools.partial(_check_activation, kind="sigmoid"))
register("activation_mish")(functools.partial(_check_activation, kind="mish"))


@register("global_pool")
def _check_global_pool(rng, case):
    kind = "avg" if rng.integers(2) else "max"
    x = rng.standard_normal((2, 3, 4, 4))
    g = rng.standard_normal((2, 3, 1, 1))
    return _arg_errors(lambda v: ops.global_pool(v, kind), g, (x,),
                       (ops.global_pool_backward(x, kind, g),))


@register("spatial_stats")
def _check_spatial_stats(rng, case):
    x = rng.standard_normal((2, 4, 3, 3))
    g = rng.standard_normal((2, 2, 3, 3))
    return _arg_errors(ops.spatial_stats, g, (x,), (ops.spatial_stats_backward(x, g),))


@register("spp")
def _check_spp(rng, case):
    windows = [3] if rng.integers(2) else [3, 5]
    x = rng.standard_normal((1, 2, 6, 6))
    g = rng.standard_normal((1, 2 * (1 + len(windows)), 6, 6))
    if any(_pool_near_tie(x, wsz) for wsz in windows):
        return None
    return _arg_errors(lambda v: ops.spp(v, windows), g, (x,), (ops.spp_backward(x, windows, g),))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------

@register("pconv")
def _check_pconv(rng, case):
    c = int(rng.integers(2, 7))
    cp = int(rng.integers(1, c + 1))
    spec = blocks.PConvSpec(c, cp, 3)
    x = rng.standard_normal((2, c, 5, 5))
    w = rng.standard_normal((cp, cp, 3, 3))
    g = rng.standard_normal((2, c, 5, 5))
    return _arg_errors(lambda xx, ww: blocks.pconv_forward(xx, ww, spec), g,
                       (x, w), blocks.pconv_backward(x, w, spec, g))


@register("fasternet_block")
def _check_block(rng, case):
    c = int(rng.integers(2, 5))
    spec = blocks.FasterNetBlockSpec(blocks.PConvSpec(c, max(1, c // 2), 3))
    params = blocks.fasternet_block_init(spec, rng)
    x = rng.standard_normal((1, c, 4, 4))
    g = rng.standard_normal((1, c, 4, 4))
    _, cache = blocks.fasternet_block_forward(x, params, spec)
    gx, gp = blocks.fasternet_block_backward(cache, params, spec, g)
    return _param_errors(
        lambda xx, pp: blocks.fasternet_block_forward(xx, pp, spec)[0], g, x, params, gx, gp)


def _check_channel_attention(rng, case, mlp_mode):
    c = int(rng.integers(2, 7))
    spec = blocks.CBAMSpec(c, reduction=2, channel_mlp=mlp_mode)
    d = spec.mlp_width
    x = rng.standard_normal((2, c, 3, 3))
    params = {"fc1.w": rng.standard_normal((d, c)), "fc1.b": rng.standard_normal((d,)),
              "fc2.w": rng.standard_normal((c, d)), "fc2.b": rng.standard_normal((c,))}
    g = rng.standard_normal((2, c, 3, 3))
    _, cache = blocks.channel_attention(x, params, spec)
    _, _, _, z1, _, z2, _ = cache  # the relu inputs; z2 is None in prose mode
    if any(_near_kink(z) for z in (z1, z2) if z is not None):
        return None
    gx, gp = blocks.channel_attention_backward(cache, params, spec, g)
    return _param_errors(lambda xx, pp: blocks.channel_attention(xx, pp, spec)[0], g, x, params, gx, gp)


register("channel_attention")(functools.partial(_check_channel_attention, mlp_mode="prose"))
register("channel_attention_literal")(functools.partial(_check_channel_attention, mlp_mode="literal"))


@register("spatial_attention")
def _check_spatial_attention(rng, case):
    c = int(rng.integers(2, 6))
    k = 3 if rng.integers(2) else 1
    spec = blocks.CBAMSpec(c, spatial_kernel=k)
    x = rng.standard_normal((2, c, 4, 4))
    params = {"spatial.w": rng.standard_normal((1, 2, k, k)), "spatial.b": rng.standard_normal((1,))}
    g = rng.standard_normal((2, c, 4, 4))
    _, cache = blocks.spatial_attention(x, params, spec)
    gx, gp = blocks.spatial_attention_backward(cache, params, spec, g)
    return _param_errors(lambda xx, pp: blocks.spatial_attention(xx, pp, spec)[0], g, x, params, gx, gp)


def _check_cbam(rng, case, composition):
    c = int(rng.integers(2, 6))
    spec = blocks.CBAMSpec(c, reduction=2, spatial_kernel=1, composition=composition)
    params = blocks.cbam_init(spec, rng)
    for key in ("fc1.b", "fc2.b", "spatial.b"):
        params[key] = rng.standard_normal(params[key].shape)
    x = rng.standard_normal((2, c, 3, 3))
    g = rng.standard_normal((2, c, 3, 3))
    _, cache = blocks.cbam_forward(x, params, spec)
    gx, gp = blocks.cbam_backward(cache, params, spec, g)
    return _param_errors(lambda xx, pp: blocks.cbam_forward(xx, pp, spec)[0], g, x, params, gx, gp)


register("cbam_sequential")(functools.partial(_check_cbam, composition="sequential"))
register("cbam_literal")(functools.partial(_check_cbam, composition="literal"))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _random_box_pair(rng):
    """Non-degenerate pred/gt corner rows with no coinciding edges (losses are
    only differentiable away from min/max switch points)."""
    while True:
        vals = rng.uniform(0.0, 10.0, size=8)
        px1, px2 = sorted(vals[0:2])
        py1, py2 = sorted(vals[2:4])
        gx1, gx2 = sorted(vals[4:6])
        gy1, gy2 = sorted(vals[6:8])
        if min(px2 - px1, py2 - py1, gx2 - gx1, gy2 - gy1) < 0.2:
            continue
        gaps = [abs(a - b) for a, b in ((px1, gx1), (px2, gx2), (py1, gy1), (py2, gy2))]
        if min(gaps) < 1e-3:
            continue
        return np.array([px1, py1, px2, py2]), np.array([gx1, gy1, gx2, gy2])


@register("ciou_loss")
def _check_ciou(rng, case):
    """The analytic gradient is _box_rows' on the one row; the eight perturbed
    predictions are the rows of one more _box_rows call, whose rows' bits do
    not depend on each other."""
    p, g = _random_box_pair(rng)
    return _arg_errors(lambda rows: losses._box_rows("ciou", rows, np.tile(g, (len(rows), 1)))[0],
                       np.ones(1), (p[None],), (losses._box_rows("ciou", p[None], g[None])[1],))


@register("wiou_loss")
def _check_wiou(rng, case):
    """The analytic gradient holds the enclosing-box normalizer fixed, so the
    oracle differentiates the loss with that normalizer frozen at its
    unperturbed value."""
    p, g = _random_box_pair(rng)
    cw = max(p[2], g[2]) - min(p[0], g[0])
    ch = max(p[3], g[3]) - min(p[1], g[1])
    d0 = cw * cw + ch * ch + losses.EPS

    def frozen(rows):
        dx = (rows[:, 0] + rows[:, 2]) / 2.0 - (g[0] + g[2]) / 2.0
        dy = (rows[:, 1] + rows[:, 3]) / 2.0 - (g[1] + g[3]) / 2.0
        return np.exp((dx * dx + dy * dy) / d0) * (1.0 - losses.pairwise_iou(rows, g[None])[:, 0])

    return _arg_errors(frozen, np.ones(1), (p[None],),
                       (losses._box_rows("wiou", p[None], g[None])[1],))


@register("detection_loss")
def _check_detection_loss(rng, case):
    """Covers the iou and ciou variants, alternating by case, whose composite
    gradient is the true derivative. The wiou box core holds its enclosing-box
    normalizer fixed by design, so its detached gradient is checked by the
    wiou_loss suite. The perturbed heads are probed PROBES_PER_FORWARD
    entries per loss call, as the grids of one batch."""
    k = 2
    gh = gw = 3
    stride = 8.0
    head = rng.standard_normal((1, 5 + k, gh, gw))
    w, h = rng.uniform(4.0, 10.0, size=2)
    cx = rng.uniform(w / 2 + 0.1, 24.0 - w / 2 - 0.1)
    cy = rng.uniform(h / 2 + 0.1, 24.0 - h / 2 - 0.1)
    targets = np.array([[cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, rng.integers(k)]])
    variant = "iou" if case % 2 == 0 else "ciou"
    _, grad = losses.detection_loss(head, [targets], variant, stride)

    def totals(rows):
        return losses.detection_loss(rows.reshape(-1, *head.shape[1:]), [targets] * len(rows),
                                     variant, stride, with_grad=False)[0][:, 3]

    return _arg_errors(totals, np.ones(1), (head,), (grad,))
