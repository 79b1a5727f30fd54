"""Independent reference implementations shared by the test modules.

Everything here is deliberately written against the contract, not the
production code paths: explicit loops, exhaustive scans, no shared helpers.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from detkit import losses, ops
from detkit.metrics import EvalSummary, match_image
from detkit.postprocess import _LOGIT_CAP
from detkit.tensor import ConfigError

# ---------------------------------------------------------------------------
# The scalar box API: one box, one detection, one pair at a time, as detkit
# wrote it before its boxes became float64 rows. Detections are (n, 6) rows
# [x1, y1, x2, y2, score, class] and targets (t, 5) rows [x1, y1, x2, y2,
# class]; the converters below move between the two forms.


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in image pixel coordinates, corners (x1, y1), (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ConfigError(f"degenerate corner order: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)


@dataclass(frozen=True)
class Detection:
    bbox: BBox
    score: float
    class_id: int


def iou(a, b):
    """Intersection area over union area, in [0, 1]. Two boxes with zero
    union (both degenerate) give 0 by convention."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(iw, 0.0) * max(ih, 0.0)
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def corners(boxes):
    """(len(boxes), 4) float64 array of [x1, y1, x2, y2] rows."""
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64).reshape(-1, 4)


def detection_rows(dets):
    """(n, 6) float64 rows [x1, y1, x2, y2, score, class] of Detections."""
    return np.array([(d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2, d.score, d.class_id)
                     for d in dets], dtype=np.float64).reshape(-1, 6)


def target_rows(targets):
    """(t, 5) float64 rows [x1, y1, x2, y2, class] of (BBox, class) pairs."""
    return np.array([(b.x1, b.y1, b.x2, b.y2, k) for b, k in targets],
                    dtype=np.float64).reshape(-1, 5)


def target_pairs(rows):
    """The (BBox, int class) pairs of (t, 5) target rows."""
    return [(BBox(*row[:4]), int(row[4]))
            for row in np.asarray(rows, dtype=np.float64).reshape(-1, 5).tolist()]


def cell_to_box(tx, ty, tw, th, row, col, stride):
    """Raw cell logits to a box: center ((col + sigmoid(tx)) s, (row + sigmoid(ty)) s),
    size (e^tw s, e^th s)."""
    sx = 1.0 / (1.0 + math.exp(-tx)) if tx >= 0 else math.exp(tx) / (1.0 + math.exp(tx))
    sy = 1.0 / (1.0 + math.exp(-ty)) if ty >= 0 else math.exp(ty) / (1.0 + math.exp(ty))
    cx = (col + sx) * stride
    cy = (row + sy) * stride
    w = math.exp(tw) * stride
    h = math.exp(th) * stride
    return BBox(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def encode_box(bbox, stride, grid_h, grid_w):
    """Inverse of the decode transform on a grid_h x grid_w grid: the cell
    (row, col) owning the box center plus the logits (tx, ty, tw, th) that
    decode back to the box."""
    cx, cy = bbox.center
    if not (0 <= cx <= grid_w * stride and 0 <= cy <= grid_h * stride):
        raise ConfigError("box center outside the image")
    if bbox.width <= 0 or bbox.height <= 0:
        raise ConfigError("cannot encode a degenerate box")
    col = min(int(cx / stride), grid_w - 1)
    row = min(int(cy / stride), grid_h - 1)
    fx = min(max(cx / stride - col, 1e-9), 1.0 - 1e-9)
    fy = min(max(cy / stride - row, 1e-9), 1.0 - 1e-9)
    tx = math.log(fx / (1.0 - fx))
    ty = math.log(fy / (1.0 - fy))
    tw = math.log(bbox.width / stride)
    th = math.log(bbox.height / stride)
    return row, col, tx, ty, tw, th


def box_to_letterboxed(bbox, scale, pads):
    """A source-image box in the letterboxed frame: (x * scale + pad_x, y * scale + pad_y)."""
    px, py = pads
    return BBox(bbox.x1 * scale + px, bbox.y1 * scale + py, bbox.x2 * scale + px, bbox.y2 * scale + py)


def naive_conv2d(x, w, b, stride, padding):
    """Six-loop sliding-window convolution."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    h_out = (h - k + 2 * padding) // stride + 1
    w_out = (wd - k + 2 * padding) // stride + 1
    out = np.zeros((n, cout, h_out, w_out))
    for ni in range(n):
        for oi in range(cout):
            for yi in range(h_out):
                for xi in range(w_out):
                    window = xp[ni, :, yi * stride:yi * stride + k, xi * stride:xi * stride + k]
                    out[ni, oi, yi, xi] = np.sum(window * w[oi]) + (b[oi] if b is not None else 0.0)
    return out


def entrywise_central_differences(forward, x, g, h):
    """Central differences of the probe <g, forward(x)> in every entry of x,
    one entry at a time: the two perturbed outputs are differenced elementwise
    before the inner product with g."""
    x = np.array(x, dtype=np.float64)
    flat = x.reshape(-1)
    grad = np.zeros(flat.size)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        fp = np.array(forward(x))  # a copy: the forward may return a view of x
        flat[k] = orig - h
        fm = np.array(forward(x))
        flat[k] = orig
        grad[k] = np.sum((fp - fm) * g) / (2.0 * h)
    return grad.reshape(x.shape)


def naive_sliding_max(x, window):
    """Max over the window clipped to the image, stride 1."""
    n, c, h, w = x.shape
    r = (window - 1) // 2
    out = np.empty_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    ys = slice(max(0, i - r), min(h, i + r + 1))
                    xs = slice(max(0, j - r), min(w, j + r + 1))
                    out[ni, ci, i, j] = x[ni, ci, ys, xs].max()
    return out


def tap_loop_columns(xp, k, s):
    """im2col as (n, c*k*k, h_out*w_out) by copying each kernel tap's strided
    slice into one column buffer."""
    n, c, hp, wp = xp.shape
    h_out, w_out = (hp - k) // s + 1, (wp - k) // s + 1
    cols = np.empty((n, c, k, k, h_out, w_out), dtype=xp.dtype)
    for ki in range(k):
        for kj in range(k):
            cols[:, :, ki, kj] = xp[:, :, ki:ki + s * h_out:s, kj:kj + s * w_out:s]
    return cols.reshape(n, c * k * k, h_out * w_out)


def per_tap_conv2d(x, w, b, stride, padding):
    """Convolution as one channel contraction per kernel tap."""
    n = x.shape[0]
    cout, _, k, _ = w.shape
    h_out = (x.shape[2] - k + 2 * padding) // stride + 1
    w_out = (x.shape[3] - k + 2 * padding) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, h_out, w_out))
    for ki in range(k):
        for kj in range(k):
            patch = xp[:, :, ki:ki + stride * h_out:stride, kj:kj + stride * w_out:stride]
            out += np.einsum("nchw,oc->nohw", patch, w[:, :, ki, kj])
    if b is not None:
        out += np.asarray(b)[None, :, None, None]
    return out


def per_tap_conv2d_backward(x, w, stride, padding, upstream):
    """Gradients (x, w, b) of <upstream, conv>, accumulated tap by tap."""
    k = w.shape[2]
    _, _, h, wd = x.shape
    h_out, w_out = upstream.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    grad_w = np.zeros_like(w)
    grad_xp = np.zeros_like(xp)
    for ki in range(k):
        for kj in range(k):
            rows = slice(ki, ki + stride * h_out, stride)
            cols = slice(kj, kj + stride * w_out, stride)
            grad_w[:, :, ki, kj] = np.einsum("nohw,nchw->oc", upstream, xp[:, :, rows, cols])
            grad_xp[:, :, rows, cols] += np.einsum("nohw,oc->nchw", upstream, w[:, :, ki, kj])
    grad_x = grad_xp[:, :, padding:padding + h, padding:padding + wd]
    return grad_x, grad_w, upstream.sum(axis=(0, 2, 3))


def scan_maxpool_same(x, window):
    """Stride-1 same-size max pool scanning the window offsets in row-major
    order; a later offset wins only if strictly larger. Returns the pooled
    map and the flat offset di * window + dj of each winner."""
    p = (window - 1) // 2
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
    best = xp[:, :, 0:h, 0:w].copy()
    arg = np.zeros((n, c, h, w), dtype=np.int64)
    for idx in range(1, window * window):
        di, dj = divmod(idx, window)
        sl = xp[:, :, di:di + h, dj:dj + w]
        mask = sl > best
        np.copyto(best, sl, where=mask)
        arg[mask] = idx
    return best, arg


def scan_maxpool_same_backward(x, window, upstream):
    """Gradient of <upstream, pool(x)>: each upstream entry goes to the
    winner found by rescanning x, one window offset at a time."""
    p = (window - 1) // 2
    n, c, h, w = x.shape
    _, arg = scan_maxpool_same(x, window)
    grad_p = np.zeros((n, c, h + 2 * p, w + 2 * p))
    for idx in range(window * window):
        di, dj = divmod(idx, window)
        grad_p[:, :, di:di + h, dj:dj + w] += upstream * (arg == idx)
    return grad_p[:, :, p:p + h, p:p + w]


def json_dumps_detections(rows):
    """What detections_to_json writes for rows (x1, y1, x2, y2, class, score),
    as json's encoder writes the list of row dicts."""
    return json.dumps([{"bbox": list(row[:4]), "score": row[5], "class": row[4]} for row in rows],
                      indent=2, sort_keys=True)


def scalar_decode(head, stride, score_threshold):
    """Grid decode one cell at a time, on the grid of the head's shape: each
    emitted cell's corners are clamped with Python min/max on its own scalars
    to the image the grid covers."""
    p = head[0]
    s = stride
    grid_h, grid_w = p.shape[1:]
    image_w, image_h = grid_w * s, grid_h * s
    sig = ops.sigmoid(p).astype(np.float64, copy=False)
    cls = sig[5:]
    best_cls = cls.argmax(axis=0)
    score = sig[4] * cls.max(axis=0)
    cx = (np.arange(grid_w)[None, :] + sig[0]) * s
    cy = (np.arange(grid_h)[:, None] + sig[1]) * s
    bw = np.exp(np.minimum(p[2], _LOGIT_CAP)) * s
    bh = np.exp(np.minimum(p[3], _LOGIT_CAP)) * s
    out = []
    for i in range(grid_h):
        for j in range(grid_w):
            if score[i, j] < score_threshold:
                continue
            x1 = min(max(cx[i, j] - bw[i, j] / 2.0, 0.0), image_w)
            x2 = min(max(cx[i, j] + bw[i, j] / 2.0, 0.0), image_w)
            y1 = min(max(cy[i, j] - bh[i, j] / 2.0, 0.0), image_h)
            y2 = min(max(cy[i, j] + bh[i, j] / 2.0, 0.0), image_h)
            out.append(Detection(BBox(x1, y1, x2, y2), float(score[i, j]), int(best_cls[i, j])))
    return out


def scalar_nms(dets, thr):
    """Greedy class-aware NMS over the (-score, class, input order) ranking,
    one scalar iou() call per surviving same-class pair."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, dets[i].class_id, i))
    suppressed = [False] * len(dets)
    keep = []
    for pos, i in enumerate(order):
        if suppressed[i]:
            continue
        keep.append(dets[i])
        for j in order[pos + 1:]:
            if suppressed[j] or dets[j].class_id != dets[i].class_id:
                continue
            if iou(dets[i].bbox, dets[j].bbox) > thr:
                suppressed[j] = True
    return keep


def scalar_match_image(dets, gts, iou_thr):
    """Greedy matching in (-score, input order): each detection claims the
    first untaken same-class ground truth of the highest IoU >= iou_thr."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gts)
    tp = [False] * len(dets)
    for i in order:
        best_j = -1
        best_iou = iou_thr
        for j, (gbox, gcls) in enumerate(gts):
            if taken[j] or gcls != dets[i].class_id:
                continue
            v = iou(dets[i].bbox, gbox)
            if v >= best_iou and (best_j < 0 or v > best_iou):
                best_iou, best_j = v, j
        if best_j >= 0:
            taken[best_j] = True
            tp[i] = True
    return tp


def _ap_all_points(recalls: np.ndarray, precisions: np.ndarray) -> float:
    """Exact area under the all-points interpolated PR curve."""
    if len(recalls) == 0:
        return 0.0
    r = np.concatenate([[0.0], recalls, [recalls[-1]]])
    p = np.concatenate([[0.0], precisions, [0.0]])
    # interpolated precision: running max from the right
    for i in range(len(p) - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    ap = 0.0
    for i in range(1, len(r)):
        ap += (r[i] - r[i - 1]) * p[i]
    return float(ap)


def _curve_from_flags(flags_scores: list[tuple[float, bool, tuple]], n_gt: int):
    """Build the swept (m, 2) PR curve and its AP from pooled (score, tp,
    tiebreak) records."""
    if not flags_scores or n_gt == 0:
        return np.empty((0, 2)), 0.0
    ordered = sorted(flags_scores, key=lambda z: (-z[0],) + z[2])
    tp = np.cumsum([1 if z[1] else 0 for z in ordered])
    fp = np.cumsum([0 if z[1] else 1 for z in ordered])
    recalls = tp / n_gt
    precisions = tp / np.maximum(tp + fp, 1)
    ap = _ap_all_points(recalls, precisions)
    return np.stack([recalls, precisions], axis=1), ap


def record_evaluate(detections, ground_truths, iou_thr: float = 0.5,
                    model_size_mb: float = 0.0, computation_macs: int = 0):
    """metrics.evaluate as it was written before its detections became one
    ranked flag vector: one (score, flag, (class, x1, y1, x2, y2)) record per
    detection, a dict of per-class records, tuple sorts and Python sums.

    Returns (EvalSummary, the (m, 2) PR curve, per_class_ap dict). The result
    does not depend on the order in which images are supplied.
    """
    if len(detections) != len(ground_truths):
        raise ConfigError("detections and ground truths must cover the same images")
    pooled: list[tuple[float, bool, tuple]] = []
    per_class: dict[int, list[tuple[float, bool, tuple]]] = {}
    class_gt_counts: dict[int, int] = {}
    n_gt = 0
    n_tp = 0
    n_det = 0
    for dets, gts in zip(detections, ground_truths):
        n_gt += len(gts)
        n_det += len(dets)
        for gcls in gts[:, 4].astype(np.int64).tolist():
            class_gt_counts[gcls] = class_gt_counts.get(gcls, 0) + 1
        tp = match_image(dets, gts, iou_thr).tolist()
        for (x1, y1, x2, y2, score, cls), flag in zip(dets.tolist(), tp):
            n_tp += flag
            # an int class id: summary.json's per_class_ap keys print it
            key = (int(cls), x1, y1, x2, y2)
            pooled.append((score, flag, key))
            per_class.setdefault(key[0], []).append((score, flag, key))

    precision = n_tp / n_det if n_det else 0.0
    recall = n_tp / n_gt if n_gt else 0.0
    curve, ap = _curve_from_flags(pooled, n_gt)
    per_class_ap = {
        cls: _curve_from_flags(per_class.get(cls, []), cnt)[1]
        for cls, cnt in sorted(class_gt_counts.items())
    }
    summary = EvalSummary.build(precision, recall, ap, model_size_mb, computation_macs)
    return summary, curve, per_class_ap


def brute_force_nms(dets, thr):
    """Per-class exhaustive suppression, then a global merge sorted by
    (score desc, class asc, input order)."""
    kept = []
    for cls in sorted({d.class_id for d in dets}):
        pool = [(i, d) for i, d in enumerate(dets) if d.class_id == cls]
        while pool:
            pool.sort(key=lambda t: (-t[1].score, t[0]))
            idx, best = pool.pop(0)
            kept.append((idx, best))
            pool = [(i, d) for i, d in pool if iou(d.bbox, best.bbox) <= thr]
    kept.sort(key=lambda t: (-t[1].score, t[1].class_id, t[0]))
    return [d for _, d in kept]


def random_detections(rng, n, classes=3, size=50.0):
    dets = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, size - 5, size=2)
        w, h = rng.uniform(1, 15, size=2)
        dets.append(Detection(
            BBox(x1, y1, min(x1 + w, size), min(y1 + h, size)),
            float(rng.uniform(0.01, 1.0)),
            int(rng.integers(classes)),
        ))
    return dets


def full_grid_rasterize(kind, cx, cy, half_w, half_h, size):
    """Shape mask with the predicate evaluated on every pixel of the image."""
    ys, xs = np.mgrid[0:size, 0:size]
    px = xs + 0.5
    py = ys + 0.5
    if kind == 0:  # rectangle
        return (np.abs(px - cx) <= half_w) & (np.abs(py - cy) <= half_h)
    if kind == 1:  # ellipse
        return ((px - cx) / half_w) ** 2 + ((py - cy) / half_h) ** 2 <= 1.0
    # triangle: apex top-center, base at the bottom edge
    inside_y = (py >= cy - half_h) & (py <= cy + half_h)
    frac = np.clip((py - (cy - half_h)) / (2.0 * half_h), 0.0, 1.0)
    return inside_y & (np.abs(px - cx) <= frac * half_w)


# Activations written per branch and recomputed from the input, as separate
# functions for value and derivative.

def masked_sigmoid(x):
    """1 / (1 + e^-x) on x >= 0 and e^x / (1 + e^x) elsewhere, split by masks."""
    out = np.empty_like(x, dtype=np.result_type(x.dtype, np.float32))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_grad(x):
    s = masked_sigmoid(x)
    return s * (1.0 - s)


def softplus(x):
    # log(1 + e^x) without overflow for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def mish(x):
    return x * np.tanh(softplus(x))


def mish_grad(x):
    t = np.tanh(softplus(x))
    return t + x * (1.0 - t * t) * masked_sigmoid(x)


ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0).astype(x.dtype)),
    "sigmoid": (masked_sigmoid, sigmoid_grad),
    "mish": (mish, mish_grad),
}


def scan_spatial_stats_backward(x, upstream):
    """Gradient of <upstream, spatial_stats(x)>: the max-channel gradient goes
    to the first channel holding the maximum, found by a per-position scan."""
    n, c, h, w = x.shape
    grad = np.zeros_like(x)
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                best = 0
                for ci in range(1, c):
                    if x[ni, ci, i, j] > x[ni, best, i, j]:
                        best = ci
                grad[ni, best, i, j] = upstream[ni, 0, i, j]
    grad += upstream[:, 1:2] / c
    return grad


# CBAM's channel gate with its MLP written out inline: the mean over the
# spatial axes, hand-written affine maps, and a backward that derives the MLP
# gradient by hand. The gate itself is ops.sigmoid, which has its own oracle.

def inline_channel_attention(x, w1, b1, w2, b2, channel_mlp):
    """(gate (n, c, 1, 1), gated map, cache) of the prose or literal gate."""
    gap = x.mean(axis=(2, 3))
    z1 = gap @ w1.T + b1
    v1 = np.maximum(z1, 0.0)
    if channel_mlp == "prose":
        z2 = v2 = None
        z = v1 @ w2.T + b2
    else:
        z2 = gap @ w2.T + b2
        v2 = np.maximum(z2, 0.0)
        z = v1 @ w1.T + b1 + v2 @ w2.T + b2
    gate = ops.sigmoid(z)
    m_c = gate[:, :, None, None]
    return m_c, m_c * x, (x, gate, gap, z1, v1, z2, v2)


def inline_channel_attention_backward(cache, w1, w2, channel_mlp, upstream):
    """Gradients of <upstream, gated map> w.r.t. x, W1, b1, W2 and b2."""
    x, gate, gap, z1, v1, z2, v2 = cache
    d_gate = (upstream * x).sum(axis=(2, 3))
    grad_x = upstream * gate[:, :, None, None]
    dz = d_gate * gate * (1.0 - gate)
    if channel_mlp == "prose":
        gb2 = dz.sum(axis=0)
        gw2 = dz.T @ v1
        dz1 = (dz @ w2) * (z1 > 0).astype(z1.dtype)
        gb1 = dz1.sum(axis=0)
        gw1 = dz1.T @ gap
        d_gap = dz1 @ w1
    else:
        dz1 = (dz @ w1) * (z1 > 0).astype(z1.dtype)
        dz2 = (dz @ w2) * (z2 > 0).astype(z2.dtype)
        gw1 = dz.T @ v1 + dz1.T @ gap
        gb1 = dz.sum(axis=0) + dz1.sum(axis=0)
        gw2 = dz.T @ v2 + dz2.T @ gap
        gb2 = dz.sum(axis=0) + dz2.sum(axis=0)
        d_gap = dz1 @ w1 + dz2 @ w2
    grad_x = grad_x + (d_gap / (x.shape[2] * x.shape[3]))[:, :, None, None]
    return grad_x, gw1, gb1, gw2, gb2


# ---------------------------------------------------------------------------
# the detection loss, one image and one target at a time
# ---------------------------------------------------------------------------
# The scalar box cores and the per-image composite loss that detkit.losses
# evaluated before it took whole batches as rows. They are the bit-for-bit
# reference of losses.detection_loss and losses._box_rows.

def iou_with_grad(p, g):
    """IoU of pred corners p = [x1, y1, x2, y2] against fixed gt corners g,
    plus d(iou)/dp. Subgradient 0 is used exactly at min/max ties."""
    ix1, iy1 = max(p[0], g[0]), max(p[1], g[1])
    ix2, iy2 = min(p[2], g[2]), min(p[3], g[3])
    iw, ih = ix2 - ix1, iy2 - iy1
    grad = np.zeros(4)
    area_p = (p[2] - p[0]) * (p[3] - p[1])
    area_g = (g[2] - g[0]) * (g[3] - g[1])
    if iw <= 0.0 or ih <= 0.0:
        inter = 0.0
        d_inter = np.zeros(4)
    else:
        inter = iw * ih
        d_inter = np.array(
            [
                -ih if p[0] > g[0] else 0.0,
                -iw if p[1] > g[1] else 0.0,
                ih if p[2] < g[2] else 0.0,
                iw if p[3] < g[3] else 0.0,
            ]
        )
    union = area_p + area_g - inter
    if union <= losses.EPS:
        return 0.0, grad
    d_area_p = np.array([-(p[3] - p[1]), -(p[2] - p[0]), p[3] - p[1], p[2] - p[0]])
    d_union = d_area_p - d_inter
    val = inter / union
    grad = (d_inter * union - inter * d_union) / (union * union)
    return val, grad


def enclosing_with_grad(p, g):
    """Squared diagonal of the smallest box enclosing p and g, with d/dp."""
    ex1 = min(p[0], g[0])
    ey1 = min(p[1], g[1])
    ex2 = max(p[2], g[2])
    ey2 = max(p[3], g[3])
    cw, ch = ex2 - ex1, ey2 - ey1
    d2 = cw * cw + ch * ch
    grad = np.array(
        [
            -2.0 * cw if p[0] < g[0] else 0.0,
            -2.0 * ch if p[1] < g[1] else 0.0,
            2.0 * cw if p[2] > g[2] else 0.0,
            2.0 * ch if p[3] > g[3] else 0.0,
        ]
    )
    return d2, grad


def center_dist_sq_with_grad(p, g):
    dx = (p[0] + p[2]) / 2.0 - (g[0] + g[2]) / 2.0
    dy = (p[1] + p[3]) / 2.0 - (g[1] + g[3]) / 2.0
    rho2 = dx * dx + dy * dy
    grad = np.array([dx, dy, dx, dy])
    return rho2, grad


def scalar_ciou(p, g):
    """CIoU loss of one corner pair and its gradient w.r.t. p."""
    iou_val, d_iou = iou_with_grad(p, g)
    rho2, d_rho2 = center_dist_sq_with_grad(p, g)
    diag2, d_diag2 = enclosing_with_grad(p, g)
    diag2e = diag2 + losses.EPS

    w, h = p[2] - p[0], p[3] - p[1]
    wg, hg = g[2] - g[0], g[3] - g[1]
    d_angle = math.atan2(wg, hg) - math.atan2(w, h)
    q = 4.0 / math.pi**2
    v = q * d_angle * d_angle
    denom_wh = w * w + h * h
    if denom_wh <= losses.EPS:
        d_v = np.zeros(4)
    else:
        d_angle_grad = np.array([h, -w, -h, w]) / denom_wh
        d_v = 2.0 * q * d_angle * d_angle_grad

    den = (1.0 - iou_val) + v + losses.EPS
    alpha_v = v * v / den
    loss = 1.0 - iou_val + rho2 / diag2e + alpha_v

    d_alpha_v = (2.0 * v * d_v * den - v * v * (-d_iou + d_v)) / (den * den)
    grad = -d_iou + (d_rho2 * diag2e - rho2 * d_diag2) / (diag2e * diag2e) + d_alpha_v
    return loss, grad


def scalar_box_loss_and_grad(variant, pred, gt):
    """Box loss of the variant and its gradient w.r.t. the pred corners."""
    p, g = pred.as_array(), gt.as_array()
    if variant == "ciou":
        return scalar_ciou(p, g)
    iou_val, d_iou = iou_with_grad(p, g)
    if variant == "iou":
        return 1.0 - iou(pred, gt), -d_iou
    rho2, d_rho2 = center_dist_sq_with_grad(p, g)
    diag2, _ = enclosing_with_grad(p, g)
    d0 = diag2 + losses.EPS
    r = math.exp(rho2 / d0)
    return r * (1.0 - iou_val), r * (d_rho2 / d0) * (1.0 - iou_val) - r * d_iou


def check_detection_args(predictions, targets, stride, variant):
    if variant not in ("iou", "ciou", "wiou"):
        raise ConfigError(f"unknown loss variant {variant!r}")
    n, c, gh, gw = predictions.shape
    if n != 1:
        raise ConfigError("detection loss expects a single-image prediction grid")
    if c < 6:
        raise ConfigError("prediction grid needs at least 5 + 1 channels")
    if stride <= 0:
        raise ConfigError("stride must be positive")
    num_classes = c - 5
    img_w, img_h = gw * stride, gh * stride
    for bbox, cls in targets:
        if not 0 <= cls < num_classes:
            raise ConfigError(f"class id {cls} out of range [0, {num_classes})")
        if bbox.area <= 0.0:
            raise ConfigError("target box must have positive area")
        if bbox.x1 < 0 or bbox.y1 < 0 or bbox.x2 > img_w or bbox.y2 > img_h:
            raise ConfigError(f"target {bbox} lies outside the {img_w}x{img_h} image")
    return num_classes, gh, gw


def assign_cells(targets, stride, gh, gw):
    """Each target is assigned to the single cell containing its center."""
    assigned = []
    for bbox, cls in targets:
        cx, cy = bbox.center
        col = min(int(cx / stride), gw - 1)
        row = min(int(cy / stride), gh - 1)
        assigned.append((row, col, bbox, cls))
    return assigned


def per_image_detection_loss(predictions, targets, variant="wiou", stride=8.0,
                             box_weight=5.0, obj_weight=1.0, cls_weight=1.0):
    """The composite loss of one (1, 5 + K, gh, gw) grid and its gradient,
    one target at a time: (the (4,) float64 row [box, objectness, class,
    total], a (1, 5 + K, gh, gw) ndarray). The image's (t, 5) target rows are
    read as (BBox, class) pairs."""
    targets = target_pairs(targets)
    num_classes, gh, gw = check_detection_args(predictions, targets, stride, variant)
    p = predictions[0]
    assigned = assign_cells(targets, stride, gh, gw)
    n_t = len(assigned)
    grad = np.zeros_like(p)

    obj_target = np.zeros((gh, gw))
    box_total = 0.0
    cls_total = 0.0
    for row, col, bbox, cls in assigned:
        obj_target[row, col] = 1.0
        pred_box = cell_to_box(p[0, row, col], p[1, row, col], p[2, row, col], p[3, row, col],
                                      row, col, stride)
        box_value, d_corners = scalar_box_loss_and_grad(variant, pred_box, bbox)
        box_total += box_value
        onehot = np.zeros(num_classes)
        onehot[cls] = 1.0
        cls_total += losses._bce_with_logits(p[5:, row, col], onehot).mean()
        d_corners = d_corners * (box_weight / n_t)
        dcx, dcy = d_corners[0] + d_corners[2], d_corners[1] + d_corners[3]
        dw, dh = (d_corners[2] - d_corners[0]) / 2.0, (d_corners[3] - d_corners[1]) / 2.0
        sx, sy = ops.sigmoid(p[0:2, row, col]).astype(np.float64, copy=False)
        grad[0, row, col] += dcx * sx * (1.0 - sx) * stride
        grad[1, row, col] += dcy * sy * (1.0 - sy) * stride
        grad[2, row, col] += dw * pred_box.width
        grad[3, row, col] += dh * pred_box.height
        cls_prob = ops.sigmoid(p[5:, row, col]).astype(np.float64, copy=False)
        grad[5:, row, col] += (cls_prob - onehot) * cls_weight / (n_t * num_classes)

    box_loss = box_total / n_t if n_t else 0.0
    cls_loss = cls_total / n_t if n_t else 0.0
    obj_loss = float(losses._bce_with_logits(p[4], obj_target).mean())
    total = box_weight * box_loss + obj_weight * obj_loss + cls_weight * cls_loss
    if not math.isfinite(total):
        raise FloatingPointError("detection loss is not finite")
    grad[4] += (ops.sigmoid(p[4]).astype(np.float64, copy=False) - obj_target) * (obj_weight / (gh * gw))
    return np.array([box_loss, obj_loss, cls_loss, total]), grad[None]


def _box_loss_grad(variant, pred, gt):
    """Per-variant corner gradient, each computed on its own."""
    p, g = pred.as_array(), gt.as_array()
    iou_val, d_iou = iou_with_grad(p, g)
    if variant == "iou":
        return -d_iou
    if variant == "ciou":
        return scalar_ciou(p, g)[1]
    rho2, d_rho2 = center_dist_sq_with_grad(p, g)
    diag2, _ = enclosing_with_grad(p, g)
    d0 = diag2 + losses.EPS
    r = math.exp(rho2 / d0)
    return r * (d_rho2 / d0) * (1.0 - iou_val) - r * d_iou


def separate_detection_loss_grad(predictions, targets, variant="wiou", stride=8.0,
                                 box_weight=5.0, obj_weight=1.0, cls_weight=1.0):
    """Gradient of the loss of one (1, 5 + K, gh, gw) grid computed on its
    own, apart from the loss value: its own argument check, cell assignment
    and box evaluation, on the image's (t, 5) target rows read as (BBox,
    class) pairs. What it checks is that computing the loss and the gradient
    in one pass changes no bit of the separate gradient."""
    targets = target_pairs(targets)
    num_classes, gh, gw = check_detection_args(predictions, targets, stride, variant)
    p = predictions[0]
    assigned = assign_cells(targets, stride, gh, gw)
    grad = np.zeros_like(p)
    n_t = len(assigned)

    obj_target = np.zeros((gh, gw))
    for row, col, bbox, cls in assigned:
        obj_target[row, col] = 1.0
        tx, ty, tw, th = (p[i, row, col] for i in range(4))
        pred_box = cell_to_box(tx, ty, tw, th, row, col, stride)
        d_corners = _box_loss_grad(variant, pred_box, bbox) * (box_weight / n_t)
        dcx, dcy = d_corners[0] + d_corners[2], d_corners[1] + d_corners[3]
        dw, dh = (d_corners[2] - d_corners[0]) / 2.0, (d_corners[3] - d_corners[1]) / 2.0
        sx, sy = masked_sigmoid(p[0:2, row, col]).astype(np.float64, copy=False)
        grad[0, row, col] += dcx * sx * (1.0 - sx) * stride
        grad[1, row, col] += dcy * sy * (1.0 - sy) * stride
        grad[2, row, col] += dw * pred_box.width
        grad[3, row, col] += dh * pred_box.height

        onehot = np.zeros(num_classes)
        onehot[cls] = 1.0
        cls_prob = masked_sigmoid(p[5:, row, col]).astype(np.float64, copy=False)
        grad[5:, row, col] += (cls_prob - onehot) * cls_weight / (n_t * num_classes)

    grad[4] += (masked_sigmoid(p[4]).astype(np.float64, copy=False) - obj_target) * (obj_weight / (gh * gw))
    return grad[None]
