"""The IoU / CIoU / WIoU box-loss ladder and the composite detection loss.

Boxes are float64 corner rows [x1, y1, x2, y2]. ``_box_rows`` evaluates one
variant over T (pred, gt) row pairs and returns each row's loss and its
gradient w.r.t. the pred corners; there are no one-pair functions. All three
variants share the plain intersection-over-union core:

* ``iou``: 1 - IoU.
* ``ciou`` adds a normalized center-distance penalty and an aspect-ratio
  consistency penalty: 1 - IoU + rho^2 / c^2 + alpha v. The coupling factor
  alpha = v / ((1 - IoU) + v + eps) is differentiated through, so the
  analytic gradient matches finite differences of the loss.
* ``wiou`` scales 1 - IoU by exp(rho^2 / D) where D is the squared diagonal
  of the smallest enclosing box. D is held fixed during backward (treated as
  a constant), so its gradient is NOT the derivative of the forward value
  when the prediction touches the enclosing box. That asymmetry is
  deliberate and covered by a dedicated test.

Every denominator carries eps = 1e-9; the losses never return NaN for
finite inputs. Gradients are exact away from the measure-zero set where
box edges coincide (min/max switch points).

``detection_loss``, the one entry point of the composite loss, takes a whole
batch of prediction grids, with each image's targets as a (t, 5) array of
rows [x1, y1, x2, y2, class], and evaluates all of the batch's targets in one
``_box_rows`` call. It returns the loss terms, one (n, 4) float64 array with
a row [box, objectness, class, total] per image, and the gradient, which is
None under ``with_grad=False``, as the backward passes return None for an
input gradient they are not asked for.
"""

from __future__ import annotations

import math

import numpy as np

from .ops import sigmoid
from .tensor import ConfigError, _require_finite

EPS = 1e-9
_VARIANTS = ("iou", "ciou", "wiou")
# the names of the columns of detection_loss's (n, 4) terms array
TERMS = ("box_loss", "objectness_loss", "class_loss", "total_loss")


def pairwise_iou(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """IoU of every corner row of p (n, 4) against every row of g (m, 4), as
    an (n, m) array, in [0, 1]. Entry [i, j] is the one-pair float64
    expression, evaluated elementwise, so its bits do not depend on the other
    rows. Two boxes with zero union (both degenerate) give 0 by convention."""
    px1, py1, px2, py2 = (p[:, k, None] for k in range(4))
    gx1, gy1, gx2, gy2 = g.T
    iw = np.minimum(px2, gx2) - np.maximum(px1, gx1)
    ih = np.minimum(py2, gy2) - np.maximum(py1, gy1)
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
    out = np.zeros_like(union)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def _box_rows(variant: str, p: np.ndarray, g: np.ndarray):
    """Box loss of the variant for each row of pred corners p against gt
    corners g, both (T, 4) float64 [x1, y1, x2, y2], and its gradient w.r.t.
    p: ((T,), (T, 4)). The IoU, centre-distance and enclosing-box terms are
    evaluated once and serve the value and the gradient. Subgradient 0 is used
    exactly at min/max ties.

    Each entry is the float expression of a one-pair evaluation, so a row's
    bits do not depend on the other rows; math.atan2 and math.exp run per row,
    because np.arctan2 and np.exp can differ from them in the last bit."""
    px1, py1, px2, py2 = p.T
    gx1, gy1, gx2, gy2 = g.T
    w, h = px2 - px1, py2 - py1
    iw = np.minimum(px2, gx2) - np.maximum(px1, gx1)
    ih = np.minimum(py2, gy2) - np.maximum(py1, gy1)
    overlap = (iw > 0.0) & (ih > 0.0)
    inter = np.where(overlap, iw * ih, 0.0)
    d_inter = np.where(overlap[:, None] & np.stack([px1 > gx1, py1 > gy1, px2 < gx2, py2 < gy2], axis=1),
                       np.stack([-ih, -iw, ih, iw], axis=1), 0.0)
    union = w * h + (gx2 - gx1) * (gy2 - gy1) - inter
    valid = union > EPS
    un = union[:, None]
    d_union = np.stack([-h, -w, h, w], axis=1) - d_inter
    d_iou = np.divide(d_inter * un - inter[:, None] * d_union, un * un,
                      out=np.zeros_like(d_inter), where=valid[:, None])
    if variant == "iou":
        # the value is pairwise_iou's, 0 only at a zero union; the gradient
        # above is 0 once the union falls to EPS
        return 1.0 - np.divide(inter, union, out=np.zeros_like(union), where=union > 0.0), -d_iou
    iou_val = np.divide(inter, union, out=np.zeros_like(union), where=valid)

    dx = (px1 + px2) / 2.0 - (gx1 + gx2) / 2.0
    dy = (py1 + py2) / 2.0 - (gy1 + gy2) / 2.0
    rho2 = dx * dx + dy * dy
    d_rho2 = np.stack([dx, dy, dx, dy], axis=1)
    cw = np.maximum(px2, gx2) - np.minimum(px1, gx1)
    ch = np.maximum(py2, gy2) - np.minimum(py1, gy1)
    diag2 = cw * cw + ch * ch
    if variant == "wiou":
        # the enclosing-box normalizer is held fixed in the gradient
        d0 = diag2 + EPS
        r = np.array([math.exp(x) for x in (rho2 / d0).tolist()])
        return (r * (1.0 - iou_val),
                r[:, None] * (d_rho2 / d0[:, None]) * (1.0 - iou_val)[:, None] - r[:, None] * d_iou)

    d_diag2 = np.where(np.stack([px1 < gx1, py1 < gy1, px2 > gx2, py2 > gy2], axis=1),
                       np.stack([-2.0 * cw, -2.0 * ch, 2.0 * cw, 2.0 * ch], axis=1), 0.0)
    diag2e = (diag2 + EPS)[:, None]
    # atan2 keeps the aspect term finite for zero-height predictions
    d_angle = np.array([math.atan2(a, b) - math.atan2(c, d) for a, b, c, d in
                        zip((gx2 - gx1).tolist(), (gy2 - gy1).tolist(), w.tolist(), h.tolist())])
    q = 4.0 / math.pi**2
    v = q * d_angle * d_angle
    denom_wh = w * w + h * h
    wh_ok = (denom_wh > EPS)[:, None]
    # gradient of the angle gap (atan2(wg, hg) - atan2(w, h)) w.r.t. the pred
    # corners, via d atan2(w, h) = (h dw - w dh) / (w^2 + h^2) and
    # dw/dx1 = -1, dw/dx2 = 1, dh/dy1 = -1, dh/dy2 = 1
    d_angle_grad = np.divide(np.stack([h, -w, -h, w], axis=1), denom_wh[:, None],
                             out=np.zeros((len(w), 4)), where=wh_ok)
    d_v = np.where(wh_ok, (2.0 * q * d_angle)[:, None] * d_angle_grad, 0.0)

    den = (1.0 - iou_val) + v + EPS
    loss = 1.0 - iou_val + rho2 / diag2e[:, 0] + v * v / den
    d_alpha_v = ((2.0 * v)[:, None] * d_v * den[:, None]
                 - (v * v)[:, None] * (-d_iou + d_v)) / (den * den)[:, None]
    grad = -d_iou + (d_rho2 * diag2e - rho2[:, None] * d_diag2) / (diag2e * diag2e) + d_alpha_v
    return loss, grad


# ---------------------------------------------------------------------------
# grid cell transform and the composite detection loss
# ---------------------------------------------------------------------------

def _cell_boxes(t: np.ndarray, rows: np.ndarray, cols: np.ndarray, stride: float) -> np.ndarray:
    """Raw logits t (T, 4) [tx, ty, tw, th] of the cells at (rows, cols) to
    corner rows: center ((col + sigmoid(tx)) s, (row + sigmoid(ty)) s), size
    (e^tw s, e^th s)."""
    # math.exp per row, not np.exp: the two can differ by an ulp, which would
    # change the weights. A Python loop costs less than the numpy calls
    # around a list of exps for the few targets of a batch.
    boxes = []
    for (tx, ty, tw, th), row, col in zip(t.tolist(), rows.tolist(), cols.tolist()):
        sx = 1.0 / (1.0 + math.exp(-tx)) if tx >= 0 else math.exp(tx) / (1.0 + math.exp(tx))
        sy = 1.0 / (1.0 + math.exp(-ty)) if ty >= 0 else math.exp(ty) / (1.0 + math.exp(ty))
        cx, cy = (col + sx) * stride, (row + sy) * stride
        half_w, half_h = math.exp(tw) * stride / 2.0, math.exp(th) * stride / 2.0
        boxes.append((cx - half_w, cy - half_h, cx + half_w, cy + half_h))
    return np.array(boxes, dtype=np.float64).reshape(-1, 4)


def _bce_with_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # stable form: max(z, 0) - z y + log(1 + exp(-|z|))
    return np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))


def detection_loss(
    head: np.ndarray,
    target_lists,
    variant: str = "wiou",
    stride: float = 8.0,
    box_weight: float = 5.0,
    obj_weight: float = 1.0,
    cls_weight: float = 1.0,
    with_grad: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Composite loss of each prediction grid of a batch: (terms, grad).

    head: the (n, 5 + K, gh, gw) prediction grids, channel layout [tx, ty,
    tw, th, objectness, class logits...]; target_lists: one (t, 5) float64
    array per image, a row [x1, y1, x2, y2, class] per target, with an
    integer class id in [0, K) and a box of positive area inside the
    gw * stride by gh * stride image (an image without targets may pass []).
    Each target trains the cell containing its center: the box term (selected
    variant, averaged over the image's targets), a one-vs-all class BCE on
    assigned cells, and an objectness BCE over every cell (1 on assigned
    cells, 0 elsewhere).

    terms is an (n, 4) float64 array, a row [box, objectness, class, total]
    per image (the columns TERMS names), total the weighted sum of the other
    three; a non-finite total raises NonFiniteError("non-finite loss"). grad,
    None unless with_grad, is the gradient of each total w.r.t. the raw
    grids, in their dtype; a non-finite one raises NonFiniteError("non-finite
    head gradient"). An image's row and gradient are those it gets on its
    own: the batch's targets are the rows of one _box_rows call, and
    per-image sums and a cell's gradient accumulate in target order.
    """
    if variant not in _VARIANTS:
        raise ConfigError(f"unknown loss variant {variant!r}")
    n, c, gh, gw = head.shape
    if c < 6:
        raise ConfigError("prediction grid needs at least 5 + 1 channels")
    if stride <= 0:
        raise ConfigError("stride must be positive")
    if len(target_lists) != n:
        raise ConfigError(f"{len(target_lists)} target lists for {n} prediction grids")
    num_classes = c - 5
    img_w, img_h = gw * stride, gh * stride
    per_image = [np.asarray(t, dtype=np.float64).reshape(-1, 5) for t in target_lists]
    img = np.repeat(np.arange(n), [len(t) for t in per_image])
    targets = np.concatenate(per_image) if per_image else np.empty((0, 5))
    x1, y1, x2, y2, cls = targets.T
    bad = ~((cls >= 0) & (cls < num_classes) & (cls == np.trunc(cls)))
    if bad.any():
        raise ConfigError(f"class id {cls[bad][0]:g} is not an integer in [0, {num_classes})")
    w, h = x2 - x1, y2 - y1
    if not ((w > 0.0) & (h > 0.0) & (w * h > 0.0)).all():
        raise ConfigError("target box must have positive area")
    bad = (x1 < 0) | (y1 < 0) | (x2 > img_w) | (y2 > img_h)
    if bad.any():
        raise ConfigError(f"target {targets[bad][0, :4].tolist()} lies outside the {img_w}x{img_h} image")
    # each target trains the single cell containing its center
    cols = np.minimum(((x1 + x2) / 2.0 / stride).astype(np.intp), gw - 1)
    rows = np.minimum(((y1 + y2) / 2.0 / stride).astype(np.intp), gh - 1)
    classes = cls.astype(np.intp)
    n_t = np.bincount(img, minlength=n)
    onehot = np.zeros((len(img), num_classes))
    onehot[np.arange(len(img)), classes] = 1.0
    obj_target = np.zeros((n, gh, gw))
    obj_target[img, rows, cols] = 1.0

    p = _cell_boxes(head[img, :4, rows, cols], rows, cols, stride)
    box_value, d_corners = _box_rows(variant, p, targets[:, :4])
    cls_logits = head[img, 5:, rows, cols]
    box_total, cls_total = np.zeros(n), np.zeros(n)
    np.add.at(box_total, img, box_value)
    np.add.at(cls_total, img, _bce_with_logits(cls_logits, onehot).mean(axis=1))
    box_loss = box_total / np.maximum(n_t, 1)  # 0 for an image without targets
    cls_loss = cls_total / np.maximum(n_t, 1)
    obj_loss = _bce_with_logits(head[:, 4], obj_target).reshape(n, -1).mean(axis=1)
    total = box_weight * box_loss + obj_weight * obj_loss + cls_weight * cls_loss
    _require_finite("loss", total)
    terms = np.stack([box_loss, obj_loss, cls_loss, total], axis=1)
    if not with_grad:
        return terms, None

    d = d_corners * (box_weight / n_t[img])[:, None]
    # corners -> (center, size): dc = g_x1 + g_x2, dsize = (g_x2 - g_x1)/2
    dcx, dcy = d[:, 0] + d[:, 2], d[:, 1] + d[:, 3]
    dw, dh = (d[:, 2] - d[:, 0]) / 2.0, (d[:, 3] - d[:, 1]) / 2.0
    sx, sy = sigmoid(head[img, 0:2, rows, cols]).astype(np.float64, copy=False).T
    cell_grad = np.stack([dcx * sx * (1.0 - sx) * stride, dcy * sy * (1.0 - sy) * stride,
                          dw * (p[:, 2] - p[:, 0]), dh * (p[:, 3] - p[:, 1])], axis=1)
    cls_prob = sigmoid(cls_logits).astype(np.float64, copy=False)
    cls_grad = (cls_prob - onehot) * cls_weight / (n_t[img] * num_classes)[:, None]
    grad = np.zeros_like(head)
    # np.add.at, like +=, adds in the grid's dtype after a float64 sum and
    # accumulates a cell's targets in target order
    np.add.at(grad, (img, slice(0, 4), rows, cols), cell_grad)
    np.add.at(grad, (img, slice(5, None), rows, cols), cls_grad)
    grad[:, 4] += (sigmoid(head[:, 4]).astype(np.float64, copy=False) - obj_target) * (obj_weight / (gh * gw))
    _require_finite("head gradient", grad)
    return terms, grad

