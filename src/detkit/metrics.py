"""Detection evaluation: greedy matching, precision/recall, PR curve, AP.

An image's detections are the (n, 6) rows [x1, y1, x2, y2, score, class]
that ``postprocess.nms`` returns, and its ground truths the (t, 5) rows
[x1, y1, x2, y2, class] that ``dataset.synth_dataset`` yields.

Matching is per image: detections are processed in descending score order
(ties by input order) and each claims at most one unmatched ground truth of
the same class with IoU at or above the threshold; ``match_image`` returns
an (n,) bool true-positive flag per detection. Precision and recall are
reported at the final operating point (every supplied detection counts);
precision with zero predictions is defined as 0.

``evaluate`` concatenates every image's detections and flags and ranks them
once, with a stable ``np.lexsort`` on (-score, class, x1, y1, x2, y2), so the
result does not depend on the order of the images. The PR curve sweeps the
score threshold down that ranked flag vector, and each class's curve is the
same vector under a class mask. A curve is an (m, 2) float64 array of rows
[recall, precision], one per ranked detection; recall is a running count of
hits over the ground truths, so it never decreases. AP is the exact area under
the all-points interpolated curve: the sum over ranks of the recall step times
the running max of precision from the right, added left to right.

``evaluate`` returns summary.json's scores as the dict that is written,
{"precision", "recall", "f1", "ap", "per_class_ap"}, beside the curve;
``cli.cmd_eval`` adds the other two of the six indicators, the model size and
the computation, which it measures itself.
"""

from __future__ import annotations

import numpy as np

from .losses import pairwise_iou
from .tensor import ConfigError


def match_image(dets: np.ndarray, gts: np.ndarray, iou_thr: float) -> np.ndarray:
    """Greedy match of one image's (n, 6) detections against its (t, 5)
    ground truths; returns the (n,) true-positive flags in the original
    detection order."""
    ious = pairwise_iou(dets[:, :4], gts[:, :4])
    untaken = np.ones(len(gts), dtype=bool)
    tp = np.zeros(len(dets), dtype=bool)
    for i in np.argsort(-dets[:, 4], kind="stable").tolist():
        # the highest IoU at or above the threshold; ties go to the first gt
        ok = untaken & (gts[:, 4] == dets[i, 5]) & (ious[i] >= iou_thr)
        if ok.any():
            j = int(np.where(ok, ious[i], -np.inf).argmax())
            untaken[j] = False
            tp[i] = True
    return tp


def _curve(flags: np.ndarray, n_gt: int) -> tuple[np.ndarray, float]:
    """The swept (m, 2) PR curve of ranked true-positive flags and its
    all-points AP."""
    if len(flags) == 0 or n_gt == 0:
        return np.empty((0, 2)), 0.0
    hits = np.cumsum(flags)
    recalls = hits / n_gt
    precisions = hits / np.arange(1, len(flags) + 1)
    # interpolated precision: the running max from the right
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    ap = np.add.accumulate(np.diff(recalls, prepend=0.0) * envelope)[-1]
    return np.stack([recalls, precisions], axis=1), float(ap)


def evaluate(detections, ground_truths, iou_thr: float = 0.5):
    """Score per-image detections against per-image ground truths.

    Returns (summary, the (m, 2) PR curve). summary is the dict of
    summary.json's scores: precision, recall, F1 (derived from the two), AP,
    and per_class_ap, the AP of each ground-truth class id keyed by the int
    id, in ascending order.
    """
    if len(detections) != len(ground_truths):
        raise ConfigError("detections and ground truths must cover the same images")
    flags = np.concatenate([np.zeros(0, dtype=bool), *(
        match_image(dets, gts, iou_thr) for dets, gts in zip(detections, ground_truths))])
    dets = np.concatenate([np.empty((0, 6)), *detections])
    # int class ids: cmd_eval prints them as summary.json's per_class_ap keys
    classes = dets[:, 5].astype(np.int64)
    gt_classes = np.concatenate([np.empty(0), *(gts[:, 4] for gts in ground_truths)]).astype(np.int64)
    x1, y1, x2, y2, score = dets[:, :5].T
    # np.lexsort's last key ranks first: (-score, class, x1, y1, x2, y2)
    order = np.lexsort((y2, x2, y1, x1, classes, -score))
    ranked, ranked_classes = flags[order], classes[order]

    n_tp, n_det, n_gt = int(np.count_nonzero(flags)), len(flags), len(gt_classes)
    precision = n_tp / n_det if n_det else 0.0
    recall = n_tp / n_gt if n_gt else 0.0
    curve, ap = _curve(ranked, n_gt)
    gt_ids, gt_counts = np.unique(gt_classes, return_counts=True)
    per_class_ap = {k: _curve(ranked[ranked_classes == k], n)[1]
                    for k, n in zip(gt_ids.tolist(), gt_counts.tolist())}
    pr = precision + recall
    f1 = 2.0 * precision * recall / pr if pr > 0 else 0.0
    return {"precision": precision, "recall": recall, "f1": f1, "ap": ap,
            "per_class_ap": per_class_ap}, curve


def pr_curve_csv(curve: np.ndarray) -> str:
    lines = ["recall,precision"]
    for r, p in curve.tolist():
        lines.append(f"{r!r},{p!r}")
    return "\n".join(lines) + "\n"
