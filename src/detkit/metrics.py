"""Detection evaluation: greedy matching, precision/recall, PR curve, AP.

An image's detections are the (n, 6) rows [x1, y1, x2, y2, score, class]
that ``postprocess.nms`` returns, and its ground truths the (t, 5) rows
[x1, y1, x2, y2, class] that ``dataset.synth_dataset`` yields.

Matching is per image: detections are processed in descending score order
(ties by input order) and each claims at most one unmatched ground truth of
the same class with IoU at or above the threshold. Precision and recall are
reported at the final operating point (every supplied detection counts);
the PR curve sweeps the score threshold implicitly through the sorted
detection list and AP is the exact area under the all-points interpolated
curve. Precision with zero predictions is defined as 0.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .losses import pairwise_iou
from .tensor import ConfigError


@dataclass(frozen=True)
class PRCurve:
    """Ordered (recall, precision) points; recall is non-decreasing."""

    recalls: tuple[float, ...]
    precisions: tuple[float, ...]
    ap: float

    def __post_init__(self):
        if len(self.recalls) != len(self.precisions):
            raise ConfigError("recall/precision lengths differ")
        if any(b < a - 1e-12 for a, b in zip(self.recalls, self.recalls[1:])):
            raise ConfigError("recall must be non-decreasing")
        if not 0.0 <= self.ap <= 1.0:
            raise ConfigError("AP must lie in [0, 1]")


@dataclass(frozen=True)
class EvalSummary:
    """The six-indicator summary: precision, recall, F1, AP, model size,
    computation (MAC count). F1 is derived, never passed in."""

    precision: float
    recall: float
    f1: float
    ap: float
    model_size_mb: float
    computation_macs: int

    @classmethod
    def build(cls, precision: float, recall: float, ap: float,
              model_size_mb: float = 0.0, computation_macs: int = 0) -> "EvalSummary":
        pr = precision + recall
        f1 = 2.0 * precision * recall / pr if pr > 0 else 0.0
        return cls(precision, recall, f1, ap, model_size_mb, computation_macs)

    def to_json_dict(self) -> dict:
        return asdict(self)


def match_image(dets: np.ndarray, gts: np.ndarray, iou_thr: float) -> list[bool]:
    """Greedy match of one image's (n, 6) detections against its (t, 5)
    ground truths; returns a true-positive flag per detection in the original
    detection order."""
    ious = pairwise_iou(dets[:, :4], gts[:, :4])
    untaken = np.ones(len(gts), dtype=bool)
    tp = [False] * len(dets)
    for i in np.argsort(-dets[:, 4], kind="stable").tolist():
        # the highest IoU at or above the threshold; ties go to the first gt
        ok = untaken & (gts[:, 4] == dets[i, 5]) & (ious[i] >= iou_thr)
        if ok.any():
            j = int(np.where(ok, ious[i], -np.inf).argmax())
            untaken[j] = False
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
    """Build the swept PR curve from pooled (score, tp, tiebreak) records."""
    if not flags_scores or n_gt == 0:
        return PRCurve((), (), 0.0)
    ordered = sorted(flags_scores, key=lambda z: (-z[0],) + z[2])
    tp = np.cumsum([1 if z[1] else 0 for z in ordered])
    fp = np.cumsum([0 if z[1] else 1 for z in ordered])
    recalls = tp / n_gt
    precisions = tp / np.maximum(tp + fp, 1)
    ap = _ap_all_points(recalls, precisions)
    return PRCurve(tuple(recalls.tolist()), tuple(precisions.tolist()), ap)


def evaluate(detections, ground_truths, iou_thr: float = 0.5,
             model_size_mb: float = 0.0, computation_macs: int = 0):
    """Score per-image detections against per-image ground truths.

    Returns (EvalSummary, PRCurve, per_class_ap dict). The result does not
    depend on the order in which images are supplied.
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
        tp = match_image(dets, gts, iou_thr)
        for (x1, y1, x2, y2, score, cls), flag in zip(dets.tolist(), tp):
            n_tp += flag
            # an int class id: summary.json's per_class_ap keys print it
            key = (int(cls), x1, y1, x2, y2)
            pooled.append((score, flag, key))
            per_class.setdefault(key[0], []).append((score, flag, key))

    precision = n_tp / n_det if n_det else 0.0
    recall = n_tp / n_gt if n_gt else 0.0
    curve = _curve_from_flags(pooled, n_gt)
    per_class_ap = {
        cls: _curve_from_flags(per_class.get(cls, []), cnt).ap
        for cls, cnt in sorted(class_gt_counts.items())
    }
    summary = EvalSummary.build(precision, recall, curve.ap, model_size_mb, computation_macs)
    return summary, curve, per_class_ap


def pr_curve_csv(curve: PRCurve) -> str:
    lines = ["recall,precision"]
    for r, p in zip(curve.recalls, curve.precisions):
        lines.append(f"{r!r},{p!r}")
    return "\n".join(lines) + "\n"
