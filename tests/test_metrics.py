"""Evaluation tests: confusion arithmetic, PR-curve properties, invariance."""

import numpy as np
import pytest

from oracles import (Detection, detection_rows, random_detections, record_evaluate, scalar_match_image,
                     target_rows)

from detkit import metrics
from detkit.metrics import match_image, pr_curve_csv
from detkit.tensor import ConfigError


def det(x1, y1, x2, y2, score, cls=0):
    """A detection row [x1, y1, x2, y2, score, class]."""
    return [x1, y1, x2, y2, score, cls]


def gt(x1, y1, x2, y2, cls=0):
    """A ground-truth row [x1, y1, x2, y2, class]."""
    return [x1, y1, x2, y2, cls]


def evaluate(dets, gts, **kwargs):
    """metrics.evaluate on per-image lists of det and gt rows, as the
    (n, 6) and (t, 5) arrays it reads."""
    return metrics.evaluate([np.array(d, dtype=np.float64).reshape(-1, 6) for d in dets],
                            [np.array(g, dtype=np.float64).reshape(-1, 5) for g in gts], **kwargs)


def same_curve(got, want) -> bool:
    """Equal shape, dtype and bytes, so 0.0 and -0.0 differ."""
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got.view(np.uint8), want.view(np.uint8)))


def check_curve(curve, ap):
    """A curve's invariants: (m, 2) float64 rows [recall, precision] with
    recall non-decreasing, precision in [0, 1], and an AP in [0, 1]."""
    assert curve.dtype == np.float64 and curve.ndim == 2 and curve.shape[1] == 2
    assert (np.diff(curve[:, 0]) >= 0.0).all()
    assert ((curve[:, 1] >= 0.0) & (curve[:, 1] <= 1.0)).all()
    assert 0.0 <= ap <= 1.0


def match(dets, gts, thr):
    return match_image(np.array(dets, dtype=np.float64).reshape(-1, 6),
                       np.array(gts, dtype=np.float64).reshape(-1, 5), thr).tolist()


class TestEvaluate:
    def test_perfect_predictions(self):
        gts = [[gt(0, 0, 10, 10), gt(20, 20, 30, 30, cls=1)], [gt(5, 5, 15, 15, cls=2)]]
        dets = [
            [det(0, 0, 10, 10, 0.9), det(20, 20, 30, 30, 0.8, cls=1)],
            [det(5, 5, 15, 15, 0.7, cls=2)],
        ]
        summary, curve = evaluate(dets, gts)
        per_class = summary["per_class_ap"]
        assert summary["precision"] == 1.0
        assert summary["recall"] == 1.0
        assert summary["f1"] == 1.0
        assert summary["ap"] == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in per_class.values())
        # summary.json writes str(k): a class id must stay an int, not 1.0
        assert list(per_class) == [0, 1, 2] and all(type(k) is int for k in per_class)

    def test_zero_predictions_defines_precision_zero(self):
        gts = [[gt(0, 0, 10, 10)]]
        summary, curve = evaluate([[]], gts)
        assert summary["precision"] == 0.0
        assert summary["recall"] == 0.0
        assert summary["f1"] == 0.0
        assert summary["ap"] == 0.0

    def test_hand_confusion_matrix(self):
        # 3 gt; detections: 2 TP, 1 FP -> P = 2/3, R = 2/3, F1 = 2/3
        gts = [[gt(0, 0, 10, 10), gt(20, 0, 30, 10), gt(40, 0, 50, 10)]]
        dets = [[
            det(0, 0, 10, 10, 0.9),
            det(20, 0, 30, 10, 0.8),
            det(70, 70, 80, 80, 0.7),
        ]]
        summary, _ = evaluate(dets, gts)
        assert summary["precision"] == pytest.approx(2 / 3)
        assert summary["recall"] == pytest.approx(2 / 3)
        assert summary["f1"] == pytest.approx(2 / 3)

    def test_class_must_match(self):
        gts = [[gt(0, 0, 10, 10, cls=1)]]
        dets = [[det(0, 0, 10, 10, 0.9, cls=0)]]
        summary, _ = evaluate(dets, gts)
        assert summary["precision"] == 0.0
        assert summary["recall"] == 0.0

    def test_each_gt_matched_at_most_once(self):
        gts = [[gt(0, 0, 10, 10)]]
        dets = [[det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)]]
        summary, _ = evaluate(dets, gts)
        assert summary["precision"] == pytest.approx(0.5)
        assert summary["recall"] == 1.0

    def test_iou_threshold_gates_match(self):
        gts = [[gt(0, 0, 10, 10)]]
        dets = [[det(0, 0, 10, 5.4, 0.9)]]  # IoU 0.54
        s_lo, _ = evaluate(dets, gts, iou_thr=0.5)
        s_hi, _ = evaluate(dets, gts, iou_thr=0.6)
        assert s_lo["recall"] == 1.0
        assert s_hi["recall"] == 0.0

    def test_permutation_invariant_over_images(self):
        rng = np.random.default_rng(51)
        gts, dets = [], []
        for _ in range(6):
            img_gts, img_dets = [], []
            for _ in range(int(rng.integers(1, 4))):
                x, y = rng.uniform(0, 40, size=2)
                img_gts.append(gt(x, y, x + 10, y + 10, cls=int(rng.integers(3))))
                if rng.random() < 0.8:
                    dx, dy = rng.uniform(-2, 2, size=2)
                    img_dets.append(det(x + dx, y + dy, x + dx + 10, y + dy + 10,
                                        float(rng.uniform(0.3, 1.0)), img_gts[-1][4]))
            gts.append(img_gts)
            dets.append(img_dets)
        base, base_curve = evaluate(dets, gts)
        perm = list(rng.permutation(len(gts)))
        shuf, shuf_curve = evaluate([dets[i] for i in perm], [gts[i] for i in perm])
        assert base == shuf
        assert same_curve(base_curve, shuf_curve)
        assert base["per_class_ap"] == shuf["per_class_ap"]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            evaluate([[]], [[], []])


def tied_draw(rng):
    """Per-image (n, 6) detections and (t, 5) ground truths on a coarse grid:
    quantised scores and corners make ties and duplicate rows common, within
    and across images; images may be empty; ground-truth classes and
    detection classes are drawn from overlapping ranges, so some classes have
    ground truths but no detections and some the reverse."""
    gt_lo, det_lo = rng.integers(0, 2, size=2)
    dets, gts, carried = [], [], []
    for _ in range(int(rng.integers(0, 6))):
        t = int(rng.integers(0, 5))
        xy = rng.integers(0, 10, size=(t, 2))
        g = np.column_stack([xy, xy + rng.integers(0, 5, size=(t, 2)),
                             rng.integers(gt_lo, gt_lo + 3, size=t)]).astype(np.float64)
        n = int(rng.integers(0, 7))
        xy = rng.integers(0, 10, size=(n, 2))
        d = np.column_stack([xy, xy + rng.integers(0, 5, size=(n, 2)),
                             rng.integers(1, 5, size=n) / 4.0,
                             rng.integers(det_lo, det_lo + 3, size=n)]).astype(np.float64)
        # detections that sit on a ground truth, and rows repeated from this
        # image and from earlier ones
        on_gt = np.column_stack([g[:, :4], np.full(t, 0.5), g[:, 4]])[:int(rng.integers(0, 3))]
        d = np.concatenate([d, on_gt, d[:int(rng.integers(0, 3))], *carried[-1:]])
        d = d[rng.permutation(len(d))]
        carried.append(d[:int(rng.integers(0, 3))])
        dets.append(d.astype(np.float32) if rng.random() < 0.1 else d)
        gts.append(g)
    return dets, gts


class TestEvaluateOracle:
    """evaluate ranks every detection once on arrays; it gives the record-based
    oracle's summary, PR curve and per-class AP bit for bit. Every curve keeps
    its invariants, and each class's AP is that of the overall curve of the
    class's detections and ground truths alone."""

    def test_matches_record_evaluate(self):
        rng = np.random.default_rng(20)
        for _ in range(2000):
            dets, gts = tied_draw(rng)
            for thr in (0.0, 0.1, 0.5, 1.0):
                got = metrics.evaluate(dets, gts, thr)
                want = record_evaluate(dets, gts, thr)
                assert repr(got[0]) == repr(want[0])
                assert pr_curve_csv(got[1]) == pr_curve_csv(want[1])
                assert same_curve(got[1], want[1])
                assert repr(got[0]["per_class_ap"]) == repr(want[0]["per_class_ap"])
                check_curve(got[1], got[0]["ap"])
                for k, ap in got[0]["per_class_ap"].items():
                    alone, curve = metrics.evaluate([d[d[:, 5] == k] for d in dets],
                                                    [g[g[:, 4] == k] for g in gts], thr)
                    assert repr(alone["ap"]) == repr(ap)
                    check_curve(curve, ap)

    def test_draws_cover_ties_duplicates_and_unmatched_classes(self):
        rng = np.random.default_rng(20)
        seen = dict.fromkeys(["empty image", "tied score", "duplicate row", "row of an earlier image",
                              "gt class without detections", "detection class without gts"], 0)
        for _ in range(200):
            dets, gts = tied_draw(rng)
            for d in dets:
                seen["empty image"] += len(d) == 0
                seen["tied score"] += len(np.unique(d[:, 4])) < len(d)
                seen["duplicate row"] += len(np.unique(d, axis=0)) < len(d)
            for a, b in zip(dets, dets[1:]):
                seen["row of an earlier image"] += any((b == row).all(axis=1).any() for row in a)
            det_classes = {int(k) for d in dets for k in d[:, 5]}
            gt_classes = {int(k) for g in gts for k in g[:, 4]}
            seen["gt class without detections"] += bool(gt_classes - det_classes)
            seen["detection class without gts"] += bool(det_classes - gt_classes)
        assert all(seen.values()), seen


class TestMatchImage:
    """match_image reads one IoU matrix; it flags the same detections as the
    pair-by-pair scalar_match_image."""

    @pytest.mark.parametrize("thr", [0.0, 0.1, 0.5, 1.0])
    def test_matches_scalar_matching(self, thr):
        rng = np.random.default_rng(50)
        for _ in range(200):
            dets = random_detections(rng, int(rng.integers(0, 25)), size=20.0)
            gts = [(d.bbox, d.class_id) for d in random_detections(rng, int(rng.integers(0, 6)), size=20.0)]
            # duplicate ground truths and detections that sit exactly on one
            gts += gts[:int(rng.integers(0, 3))]
            dets += [Detection(g, 0.5, c) for g, c in gts[:int(rng.integers(0, 3))]]
            got = match_image(detection_rows(dets), target_rows(gts), thr)
            assert got.dtype == bool and got.shape == (len(dets),)
            assert got.tolist() == scalar_match_image(dets, gts, thr)

    def test_equal_iou_goes_to_the_first_ground_truth(self):
        """The first detection overlaps both ground truths at IoU 1/3 and
        claims the first, which leaves the second for the detection that
        overlaps only it."""
        gts = [gt(0, 0, 2, 2), gt(2, 0, 4, 2)]
        dets = [det(1, 0, 3, 2, 0.9), det(2, 0, 4, 2, 0.8)]
        assert match(dets, gts, 0.3) == [True, True]
        assert match(dets, gts[::-1], 0.3) == [True, False]

    def test_zero_area_pair_matches_only_at_threshold_zero(self):
        """A zero-union pair has IoU 0, which meets a threshold of 0."""
        assert match([det(1, 1, 1, 1, 0.5)], [gt(1, 1, 1, 1)], 0.0) == [True]
        assert match([det(1, 1, 1, 1, 0.5)], [gt(1, 1, 1, 1)], 0.1) == [False]


class TestPrecisionRecallCurve:
    def test_recall_non_decreasing_and_ap_bounded(self):
        rng = np.random.default_rng(52)
        gts, dets = [], []
        for _ in range(8):
            img_gts, img_dets = [], []
            for _ in range(int(rng.integers(1, 5))):
                x, y = rng.uniform(0, 40, size=2)
                img_gts.append(gt(x, y, x + 8, y + 8))
            for _ in range(int(rng.integers(0, 6))):
                x, y = rng.uniform(0, 40, size=2)
                img_dets.append(det(x, y, x + 8, y + 8, float(rng.uniform(0, 1))))
            gts.append(img_gts)
            dets.append(img_dets)
        summary, curve = evaluate(dets, gts)
        assert len(curve) == sum(map(len, dets))
        check_curve(curve, summary["ap"])

    def test_known_curve_area(self):
        # one image, two gt, dets: TP at 0.9, FP at 0.8, TP at 0.7
        gts = [[gt(0, 0, 10, 10), gt(20, 0, 30, 10)]]
        dets = [[
            det(0, 0, 10, 10, 0.9),
            det(50, 50, 60, 60, 0.8),
            det(20, 0, 30, 10, 0.7),
        ]]
        summary, curve = evaluate(dets, gts)
        assert curve.tolist() == [[0.5, 1.0], [0.5, 0.5], [1.0, 2 / 3]]
        # all-points AP: 0.5 * 1 + 0.5 * 2/3
        assert summary["ap"] == pytest.approx(0.5 + 0.5 * 2 / 3)

    def test_csv_emission(self):
        _, curve = evaluate([[det(0, 0, 10, 10, 0.9)]], [[gt(0, 0, 10, 10)]])
        text = pr_curve_csv(curve)
        lines = text.strip().splitlines()
        assert lines[0] == "recall,precision"
        assert len(lines) == 2


class TestSummary:
    def test_f1_identity_enforced(self):
        # 10 gt; detections: 4 TP, 1 FP -> P = 0.8, R = 0.4
        gts = [[gt(20 * i, 0, 20 * i + 10, 10) for i in range(10)]]
        dets = [[*(det(20 * i, 0, 20 * i + 10, 10, 0.9) for i in range(4)),
                 det(0, 50, 10, 60, 0.5)]]
        summary, _ = evaluate(dets, gts)
        assert (summary["precision"], summary["recall"]) == (0.8, 0.4)
        assert summary["f1"] == pytest.approx(2 * 0.8 * 0.4 / 1.2)

    def test_f1_zero_when_both_zero(self):
        summary, _ = evaluate([[det(50, 50, 60, 60, 0.9)]], [[gt(0, 0, 10, 10)]])
        assert (summary["precision"], summary["recall"]) == (0.0, 0.0)
        assert summary["f1"] == 0.0
