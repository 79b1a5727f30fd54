"""Box geometry and loss-ladder tests: hand values, oracles, invariants.

The box losses are evaluated through ``_box_rows`` on one (pred, gt) row; the
scalar boxes and IoU of tests/oracles.py build the rows and check the values.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    BBox,
    cell_to_box,
    corners,
    encode_box,
    iou,
    per_image_detection_loss,
    separate_detection_loss_grad,
)

from detkit import losses
from detkit.losses import detection_loss, pairwise_iou
from detkit.tensor import ConfigError

UNIT = BBox(0.0, 0.0, 1.0, 1.0)
UNIT_SHIFTED = BBox(0.5, 0.0, 1.5, 1.0)
DYADIC = st.integers(-2**15, 2**15)


def box_loss(variant, pred, gt):
    """The variant's loss of pred against gt and its corner gradient: the one
    row of a _box_rows call."""
    loss, grad = losses._box_rows(variant, corners([pred]), corners([gt]))
    return float(loss[0]), grad[0]


def ciou(pred, gt):
    return box_loss("ciou", pred, gt)[0]


def wiou(pred, gt):
    return box_loss("wiou", pred, gt)[0]


def iou_rows(a, b):
    """pairwise_iou of the two boxes."""
    return float(pairwise_iou(corners([a]), corners([b]))[0, 0])


def _check_iou_pair(data, shift) -> bool:
    """IoU of the boxes spanned by data is in [0, 1] and symmetric, before
    and after both are shifted. Translation invariance holds in floating
    point when the shift moves every corner exactly: the differences of the
    shifted corners are then those of the unshifted ones, and the IoU is
    bit-identical. Returns whether the shift was exact."""
    ax, ay, bx, by = (sorted(data[i:i + 2]) for i in range(0, 8, 2))
    a = BBox(ax[0], ay[0], ax[1], ay[1])
    b = BBox(bx[0], by[0], bx[1], by[1])
    dx, dy = shift
    a2 = BBox(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
    b2 = BBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
    v, v2 = iou_rows(a, b), iou_rows(a2, b2)
    assert 0.0 <= v <= 1.0 and iou_rows(b, a) == v
    assert 0.0 <= v2 <= 1.0 and iou_rows(b2, a2) == v2
    exact = all(math.fsum((c + d, -c, -d)) == 0.0
                for box in (a, b)
                for c, d in ((box.x1, dx), (box.y1, dy), (box.x2, dx), (box.y2, dy)))
    if exact:
        assert v2 == v
    return exact


class TestIoU:
    def test_identical_boxes(self):
        assert iou_rows(UNIT, UNIT) == 1.0

    def test_disjoint_boxes(self):
        assert iou_rows(UNIT, BBox(5.0, 5.0, 6.0, 6.0)) == 0.0

    def test_half_overlapping_unit_squares(self):
        # intersection 0.5, union 1.5
        assert iou_rows(UNIT, UNIT_SHIFTED) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_degenerate_pair_is_zero(self):
        point = BBox(1.0, 1.0, 1.0, 1.0)
        assert iou_rows(point, point) == 0.0

    @given(
        data=st.tuples(*[st.floats(-20, 20) for _ in range(8)]),
        shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
    )
    @example(data=(0.0, 5.14e-291, 0.0, 1.0, 0.0, 5.14e-291, 0.0, 1.0), shift=(1.0, 0.0))
    @settings(max_examples=80, deadline=None)
    def test_symmetry_and_translation_invariance(self, data, shift):
        """The explicit example shifts a box of width 5.14e-291 by 1.0: the
        shifted width rounds to 0, the shift is not exact, and the IoU drops
        from 1 to 0 by the zero-union convention."""
        _check_iou_pair(data, shift)

    @given(
        data=st.tuples(*[DYADIC.map(lambda k: k / 1024) for _ in range(8)]),
        shift=st.tuples(*[DYADIC.map(lambda k: k / 256) for _ in range(2)]),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_shift_keeps_iou_bit_identical(self, data, shift):
        """Corners on a 2^-10 grid in [-32, 32] and shifts on a 2^-8 grid in
        [-128, 128] always shift exactly."""
        assert _check_iou_pair(data, shift)

    @given(rows=st.lists(st.tuples(*[st.floats(-20, 20) for _ in range(4)]), max_size=8),
           picks=st.lists(st.integers(0, 7), max_size=8))
    @example(rows=[(0.0, 0.0, 5.14e-291, 1.0), (1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 1.0, 1.0)],
             picks=[0, 1, 2, 2, 1])
    @settings(max_examples=80, deadline=None)
    def test_pairwise_matrix_is_scalar_iou_bit_for_bit(self, rows, picks):
        """Row set a against b = a's boxes picked with repeats: duplicates,
        zero-area boxes (union 0) and empty sides included."""
        a = [BBox(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)) for x1, y1, x2, y2 in rows]
        b = [a[k % len(a)] for k in picks] if a else []
        got = pairwise_iou(corners(a), corners(b))
        assert got.shape == (len(a), len(b)) and got.dtype == np.float64
        want = np.array([[iou(p, g) for g in b] for p in a], dtype=np.float64).reshape(got.shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @given(scale=st.floats(0.01, 80.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, scale):
        a = BBox(1.0, 2.0, 4.0, 6.0)
        b = BBox(2.0, 3.0, 5.0, 4.5)
        v = iou_rows(a, b)
        a2 = BBox(a.x1 * scale, a.y1 * scale, a.x2 * scale, a.y2 * scale)
        b2 = BBox(b.x1 * scale, b.y1 * scale, b.x2 * scale, b.y2 * scale)
        assert iou_rows(a2, b2) == pytest.approx(v, rel=1e-9)


def mp_ciou(pred, gt):
    """High-precision reference for the complete-IoU loss, coded separately
    with 50-digit arithmetic."""
    with mpmath.workdps(50):
        px1, py1, px2, py2 = (mpmath.mpf(v) for v in (pred.x1, pred.y1, pred.x2, pred.y2))
        gx1, gy1, gx2, gy2 = (mpmath.mpf(v) for v in (gt.x1, gt.y1, gt.x2, gt.y2))
        iw = max(min(px2, gx2) - max(px1, gx1), mpmath.mpf(0))
        ih = max(min(py2, gy2) - max(py1, gy1), mpmath.mpf(0))
        inter = iw * ih
        union = (px2 - px1) * (py2 - py1) + (gx2 - gx1) * (gy2 - gy1) - inter
        i = inter / union
        rho2 = ((px1 + px2) / 2 - (gx1 + gx2) / 2) ** 2 + ((py1 + py2) / 2 - (gy1 + gy2) / 2) ** 2
        cw = max(px2, gx2) - min(px1, gx1)
        ch = max(py2, gy2) - min(py1, gy1)
        diag2 = cw**2 + ch**2 + mpmath.mpf(1e-9)
        dang = mpmath.atan2(gx2 - gx1, gy2 - gy1) - mpmath.atan2(px2 - px1, py2 - py1)
        v = 4 / mpmath.pi**2 * dang**2
        alpha = v / ((1 - i) + v + mpmath.mpf(1e-9))
        return float(1 - i + rho2 / diag2 + alpha * v)


class TestCIoU:
    def test_zero_at_exact_match(self):
        b = BBox(2.0, 3.0, 7.0, 11.0)
        assert ciou(b, b) == pytest.approx(0.0, abs=1e-9)

    def test_concentric_same_aspect_equals_iou_complement(self):
        gt = BBox(-2.0, -1.0, 2.0, 1.0)
        pred = BBox(-4.0, -2.0, 4.0, 2.0)  # same center, same 2:1 aspect
        assert ciou(pred, gt) == pytest.approx(1.0 - iou(pred, gt), abs=1e-9)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            vals = rng.uniform(0, 10, size=8)
            px = sorted(vals[0:2]); py = sorted(vals[2:4])
            gx = sorted(vals[4:6]); gy = sorted(vals[6:8])
            if min(px[1] - px[0], py[1] - py[0], gx[1] - gx[0], gy[1] - gy[0]) < 0.05:
                continue
            pred = BBox(px[0], py[0], px[1], py[1])
            gt = BBox(gx[0], gy[0], gx[1], gy[1])
            assert ciou(pred, gt) == pytest.approx(mp_ciou(pred, gt), abs=1e-12)

    def test_at_least_iou_complement(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            vals = rng.uniform(0, 10, size=8)
            px = sorted(vals[0:2]); py = sorted(vals[2:4])
            gx = sorted(vals[4:6]); gy = sorted(vals[6:8])
            if min(px[1] - px[0], py[1] - py[0], gx[1] - gx[0], gy[1] - gy[0]) < 0.05:
                continue
            pred = BBox(px[0], py[0], px[1], py[1])
            gt = BBox(gx[0], gy[0], gx[1], gy[1])
            assert ciou(pred, gt) >= (1.0 - iou(pred, gt)) - 1e-12

    def test_degenerate_pred_finite(self):
        pred = BBox(1.0, 1.0, 1.0, 1.0)
        gt = BBox(0.0, 0.0, 2.0, 2.0)
        val = ciou(pred, gt)
        assert math.isfinite(val) and val >= 0.0

    def test_translation_invariance(self):
        pred = BBox(0.0, 0.0, 2.0, 3.0)
        gt = BBox(1.0, 1.0, 2.5, 4.0)
        base = ciou(pred, gt)
        moved = ciou(
            BBox(pred.x1 + 11.5, pred.y1 - 3.25, pred.x2 + 11.5, pred.y2 - 3.25),
            BBox(gt.x1 + 11.5, gt.y1 - 3.25, gt.x2 + 11.5, gt.y2 - 3.25),
        )
        assert moved == pytest.approx(base, abs=1e-10)


class TestWIoU:
    def test_zero_at_exact_match(self):
        b = BBox(1.0, 2.0, 4.0, 9.0)
        assert wiou(b, b) == pytest.approx(0.0, abs=1e-12)

    def test_coincident_centers_reduce_to_iou_complement(self):
        gt = BBox(-1.0, -1.0, 1.0, 1.0)
        pred = BBox(-3.0, -0.5, 3.0, 0.5)  # same center, different size/aspect
        assert wiou(pred, gt) == pytest.approx(1.0 - iou(pred, gt), abs=1e-15)

    def test_unit_square_offset_hand_value(self):
        # enclosing box 1.5 x 1, D = 3.25, centers 0.5 apart, IoU = 1/3
        want = math.exp(0.25 / (3.25 + 1e-9)) * (2.0 / 3.0)
        assert wiou(UNIT_SHIFTED, UNIT) == pytest.approx(want, abs=1e-9)

    def test_at_least_iou_complement(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            vals = rng.uniform(0, 10, size=8)
            px = sorted(vals[0:2]); py = sorted(vals[2:4])
            gx = sorted(vals[4:6]); gy = sorted(vals[6:8])
            if min(gx[1] - gx[0], gy[1] - gy[0]) < 0.05:
                continue
            pred = BBox(px[0], py[0], px[1], py[1])
            gt = BBox(gx[0], gy[0], gx[1], gy[1])
            assert wiou(pred, gt) >= (1.0 - iou(pred, gt)) - 1e-12

    def test_translation_invariance(self):
        pred = BBox(0.0, 0.0, 2.0, 3.0)
        gt = BBox(1.0, 1.0, 2.5, 4.0)
        base = wiou(pred, gt)
        moved = wiou(
            BBox(pred.x1 - 7.0, pred.y1 + 2.5, pred.x2 - 7.0, pred.y2 + 2.5),
            BBox(gt.x1 - 7.0, gt.y1 + 2.5, gt.x2 - 7.0, gt.y2 + 2.5),
        )
        assert moved == pytest.approx(base, abs=1e-10)

    def test_detached_normalizer_distinguished_from_full_derivative(self):
        """When the pred box determines the enclosing box, the full derivative
        of the forward value differs from the implemented one; the implemented
        gradient must match the D-frozen derivative, not the full one."""
        pred = BBox(0.0, 0.0, 4.0, 4.0)  # strictly contains gt: encl box = pred
        gt = BBox(1.0, 1.5, 2.0, 2.5)
        got = box_loss("wiou", pred, gt)[1]

        h = 1e-7
        full = np.zeros(4)
        frozen = np.zeros(4)
        p0 = pred.as_array()
        diag2 = (4.0**2 + 4.0**2) + losses.EPS
        for i in range(4):
            pp = p0.copy(); pp[i] += h
            pm = p0.copy(); pm[i] -= h
            full[i] = (wiou(BBox(*pp), gt) - wiou(BBox(*pm), gt)) / (2 * h)

            def frozen_val(q):
                b = BBox(*q)
                rho2 = ((b.x1 + b.x2) / 2 - 1.5) ** 2 + ((b.y1 + b.y2) / 2 - 2.0) ** 2
                return math.exp(rho2 / diag2) * (1.0 - iou(b, gt))

            frozen[i] = (frozen_val(pp) - frozen_val(pm)) / (2 * h)
        assert np.allclose(got, frozen, atol=1e-6)
        assert not np.allclose(got, full, atol=1e-6)


class TestLossGradients:
    def test_ciou_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(24)
        h = 1e-6
        for _ in range(40):
            vals = rng.uniform(0, 10, size=8)
            px = sorted(vals[0:2]); py = sorted(vals[2:4])
            gx = sorted(vals[4:6]); gy = sorted(vals[6:8])
            if min(px[1] - px[0], py[1] - py[0], gx[1] - gx[0], gy[1] - gy[0]) < 0.2:
                continue
            if min(abs(a - b) for a, b in
                   ((px[0], gx[0]), (px[1], gx[1]), (py[0], gy[0]), (py[1], gy[1]))) < 1e-3:
                continue
            pred = BBox(px[0], py[0], px[1], py[1])
            gt = BBox(gx[0], gy[0], gx[1], gy[1])
            got = box_loss("ciou", pred, gt)[1]
            p0 = pred.as_array()
            for i in range(4):
                pp = p0.copy(); pp[i] += h
                pm = p0.copy(); pm[i] -= h
                num = (ciou(BBox(*pp), gt) - ciou(BBox(*pm), gt)) / (2 * h)
                denom = max(abs(got[i]), abs(num), 1e-4)
                assert abs(got[i] - num) / denom < 1e-4


class TestDetectionLoss:
    def _head(self, k=3, g=3):
        return np.zeros((1, 5 + k, g, g))

    def test_zero_targets(self):
        head = self._head()
        terms, _ = detection_loss(head, [[]], "wiou", stride=8.0)
        assert terms.shape == (1, 4) and terms.dtype == np.float64
        box, obj, cls, total = terms[0]
        assert box == 0.0 and cls == 0.0
        # BCE of logit 0 against label 0 is log 2 per cell
        assert obj == pytest.approx(math.log(2.0), abs=1e-12)
        assert total == pytest.approx(obj, abs=1e-12)

    def test_saturated_perfect_predictions_drive_total_to_zero(self):
        target = BBox(6.0, 6.0, 16.0, 18.0)
        row, col, tx, ty, tw, th = encode_box(target, 8.0, 3, 3)
        head = np.full((1, 6, 3, 3), 0.0)
        head[0, 4] = -40.0  # objectness: confident "no object" everywhere
        head[0, 0, row, col] = tx
        head[0, 1, row, col] = ty
        head[0, 2, row, col] = tw
        head[0, 3, row, col] = th
        head[0, 4, row, col] = 40.0  # confident "object" at the target cell
        head[0, 5, row, col] = 40.0  # confident class
        total = detection_loss(head, [np.array([[6.0, 6.0, 16.0, 18.0, 0]])], "wiou", stride=8.0)[0][0, 3]
        assert total < 1e-9

    def test_two_cell_hand_computed_case(self):
        """2x1 grid, stride 8, one target in the left cell; every term checked
        against scalar arithmetic."""
        k = 1
        head = np.zeros((1, 6, 1, 2))
        target = BBox(2.0, 2.0, 6.0, 6.0)  # center (4, 4) -> cell (0, 0)
        box, obj, cls, total = detection_loss(head, [np.array([[2.0, 2.0, 6.0, 6.0, 0]])], "wiou",
                                              stride=8.0, box_weight=1.0, obj_weight=1.0, cls_weight=1.0)[0][0]
        # pred box from zero logits: center (4, 4), size 8x8 -> (0, 0, 8, 8)
        pred = BBox(0.0, 0.0, 8.0, 8.0)
        want_box = wiou(pred, target)
        inter = 16.0
        union = 64.0 + 16.0 - inter
        assert iou(pred, target) == pytest.approx(inter / union)
        # centers coincide so the weighting factor is exp(0) = 1
        assert want_box == pytest.approx(1.0 - inter / union)
        want_obj = (math.log(2.0) + math.log(2.0)) / 2.0  # two cells, logits 0
        want_cls = math.log(2.0)  # one class logit at the assigned cell
        assert box == pytest.approx(want_box, abs=1e-12)
        assert obj == pytest.approx(want_obj, abs=1e-12)
        assert cls == pytest.approx(want_cls, abs=1e-12)
        assert total == pytest.approx(want_box + want_obj + want_cls, abs=1e-12)

    def test_total_is_weighted_sum(self):
        rng = np.random.default_rng(25)
        head = rng.standard_normal((1, 8, 3, 3))
        targets = np.array([[4.0, 4.0, 14.0, 12.0, 1]])
        box, obj, cls, total = detection_loss(head, [targets], "ciou", stride=8.0,
                                              box_weight=5.0, obj_weight=2.0, cls_weight=3.0)[0][0]
        assert total == pytest.approx(5.0 * box + 2.0 * obj + 3.0 * cls, rel=1e-12)

    @pytest.mark.parametrize("row, match", [
        ([-1.0, 0.0, 5.0, 5.0, 0], r"target \[-1\.0, 0\.0, 5\.0, 5\.0\] lies outside the 24\.0x24\.0 image"),
        ([0.0, 0.0, 25.0, 5.0, 0], "lies outside"),
        ([0.0, 0.0, 5.0, np.inf, 0], "lies outside"),
        ([1.0, 1.0, 1.0, 1.0, 0], "positive area"),
        ([2.0, 0.0, 1.0, 5.0, 0], "positive area"),
        ([0.0, 0.0, 5.0, np.nan, 0], "positive area"),
        ([0.0, 0.0, 1e-200, 1e-200, 0], "positive area"),
        ([0.0, 0.0, 5.0, 5.0, 3], r"class id 3 is not an integer in \[0, 3\)"),
        ([0.0, 0.0, 5.0, 5.0, -1], "class id -1 is not"),
        ([0.0, 0.0, 5.0, 5.0, 1.5], "class id 1.5 is not"),
        ([0.0, 0.0, 5.0, 5.0, np.nan], "class id nan is not"),
    ], ids=["left", "right", "inf", "zero-area", "flipped", "nan-corner", "area-underflow",
            "class-past-k", "negative-class", "fractional-class", "nan-class"])
    def test_bad_target_rejected(self, row, match):
        """The bad row is the second target of the second image."""
        good = [2.0, 2.0, 6.0, 6.0, 0]
        with pytest.raises(ConfigError, match=match):
            detection_loss(np.zeros((2, 8, 3, 3)), [[good], np.array([good, row])],
                           "wiou", stride=8.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(26)
        head = rng.standard_normal((1, 7, 2, 2))
        targets = np.array([[2.0, 3.0, 9.0, 10.0, 1], [9.5, 9.5, 15.0, 15.5, 0]])
        got = detection_loss(head, [targets], "ciou", stride=8.0)[1]
        h = 1e-6
        flat = head.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            fp = detection_loss(head, [targets], "ciou", stride=8.0, with_grad=False)[0][0, 3]
            flat[idx] = orig - h
            fm = detection_loss(head, [targets], "ciou", stride=8.0, with_grad=False)[0][0, 3]
            flat[idx] = orig
            num = (fp - fm) / (2 * h)
            denom = max(abs(got.reshape(-1)[idx]), abs(num), 1e-4)
            assert abs(got.reshape(-1)[idx] - num) / denom < 1e-4


class TestDetectionLossAndGrad:
    """The one-pass loss and gradient reproduces the value-only loss and the
    separately computed gradient bit for bit; the value-only call returns no
    gradient."""

    TARGET_SETS = {
        "none": np.empty((0, 5)),
        "one": np.array([[3.0, 2.5, 13.0, 11.0, 2]]),
        # the first two share cell (1, 1), so their gradients accumulate
        "shared-cell": np.array([[9.0, 9.5, 14.0, 14.0, 0], [8.5, 8.0, 15.5, 15.0, 1],
                                 [16.0, 1.0, 23.5, 7.0, 2]]),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("targets", sorted(TARGET_SETS))
    @pytest.mark.parametrize("variant", ["iou", "ciou", "wiou"])
    def test_matches_value_only_loss_and_separate_gradient(self, variant, targets, dtype):
        rng = np.random.default_rng(27)
        head = (rng.standard_normal((1, 8, 3, 3)) * 2.0).astype(dtype)
        tg = self.TARGET_SETS[targets]
        args = (variant, 8.0, 5.0, 2.5, 2.5)
        terms, grad = detection_loss(head, [tg], *args)
        value_terms, no_grad = detection_loss(head, [tg], *args, with_grad=False)
        assert no_grad is None and _same_bits(terms, value_terms)
        want = separate_detection_loss_grad(head, tg, *args)
        assert grad.dtype == dtype
        assert np.array_equal(grad, want)
        assert np.array_equal(per_image_detection_loss(head, tg, *args)[1], want)

    def test_iou_value_when_union_is_below_eps(self):
        """Boxes of area ~1e-12: the gradient core gives IoU 0 once the union
        is at most EPS, but the iou variant's value is still the IoU's."""
        gt = BBox(4.0, 4.0, 4.0 + 1e-6, 4.0 + 1e-6)
        head = np.zeros((1, 6, 1, 1))
        head[0, 2:4] = math.log(2.5e-7)  # a 2e-6 square centred at (4, 4)
        pred = cell_to_box(0.0, 0.0, head[0, 2, 0, 0], head[0, 3, 0, 0], 0, 0, 8.0)
        assert iou(pred, gt) == 0.25
        terms, _ = detection_loss(head, [[[gt.x1, gt.y1, gt.x2, gt.y2, 0]]], "iou", 8.0)
        assert terms[0, 0] == 0.75


def _same_bits(got, want) -> bool:
    """Equal values and equal sign bits, so 0.0 and -0.0 differ."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


class TestBatchedLossMatchesPerImageOracle:
    """detection_loss over a batch equals, bit for bit, the
    per-image, per-target loss of tests/oracles.py run on each image alone."""

    ARGS = (8.0, 5.0, 2.5, 2.5)  # stride and the default TrainConfig weights
    # 3x3 grid of stride 8: targets 0 and 1 of image 2 share cell (1, 1);
    # image 5's ten targets are more than numpy sums one at a time
    MIXED = [
        np.empty((0, 5)),
        np.array([[3.0, 2.5, 13.0, 11.0, 2]]),
        np.array([[9.0, 9.5, 14.0, 14.0, 0], [8.5, 8.0, 15.5, 15.0, 1], [16.0, 1.0, 23.5, 7.0, 2]]),
        [],
        np.array([[0.5, 16.5, 7.5, 23.5, 1], [2.0, 2.0, 22.0, 22.0, 0]]),
        np.array([[1.0 + 2.1 * k, 0.5 + 2.0 * k, 3.5 + 2.0 * k, 4.0 + 1.9 * k, k % 3] for k in range(10)]),
    ]

    def _check(self, head, target_lists, variant):
        terms, grad = detection_loss(head, target_lists, variant, *self.ARGS)
        assert terms.shape == (len(target_lists), 4)
        assert _same_bits(terms, detection_loss(head, target_lists, variant, *self.ARGS,
                                                with_grad=False)[0])
        assert grad.shape == head.shape and grad.dtype == head.dtype
        for i, targets in enumerate(target_lists):
            want_terms, want_grad = per_image_detection_loss(
                head[i:i + 1], targets, variant, *self.ARGS)
            assert _same_bits(terms[i], want_terms)
            assert _same_bits(grad[i], want_grad[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["iou", "ciou", "wiou"])
    def test_mixed_target_counts_and_a_shared_cell(self, variant, dtype):
        # at this seed, image 5's ten box losses sum to different bits one at
        # a time and pairwise (numpy's sum), for every variant and dtype
        rng = np.random.default_rng(150)
        head = (rng.standard_normal((len(self.MIXED), 8, 3, 3)) * 2.0).astype(dtype)
        self._check(head, self.MIXED, variant)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["iou", "ciou", "wiou"])
    def test_benchmark_dataset_batches(self, variant, dtype, seed):
        """The train benchmark's data: synth_dataset(seed, 50, 64, 3) in
        batches of 5 on the 8x8 grid."""
        from detkit.dataset import synth_dataset

        data = synth_dataset(seed, 50, 64, 3)
        rng = np.random.default_rng(seed)
        for start in range(0, len(data), 5):
            head = (rng.standard_normal((5, 8, 8, 8)) * 1.5).astype(dtype)
            self._check(head, [t for _, t in data[start:start + 5]], variant)

    @pytest.mark.parametrize("variant", ["iou", "ciou", "wiou"])
    def test_an_image_does_not_depend_on_its_batch(self, variant):
        """Each image's terms and gradient are the same alone, in its batch,
        and in a batch reordered around it."""
        rng = np.random.default_rng(32)
        head = rng.standard_normal((len(self.MIXED), 8, 3, 3)) * 2.0
        terms, grad = detection_loss(head, self.MIXED, variant, *self.ARGS)
        order = [3, 0, 5, 4, 2, 1]
        shuffled_terms, shuffled_grad = detection_loss(
            head[order], [self.MIXED[i] for i in order], variant, *self.ARGS)
        for k, i in enumerate(order):
            (alone_terms,), alone_grad = detection_loss(
                head[i:i + 1], [self.MIXED[i]], variant, *self.ARGS)
            assert _same_bits(terms[i], alone_terms) and _same_bits(terms[i], shuffled_terms[k])
            assert _same_bits(grad[i], alone_grad[0]) and _same_bits(grad[i], shuffled_grad[k])

    def test_one_target_list_per_grid(self):
        with pytest.raises(ConfigError, match="2 target lists for 1 prediction grids"):
            detection_loss(np.zeros((1, 6, 2, 2)), [[], []])


class TestBoxRowsMatchScalarOracle:
    """Every row of _box_rows equals the one-pair scalar evaluation."""

    @pytest.mark.parametrize("variant", ["iou", "ciou", "wiou"])
    def test_rows_are_the_scalar_pairs(self, variant):
        from oracles import scalar_box_loss_and_grad

        rng = np.random.default_rng(33)
        pairs = []
        for _ in range(200):
            px1, px2 = np.sort(rng.uniform(0.0, 10.0, 2))
            py1, py2 = np.sort(rng.uniform(0.0, 10.0, 2))
            gx1, gx2 = np.sort(rng.uniform(0.0, 10.0, 2))
            gy1, gy2 = np.sort(rng.uniform(0.0, 10.0, 2))
            pairs.append((BBox(px1, py1, px2, py2), BBox(gx1, gy1, gx2, gy2)))
        # shared edges (min/max ties), a disjoint pair, a zero-height pred,
        # and a pred whose w^2 + h^2 is below EPS
        pairs += [(UNIT, UNIT), (UNIT_SHIFTED, UNIT), (BBox(5.0, 5.0, 6.0, 6.0), UNIT),
                  (BBox(0.0, 0.5, 2.0, 0.5), UNIT),
                  (BBox(0.5, 0.5, 0.5 + 1e-5, 0.5 + 1e-5), BBox(0.0, 0.0, 0.1, 10.0))]
        loss, grad = losses._box_rows(variant, corners([p for p, _ in pairs]),
                                      corners([g for _, g in pairs]))
        for k, (pred, gt) in enumerate(pairs):
            want_loss, want_grad = scalar_box_loss_and_grad(variant, pred, gt)
            assert _same_bits(loss[k], np.float64(want_loss))
            assert _same_bits(grad[k], want_grad)


class TestCellBoxes:
    """_cell_boxes, the cell-to-box transform of the loss, equals the
    one-cell math.exp transform of cell_to_box to the bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rows_are_the_scalar_cells(self, dtype):
        rng = np.random.default_rng(34)
        t = rng.standard_normal((300, 4)) * 4.0
        t[:10] = -0.0
        t[10:20] = 0.0
        t[20:60, :2] = rng.choice([-800.0, -40.0, 40.0, 800.0], size=(40, 2))
        t[60:80, 2:] = rng.choice([-700.0, -60.0, 60.0, 700.0], size=(20, 2))
        t = t.astype(dtype)
        rows, cols = rng.integers(0, 8, size=(2, len(t)))
        got = losses._cell_boxes(t, rows, cols, 8.0)
        want = corners([cell_to_box(*v, r, c, 8.0)
                        for v, r, c in zip(t.astype(np.float64).tolist(), rows.tolist(), cols.tolist())])
        assert _same_bits(got, want)

    def test_a_size_logit_past_exp_range_overflows(self):
        """As math.exp does; training reports it as a non-finite loss."""
        with pytest.raises(OverflowError):
            losses._cell_boxes(np.array([[0.0, 0.0, 710.0, 0.0]]), np.array([0]), np.array([0]), 8.0)
