"""Decode round trips, decode and NMS on (n, 6) rows against scalar and
brute-force references, letterbox and its inverse, the detections JSON writer
against json.dumps, and what the benchmark harness reads."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    BBox,
    Detection,
    box_to_letterboxed,
    brute_force_nms,
    detection_rows,
    encode_box,
    iou,
    json_dumps_detections,
    random_detections,
    scalar_decode,
    scalar_nms,
)

from detkit import postprocess
from detkit.postprocess import (
    _LOGIT_CAP,
    boxes_to_source,
    decode,
    detections_from_json,
    detections_to_json,
    letterbox,
    nms,
)
from detkit.tensor import ConfigError


def head_with_one_cell(grid, classes, row, col, tx, ty, tw, th, obj=40.0, cls_id=0,
                       cls_logit=40.0):
    head = np.zeros((1, 5 + classes, grid, grid))
    head[0, 4] = -40.0
    head[0, 0, row, col] = tx
    head[0, 1, row, col] = ty
    head[0, 2, row, col] = tw
    head[0, 3, row, col] = th
    head[0, 4, row, col] = obj
    head[0, 5 + cls_id, row, col] = cls_logit
    return head


def same_rows(got, want) -> bool:
    """Equal (n, 6) float64 detections, bit for bit."""
    return got.dtype == want.dtype == np.float64 and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


def det(x1, y1, x2, y2, score, cls=0):
    return np.array([[x1, y1, x2, y2, score, cls]], dtype=np.float64)


class TestDecode:
    def test_zero_offsets_put_center_at_cell_center(self):
        head = head_with_one_cell(4, 1, row=2, col=1, tx=0.0, ty=0.0, tw=0.0, th=0.0)
        (x1, y1, x2, y2, _, _), = decode(head, 8.0, 0.25)
        assert ((x1 + x2) / 2, (y1 + y2) / 2) == (pytest.approx(12.0), pytest.approx(20.0))

    def test_zero_size_logits_give_stride_sized_box(self):
        head = head_with_one_cell(4, 1, 1, 1, 0.0, 0.0, 0.0, 0.0)
        (x1, y1, x2, y2, _, _), = decode(head, 8.0, 0.25)
        assert x2 - x1 == pytest.approx(8.0)
        assert y2 - y1 == pytest.approx(8.0)

    def test_score_threshold_gates_emission(self):
        head = np.zeros((1, 6, 2, 2))  # score sigmoid(0)^2 = 0.25 everywhere
        assert len(decode(head, 8.0, 0.25)) == 4
        assert decode(head, 8.0, 0.2500001).shape == (0, 6)

    def test_boxes_clamped_to_image(self):
        head = head_with_one_cell(2, 1, 0, 0, 0.0, 0.0, 3.0, 3.0)  # huge box
        (x1, y1, x2, y2, _, _), = decode(head, 8.0, 0.25)
        assert x1 >= 0.0 and y1 >= 0.0
        assert x2 <= 16.0 and y2 <= 16.0

    @pytest.mark.parametrize("shape", [(2, 6, 2, 2), (0, 6, 2, 2), (1, 5, 2, 2), (1, 1, 2, 2)],
                             ids=["batch-2", "batch-0", "no-class", "one-channel"])
    def test_head_that_is_not_one_image_with_a_class_rejected(self, shape):
        with pytest.raises(ConfigError, match=r"is not \(1, 5 \+ K, h, w\) with K >= 1"):
            decode(np.zeros(shape), 8.0, 0.25)

    @pytest.mark.parametrize("stride", [0, -8, 0.0, -1e-300, float("nan")])
    def test_stride_not_positive_rejected(self, stride):
        with pytest.raises(ConfigError, match="stride must be > 0"):
            decode(np.zeros((1, 6, 2, 2)), stride, 0.25)

    def test_numpy_scalar_stride_decodes_like_a_python_number(self):
        """A float32 head's box sizes stay float32 whatever number type the
        stride is, so the rows are the same bits. (A stride of 3, unlike a
        power of two, rounds differently in float32 and float64.)"""
        head = hostile_head(np.random.default_rng(44), (1, 8, 8, 8), np.float32)
        want = decode(head, 3, 0.25)
        for stride in (3.0, np.int64(3), np.float64(3.0)):
            assert same_rows(decode(head, stride, 0.25), want)

    def test_encode_decode_round_trip(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            w = rng.uniform(3.0, 40.0)
            h = rng.uniform(3.0, 40.0)
            cx = rng.uniform(w / 2 + 0.2, 64.0 - w / 2 - 0.2)
            cy = rng.uniform(h / 2 + 0.2, 64.0 - h / 2 - 0.2)
            box = BBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
            row, col, tx, ty, tw, th = encode_box(box, 8.0, 8, 8)
            head = head_with_one_cell(8, 2, row, col, tx, ty, tw, th, cls_id=1)
            (row,) = decode(head, 8.0, 0.25)
            assert row[5] == 1
            assert np.all(np.abs(row[:4] - box.as_array()) < 1e-6)


def hostile_head(rng, shape, dtype):
    """Random logits of the given head shape plus the edge cases of decode:
    cells whose score is exactly 0.25 (all-zero logits), size logits at and
    beyond _LOGIT_CAP that clamp at both image edges, and cells whose boxes
    underflow to zero size."""
    head = rng.normal(0.0, 2.0, size=shape)
    _, channels, grid_h, grid_w = shape
    cells = grid_h * grid_w
    flat = head.reshape(channels, cells)
    picks = rng.permutation(cells)
    flat[:, picks[:cells // 6]] = 0.0
    flat[2:4, picks[cells // 6:cells // 3]] = rng.choice([_LOGIT_CAP, _LOGIT_CAP + 1.0, 400.0, 8.0],
                                                        size=(2, len(picks[cells // 6:cells // 3])))
    flat[2:4, picks[cells // 3:cells // 2]] = -200.0
    return head.astype(dtype)


class TestArrayDecode:
    """decode's rows equal the one-cell-at-a-time scalar_decode to the bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("threshold", [0.0, 0.01, 0.25, 0.6])
    def test_matches_scalar_decode(self, dtype, threshold):
        rng = np.random.default_rng(40)
        for grid_h, grid_w, classes in ((8, 8, 3), (3, 5, 1), (1, 1, 2), (6, 2, 4)):
            for _ in range(10):
                head = hostile_head(rng, (1, 5 + classes, grid_h, grid_w), dtype)
                assert same_rows(decode(head, 8.0, threshold),
                                 detection_rows(scalar_decode(head, 8.0, threshold)))

    def test_score_at_threshold_and_both_edges_clamped(self):
        head = np.zeros((1, 6, 2, 2))
        head[0, 2:4, 1, 0] = _LOGIT_CAP  # a box far wider than the image
        dets = decode(head, 8.0, 0.25)
        assert len(dets) == 4 and np.all(dets[:, 4] == 0.25)
        assert tuple(dets[2, :4]) == (0.0, 0.0, 16.0, 16.0)
        assert same_rows(dets, detection_rows(scalar_decode(head, 8.0, 0.25)))


def tied_detections(rng, n, classes=2):
    """Detections drawn from a few scores and a few boxes, so exact score
    ties, duplicate boxes and zero-area boxes are common."""
    boxes = [BBox(0.0, 0.0, 4.0, 4.0), BBox(1.0, 1.0, 5.0, 5.0), BBox(2.0, 2.0, 2.0, 6.0),
             BBox(3.0, 3.0, 3.0, 3.0), BBox(0.0, 2.0, 4.0, 6.0)]
    scores = (0.25, 0.5, 0.5000000000000001, 1.0)
    return [Detection(boxes[rng.integers(len(boxes))], scores[rng.integers(len(scores))],
                      int(rng.integers(classes))) for _ in range(n)]


class TestArrayNMS:
    """nms keeps the same rows, in the same order, as the pair-by-pair
    scalar_nms."""

    @pytest.mark.parametrize("thr", [0.0, 0.3, 0.45, 1.0])
    def test_matches_scalar_nms(self, thr):
        rng = np.random.default_rng(41)
        for trial in range(300):
            n = int(rng.integers(0, 40))
            dets = tied_detections(rng, n) if trial % 2 else random_detections(rng, n)
            assert same_rows(nms(detection_rows(dets), thr), detection_rows(scalar_nms(dets, thr)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("thr", [0.0, 0.45, 1.0])
    @pytest.mark.parametrize("score_threshold", [0.01, 0.25])
    def test_decode_and_nms_match_the_scalar_pipeline(self, score_threshold, thr, dtype):
        rng = np.random.default_rng(42)
        for _ in range(20):
            head = hostile_head(rng, (1, 8, 8, 8), dtype)
            want = detection_rows(scalar_nms(scalar_decode(head, 8.0, score_threshold), thr))
            assert same_rows(nms(decode(head, 8.0, score_threshold), thr), want)

    def test_empty(self):
        assert nms(np.empty((0, 6)), 0.45).shape == (0, 6)

    def test_zero_threshold_keeps_touching_and_zero_area_boxes(self):
        """Boxes that only touch, and a zero-area box inside another, have IoU
        0, which is not above a threshold of 0."""
        dets = np.concatenate([det(0.0, 0.0, 2.0, 2.0, 0.9), det(2.0, 0.0, 4.0, 2.0, 0.8),
                               det(1.0, 0.0, 1.0, 2.0, 0.7), det(1.0, 1.0, 3.0, 3.0, 0.6)])
        assert same_rows(nms(dets, 0.0), dets[:3])

    def test_threshold_one_keeps_duplicates(self):
        dets = np.concatenate([det(0.0, 0.0, 2.0, 2.0, 0.5), det(0.0, 0.0, 2.0, 2.0, 0.5)])
        assert same_rows(nms(dets, 1.0), dets)

    def test_score_ties_keep_input_order(self):
        """Equal scores and classes rank in input order, and the first of two
        overlapping boxes suppresses the second."""
        dets = np.concatenate([det(0.0, 0.0, 2.0, 2.0, 0.5, 1), det(5.0, 5.0, 7.0, 7.0, 0.5, 0),
                               det(0.0, 0.0, 2.0, 2.1, 0.5, 1)])
        assert same_rows(nms(dets, 0.45), dets[[1, 0]])
        assert same_rows(nms(dets[[2, 1, 0]], 0.45), dets[[1, 2]])


class TestNMS:
    def test_single_detection_kept(self):
        d = det(0, 0, 2, 2, 0.8)
        assert same_rows(nms(d), d)

    def test_identical_boxes_keep_higher_score(self):
        dets = np.concatenate([det(0, 0, 2, 2, 0.8), det(0, 0, 2, 2, 0.9)])
        assert same_rows(nms(dets), dets[1:])

    def test_different_classes_do_not_suppress(self):
        dets = np.concatenate([det(0, 0, 2, 2, 0.9, 0), det(0, 0, 2, 2, 0.8, 1)])
        assert same_rows(nms(dets), dets)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            dets = random_detections(rng, int(rng.integers(0, 31)))
            assert same_rows(nms(detection_rows(dets), 0.45), detection_rows(brute_force_nms(dets, 0.45)))

    def test_output_is_subset_with_no_close_pairs(self):
        rng = np.random.default_rng(33)
        dets = detection_rows(random_detections(rng, 25))
        out = nms(dets, 0.45)
        assert all((dets == row).all(axis=1).any() for row in out)
        boxes = [BBox(*row[:4]) for row in out.tolist()]
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if out[i, 5] == out[j, 5]:
                    assert iou(boxes[i], boxes[j]) <= 0.45
        assert np.all(np.diff(out[:, 4]) <= 0)

    def test_idempotent(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            once = nms(detection_rows(random_detections(rng, 20)), 0.45)
            assert same_rows(nms(once, 0.45), once)


class TestLetterbox:
    def test_already_target_sized_is_identity(self):
        rng = np.random.default_rng(35)
        img = rng.uniform(0, 1, size=(1, 1, 16, 16))
        out, scale, pads = letterbox(img, 16, 16)
        assert scale == 1.0 and pads == (0, 0)
        assert np.array_equal(out, img)

    def test_wide_image_pads_split_equally(self):
        img = np.full((1, 1, 8, 16), 1.0)
        out, scale, (px, py) = letterbox(img, 16, 16)
        assert scale == 1.0
        assert (px, py) == (0, 4)
        assert np.allclose(out[:, :, 4:12, :], 1.0)
        assert np.allclose(out[:, :, :4, :], 0.5)
        assert np.allclose(out[:, :, 12:, :], 0.5)

    def test_box_round_trip_within_a_pixel(self):
        """boxes_to_source inverts the letterbox mapping of a source box."""
        rng = np.random.default_rng(36)
        img = rng.uniform(0, 1, size=(1, 1, 30, 50))
        _, scale, pads = letterbox(img, 32, 32)
        for _ in range(20):
            x1, y1 = rng.uniform(0, 20, size=2)
            box = BBox(x1, y1, x1 + rng.uniform(1, 25), y1 + rng.uniform(1, 9))
            fwd = box_to_letterboxed(box, scale, pads)
            (back,) = boxes_to_source(np.array([[fwd.x1, fwd.y1, fwd.x2, fwd.y2]]), scale, pads, 50, 30)
            assert np.all(np.abs(np.array(back) - box.as_array()) <= 1.0)

    def test_inverse_clamps_to_the_image_and_keeps_an_edge_an_int(self):
        """Corners past the image clamp to 0.0 and to the int width or height;
        a corner inside the image stays a float, even at the edge."""
        (row,) = boxes_to_source(np.array([[-8.0, -4.0, 90.0, 60.0]]), 2.0, (0, 4), 40, 20)
        assert row == (0.0, 0.0, 40, 20)
        assert [type(v) for v in row] == [float, float, int, int]
        (row,) = boxes_to_source(np.array([[0.0, 4.0, 80.0, 24.0]]), 2.0, (0, 4), 40, 20)
        assert row == (0.0, 0.0, 40.0, 10.0) and type(row[2]) is float
        assert boxes_to_source(np.empty((0, 4)), 2.0, (0, 4), 40, 20) == []

    def test_empty_target_rejected(self):
        with pytest.raises(ConfigError):
            letterbox(np.zeros((1, 1, 4, 4)), 0, 4)


_COORD = st.one_of(st.floats(), st.floats().map(np.float64), st.integers())
_SCORE = st.floats(0.0, 1.0)
_ROWS = st.lists(st.tuples(_COORD, _COORD, _COORD, _COORD, st.integers(0, 1000),
                           st.one_of(_SCORE, _SCORE.map(np.float64))), max_size=4)


class TestDetectionJson:
    def test_round_trip(self):
        rows = [(1.0, 2.0, 3.5, 4.25, 2, 0.75), (0.0, 0.0, 1.0, 1.0, 0, 0.5)]
        back = detections_from_json(detections_to_json(rows))
        assert back == [postprocess.Detection(postprocess.BBox(*row[:4]), row[5], row[4]) for row in rows]

    def test_schema_fields(self):
        text = detections_to_json([(1, 2, 3, 4, 1, 0.5)])
        rows = json.loads(text)
        assert rows == [{"bbox": [1.0, 2.0, 3.0, 4.0], "score": 0.5, "class": 1}]

    @settings(max_examples=200, deadline=None)
    @given(rows=_ROWS)
    @example(rows=[])
    @example(rows=[(0.0, 1e-07, 1e+16, 28, 3, np.float64(0.5)), (-0.0, 5e-324, 40, 1.5, 0, 1.0)])
    @example(rows=[(float("nan"), float("inf"), -float("inf"), 2**70, 7, np.float64(1e-300))])
    def test_writer_matches_json_dumps_byte_for_byte(self, rows):
        """Finite floats print as float.__repr__, ints as int.__repr__, a
        numpy float64 as a float and nan or inf as json's NaN or Infinity,
        exactly as json's encoder writes them."""
        assert detections_to_json(rows) == json_dumps_detections(rows)

    @pytest.mark.parametrize("text, match", [
        ('[{"bbox": [0, 0, 1, 1], "score": 0.5, "class": 0}, {"bbox": [0, 0, 1, 1], "score": 0.5}]',
         r"row 1 .*KeyError: 'class'"),
        ('[{"bbox": [0, 0, 1], "score": 0.5, "class": 0}]', r"row 0 .*expected 4, got 3"),
        ('{"bbox": [0, 0, 1, 1], "score": 0.5, "class": 0}', "JSON list of rows, got dict"),
        ('[{"bbox": [0, 0, 1, 1], "score": 0.5, "class": 0}', "not valid JSON"),
        ('[{"bbox": [0, 0, 1, 1], "score": 0.5, "class": 0}, {"bbox": [0, 0, 1, 1], "score": 0.5, "class": 1.7}]',
         r"row 1 .*class must be an integer, got 1\.7"),
        ('[{"bbox": [0, 0, 1, 1], "score": true, "class": 0}]', r"row 0 .*score must be a number, got True"),
        ('[{"bbox": [0, 0, 1, 1], "score": 0.5, "class": false}]', r"row 0 .*class must be an integer, got False"),
        ('[{"bbox": [0, 0, 1, 1], "score": 0.5, "class": 0}, '
         '{"bbox": [0, 0, Infinity, 1], "score": 0.5, "class": 0}]',
         r"row 1 .*'bbox': \[0, 0, inf, 1\].*non-finite corner"),
        ('[{"bbox": [-Infinity, 0, 1, 1], "score": 0.5, "class": 0}]', r"row 0 .*non-finite corner"),
        ('[{"bbox": [0, -Infinity, 1, Infinity], "score": 0.5, "class": 0}]', r"row 0 .*non-finite corner"),
        ('[{"bbox": [0, 0, 1, NaN], "score": 0.5, "class": 0}]', r"row 0 .*non-finite corner"),
        ('[{"bbox": [0, 0, 1e999, 1], "score": 0.5, "class": 0}]', r"row 0 .*non-finite corner"),
        ('[{"bbox": [2, 0, 1, 1], "score": 0.5, "class": 0}]', r"row 0 .*degenerate corner order"),
        ('[{"bbox": [0, 0, 1, 1], "score": 1.5, "class": 0}]', r"row 0 .*score 1\.5 outside \[0, 1\]"),
        # integers too large for a float: float() raises OverflowError
        ('[{"bbox": [0, 0, 1, 1], "score": 0.5, "class": 0}, '
         f'{{"bbox": [0, 0, 1{"0" * 400}, 1], "score": 0.5, "class": 0}}]',
         r"row 1 .*OverflowError: int too large to convert to float"),
        (f'[{{"bbox": [0, 0, 1, 1], "score": 1{"0" * 400}, "class": 0}}]',
         r"row 0 .*OverflowError: int too large to convert to float"),
    ], ids=["missing-class", "three-element-bbox", "top-level-object", "truncated",
            "fractional-class", "bool-score", "bool-class", "infinite-x2", "infinite-x1",
            "infinite-y1-y2", "nan-y2", "overflowing-x2", "flipped-x", "score-above-one",
            "401-digit-x2", "401-digit-score"])
    def test_malformed_rows_raise_config_error(self, text, match):
        with pytest.raises(ConfigError, match=match):
            detections_from_json(text)


class TestBenchmarkContract:
    """What the benchmark harness reads from detkit: its detect check reads
    the rows of detections_from_json, and its candidate and kept-ratio counts
    sum len() of decode's and nms's results. A change that breaks either
    fails here rather than as a benchmark run with incorrect outputs."""

    def test_json_rows_expose_score_class_and_corners(self):
        (d,) = detections_from_json(detections_to_json([(1.0, 2.0, 3.5, 4.25, 2, 0.75)]))
        assert (d.score, d.class_id) == (0.75, 2) and type(d.class_id) is int
        assert (d.bbox.x1, d.bbox.y1, d.bbox.x2, d.bbox.y2) == (1.0, 2.0, 3.5, 4.25)

    def test_len_of_decode_and_nms_counts_detections(self):
        rng = np.random.default_rng(43)
        head = hostile_head(rng, (1, 8, 8, 8), np.float64)
        dets = decode(head, 8.0, 0.01)
        kept = nms(dets, 0.45)
        want = scalar_decode(head, 8.0, 0.01)
        assert len(dets) == len(want) > len(kept) == len(scalar_nms(want, 0.45)) > 6
