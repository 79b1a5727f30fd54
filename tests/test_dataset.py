"""Synthetic dataset contracts: determinism, bounds, mask-tight boxes."""

import numpy as np
import pytest
from oracles import full_grid_rasterize

from detkit import dataset
from detkit.dataset import synth_dataset


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = synth_dataset(7, 10, 64, 3)
        b = synth_dataset(7, 10, 64, 3)
        for (img_a, t_a), (img_b, t_b) in zip(a, b):
            assert img_a.data.tobytes() == img_b.data.tobytes()
            assert np.array_equal(t_a, t_b)

    def test_different_seeds_differ(self):
        a = synth_dataset(1, 4, 64, 3)
        b = synth_dataset(2, 4, 64, 3)
        assert any(x.data.tobytes() != y.data.tobytes() for (x, _), (y, _) in zip(a, b))


class TestAnnotations:
    @pytest.mark.parametrize("classes", [1, 2, 3])
    @pytest.mark.parametrize("size", [16, 32, 64])
    def test_boxes_inside_bounds_with_positive_area(self, size, classes):
        """Every image holds 1 to 4 shapes: the first is always placed, since
        nothing can clash with an empty image."""
        for img, targets in synth_dataset(11, 30, size, classes):
            assert targets.dtype == np.float64 and targets.shape[1:] == (5,)
            assert 1 <= len(targets) <= 4
            for x1, y1, x2, y2, cls in targets.tolist():
                assert cls in range(classes)
                assert (x2 - x1) * (y2 - y1) > 0
                assert 0.0 <= x1 < x2 <= size
                assert 0.0 <= y1 < y2 <= size

    def test_mask_tight_boxes_within_one_pixel(self):
        """Rasterize-and-scan oracle: threshold the (bright shape on dim
        noise) image inside each annotation's neighborhood and compare the
        pixel-tight box against the annotation."""
        for img, targets in synth_dataset(13, 20, 64, 3):
            plane = img.data[0, 0]
            for box in targets[:, :4]:
                x1 = max(int(np.floor(box[0])) - 1, 0)
                y1 = max(int(np.floor(box[1])) - 1, 0)
                x2 = min(int(np.ceil(box[2])) + 1, 64)
                y2 = min(int(np.ceil(box[3])) + 1, 64)
                crop = plane[y1:y2, x1:x2]
                ys, xs = np.nonzero(crop > 0.55)
                assert len(ys) > 0, "annotation region contains no shape pixels"
                # pixel (i, j) covers [j, j+1) x [i, i+1)
                tight = (x1 + xs.min(), y1 + ys.min(), x1 + xs.max() + 1, y1 + ys.max() + 1)
                assert np.all(np.abs(np.array(tight) - box) <= 1.0)

    def test_images_normalized(self):
        for img, _ in synth_dataset(17, 5, 64, 3):
            assert img.shape == (1, 1, 64, 64)
            assert img.data.min() >= 0.0
            assert img.data.max() <= 1.0


class TestRasterize:
    def test_window_matches_full_grid_oracle(self):
        """Random shapes of every kind, on and off pixel centres, inside,
        straddling and outside the image."""
        rng = np.random.default_rng(19)
        for _ in range(3000):
            size = int(rng.choice([16, 32, 64]))
            kind = int(rng.integers(3))
            half_w, half_h = rng.uniform(0.3, size / 2, size=2)
            cx, cy = rng.uniform(-size / 2, 1.5 * size, size=2)
            if rng.integers(2):  # integer half-extents and centres on pixel centres
                half_w, half_h = max(1.0, float(int(half_w))), max(1.0, float(int(half_h)))
                cx, cy = int(cx) + 0.5, int(cy) + 0.5
            got = dataset._rasterize(kind, cx, cy, half_w, half_h, size)
            assert np.array_equal(got, full_grid_rasterize(kind, cx, cy, half_w, half_h, size))

    def test_synth_dataset_unchanged_under_full_grid_oracle(self, monkeypatch):
        sizes = [(5, 64, 3), (8, 32, 2), (6, 16, 1)]
        want = [synth_dataset(seed, 12, size, k) for seed, size, k in sizes]
        monkeypatch.setattr(dataset, "_rasterize", full_grid_rasterize)
        for (seed, size, k), samples in zip(sizes, want):
            for (img, targets), (ref_img, ref_targets) in zip(samples, synth_dataset(seed, 12, size, k)):
                assert img.data.tobytes() == ref_img.data.tobytes()
                assert np.array_equal(targets, ref_targets)
