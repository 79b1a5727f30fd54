"""Tensor construction invariants and file round-trips."""

import numpy as np
import pytest

from detkit.tensor import ConfigError, Tensor, TensorFormatError, load_tensor, save_tensor


class TestConstruction:
    def test_shape_and_layout(self):
        t = Tensor(np.arange(24, dtype=np.float64).reshape(1, 2, 3, 4))
        assert t.shape == (1, 2, 3, 4)
        assert (t.n, t.c, t.h, t.w) == (1, 2, 3, 4)
        # row-major (n, c, h, w): flattening must reproduce arange order
        assert np.array_equal(t.data.ravel(), np.arange(24))

    def test_rank_enforced(self):
        with pytest.raises(ConfigError):
            Tensor(np.zeros((2, 3, 4)))

    def test_default_dtype_is_64_bit(self):
        assert Tensor(np.zeros((1, 1, 2, 2), dtype=np.int64)).dtype == np.float64

    def test_checked_mode_rejects_nan(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(ConfigError):
            Tensor(bad)

    def test_checked_mode_rejects_inf(self):
        bad = np.zeros((1, 1, 2, 2))
        bad[0, 0, 1, 1] = np.inf
        with pytest.raises(ConfigError):
            Tensor(bad)


class TestSerialization:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        t = Tensor(rng.standard_normal((2, 3, 5, 4)))
        path = tmp_path / "t.dkt"
        save_tensor(t, path)
        back = load_tensor(path)
        assert back.dtype == t.dtype
        assert back.data.tobytes() == t.data.tobytes()

    def test_round_trip_float32(self, tmp_path):
        t = Tensor(np.random.default_rng(0).standard_normal((1, 2, 2, 2)), dtype=np.float32)
        path = tmp_path / "t.dkt"
        save_tensor(t, path)
        back = load_tensor(path)
        assert back.dtype == np.float32
        assert back.data.tobytes() == t.data.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.dkt"
        save_tensor(Tensor(np.zeros((1, 1, 2, 2))), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(TensorFormatError):
            load_tensor(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.dkt"
        save_tensor(Tensor(np.zeros((1, 1, 2, 2))), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(TensorFormatError):
            load_tensor(path)
