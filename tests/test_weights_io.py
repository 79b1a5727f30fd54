"""Weight-file round trips, corruption detection, error taxonomy."""

import hashlib
import re
import struct

import numpy as np
import pytest

from detkit.model import ToyNetSpec, cost_layers, init_params
from detkit.cost import model_cost
from detkit.weights_io import (
    WeightsChecksumError,
    WeightsError,
    WeightsFormatError,
    WeightsTruncatedError,
    WeightsVersionError,
    load_weights,
    save_weights,
)


def small_params(rng):
    return {
        "layer0.w": rng.standard_normal((2, 3, 3, 3)),
        "layer0.b": rng.standard_normal(2),
        "head.w": rng.standard_normal((4, 2, 1, 1)),
    }


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        params = small_params(rng)
        path = tmp_path / "w.dkw"
        save_weights(params, path)
        back = load_weights(path)
        assert list(back) == list(params)
        for k in params:
            assert back[k].dtype == params[k].dtype
            assert back[k].shape == params[k].shape
            assert back[k].tobytes() == params[k].tobytes()

    def test_float32_round_trip(self, tmp_path):
        params = {"w": np.random.default_rng(0).standard_normal((3, 3)).astype(np.float32)}
        path = tmp_path / "w.dkw"
        save_weights(params, path)
        back = load_weights(path)
        assert back["w"].dtype == np.float32
        assert back["w"].tobytes() == params["w"].tobytes()

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(62)
        params = small_params(rng)
        a, b = tmp_path / "a.dkw", tmp_path / "b.dkw"
        save_weights(params, a)
        save_weights(params, b)
        assert a.read_bytes() == b.read_bytes()

    def test_scalar_and_empty_shapes(self, tmp_path):
        params = {"t": np.float64(3.5) * np.ones(()), "v": np.zeros(0)}
        path = tmp_path / "w.dkw"
        save_weights(params, path)
        back = load_weights(path)
        assert back["t"].shape == ()
        assert back["t"].item() == 3.5
        assert back["v"].size == 0


class TestCorruption:
    def test_every_single_byte_flip_detected(self, tmp_path):
        """Exhaustive: flipping any byte of the file must raise; payload or
        checksum flips must specifically raise the checksum error."""
        rng = np.random.default_rng(63)
        params = {"a.w": rng.standard_normal((2, 2)), "a.b": rng.standard_normal(2)}
        path = tmp_path / "w.dkw"
        save_weights(params, path)
        blob = bytearray(path.read_bytes())
        for pos in range(len(blob)):
            corrupted = bytearray(blob)
            corrupted[pos] ^= 0xFF
            victim = tmp_path / "c.dkw"
            victim.write_bytes(bytes(corrupted))
            with pytest.raises(WeightsChecksumError):
                load_weights(victim)

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(64)
        path = tmp_path / "w.dkw"
        save_weights(small_params(rng), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(WeightsError):
            load_weights(path)

    def test_tiny_file_reports_truncation(self, tmp_path):
        path = tmp_path / "w.dkw"
        path.write_bytes(b"DKW1")
        with pytest.raises(WeightsTruncatedError):
            load_weights(path)

    def test_version_mismatch_distinct_error(self, tmp_path):
        rng = np.random.default_rng(65)
        path = tmp_path / "w.dkw"
        save_weights({"x": rng.standard_normal(3)}, path, version=9)
        with pytest.raises(WeightsVersionError):
            load_weights(path)

    def test_wrong_magic_distinct_error(self, tmp_path):
        body = b"NOPE" + struct.pack("<HBI", 1, 2, 0) + struct.pack("<Q", 0)
        blob = body + hashlib.blake2b(body, digest_size=8).digest()
        path = tmp_path / "w.dkw"
        path.write_bytes(blob)
        with pytest.raises(WeightsFormatError):
            load_weights(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda body: body.replace(b"stem.w", b"\xfftem.w", 1),
         "entry name at byte 13 is not UTF-8: invalid start byte"),
        (lambda body: body.replace(b"stem.b", b"stem.w"),
         "entry 'stem.w' appears twice in the manifest"),
    ], ids=["name-not-utf8", "name-twice"])
    def test_malformed_entry_name_is_a_format_error(self, tmp_path, edit, message):
        """A manifest whose checksum is intact but whose entry names are not
        UTF-8, or name one entry twice, is malformed; it must not load."""
        path = tmp_path / "w.dkw"
        save_weights({"stem.w": np.zeros((2, 2)), "stem.b": np.ones(2)}, path)
        body = edit(path.read_bytes()[:-8])
        path.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
        with pytest.raises(WeightsFormatError, match=f"^{re.escape(message)}$"):
            load_weights(path)

    def test_mixed_dtypes_rejected(self, tmp_path):
        params = {"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float64)}
        with pytest.raises(WeightsFormatError):
            save_weights(params, tmp_path / "w.dkw")


class TestManifestConsistency:
    def test_parameterized_layer_count_matches_cost_model(self, tmp_path):
        """Distinct parameter prefixes in the saved manifest equal the number
        of parameter-bearing layers in the cost report of the same net."""
        spec = ToyNetSpec()
        params = init_params(spec, np.random.default_rng(66))
        path = tmp_path / "w.dkw"
        save_weights(params, path)
        back = load_weights(path)
        manifest_layers = {name.rsplit(".", 1)[0] for name in back}
        report = model_cost(cost_layers(spec))
        cost_layers_with_params = [l for l in report.layers if l.params > 0]
        assert len(manifest_layers) == len(cost_layers_with_params)
