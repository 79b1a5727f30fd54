"""Weight-file round trips, corruption detection, error taxonomy."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detkit import cli
from detkit.model import ToyNetSpec, cost_layers, init_params
from detkit.cost import model_cost
from detkit.tensor import ConfigError, Tensor
from detkit.weights_io import (
    WeightsChecksumError,
    WeightsError,
    WeightsFormatError,
    WeightsTruncatedError,
    WeightsVersionError,
    load_tensor,
    load_weights,
    save_tensor,
    save_weights,
)
from oracles import signed, unsigned, weights_header, with_version


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
        save_weights({"x": rng.standard_normal(3)}, path)
        path.write_bytes(with_version(path.read_bytes(), 9))
        with pytest.raises(WeightsVersionError):
            load_weights(path)

    def test_wrong_magic_distinct_error(self, tmp_path):
        body = b"NOPE" + weights_header(2, 0)[4:] + struct.pack("<Q", 0)
        path = tmp_path / "w.dkw"
        path.write_bytes(signed(body))
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
        path.write_bytes(signed(edit(unsigned(path.read_bytes()))))
        with pytest.raises(WeightsFormatError, match=f"^{re.escape(message)}$"):
            load_weights(path)

    def test_mixed_dtypes_rejected(self, tmp_path):
        params = {"a": np.zeros(2, dtype=np.float32), "b": np.zeros(2, dtype=np.float64)}
        with pytest.raises(WeightsFormatError):
            save_weights(params, tmp_path / "w.dkw")


@pytest.fixture(scope="module")
def container_files(tmp_path_factory):
    """A run config, weights of its net and a small tensor file."""
    d = tmp_path_factory.mktemp("container")
    (d / "run.cfg").write_text("seed = 5\ndataset_count = 2\nimage_size = 32\nstem_channels = 8\n",
                               encoding="utf-8")
    rng = np.random.default_rng(67)
    save_weights(init_params(ToyNetSpec(image_size=32, stem_channels=8), rng), d / "w.dkw")
    save_tensor(Tensor(rng.standard_normal((1, 2, 3, 4))), d / "x.dkt")
    return d


# Positions past the end wrap around. Half the edits land in the first 128
# bytes, the header and the start of the manifest; the prime stride spreads
# the other half over the whole file, payload included, although hypothesis
# draws small integers first.
EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "overwrite"]),
                           st.integers(0, 127) | st.integers(0, 2**16).map(lambda k: k * 7919),
                           st.binary(min_size=1, max_size=4)),
                 min_size=1, max_size=3)


def mutate(body: bytes, edits) -> bytes:
    for op, pos, data in edits:
        pos %= len(body) + 1
        if op == "insert":
            body = body[:pos] + data + body[pos:]
        elif op == "delete":
            body = body[:pos] + body[pos + len(data):]
        else:
            body = body[:pos] + data + body[pos + len(data):]
    return body


class TestResignedMutations:
    """A few bytes inserted, deleted or overwritten, then re-signed, so the
    checksum holds and the parser sees the damage. A guard of the load path,
    not a fix: a 20,000-mutation fuzz of the same kind found no escape."""

    @given(name=st.sampled_from(["w.dkw", "x.dkt"]), edits=EDITS)
    @settings(max_examples=200, deadline=None)
    def test_loads_or_raises_a_weights_error(self, container_files, name, edits):
        victim = container_files / f"mutated{name[1:]}"
        victim.write_bytes(signed(mutate(unsigned((container_files / name).read_bytes()), edits)))
        try:
            load_weights(victim)
        except WeightsError:
            pass
        if name.endswith(".dkt"):
            try:
                load_tensor(victim)
            except (WeightsError, ConfigError):  # ConfigError: rank or finiteness
                pass
        code = cli.main(["eval", "--config", str(container_files / "run.cfg"),
                         "--weights", str(victim), "--out-dir", str(container_files / "e")])
        assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_CHECKSUM, cli.EXIT_VERSION,
                        cli.EXIT_FORMAT)


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
