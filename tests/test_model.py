"""Whole-network assembly: shapes, directional gradients, the freeze boundary."""

import hashlib
import sys

import numpy as np
import pytest

from detkit import blocks, cli, model, ops
from detkit.losses import detection_loss
from detkit.model import (
    ToyNetSpec,
    cost_layers,
    init_params,
    net_backward,
    net_forward,
)
from detkit.tensor import ConfigError, Tensor
from detkit.weights_io import save_weights


def tiny_spec():
    return ToyNetSpec(image_size=16, stem_channels=8, num_classes=2)


class TestForward:
    def test_head_shape(self):
        spec = tiny_spec()
        params = init_params(spec, np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(0, 1, size=(3, 1, 16, 16))
        head, _ = net_forward(params, spec, x)
        assert head.shape == (3, 5 + 2, 2, 2)

    def test_input_shape_validated(self):
        spec = tiny_spec()
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            net_forward(params, spec, np.zeros((1, 1, 8, 8)))

    def test_deterministic_init(self):
        spec = tiny_spec()
        a = init_params(spec, np.random.default_rng(5))
        b = init_params(spec, np.random.default_rng(5))
        assert list(a) == list(b)
        for k in a:
            assert np.array_equal(a[k], b[k])


class TestBackward:
    def test_directional_derivative_matches_finite_difference(self):
        """<grad, d> vs central difference of the end-to-end loss along 20
        random parameter directions."""
        spec = tiny_spec()
        rng = np.random.default_rng(2)
        params = init_params(spec, rng)
        x = rng.uniform(0, 1, size=(1, 1, 16, 16))
        targets = np.array([[3.0, 3.0, 11.0, 12.0, 1]])

        def loss_of(p):
            head, _ = net_forward(p, spec, x)
            return detection_loss(head, [targets], "ciou", float(spec.stride), with_grad=False)[0][0, 3]

        head, cache = net_forward(params, spec, x)
        _, upstream = detection_loss(head, [targets], "ciou", float(spec.stride))
        grads = net_backward(params, spec, cache, upstream)
        assert set(grads) == set(params)

        h = 1e-6
        for trial in range(20):
            direction = {k: rng.standard_normal(v.shape) for k, v in params.items()}
            analytic = sum(float((grads[k] * direction[k]).sum()) for k in params)
            plus = {k: params[k] + h * direction[k] for k in params}
            minus = {k: params[k] - h * direction[k] for k in params}
            numeric = (loss_of(plus) - loss_of(minus)) / (2 * h)
            denom = max(abs(analytic), abs(numeric), 1e-4)
            assert abs(analytic - numeric) / denom < 1e-4, f"direction {trial}"

    def test_gradients_cover_all_param_shapes(self):
        spec = tiny_spec()
        rng = np.random.default_rng(3)
        params = init_params(spec, rng)
        head, cache = net_forward(params, spec, rng.uniform(0, 1, (2, 1, 16, 16)))
        grads = net_backward(params, spec, cache, rng.standard_normal(head.shape))
        for k, v in params.items():
            assert grads[k].shape == v.shape

    def test_backward_runs_no_forward_op(self, monkeypatch):
        """net_backward consumes the forward cache: with every forward op
        made to raise under every module binding, it still returns the same
        gradients."""
        spec = tiny_spec()
        rng = np.random.default_rng(6)
        params = init_params(spec, rng)
        head, cache = net_forward(params, spec, rng.uniform(0, 1, (2, 1, 16, 16)))
        upstream = rng.standard_normal(head.shape)
        want = net_backward(params, spec, cache, upstream)

        def forbidden(*args, **kwargs):
            raise AssertionError("forward op called during backward")

        forward_ops = ("conv2d_forward", "activation", "spp", "pconv_forward",
                       "channel_attention", "spatial_attention", "spatial_stats",
                       "global_pool", "fully_connected")
        patched = 0
        for module in (ops, blocks, model):
            for name in forward_ops:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
                    patched += 1
        assert patched >= len(forward_ops)
        got = net_backward(params, spec, cache, upstream)
        assert set(got) == set(want)
        for k in want:
            assert np.array_equal(got[k], want[k]), k


class TestFreezeBoundary:
    def test_frozen_backward_stops_at_the_neck(self):
        """A forward that keeps no backbone cache, or starts from a stored
        neck, gives the full forward's head; its backward returns exactly the
        cbam.* and head.* gradients of the full backward, bit for bit."""
        spec = tiny_spec()
        rng = np.random.default_rng(4)
        params = init_params(spec, rng)
        x = rng.uniform(0, 1, (3, 1, 16, 16))
        head, cache = net_forward(params, spec, x)
        upstream = rng.standard_normal(head.shape)
        full = net_backward(params, spec, cache, upstream)
        trainable = [k for k in MANIFEST if k.startswith(("cbam.", "head."))]
        for frozen_head, frozen_cache in (net_forward(params, spec, x, freeze_backbone=True),
                                          net_forward(params, spec, neck=cache.neck)):
            assert frozen_head.tobytes() == head.tobytes()
            assert frozen_cache.backbone is None
            grads = net_backward(params, spec, frozen_cache, upstream)
            assert list(grads) == trainable
            for k in trainable:
                assert grads[k].tobytes() == full[k].tobytes(), k

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_neck_of_an_image_does_not_depend_on_its_batch(self, dtype):
        """The trainer stores each image's neck from whichever batch computed
        it and reuses it in other batches, so it must be bit-identical alone,
        in a shuffled batch of 5 and in the whole set."""
        spec = ToyNetSpec()
        rng = np.random.default_rng(12)
        params = init_params(spec, rng, dtype)
        images = rng.uniform(0, 1, (9, 1, 64, 64)).astype(dtype)

        def necks(rows):
            _, cache = net_forward(params, spec, images[rows], freeze_backbone=True)
            assert cache.neck.dtype == dtype
            return dict(zip(rows, cache.neck))

        whole = necks(list(range(9)))
        shuffled = necks(list(rng.permutation(9)[:5]))
        for i in range(9):
            alone = necks([i])[i]
            assert alone.tobytes() == whole[i].tobytes(), i
            if i in shuffled:
                assert shuffled[i].tobytes() == whole[i].tobytes(), i


class TestTensorBoundary:
    def test_forward_and_backward_build_no_tensor(self, monkeypatch):
        """The network takes and returns bare ndarrays: one net_forward plus
        one net_backward construct no Tensor, and the head is an ndarray."""
        spec = tiny_spec()
        rng = np.random.default_rng(8)
        params = init_params(spec, rng)
        x = rng.uniform(0, 1, (2, 1, 16, 16))
        upstream = rng.standard_normal((2, 5 + 2, 2, 2))
        built = []
        original = Tensor.__init__

        def counting_init(obj, *args, **kwargs):
            built.append(obj)
            original(obj, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        head, cache = net_forward(params, spec, x)
        grads = net_backward(params, spec, cache, upstream)
        assert built == []
        assert type(head) is np.ndarray and all(type(g) is np.ndarray for g in grads.values())

    def test_an_image_tensor_is_taken_as_its_data(self):
        """np.asarray of a Tensor is its data, so net_forward and net_backward
        also take Tensors (perfbench's span tests pass them) and give the
        bits of their data."""
        spec = tiny_spec()
        rng = np.random.default_rng(8)
        params = init_params(spec, rng)
        x = rng.uniform(0, 1, (2, 1, 16, 16))
        upstream = rng.standard_normal((2, 5 + 2, 2, 2))
        head, cache = net_forward(params, spec, x)
        want = net_backward(params, spec, cache, upstream)
        t_head, t_cache = net_forward(params, spec, Tensor(x))
        got = net_backward(params, spec, t_cache, Tensor(upstream))
        assert t_head.tobytes() == head.tobytes()
        assert list(got) == list(want) and all(got[k].tobytes() == want[k].tobytes() for k in want)


class TestSpecsAreBuiltOnce:
    """A layer spec's ConvSpec and the network's block and CBAM specs are
    built once per spec, on first use, not on every forward and backward."""

    SPEC_TYPES = (ops.ConvSpec, blocks.PConvSpec, blocks.FasterNetBlockSpec, blocks.CBAMSpec)

    def _count_constructions(self, monkeypatch):
        built = []
        for cls in self.SPEC_TYPES:
            def counting(obj, _post_init=cls.__post_init__):
                built.append(type(obj).__name__)
                _post_init(obj)
            monkeypatch.setattr(cls, "__post_init__", counting)
        return built

    def test_default_forward_and_backward_rebuild_no_spec(self, monkeypatch):
        spec = ToyNetSpec()
        rng = np.random.default_rng(9)
        params = init_params(spec, rng)
        x = rng.uniform(0, 1, (1, 1, spec.image_size, spec.image_size))
        upstream = rng.standard_normal((1, spec.head_channels, spec.grid, spec.grid))
        net_backward(params, spec, net_forward(params, spec, x)[1], upstream)
        built = self._count_constructions(monkeypatch)
        net_backward(params, spec, net_forward(params, spec, x)[1], upstream)
        assert built == []

    def test_repeated_pconv_forward_rebuilds_no_spec(self, monkeypatch):
        spec = blocks.PConvSpec(6, 2, 3)
        rng = np.random.default_rng(10)
        x, w = rng.standard_normal((1, 6, 5, 5)), rng.standard_normal((2, 2, 3, 3))
        first = blocks.pconv_forward(x, w, spec)
        built = self._count_constructions(monkeypatch)
        outs = [blocks.pconv_forward(x, w, spec) for _ in range(100)]
        assert built == []
        assert all(out.tobytes() == first.tobytes() for out in outs)


class TestLayerCallOrder:
    """perfbench's tracer labels the model.<layer> spans by the order in which
    net_forward and net_backward call these ops through detkit.model's own
    names; the k-th call is taken to be the k-th layer."""

    FORWARD = ("conv2d_forward", "activation", "fasternet_block_forward",
               "fasternet_block_forward", "spp", "cbam_forward", "conv2d_forward")
    BACKWARD = ("conv2d_backward", "cbam_backward", "spp_backward",
                "fasternet_block_backward", "fasternet_block_backward",
                "activation_backward", "conv2d_backward")

    def test_layer_ops_called_directly_in_order(self, monkeypatch):
        calls = []
        for name in set(self.FORWARD + self.BACKWARD):
            def recorder(*args, _name=name, _fn=getattr(model, name), **kwargs):
                calls.append((_name, sys._getframe(1).f_code.co_name))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(model, name, recorder)
        spec = tiny_spec()
        rng = np.random.default_rng(7)
        params = init_params(spec, rng)
        head, cache = net_forward(params, spec, rng.uniform(0, 1, (1, 1, 16, 16)))
        assert calls == [(op, "net_forward") for op in self.FORWARD]
        calls.clear()
        net_backward(params, spec, cache, rng.standard_normal(head.shape))
        assert calls == [(op, "net_backward") for op in self.BACKWARD]


MANIFEST = [
    "stem.w", "stem.b",
    "block1.pconv.w", "block1.pw1.w", "block1.pw1.b", "block1.pw2.w", "block1.pw2.b",
    "block2.pconv.w", "block2.pw1.w", "block2.pw1.b", "block2.pw2.w", "block2.pw2.b",
    "cbam.fc1.w", "cbam.fc1.b", "cbam.fc2.w", "cbam.fc2.b", "cbam.spatial.w", "cbam.spatial.b",
    "head.w", "head.b",
]

# SHA-256 of the saved initial weights of ToyNetSpec() drawn from PCG64(42).
# Pins entry names, order, shapes, values and the rng draw order; no BLAS is
# involved, so the digest does not depend on the machine.
INIT_DIGESTS = {
    "float64": "a6b7846aa1ec2855a7b42059271d3a19bcc036fe13f7123f371764081ea9595e",
    "float32": "88de84f93bc3661dd62af4a096d0ef28fa3c1a3d5c82547f8ea27a74b5878316",
}


class TestInitGolden:
    @pytest.mark.parametrize("dtype", sorted(INIT_DIGESTS))
    def test_saved_init_digest(self, tmp_path, dtype):
        params = init_params(ToyNetSpec(), np.random.Generator(np.random.PCG64(42)),
                             dtype=getattr(np, dtype))
        assert list(params) == MANIFEST
        save_weights(params, tmp_path / "init.dkw")
        digest = hashlib.sha256((tmp_path / "init.dkw").read_bytes()).hexdigest()
        assert digest == INIT_DIGESTS[dtype]


# SHA-256 of the weights.dkw and stats.jsonl that `detkit train` writes for a
# 3-epoch run (seed 42, 10 images, batch 5; one frozen-backbone epoch, then two
# full ones). Measured with NumPy 2.4 on x86-64 OpenBLAS; rerun-identical with
# BLAS threads pinned to 1 or not.
TRAIN_DIGESTS = {
    "float64": {"weights.dkw": "43bcb7d3689494dec1dd2bca565f3e68c05c3a6a30fda7830a1e3abcedeefdb9",
                "stats.jsonl": "d3c0c87db3214649e8c84865191283532bb5d7ab46a9fa0fe89d86d8bf56de66"},
    "float32": {"weights.dkw": "481b59142440f56459c3b8f7244b82fc1e810f1e2d198890ab5d013eac154355",
                "stats.jsonl": "2e17ce6d89e808b1f7c9b8b3578c59b7850a618d34d60b680fc579e368015b52"},
}


# The same run with freeze_fraction = 1.0: three frozen-backbone epochs, so
# the last two train on the necks stored in the first.
FROZEN_TRAIN_DIGESTS = {
    "float64": {"weights.dkw": "06e87dd5e6cd33df79d3a8dfb93c955131e2fe39eb01c62ce5995acf98a3822a",
                "stats.jsonl": "2b28e1fd162f85dbb02be20fdec3a89ed08342ee928fe4b1a147ff48389c2027"},
    "float32": {"weights.dkw": "ab32c14d8558b6cc432e6d8c899cffe7c1a11c961f08f22b6d8d863968823f59",
                "stats.jsonl": "69d5d564daf5073ee164aadc86376e27ca18ddb42684e019eda4c19ffc7d03a8"},
}


def train_digests(tmp_path, dtype, extra=""):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 42\nepochs = 3\nbatch_size = 5\ndataset_count = 10\ndtype = {dtype}\n{extra}")
    assert cli.main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    return {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in ("weights.dkw", "stats.jsonl")}


class TestTrainGolden:
    """Pins the numerics of the whole train step: forward, loss, gradient,
    backward and AdamW. A change may update these digests only when it
    intends to change the numerics, and must say so in CHANGES.md; a speed-up
    that keeps every floating-point expression keeps them."""

    @pytest.mark.parametrize("dtype", sorted(TRAIN_DIGESTS))
    def test_train_artifact_digests(self, tmp_path, dtype):
        assert train_digests(tmp_path, dtype) == TRAIN_DIGESTS[dtype]

    @pytest.mark.parametrize("dtype", sorted(FROZEN_TRAIN_DIGESTS))
    def test_all_frozen_train_artifact_digests(self, tmp_path, dtype):
        assert train_digests(tmp_path, dtype, "freeze_fraction = 1.0\n") == FROZEN_TRAIN_DIGESTS[dtype]


class TestStructure:
    def test_cost_layers_mirror_params(self):
        spec = tiny_spec()
        params = init_params(spec, np.random.default_rng(5))
        layer_names = {l.name for l in cost_layers(spec)}
        param_prefixes = {k.rsplit(".", 1)[0] for k in params}
        assert param_prefixes <= layer_names
