"""Trainer contracts: freeze phase, determinism, loss descent, divergence."""

from collections import Counter

import numpy as np
import pytest

from detkit import losses, model, tensor, train
from detkit.dataset import synth_dataset
from detkit.model import ToyNetSpec, init_params, net_backward
from detkit.tensor import ConfigError
from detkit.train import TrainConfig, TrainingDiverged, train_toy


def small_config(**kwargs):
    defaults = dict(
        seed=3,
        epochs=4,
        batch_size=4,
        dataset_count=8,
        net=ToyNetSpec(image_size=32, stem_channels=8),
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestPhases:
    def test_zero_epochs_leaves_params_at_init(self):
        cfg = small_config(epochs=0)
        params, stats = train_toy(cfg)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        fresh = init_params(cfg.net, rng)
        assert stats == []
        for k in fresh:
            assert np.array_equal(params[k], fresh[k])

    def test_backbone_frozen_during_phase_one(self):
        cfg = small_config(epochs=2, freeze_fraction=1.0)
        params, stats = train_toy(cfg)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        fresh = init_params(cfg.net, rng)
        frozen = [k for k in fresh if k.startswith(("stem.", "block1.", "block2."))]
        assert all(st["phase"] == "frozen-backbone" for st in stats)
        for k in frozen:
            assert params[k].tobytes() == fresh[k].tobytes(), f"{k} moved while frozen"
        moved = [k for k in fresh if k not in frozen
                 and not np.array_equal(params[k], fresh[k])]
        assert moved, "CBAM and head should train during phase one"

    def test_frozen_epochs_run_no_backbone_backward_and_one_backbone_forward_per_image(
            self, monkeypatch):
        """Over three frozen epochs the backbone forward sees each image once
        (the later epochs read the stored necks) and no backward below the
        neck runs: every conv2d_backward is the head's."""
        cfg = small_config(epochs=3, freeze_fraction=1.0)
        stem = cfg.net.stem_spec
        stem_w = (stem.out_channels, stem.in_channels, stem.kernel, stem.kernel)
        images, calls = Counter(), Counter()

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                key = "stem." + name if name.startswith("conv2d") and args[1].shape == stem_w else name
                if name.endswith("backward"):
                    calls[key] += 1
                else:
                    images[key] += len(args[0])
                return fn(*args, **kwargs)
            return wrapped

        for name in ("conv2d_forward", "fasternet_block_forward", "spp", "conv2d_backward",
                     "cbam_backward", "activation_backward", "fasternet_block_backward",
                     "spp_backward"):
            monkeypatch.setattr(model, name, counting(name, getattr(model, name)))
        _, stats = train_toy(cfg)
        assert [st["phase"] for st in stats] == ["frozen-backbone"] * 3
        n, steps = cfg.dataset_count, 3 * cfg.dataset_count // cfg.batch_size
        assert images == {"stem.conv2d_forward": n, "fasternet_block_forward": 2 * n, "spp": n,
                          "conv2d_forward": 3 * n}
        assert calls == {"conv2d_backward": steps, "cbam_backward": steps}

    def test_phase_labels_follow_freeze_fraction(self):
        cfg = small_config(epochs=4, freeze_fraction=0.5)
        _, stats = train_toy(cfg)
        assert [st["phase"] for st in stats] == [
            "frozen-backbone", "frozen-backbone", "full", "full"]


class TestTrajectory:
    def test_loss_decreases_on_tiny_overfit(self):
        cfg = small_config(epochs=12, dataset_count=4, freeze_fraction=0.25)
        _, stats = train_toy(cfg)
        assert stats[-1]["total_loss"] < stats[0]["total_loss"]

    def test_fixed_seed_reproduces_trajectory_bitwise(self):
        cfg = small_config(epochs=3)
        params_a, stats_a = train_toy(cfg)
        params_b, stats_b = train_toy(cfg)
        assert stats_a == stats_b
        for k in params_a:
            assert params_a[k].tobytes() == params_b[k].tobytes()

    def test_stats_serialize_as_json_lines(self):
        import json

        cfg = small_config(epochs=2)
        _, stats = train_toy(cfg)
        for st in stats:
            row = json.loads(json.dumps(st, sort_keys=True))
            assert row == st
            assert set(row) == {"epoch", "phase", "lr", "box_loss",
                                "objectness_loss", "class_loss", "total_loss"}


class TestPrecisionChoice:
    def test_float32_training_produces_float32_weights(self):
        cfg = small_config(epochs=1, dtype="float32")
        params, stats = train_toy(cfg)
        assert all(v.dtype == np.float32 for v in params.values())
        assert len(stats) == 1

    def test_bad_dtype_rejected(self):
        with pytest.raises(ConfigError):
            small_config(dtype="float16")


class TestDivergence:
    def test_exploding_lr_aborts_with_diagnostic(self):
        cfg = small_config(epochs=30, lr_max=1e6, lr_min=1e6, freeze_fraction=0.0)
        with pytest.raises(TrainingDiverged):
            train_toy(cfg)

    def test_first_non_finite_parameter_gradient_is_named(self, monkeypatch):
        """With a finite head and head gradient, the message names the first
        parameter gradient, in manifest order, that is not finite."""
        def poisoned(*args, **kwargs):
            grads = net_backward(*args, **kwargs)
            grads["block2.pw1.b"][0] = np.inf
            grads["cbam.fc1.w"][0, 0] = np.nan
            return grads

        monkeypatch.setattr(train, "net_backward", poisoned)
        with pytest.raises(TrainingDiverged,
                           match=r"non-finite block2\.pw1\.b gradient at epoch 0, batch 0$"):
            train_toy(small_config(epochs=1))

    def test_frozen_step_names_the_first_non_finite_trainable_gradient(self, monkeypatch):
        """A frozen step gets no backbone gradient back; the message names
        the first non-finite one among CBAM's and the head's."""
        def poisoned(*args, **kwargs):
            grads = net_backward(*args, **kwargs)
            assert not any(k.startswith(("stem.", "block1.", "block2.")) for k in grads)
            grads["cbam.fc2.b"][0] = np.nan
            grads["head.w"][0, 0] = np.inf
            return grads

        monkeypatch.setattr(train, "net_backward", poisoned)
        with pytest.raises(TrainingDiverged,
                           match=r"non-finite cbam\.fc2\.b gradient at epoch 0, batch 0$"):
            train_toy(small_config(epochs=1, freeze_fraction=1.0))

    def test_non_finite_head_gradient_is_named(self, monkeypatch):
        """A non-finite loss gradient with a finite loss value is named by the
        loss, before the backward runs."""
        box_rows = losses._box_rows

        def poisoned(*args, **kwargs):
            value, grad = box_rows(*args, **kwargs)
            grad[0, 0] = np.nan
            return value, grad

        monkeypatch.setattr(losses, "_box_rows", poisoned)
        with pytest.raises(TrainingDiverged, match=r"non-finite head gradient at epoch 0, batch 0$"):
            train_toy(small_config(epochs=1))

    def test_non_finite_loss_is_named(self, monkeypatch):
        """A non-finite loss value is named by the loss, as the head gradient
        is, before the gradient is computed."""
        box_rows = losses._box_rows

        def poisoned(*args, **kwargs):
            value, grad = box_rows(*args, **kwargs)
            value[0] = np.nan
            return value, grad

        monkeypatch.setattr(losses, "_box_rows", poisoned)
        with pytest.raises(TrainingDiverged, match=r"non-finite loss at epoch 0, batch 0$"):
            train_toy(small_config(epochs=1))


class TestFiniteScans:
    def test_a_step_scans_each_value_once_by_name(self, monkeypatch):
        """One train step scans the head, the loss, the head gradient and each
        parameter gradient for NaN and Inf once, in that order and under its
        name, and no anonymous tensor: the images were scanned when
        generated."""
        cfg = small_config()
        data = synth_dataset(cfg.seed, cfg.batch_size, cfg.net.image_size, cfg.net.num_classes)
        params = init_params(cfg.net, np.random.default_rng(cfg.seed))
        scanned = []
        require_finite = tensor._require_finite

        def recording(what, arr):
            scanned.append(what)
            require_finite(what, arr)

        for module in (model, losses, train, tensor):
            monkeypatch.setattr(module, "_require_finite", recording)
        train._batch_loss_and_grads(params, cfg, [img.data for img, _ in data],
                                    [t for _, t in data], False, None)
        assert scanned == ["head", "loss", "head gradient", *(f"{k} gradient" for k in params)]


class TestConfigValidation:
    def test_bad_freeze_fraction(self):
        with pytest.raises(ConfigError):
            small_config(freeze_fraction=1.5)
