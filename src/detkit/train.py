"""Two-phase overfit trainer for the toy detector.

Phase 1 trains only CBAM and the head: the backbone (stem and both residual
blocks) stays frozen, its parameters bit-identical. The freeze boundary is
the model's: a frozen step's backward stops at the neck, the SPP output, and
returns no backbone gradient. Each image's neck is computed once, in the first
frozen epoch, and read back in the later ones; phase 2 fine-tunes everything.
The learning rate follows a cosine schedule over the full epoch range.
Training is deterministic for a fixed seed: dataset generation, parameter
initialization and batch shuffling all draw from one seeded generator, and
every reduction happens in a fixed order. A non-finite head, head gradient,
parameter gradient or loss stops training with a TrainingDiverged naming it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .dataset import synth_dataset
from .losses import detection_loss
from .model import ToyNetSpec, init_params, net_backward, net_forward
from .optim import AdamWState, adamw_step, cosine_lr
from .tensor import ConfigError, NonFiniteError, _require_finite


class TrainingDiverged(RuntimeError):
    """The head, a gradient or the loss became NaN or infinite; the message
    names which, with the epoch and batch."""


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 42
    epochs: int = 200
    batch_size: int = 5
    lr_max: float = 5e-3
    lr_min: float = 1e-5
    weight_decay: float = 1e-4
    loss_variant: str = "wiou"
    freeze_fraction: float = 0.3
    dataset_count: int = 50
    box_weight: float = 5.0
    obj_weight: float = 2.5
    cls_weight: float = 2.5
    dtype: str = "float64"
    net: ToyNetSpec = field(default_factory=ToyNetSpec)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0 or self.batch_size < 1 or self.dataset_count < 1:
            raise ConfigError("epochs must be >= 0, batch size and dataset count >= 1")
        for key in ("lr_max", "lr_min", "weight_decay", "box_weight", "obj_weight", "cls_weight"):
            value = getattr(self, key)
            # also false for NaN
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if not 0.0 <= self.freeze_fraction <= 1.0:
            raise ConfigError("freeze fraction must be in [0, 1]")
        if self.dtype not in ("float64", "float32"):
            raise ConfigError("dtype must be float64 or float32")

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    phase: str
    lr: float
    box_loss: float
    objectness_loss: float
    class_loss: float
    total_loss: float

    def to_json_line(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _batch_loss_and_grads(params, cfg: TrainConfig, images, target_lists, frozen, neck):
    """Mean loss over a batch plus parameter gradients: one net forward, one
    loss call over the whole batch and one net backward. ``images`` are the
    batch's (1, c, S, S) arrays.

    ``frozen`` stops the backward at the neck, so only the CBAM and head
    gradients come back; ``neck``, the batch's stored neck, then stands in for
    the images. Returns (the mean of the loss rows [box, objectness, class,
    total], gradients, the batch's neck).

    Raises NonFiniteError naming the first non-finite value: the head (named
    by ``net_forward``), the head gradient (named by the loss) or a parameter
    gradient."""
    x = None if neck is not None else np.concatenate(images, axis=0)
    head, cache = net_forward(params, cfg.net, x, neck=neck, freeze_backbone=frozen)
    terms, grad = detection_loss(head, target_lists, cfg.loss_variant, float(cfg.net.stride),
                                 cfg.box_weight, cfg.obj_weight, cfg.cls_weight)
    bsz = len(images)
    grads = net_backward(params, cfg.net, cache, grad / bsz)
    for name, g in grads.items():
        _require_finite(f"{name} gradient", g)
    return terms.sum(axis=0) / bsz, grads, cache.neck


def train_toy(config: TrainConfig):
    """Run the two-phase schedule; returns (params, [EpochStats])."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    # each image as a (1, c, S, S) array in the run's dtype
    data = [(img.data.astype(config.np_dtype, copy=False), t)
            for img, t in synth_dataset(config.seed, config.dataset_count,
                                        config.net.image_size, config.net.num_classes)]
    params = init_params(config.net, rng, dtype=config.np_dtype)
    state = AdamWState.init(params, weight_decay=config.weight_decay)
    freeze_epochs = round(config.freeze_fraction * config.epochs)
    # image index -> its neck: written in the first frozen epoch, which visits
    # every image once, read in the later ones, dropped when phase 2 starts.
    # Each entry is a row of the batch neck that computed it: copying the rows
    # into one (n, c, g, g) buffer per run raised the peak RSS of 12 runs in
    # one process by 1.6 MB over training without a store, the rows by 0.7 MB.
    necks: dict[int, np.ndarray] = {}

    stats: list[EpochStats] = []
    n = len(data)
    for epoch in range(config.epochs):
        lr = cosine_lr(epoch, max(config.epochs, 1), config.lr_max, config.lr_min)
        frozen = epoch < freeze_epochs
        phase = "frozen-backbone" if frozen else "full"
        if epoch == freeze_epochs and freeze_epochs > 0:
            # fresh optimizer for fine-tuning: newly thawed parameters must not
            # inherit a large shared step count (zero moments with stale bias
            # correction amplify their first updates ~3x and wreck the backbone)
            state = AdamWState.init(params, weight_decay=config.weight_decay)
            necks.clear()
        order = rng.permutation(n)
        epoch_totals = np.zeros(4)
        batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            images = [data[i][0] for i in idx]
            targets = [data[i][1] for i in idx]
            stored = np.stack([necks[i] for i in idx]) if frozen and epoch > 0 else None
            try:
                totals, grads, neck = _batch_loss_and_grads(params, config, images, targets, frozen, stored)
            except NonFiniteError as exc:
                raise TrainingDiverged(f"{exc} at epoch {epoch}, batch {batches}") from exc
            except (FloatingPointError, OverflowError) as exc:
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {batches}: {exc}"
                ) from exc
            if not np.isfinite(totals).all():
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {batches}")
            if frozen and epoch == 0:
                necks.update(zip(idx, neck))
            adamw_step(params, grads, state, lr)
            epoch_totals += totals
            batches += 1
        epoch_totals /= max(batches, 1)
        stats.append(EpochStats(
            epoch=epoch, phase=phase, lr=lr,
            box_loss=float(epoch_totals[0]),
            objectness_loss=float(epoch_totals[1]),
            class_loss=float(epoch_totals[2]),
            total_loss=float(epoch_totals[3]),
        ))
        if not math.isfinite(epoch_totals[3]):
            raise TrainingDiverged(f"non-finite epoch loss at epoch {epoch}")
    return params, stats
