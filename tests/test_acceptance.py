"""Acceptance gate: one test per shipping criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The long end-to-end training criterion dominates the runtime
(about two minutes on one core; budget is fifteen).
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest
from oracles import BBox, brute_force_nms, detection_rows, naive_conv2d, random_detections

from detkit import cli, gradcheck, ops
from detkit.blocks import PConvSpec
from detkit.cost import conv_cost, model_cost
from detkit.dataset import synth_dataset
from detkit.losses import _box_rows, pairwise_iou
from detkit.metrics import evaluate
from detkit.model import ToyNetSpec, cost_layers, init_params, net_forward
from detkit.postprocess import decode, nms
from detkit.tensor import Tensor
from detkit.train import TrainConfig, train_toy
from detkit.weights_io import WeightsChecksumError, load_weights, save_weights


def report(criterion: str, detail: str):
    print(f"\n[PASS] {criterion}: {detail}")


# -------------------------------------------------------------------------
# 1. partial-conv feature memory traffic is exactly one quarter at c_p = c/4
# -------------------------------------------------------------------------

def test_criterion_1_memory_access_ratio_exact_quarter():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 20:
        c = 4 * int(rng.integers(1, 65))
        h = int(rng.integers(1, 129))
        w = int(rng.integers(1, 129))
        k = 2 * int(rng.integers(0, 4)) + 1
        pc = conv_cost(PConvSpec(c, c // 4, k).conv_spec, h, w, bias=False)
        full = conv_cost(ops.ConvSpec(c, c, k, padding=(k - 1) // 2), h, w)
        ratio = Fraction(pc.mem_access_approx, full.mem_access_approx)
        assert ratio == Fraction(1, 4), f"h={h} w={w} c={c} k={k}: {ratio}"
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("criterion 1 (quarter memory traffic)",
           f"{checked} random configs, exact 1/4, {elapsed:.3f}s")


# -------------------------------------------------------------------------
# 2. every backward pass beats 1e-4 against central differences (64-bit)
# -------------------------------------------------------------------------

def test_criterion_2_gradient_suite():
    suites = [
        "conv2d", "fully_connected",
        "activation_relu", "activation_sigmoid", "activation_mish",
        "pconv", "channel_attention", "channel_attention_literal",
        "spatial_attention", "cbam_sequential", "cbam_literal",
        "ciou_loss", "wiou_loss",
    ]
    start = time.monotonic()
    worst = {}
    for name in suites:
        (res,) = gradcheck.run_suites(name, cases=100, seed=7)
        worst[name] = res.max_err
        assert res.max_err < 1e-4, f"{name}: {res.max_err}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    top = max(worst, key=worst.get)
    report("criterion 2 (gradient suite)",
           f"{len(suites)} ops x 100 cases, worst {top}={worst[top]:.2e}, {elapsed:.0f}s")


# -------------------------------------------------------------------------
# 3. oracle equivalence: conv, nms, shape law
# -------------------------------------------------------------------------

def test_criterion_3a_conv_matches_naive_oracle():
    rng = np.random.default_rng(103)
    checked = 0
    while checked < 50:
        cin, cout = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, 3))
        h = int(rng.integers(1, 10))
        if h + 2 * p < k or (h - k + 2 * p) // s + 1 < 1:
            continue
        x = rng.standard_normal((2, cin, h, h))
        w = rng.standard_normal((cout, cin, k, k))
        b = rng.standard_normal(cout)
        got = ops.conv2d_forward(x, w, b, ops.ConvSpec(cin, cout, k, s, p))
        want = naive_conv2d(x, w, b, s, p)
        assert np.max(np.abs(got - want)) <= 1e-10
        checked += 1
    report("criterion 3a (conv vs sliding-window oracle)",
           f"{checked} configs, elementwise <= 1e-10")


def test_criterion_3b_nms_matches_exhaustive_oracle():
    rng = np.random.default_rng(104)
    for _ in range(200):
        dets = random_detections(rng, int(rng.integers(0, 31)))
        got = nms(detection_rows(dets), 0.45)
        want = detection_rows(brute_force_nms(dets, 0.45))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    report("criterion 3b (nms vs exhaustive oracle)",
           "200 instances of <= 30 boxes, set- and order-identical")


def test_criterion_3c_shape_law_matches_execution():
    rng = np.random.default_rng(105)
    checked = 0
    while checked < 100:
        size = int(rng.integers(1, 30))
        k = int(rng.integers(1, 8))
        s = int(rng.integers(1, 4))
        p = int(rng.integers(0, 4))
        if size + 2 * p < k or (size - k + 2 * p) // s + 1 < 1:
            continue
        spec = ops.ConvSpec(1, 1, k, s, p)
        out = ops.conv2d_forward(np.zeros((1, 1, size, size)), np.zeros((1, 1, k, k)), None, spec)
        assert out.shape[2] == out.shape[3] == spec.out_size(size) == (size - k + 2 * p) // s + 1
        checked += 1
    report("criterion 3c (output-size law vs executed shapes)",
           f"{checked} valid random configs agree")


# -------------------------------------------------------------------------
# 4. loss identities at 1e-9
# -------------------------------------------------------------------------

def test_criterion_4_loss_identities():
    def iou(a, b):
        return float(pairwise_iou(a.as_array()[None], b.as_array()[None])[0, 0])

    def loss(variant, pred, gt):
        return float(_box_rows(variant, pred.as_array()[None], gt.as_array()[None])[0][0])

    def ciou_loss(pred, gt):
        return loss("ciou", pred, gt)

    def wiou_loss(pred, gt):
        return loss("wiou", pred, gt)

    tol = 1e-9
    unit = BBox(0.0, 0.0, 1.0, 1.0)
    shifted = BBox(0.5, 0.0, 1.5, 1.0)
    assert abs(iou(unit, shifted) - 1.0 / 3.0) < tol

    b = BBox(2.0, 1.0, 7.0, 4.0)
    assert abs(ciou_loss(b, b)) < tol
    assert abs(wiou_loss(b, b)) < tol

    gt = BBox(-1.0, -1.0, 1.0, 1.0)
    concentric_sized = BBox(-3.0, -0.75, 3.0, 0.75)
    assert abs(wiou_loss(concentric_sized, gt) - (1.0 - iou(concentric_sized, gt))) < tol

    same_aspect = BBox(-2.0, -2.0, 2.0, 2.0)
    assert abs(ciou_loss(same_aspect, gt) - (1.0 - iou(same_aspect, gt))) < tol

    import math

    want = math.exp(0.25 / (3.25 + 1e-9)) * (2.0 / 3.0)
    assert abs(wiou_loss(shifted, unit) - want) < tol
    report("criterion 4 (loss identities)", "all hand identities within 1e-9")


# -------------------------------------------------------------------------
# 5. end-to-end overfit: 50 images, seed 42, wiou, <= 200 epochs
# -------------------------------------------------------------------------

def _evaluate_params(params, cfg):
    data = synth_dataset(cfg.seed, cfg.dataset_count, cfg.net.image_size, cfg.net.num_classes)
    dets, gts = [], []
    for image, targets in data:
        head, _ = net_forward(params, cfg.net, image)
        dets.append(nms(decode(head, cfg.net.stride, 0.25), 0.45))
        gts.append(targets)
    summary, _, per_class = evaluate(dets, gts, iou_thr=0.5)
    return summary, per_class


def test_criterion_5_overfit_run_reaches_target_metrics():
    start = time.monotonic()
    cfg = TrainConfig(seed=42, epochs=200, dataset_count=50, net=ToyNetSpec(num_classes=3),
                      loss_variant="wiou")
    baseline_params = init_params(cfg.net, np.random.Generator(np.random.PCG64(cfg.seed)))
    base_summary, _ = _evaluate_params(baseline_params, cfg)

    params, stats = train_toy(cfg)
    assert stats[-1].total_loss < stats[0].total_loss
    summary, per_class = _evaluate_params(params, cfg)

    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"training budget exceeded: {elapsed:.0f}s"
    assert summary.precision >= 0.95, f"precision {summary.precision}"
    assert summary.recall >= 0.95, f"recall {summary.recall}"
    assert summary.precision > base_summary.precision
    assert summary.recall > base_summary.recall
    report("criterion 5 (overfit run)",
           f"P={summary.precision:.4f} R={summary.recall:.4f} "
           f"(epoch-0 P={base_summary.precision:.2f} R={base_summary.recall:.2f}), "
           f"per-class AP={ {k: round(v, 3) for k, v in per_class.items()} }, "
           f"{elapsed:.0f}s")


# -------------------------------------------------------------------------
# 6. partial-conv net strictly cheaper than its full-conv twin
# -------------------------------------------------------------------------

def test_criterion_6_pconv_net_strictly_cheaper():
    from dataclasses import replace

    spec = ToyNetSpec()
    pconv_report = model_cost(cost_layers(spec))
    full_report = model_cost(cost_layers(replace(spec, cp_fraction=1.0)))
    assert pconv_report.total.params < full_report.total.params
    assert pconv_report.total.macs < full_report.total.macs
    report("criterion 6 (cheaper than full-conv twin)",
           f"params {pconv_report.total.params} < {full_report.total.params}, "
           f"macs {pconv_report.total.macs} < {full_report.total.macs} (exact ints)")


# -------------------------------------------------------------------------
# 7. determinism of the train -> eval pipeline through the CLI
# -------------------------------------------------------------------------

def test_criterion_7_train_eval_byte_deterministic(tmp_path):
    cfg_text = (
        "seed = 42\nepochs = 10\nbatch_size = 4\ndataset_count = 12\n"
        "image_size = 32\nstem_channels = 8\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    artifacts = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli.main(["train", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        assert cli.main(["eval", "--config", str(cfg_path),
                         "--weights", str(out / "weights.dkw"),
                         "--out-dir", str(out / "eval")]) == 0
        artifacts.append((
            (out / "weights.dkw").read_bytes(),
            (out / "stats.jsonl").read_bytes(),
            (out / "eval" / "summary.json").read_bytes(),
        ))
    assert artifacts[0][0] == artifacts[1][0], "weights differ between runs"
    assert artifacts[0][1] == artifacts[1][1], "stats differ between runs"
    assert artifacts[0][2] == artifacts[1][2], "summaries differ between runs"
    report("criterion 7 (determinism)",
           "two train->eval runs byte-identical (weights, stats, summary)")


# -------------------------------------------------------------------------
# 8. serialization round trips and checksum corruption detection
# -------------------------------------------------------------------------

def test_criterion_8_serialization_and_corruption(tmp_path):
    from detkit.tensor import load_tensor, save_tensor

    rng = np.random.default_rng(108)
    t = Tensor(rng.standard_normal((2, 3, 4, 5)))
    tpath = tmp_path / "x.dkt"
    save_tensor(t, tpath)
    assert load_tensor(tpath).data.tobytes() == t.data.tobytes()

    params = {"w": rng.standard_normal((3, 2, 2, 2)), "b": rng.standard_normal(3)}
    wpath = tmp_path / "w.dkw"
    save_weights(params, wpath)
    back = load_weights(wpath)
    for k in params:
        assert back[k].tobytes() == params[k].tobytes()

    blob = bytearray(wpath.read_bytes())
    detected = 0
    for pos in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[pos] ^= 0xA5
        victim = tmp_path / "c.dkw"
        victim.write_bytes(bytes(corrupted))
        with pytest.raises(WeightsChecksumError):
            load_weights(victim)
        detected += 1
    report("criterion 8 (serialization integrity)",
           f"bit-exact round trips; {detected}/{len(blob)} single-byte "
           f"corruptions detected by checksum")
