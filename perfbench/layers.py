"""Per-layer metrics from a traced window.

Times and counts are normalised per unit of work: one train step (a batch of
five images) on ``train``, one image on ``detect``, one gradient-check case
on ``gradcheck``. A ``.ms`` metric is the inclusive time of the named span;
``cli.self_ms`` is self time. ``dataset.synth_dataset.ms`` is the exception:
it is the mean duration of one call, set-up included, because on ``detect``
the scene generator runs only during set-up. A layer that does not run on a
workload reports 0.
"""

from __future__ import annotations

import numpy as np

from spans import MODEL_LAYERS, recompute_mask

SUITES = (
    "activation_mish", "activation_relu", "activation_sigmoid", "cbam_literal",
    "cbam_sequential", "channel_attention", "channel_attention_literal", "ciou_loss",
    "conv2d", "detection_loss", "fasternet_block", "fully_connected", "global_pool",
    "pconv", "spatial_attention", "spatial_stats", "spp", "wiou_loss",
)

# Inclusive span time per unit of work.
TIMED_SPANS = (
    "ops.conv2d_forward", "ops.conv2d_backward", "ops.activation", "ops.activation_backward",
    "ops.spp", "ops.spp_backward",
    "blocks.fasternet_block_forward", "blocks.fasternet_block_backward",
    "blocks.cbam_forward", "blocks.cbam_backward",
    "losses.detection_loss", "losses.detection_loss_grad", "optim.adamw_step",
    "postprocess.letterbox", "postprocess.decode", "postprocess.nms",
    "imageio.read_image", "weights_io.load_weights", "weights_io.save_weights",
    "config.parse_kv_file", "gradcheck.numerical_grad",
)


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    m: dict[str, tuple[str, str]] = {}
    for layer in MODEL_LAYERS:
        m[f"model.{layer}.fwd_ms"] = ("ms", "lower")
        m[f"model.{layer}.bwd_ms"] = ("ms", "lower")
        m[f"model.{layer}.macs"] = ("MAC", "lower")
        m[f"model.{layer}.mem_approx"] = ("elements", "lower")
        m[f"model.{layer}.fwd_gmacs_per_s"] = ("GMAC/s", "higher")
    m["model.net_forward.ms"] = ("ms", "lower")
    m["model.net_backward.ms"] = ("ms", "lower")
    m["model.recompute_fwd_calls"] = ("count", "lower")
    m["model.recompute_fwd_ms"] = ("ms", "lower")
    for name in TIMED_SPANS:
        m[f"{name}.ms"] = ("ms", "lower")
    m["ops.conv2d_forward.calls"] = ("count", "lower")
    m["ops.conv2d_backward.calls"] = ("count", "lower")
    m["gradcheck.numerical_grad.calls"] = ("count", "lower")
    m["losses.calls"] = ("count", "lower")
    m["tensor.constructions"] = ("count", "lower")
    m["postprocess.candidates"] = ("count", "lower")
    m["postprocess.kept_ratio"] = ("ratio", "higher")
    m["cli.self_ms"] = ("ms", "lower")
    m["dataset.synth_dataset.ms"] = ("ms", "lower")
    for suite in SUITES:
        m[f"gradcheck.suite.{suite}.ms"] = ("ms", "lower")
    m["trace.overhead_pct"] = ("%", "lower")
    return m


def layer_costs() -> dict[str, tuple[int, int]]:
    """Cost-model (MACs, approximate memory accesses) of each network layer
    for one image, summed over the layer's cost rows. Memory accesses are
    element counts computed from tensor sizes, not measured traffic."""
    from detkit.cost import model_cost
    from detkit.model import ToyNetSpec, cost_layers

    out = {layer: (0, 0) for layer in MODEL_LAYERS}
    for row in model_cost(cost_layers(ToyNetSpec())).layers:
        layer = row.name.split(".", 1)[0]
        macs, mem = out[layer]
        out[layer] = (macs + row.macs, mem + row.mem_access_approx)
    return out


def per_layer_metrics(tracer, first: int, units: int, images_per_unit: int,
                      overhead: float) -> dict[str, float]:
    a = tracer.arrays(first)
    names = tracer.names
    ids = {n: k for k, n in enumerate(names)}
    n_names = len(names)
    calls = np.bincount(a["name"], minlength=n_names)
    total = np.bincount(a["name"], weights=a["dur"], minlength=n_names)

    def per_unit_ms(span: str) -> float:
        return 1000.0 * float(total[ids[span]]) / units if span in ids else 0.0

    def per_unit_calls(span: str) -> float:
        return float(calls[ids[span]]) / units if span in ids else 0.0

    values = {name: 0.0 for name in metric_units()}
    ran_model = per_unit_calls("model.net_forward") > 0
    costs = layer_costs()
    for layer in MODEL_LAYERS:
        fwd = per_unit_ms(f"model.{layer}.fwd")
        values[f"model.{layer}.fwd_ms"] = fwd
        values[f"model.{layer}.bwd_ms"] = per_unit_ms(f"model.{layer}.bwd")
        if ran_model:
            macs, mem = costs[layer]
            values[f"model.{layer}.macs"] = float(macs)
            values[f"model.{layer}.mem_approx"] = float(mem)
            if fwd > 0:
                values[f"model.{layer}.fwd_gmacs_per_s"] = macs * images_per_unit / (fwd * 1e6)
    values["model.net_forward.ms"] = per_unit_ms("model.net_forward")
    values["model.net_backward.ms"] = per_unit_ms("model.net_backward")
    recompute = recompute_mask(names, a)
    values["model.recompute_fwd_calls"] = float(recompute.sum()) / units
    values["model.recompute_fwd_ms"] = 1000.0 * float(a["dur"][recompute].sum()) / units
    for span in TIMED_SPANS:
        values[f"{span}.ms"] = per_unit_ms(span)
    for span in ("ops.conv2d_forward", "ops.conv2d_backward", "gradcheck.numerical_grad"):
        values[f"{span}.calls"] = per_unit_calls(span)
    values["losses.calls"] = (per_unit_calls("losses.detection_loss")
                              + per_unit_calls("losses.detection_loss_grad"))
    values["tensor.constructions"] = tracer.tensor_inits / units
    candidates = tracer.result_len.get("postprocess.decode", 0)
    values["postprocess.candidates"] = candidates / units
    if candidates:
        values["postprocess.kept_ratio"] = tracer.result_len["postprocess.nms"] / candidates
    cli_ids = [k for k, n in enumerate(names) if n.startswith("cli.")]
    values["cli.self_ms"] = 1000.0 * float(a["self"][np.isin(a["name"], cli_ids)].sum()) / units
    if "dataset.synth_dataset" in ids:
        every = tracer.arrays(0)
        mask = every["name"] == ids["dataset.synth_dataset"]
        if mask.any():
            values["dataset.synth_dataset.ms"] = 1000.0 * float(every["dur"][mask].mean())
    for suite in SUITES:
        values[f"gradcheck.suite.{suite}.ms"] = per_unit_ms(f"gradcheck.suite.{suite}")
    values["trace.overhead_pct"] = 100.0 * overhead
    return values
