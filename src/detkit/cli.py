"""Command-line surface: gradcheck, bench, train, eval, detect, report.

Every subcommand is deterministic given its config and seed. Machine
outputs are JSON (sorted keys) or CSV; exit codes are stable and documented:

    0   success
    2   configuration error (bad arguments, bad values, unknown filter, an
        output path that cannot be created or written, a net or dataset too
        large to allocate)
    3   gradient check failed
    4   required file missing (or a directory where a file is expected)
    5   config / net-spec parse error (message carries the line number)
    6   weights checksum mismatch
    7   weights format version mismatch
    8   unreadable or unsupported image
    9   malformed or truncated data file
    10  training diverged
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import gradcheck as gradcheck_mod
from .config import ParseError, parse_kv_file
from .cost import CostReport, LayerCost, model_cost
from .dataset import synth_dataset
from .imageio import ImageFormatError, draw_boxes, read_image, to_channels, write_image
from .metrics import evaluate, pr_curve_csv
from .model import ToyNetSpec, cost_layers, net_forward
from .postprocess import boxes_to_source, decode, detections_to_json, letterbox, nms
from .tensor import ConfigError
from .train import TrainConfig, TrainingDiverged, train_toy
from .weights_io import (
    WeightsChecksumError,
    WeightsError,
    WeightsVersionError,
    load_weights,
    save_weights,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GRADCHECK = 3
EXIT_MISSING = 4
EXIT_PARSE = 5
EXIT_CHECKSUM = 6
EXIT_VERSION = 7
EXIT_IMAGE = 8
EXIT_FORMAT = 9
EXIT_DIVERGED = 10

# Exit code of each error a subcommand may raise, matched in order: a
# ParseError is checked before the ConfigError that other bad values raise.
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (FileNotFoundError, EXIT_MISSING),
    (WeightsChecksumError, EXIT_CHECKSUM),
    (WeightsVersionError, EXIT_VERSION),
    (WeightsError, EXIT_FORMAT),
    (ImageFormatError, EXIT_IMAGE),
    (TrainingDiverged, EXIT_DIVERGED),
    (ConfigError, EXIT_CONFIG),
    (MemoryError, EXIT_CONFIG),
)

# "checked" only keeps older configs parsing: finiteness is always checked, of
# each image where it is read or generated and of the head and its gradient.
_RUN_DEFAULTS = {"score_threshold": 0.25, "nms_iou": 0.45, "eval_iou": 0.5, "checked": True}
# Run values compared against scores and IoUs: each must lie in [0, 1], which
# also rejects NaN, since every comparison with NaN is false.
_FRACTION_KEYS = ("score_threshold", "nms_iou", "eval_iou")

# Config keys are the spec and trainer fields; each annotation names its parser.
_NET_SCHEMA = {f.name: f.type for f in fields(ToyNetSpec)}
_RUN_SCHEMA = {
    **_NET_SCHEMA,
    **{f.name: f.type for f in fields(TrainConfig) if f.name != "net"},
    **{k: type(v).__name__ for k, v in _RUN_DEFAULTS.items()},
}


def _load_net_spec(values: dict) -> ToyNetSpec:
    net_keys = _NET_SCHEMA.keys() & values.keys()
    return ToyNetSpec(**{k: values[k] for k in net_keys})


def _load_run_config(path) -> tuple[TrainConfig, dict]:
    values = dict(_RUN_DEFAULTS)
    if path is not None:
        values.update(parse_kv_file(_require_file(path, "config file"), _RUN_SCHEMA))
    for key in _FRACTION_KEYS:
        if not 0.0 <= values[key] <= 1.0:
            raise ConfigError(f"{key} must be in [0, 1], got {values[key]}")
    net = _load_net_spec(values)
    train_keys = {f.name for f in fields(TrainConfig)} - {"net"}
    cfg_kwargs = {k: values[k] for k in train_keys & values.keys()}
    cfg = TrainConfig(net=net, **cfg_kwargs)
    return cfg, values


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} {'is not a file' if p.exists() else 'not found'}: {p}")
    return p


def _load_spec_values(path) -> dict:
    return parse_kv_file(_require_file(path, "net spec file"), _NET_SCHEMA) if path else {}


@contextlib.contextmanager
def _writing(path):
    """A file-system error while the body writes the outputs at path becomes
    a configuration error that names the output, not a traceback."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: {exc.strerror}") from None


def _detections(params: dict, spec: ToyNetSpec, x: np.ndarray, values: dict) -> np.ndarray:
    """The (n, 6) detections that NMS keeps from the head net_forward computes
    from loaded weights. Weights that lack a parameter of the spec are a
    configuration error, as a wrong shape is."""
    try:
        head = net_forward(params, spec, x)[0]
    except KeyError as exc:
        raise ConfigError(f"weights have no parameter {exc.args[0]!r}") from None
    return nms(decode(head, spec.stride, values["score_threshold"]), values["nms_iou"])


def _json_dump(obj, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gradcheck(args) -> int:
    results = gradcheck_mod.run_suites(args.filter, cases=args.cases, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  cases={r.cases:<4d} max_rel_err={r.max_err!r}  {status}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"gradient check FAILED for: {', '.join(failed)}", file=sys.stderr)
        return EXIT_GRADCHECK
    return EXIT_OK


def _bench_row(pconv: LayerCost, full: LayerCost) -> dict:
    """A cost row of the spec beside the same row of its full-conv twin."""
    return {
        "layer": pconv.name,
        "full_params": full.params, "pconv_params": pconv.params,
        "full_macs": full.macs, "pconv_macs": pconv.macs,
        "full_mem_approx": full.mem_access_approx, "pconv_mem_approx": pconv.mem_access_approx,
    }


def cmd_bench(args) -> int:
    spec = _load_net_spec(_load_spec_values(args.spec))
    if args.cp_fraction is not None:
        spec = replace(spec, cp_fraction=args.cp_fraction)
    # the full-conv twin: the same spec with the partial convolutions
    # covering every channel
    pconv_report = model_cost(cost_layers(spec))
    full_report = model_cost(cost_layers(replace(spec, cp_fraction=1.0)))
    rows = []
    for pl, fl in zip(pconv_report.layers, full_report.layers):
        ratio = pl.mem_access_approx / fl.mem_access_approx if fl.mem_access_approx else 1.0
        rows.append({**_bench_row(pl, fl), "feature_access_ratio": ratio})
    total = _bench_row(pconv_report.total, full_report.total)

    header = f"{'layer':<16} {'full_params':>12} {'pconv_params':>12} {'full_macs':>12} {'pconv_macs':>12} {'ratio':>8}"
    print(header)
    print("-" * len(header))
    for r in [*rows, total]:
        line = (f"{r['layer']:<16} {r['full_params']:>12} {r['pconv_params']:>12} "
                f"{r['full_macs']:>12} {r['pconv_macs']:>12}")
        if "feature_access_ratio" in r:
            line += f" {r['feature_access_ratio']:>8.4f}"
        print(line)

    columns = list(rows[0])
    lines = [",".join(columns)] + [",".join(str(r.get(k, "")) for k in columns) for r in [*rows, total]]
    totals = {k: v for k, v in total.items() if k != "layer"}
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        _json_dump({"rows": rows, "totals": totals}, out_dir / "bench.json")
        (out_dir / "bench.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_report(args) -> int:
    spec = _load_net_spec(_load_spec_values(args.spec))
    report: CostReport = model_cost(cost_layers(spec))
    print(report.to_table(), end="")
    if args.json_out:
        with _writing(args.json_out):
            _json_dump(report.to_json_dict(), args.json_out)
    if args.csv_out:
        with _writing(args.csv_out):
            Path(args.csv_out).write_text(report.to_csv(), encoding="utf-8")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, _ = _load_run_config(args.config)
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    # A diverging run is reported by the TrainingDiverged error, which names
    # the first non-finite value; numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        params, stats = train_toy(cfg)
    with _writing(out_dir):
        save_weights(params, out_dir / "weights.dkw")
        (out_dir / "stats.jsonl").write_text("".join(st.to_json_line() + "\n" for st in stats),
                                             encoding="utf-8")
    print(f"trained {cfg.epochs} epochs; weights -> {out_dir / 'weights.dkw'}")
    if stats:
        print(f"final loss {stats[-1].total_loss!r}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg, values = _load_run_config(args.config)
    weights_path = _require_file(args.weights, "weights file")
    params = load_weights(weights_path)
    net = cfg.net
    data = synth_dataset(cfg.seed, cfg.dataset_count, net.image_size, net.num_classes)
    all_dets = [_detections(params, net, image.data, values) for image, _ in data]
    summary, curve, per_class = evaluate(
        all_dets, [targets for _, targets in data],
        iou_thr=values["eval_iou"],
        model_size_mb=sum(p.nbytes for p in params.values()) / 1e6,
        computation_macs=model_cost(cost_layers(net)).total.macs,
    )
    payload = summary.to_json_dict()
    payload["per_class_ap"] = {str(k): v for k, v in per_class.items()}
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        _json_dump(payload, out_dir / "summary.json")
        (out_dir / "pr_curve.csv").write_text(pr_curve_csv(curve), encoding="utf-8")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_detect(args) -> int:
    cfg, values = _load_run_config(args.config)
    weights_path = _require_file(args.weights, "weights file")
    image_path = _require_file(args.image, "image file")
    params = load_weights(weights_path)
    image = read_image(image_path)
    model_in = to_channels(image, cfg.net.in_channels)
    boxed, scale, pads = letterbox(model_in, cfg.net.image_size, cfg.net.image_size)
    dets = _detections(params, cfg.net, boxed, values)
    boxes = boxes_to_source(dets[:, :4], scale, pads, image.w, image.h)
    rows = [(*box, k, score) for box, k, score in
            zip(boxes, dets[:, 5].astype(np.int64).tolist(), dets[:, 4].tolist())]
    text = detections_to_json(rows)
    with _writing(args.out):
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)
    if args.overlay:
        with _writing(args.overlay):
            write_image(args.overlay, draw_boxes(image, boxes))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every
    main() call: rebuilding it was the largest cost of a detect call."""
    parser = argparse.ArgumentParser(
        prog="detkit",
        description="Verification-first detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gradcheck", help="run finite-difference gradient suites")
    g.add_argument("--filter", default="*", help="glob over suite names")
    g.add_argument("--cases", type=int, default=100)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(fn=cmd_gradcheck)

    b = sub.add_parser("bench", help="compare full-conv vs partial-conv cost")
    b.add_argument("--spec", default=None, help="net spec file (key = value)")
    b.add_argument("--cp-fraction", type=float, default=None, dest="cp_fraction")
    b.add_argument("--out-dir", default="bench_out")
    b.set_defaults(fn=cmd_bench)

    r = sub.add_parser("report", help="emit the cost report for one net")
    r.add_argument("--spec", default=None)
    r.add_argument("--json-out", default=None)
    r.add_argument("--csv-out", default=None)
    r.set_defaults(fn=cmd_report)

    t = sub.add_parser("train", help="train the toy detector on synthetic shapes")
    t.add_argument("--config", default=None, help="run config file (key = value)")
    t.add_argument("--out-dir", default="train_out")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate weights on the configured dataset")
    e.add_argument("--config", default=None)
    e.add_argument("--weights", required=True)
    e.add_argument("--out-dir", default="eval_out")
    e.set_defaults(fn=cmd_eval)

    d = sub.add_parser("detect", help="run detection on one PGM/PPM image")
    d.add_argument("--config", default=None)
    d.add_argument("--weights", required=True)
    d.add_argument("--image", required=True)
    d.add_argument("--out", default="detections.json")
    d.add_argument("--overlay", default=None, help="write a box overlay image here")
    d.set_defaults(fn=cmd_detect)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(types for types, _ in _EXIT_CODES) as exc:
        code = next(code for types, code in _EXIT_CODES if isinstance(exc, types))
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
