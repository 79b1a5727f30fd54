"""Run one benchmark workload in this interpreter and print one JSON result.

``run.py`` starts this script in a fresh process for every workload run and
every set-up probe, with BLAS threads pinned and ``src`` on ``PYTHONPATH``, so
no global state (detkit's checked mode, import caches) leaks between runs.

    python3 perfbench/worker.py --workload detect --seed 1 --seconds 10 \
        --trace 0 --work-dir DIR --out-dir DIR [--setup-only]
"""

import time

_T0 = time.perf_counter()  # set-up time counts the imports below

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import detkit  # noqa: E402
from detkit import (  # noqa: E402
    blocks, cli, config, cost, dataset, gradcheck, imageio, losses, metrics,
    model, ops, optim, postprocess, tensor, train, weights_io,
)
from detkit.postprocess import detections_from_json  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402

MODULES = (tensor, ops, blocks, model, losses, optim, train, postprocess, imageio,
           weights_io, config, cli, dataset, gradcheck, cost, metrics)


def _run_cli(argv) -> int:
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        return cli.main(argv)


class TrainWorkload:
    """``detkit train`` in process: one call trains TRAIN_EPOCHS epochs."""

    def __init__(self, seed: int, work: Path):
        self.config = inputs.write_inputs("train", seed, work)["config"]
        self.out = work / "train_out"
        self.steps = math.ceil(inputs.TRAIN_IMAGES / inputs.TRAIN_BATCH)
        self.items_per_call = inputs.TRAIN_EPOCHS * inputs.TRAIN_IMAGES
        self.units_per_call = inputs.TRAIN_EPOCHS * self.steps  # train steps
        self.images_per_unit = inputs.TRAIN_BATCH
        self.reference = None
        self.final_loss = float("nan")

    def prepare(self, k: int) -> None:
        for name in ("weights.dkw", "stats.jsonl"):
            (self.out / name).unlink(missing_ok=True)

    def call(self, k: int):
        return _run_cli(["train", "--config", str(self.config), "--out-dir", str(self.out)])

    def check(self, k: int, rc) -> tuple[int, int]:
        """Same-seed runs must give byte-identical artifacts, and the final
        epoch's loss must be finite and below the first epoch's."""
        if rc != 0:
            return 1, 1
        blobs = ((self.out / "weights.dkw").read_bytes(), (self.out / "stats.jsonl").read_bytes())
        totals = [json.loads(line)["total_loss"] for line in blobs[1].splitlines()]
        self.final_loss = totals[-1]
        ok = (len(totals) == inputs.TRAIN_EPOCHS and all(map(math.isfinite, totals))
              and totals[-1] < totals[0] and tensor.is_checked())
        if self.reference is None:
            self.reference = blobs
        ok = ok and blobs == self.reference
        return 1, 0 if ok else 1


class DetectWorkload:
    """One closed-loop client calling ``detkit detect`` in process, one
    image per call, cycling through the seeded (image, weights) cases."""

    def __init__(self, seed: int, work: Path):
        files = inputs.write_inputs("detect", seed, work)
        self.config, self.cases = files["config"], files["cases"]
        self.out = work / "dets.json"
        self.items_per_call = 1
        self.units_per_call = 1  # images
        self.images_per_unit = 1
        spec = model.ToyNetSpec()
        self.grid_cells = spec.grid * spec.grid
        self.first_output: dict[int, str] = {}

    def prepare(self, k: int) -> None:
        self.out.unlink(missing_ok=True)

    def call(self, k: int):
        image, weights, _, _ = self.cases[k % len(self.cases)]
        return _run_cli(["detect", "--config", str(self.config), "--weights", str(weights),
                         "--image", str(image), "--out", str(self.out)])

    def check(self, k: int, rc) -> tuple[int, int]:
        """Output parses and is not empty; it keeps at most one detection per
        grid cell, every score clears the threshold, and it is sorted by
        descending score, then class, as NMS promises; a repeated image gives
        identical JSON. Boxes must lie inside the original image, which
        guards the CLI's clamp."""
        if rc != 0:
            return 1, 1
        idx = k % len(self.cases)
        _, _, h, w = self.cases[idx]
        text = self.out.read_text(encoding="utf-8")
        dets = detections_from_json(text)
        keys = [(-d.score, d.class_id) for d in dets]
        ok = (0 < len(dets) <= self.grid_cells
              and keys == sorted(keys)
              and all(d.score >= inputs.DETECT_SCORE_THRESHOLD for d in dets)
              and all(0.0 <= d.bbox.x1 <= d.bbox.x2 <= w and 0.0 <= d.bbox.y1 <= d.bbox.y2 <= h
                      for d in dets))
        same = self.first_output.setdefault(idx, text) == text
        return 1, 0 if (ok and same) else 1


class GradcheckWorkload:
    """Every call runs ``gradcheck.run_suites(name, GRADCHECK_CASES, s)`` for
    every suite ``name``, on the seed ``s`` the gradient tests gate it with;
    every suite result is one checked operation."""

    def __init__(self, seed: int, work: Path):
        self.seeds = inputs.write_inputs("gradcheck", seed, work)["seeds"]
        self.items_per_call = len(self.seeds) * inputs.GRADCHECK_CASES
        self.units_per_call = self.items_per_call  # cases
        self.images_per_unit = 0

    def prepare(self, k: int) -> None:
        pass

    def call(self, k: int):
        return [r for name, s in self.seeds.items()
                for r in gradcheck.run_suites(name, cases=inputs.GRADCHECK_CASES, seed=s)]

    def check(self, k: int, results) -> tuple[int, int]:
        """Every suite passes the 1e-4 gate."""
        return len(results), sum(not r.passed for r in results)


WORKLOADS = {"train": TrainWorkload, "detect": DetectWorkload, "gradcheck": GradcheckWorkload}


class Window:
    """Outcome of calling a workload in a closed loop for a fixed time."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    def run(self, wl, seconds: float) -> "Window":
        deadline = time.perf_counter() + seconds
        k = 0
        while True:
            wl.prepare(k)
            t = time.perf_counter()
            try:
                result = wl.call(k)
            except Exception:  # a failed operation is counted, not raised
                traceback.print_exc(file=sys.stderr)
                result = None
            self.latencies.append(time.perf_counter() - t)
            try:
                attempted, failed = wl.check(k, result) if result is not None else (1, 1)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                attempted, failed = 1, 1
            self.attempted += attempted
            self.failed += failed
            k += 1
            if time.perf_counter() >= deadline:
                return self


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    return {
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "dtype": inputs.DTYPE,
        "checked": tensor.is_checked(),
        "detkit": str(Path(detkit.__file__).parent),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = Tracer() if args.trace else None
    with tracer.patch(MODULES) if tracer is not None else contextlib.nullcontext():
        wl = WORKLOADS[args.workload](args.seed, args.work_dir)
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warm = Window().run(wl, 0.0)  # one untimed call: lazy set-up, train reference
    if tracer is None:
        win = Window().run(wl, args.seconds)
        result = {
            "setup_s": setup_s,
            "latencies_ms": [1000.0 * t for t in win.latencies],
            "items": wl.items_per_call * len(win.latencies),
            "busy_s": sum(win.latencies),
            "attempted": warm.attempted + win.attempted,
            "failed": warm.failed + win.failed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_loss": getattr(wl, "final_loss", None),
        }
    else:
        plain = Window().run(wl, args.seconds / 3.0)
        first = len(tracer)
        tracer.tensor_inits = 0
        for name in tracer.result_len:
            tracer.result_len[name] = 0
        suites = [(gradcheck._SUITES, n, f"gradcheck.suite.{n}") for n in gradcheck.suite_names()]
        with tracer.patch(MODULES, extra=suites):
            traced = Window().run(wl, args.seconds * 2.0 / 3.0)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(args.out_dir / f"trace-{args.workload}.npz", first)
        calls = len(traced.latencies)
        common = min(calls, len(plain.latencies))
        overhead = sum(traced.latencies[:common]) / sum(plain.latencies[:common]) - 1.0
        result = {
            "per_layer": layers.per_layer_metrics(
                tracer, first, calls * wl.units_per_call, wl.images_per_unit, overhead),
            "attempted": warm.attempted + plain.attempted + traced.attempted,
            "failed": warm.failed + plain.failed + traced.failed,
            "traced_calls": calls,
        }
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
