"""detkit benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload train|detect|gradcheck --seed N \
        --seconds S --trace 0|1

Run from anywhere inside a checkout that has ``src/detkit``. Every workload
runs in a fresh worker process (``worker.py``) with BLAS/OpenMP threads pinned
to 1 and ``src`` first on ``PYTHONPATH``. With ``--trace 0`` the end-to-end
metrics are measured with tracing off, and set-up is repeated in
``SETUP_PROBES`` further processes; with ``--trace 1`` a traced worker reports
the per-layer metrics. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Scratch files and trace dumps go under ``.perfbench_out/`` in the checkout.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from layers import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "detect", "gradcheck")
SETUP_PROBES = 10  # half before the measured worker, half after it
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s",
                    "latency_ms_p50": "ms", "latency_ms_p90": "ms"}
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30

# Workload-specific names of the generic metrics, printed on the `#` lines.
ALIASES = {
    "train": {"items_per_s": "train.images_per_s", "latency_ms_p50": "train.call_ms_p50",
              "latency_ms_p90": "train.call_ms_p90"},
    "detect": {"items_per_s": "detect.images_per_s", "latency_ms_p50": "detect.latency_ms_p50",
               "latency_ms_p90": "detect.latency_ms_p90"},
    "gradcheck": {"items_per_s": "gradcheck.cases_per_s", "latency_ms_p50": "gradcheck.call_ms_p50",
                  "latency_ms_p90": "gradcheck.call_ms_p90"},
}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("DETKIT_VERIFY", None)
    return env


def run_worker(args, work: Path, out: Path, setup_only: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--out-dir", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, work: Path, out: Path) -> tuple[dict, dict]:
    def probe(i):
        return run_worker(args, work / f"setup{i}", out, True, PROBE_TIMEOUT_S)["setup_s"]

    setups = [probe(i) for i in range(SETUP_PROBES // 2)]
    res = run_worker(args, work / "main", out, False, WORKER_TIMEOUT_S)
    setups += [res["setup_s"]] + [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    lat = res["latencies_ms"]
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
        "items_per_s": res["items"] / res["busy_s"],
        "latency_ms_p50": float(np.percentile(lat, 50)),
        "latency_ms_p90": float(np.percentile(lat, 90)),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    aliases = ALIASES[args.workload]
    print(f"# {args.workload}: {len(lat)} timed calls, set-up median of {len(setups)} processes")
    for name, (value, unit) in metrics.items():
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"# {label:<44} {value:>14.6g} {unit}")
    print(f"# {'failed_ratio':<44} {res['failed'] / res['attempted']:>14.6g} "
          f"({res['failed']}/{res['attempted']})")
    if res.get("final_loss") is not None:
        print(f"# {'train.final_loss':<44} {res['final_loss']:>14.6g} loss")
    return res, metrics


def per_layer(args, work: Path, out: Path) -> tuple[dict, dict]:
    res = run_worker(args, work / "main", out, False, WORKER_TIMEOUT_S)
    metrics = {name: (res["per_layer"][name], unit) for name, (unit, _) in metric_units().items()}
    print(f"# {args.workload}: {res['traced_calls']} traced calls")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<44} {value:>14.6g} {unit}")
    return res, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if not (ROOT / "src" / "detkit" / "__init__.py").is_file():
        print(f"error: no detkit sources at {ROOT / 'src' / 'detkit'}", file=sys.stderr)
        return 2

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        res, metrics = (per_layer if args.trace else end_to_end)(args, work, out)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# env {json.dumps(res['env'], sort_keys=True)}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=res["env"])
    (out / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
