"""The detkit names the benchmark harness reads all exist.

``perfbench/`` imports detkit names and reads attributes of detkit modules,
such as ``gradcheck._SUITES`` and ``cost.model_cost``. Deleting or renaming
one would otherwise show only when the benchmark runs; here it fails a test.
"""

import ast
import importlib
from pathlib import Path

import numpy as np

import detkit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DETKIT = Path(detkit.__file__).parent


def _resolve(module: str, name: str):
    """detkit's ``module.name``, a submodule if it is not an attribute."""
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return getattr(mod, name)
    return importlib.import_module(f"{module}.{name}")


def detkit_references() -> set[tuple[str, str, str]]:
    """(file, module, name) for every ``from detkit... import name`` and every
    ``alias.name`` whose alias is bound to a detkit module in that file."""
    refs = set()
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = str(path.relative_to(PERFBENCH))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names if a.name == "detkit")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "detkit":
                for a in node.names:
                    refs.add((where, node.module, a.name))
                    if node.module == "detkit" and (DETKIT / f"{a.name}.py").is_file():
                        modules[a.asname or a.name] = f"detkit.{a.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                refs.add((where, modules[node.value.id], node.attr))
    return refs


def test_every_detkit_name_the_benchmark_reads_exists():
    refs = detkit_references()
    assert ("layers.py", "detkit.cost", "model_cost") in refs
    assert ("worker.py", "detkit.gradcheck", "_SUITES") in refs
    missing = []
    for where, module, name in sorted(refs):
        try:
            _resolve(module, name)
        except ImportError:
            missing.append(f"{where}: {module}.{name}")
    assert not missing, missing


def test_the_benchmark_layer_costs_are_pinned(monkeypatch):
    """``layers.layer_costs()`` reads ``name``, ``macs`` and
    ``mem_access_approx`` off each cost row, which the scan above cannot see.
    It sums each layer's rows of the default net into (MACs, approximate
    memory accesses)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert layers.layer_costs() == {
        "stem": (163840, 6656),
        "block1": (467200, 16640),
        "block2": (467200, 16640),
        "spp": (0, 12800),
        "cbam": (7328, 492),
        "head": (61440, 8192),
    }


def test_train_calls_the_traced_loss(monkeypatch):
    """The tracer spans ``losses.detection_loss`` through every module that
    binds that function, and reports it as ``losses.detection_loss.ms``. If
    train called another name for the loss, that metric would read 0 on
    ``train``."""
    from detkit import losses, train

    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert train.detection_loss is losses.detection_loss
    assert "losses.detection_loss" in layers.TIMED_SPANS


def test_the_benchmark_scene_is_an_image_that_write_image_writes(monkeypatch, tmp_path):
    """The detect workload makes each image with ``inputs._scene``, which
    resamples ``synth_dataset``'s image ``data`` into a new ``Tensor``, and
    writes it with ``imageio.write_image``. The scan above checks only that
    these names exist; this runs both calls."""
    from detkit.imageio import read_image, write_image
    from detkit.tensor import Tensor

    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = importlib.import_module("inputs")
    scene = inputs._scene(1, 20, 30)
    assert isinstance(scene, Tensor) and scene.shape == (1, 1, 20, 30)
    path = tmp_path / "scene.pgm"
    write_image(path, scene)
    back = read_image(path)
    assert back.shape == scene.shape
    assert np.abs(back.data - scene.data).max() <= 0.5 / 255


def test_the_benchmark_reads_total_loss_from_each_stats_line(tmp_path, capsys):
    """The train workload's check reads ``json.loads(line)["total_loss"]`` from
    each ``stats.jsonl`` line, a key the scan above cannot see. Each line
    ``detkit train`` writes holds exactly the epoch, phase, learning rate and
    ``losses.TERMS``."""
    import json

    from detkit import cli, losses

    config = tmp_path / "run.cfg"
    config.write_text("epochs = 2\ndataset_count = 2\nimage_size = 32\nstem_channels = 8\n",
                      encoding="utf-8")
    assert cli.main(["train", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "stats.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    assert "total_loss" in losses.TERMS
    for line in lines:
        assert set(json.loads(line)) == {"epoch", "phase", "lr", *losses.TERMS}
