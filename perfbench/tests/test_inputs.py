"""The seeded input generator: same seed, same bytes; other seed, other
inputs. Gradcheck runs the gradient tests' fixed gate inputs."""

import inputs
from detkit import gradcheck
from detkit.imageio import read_image


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_gives_identical_bytes(tmp_path):
    for workload in ("train", "detect"):
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        inputs.write_inputs(workload, 5, a)
        inputs.write_inputs(workload, 5, b)
        assert tree_bytes(a) == tree_bytes(b)
    assert inputs.write_inputs("gradcheck", 5, tmp_path) == inputs.write_inputs("gradcheck", 5, tmp_path)


def test_different_seed_gives_different_inputs(tmp_path):
    for workload in ("train", "detect"):
        a, b = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        inputs.write_inputs(workload, 5, a)
        inputs.write_inputs(workload, 6, b)
        files_a, files_b = tree_bytes(a), tree_bytes(b)
        assert files_a.keys() == files_b.keys()
        assert all(files_a[name] != files_b[name] for name in files_a)


def test_gradcheck_runs_the_gate_inputs():
    seeds = inputs.write_inputs("gradcheck", 5, None)["seeds"]
    assert seeds == inputs.write_inputs("gradcheck", 6, None)["seeds"]
    assert list(seeds) == gradcheck.suite_names()
    assert {s for name, s in seeds.items() if name in inputs.SUPPORTING_SUITES} == {11}
    assert {s for name, s in seeds.items() if name not in inputs.SUPPORTING_SUITES} == {7}


def test_detect_images_vary_in_size_and_aspect(tmp_path):
    files = inputs.write_inputs("detect", 3, tmp_path)
    sizes = []
    for path, _, h, w in files["cases"]:
        image = read_image(path)
        assert (image.h, image.w) == (h, w)
        sizes.append((h, w))
    long_sides = [max(s) for s in sizes]
    assert min(long_sides) < 64 < max(long_sides)  # letterbox scales up and down
    assert any(h > w for h, w in sizes) and any(w > h for h, w in sizes)
    assert {p.read_bytes()[:2] for p, _, _, _ in files["cases"]} == {b"P5"}
