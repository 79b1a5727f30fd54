"""End-to-end command-line behavior in temp dirs: artifacts and exit codes."""

import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from detkit import cli, tensor
from detkit.config import parse_kv_file
from detkit.dataset import synth_dataset
from detkit.imageio import read_image, write_image
from detkit.model import ToyNetSpec
from detkit.postprocess import detections_from_json
from detkit.tensor import NonFiniteError, Tensor
from detkit.train import TrainConfig
from oracles import signed, unsigned, weights_header, with_version

SMALL_CFG = """
# small deterministic run for tests
seed = 5
epochs = 3
batch_size = 4
dataset_count = 6
image_size = 32
stem_channels = 8
lr_max = 0.004
"""


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CFG, encoding="utf-8")
    return path


# SHA-256 of the stdout of `detkit gradcheck --cases 3 --seed 7`: every suite's
# name, case count and max_rel_err repr. It pins the gate's inputs and numerics:
# each suite's random draws, its probes and the operators' floating-point
# expressions. Measured with NumPy 2.4 on x86-64 OpenBLAS.
GRADCHECK_STDOUT_DIGEST = "224a26d4d37af5d7087e9a98e56bff1199167773757fa022cabe180c27e44418"


class TestGradcheckCommand:
    def test_stdout_digest_is_pinned(self, capsys):
        assert cli.main(["gradcheck", "--cases", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == GRADCHECK_STDOUT_DIGEST, out

    def test_stdout_digest_holds_with_two_blas_threads(self):
        """The batched finite-difference probes run larger matrix products,
        which BLAS may split across threads; a fresh process with two BLAS
        threads must print the same bytes."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["gradcheck", "--cases", "3", "--seed", "7"]
        out = subprocess.run([sys.executable, "-m", "detkit.cli", *argv],
                             env=env, check=True, capture_output=True).stdout
        assert hashlib.sha256(out).hexdigest() == GRADCHECK_STDOUT_DIGEST, out.decode()

    def test_filtered_run_passes(self, capsys):
        code = cli.main(["gradcheck", "--filter", "fully_connected", "--cases", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fully_connected" in out and "pass" in out

    def test_unknown_filter_lists_names(self, capsys):
        code = cli.main(["gradcheck", "--filter", "nonsense"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "conv2d" in err  # valid names are listed

    @pytest.mark.parametrize("err", [0.5, float("nan")], ids=["far-beyond-gate", "nan"])
    def test_broken_backward_detected_and_named(self, capsys, monkeypatch, err):
        """A deliberately wrong backward pass must fail the run and be named,
        with its worst error printed: a nan after a passing case too."""
        from detkit import gradcheck as gc

        def broken_suite(rng, case):
            return err if case == 1 else 1e-6

        monkeypatch.setitem(gc._SUITES, "broken_op_fixture", broken_suite)
        code = cli.main(["gradcheck", "--filter", "broken_op_fixture", "--cases", "3"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_GRADCHECK
        assert captured.out.split() == ["broken_op_fixture", "cases=3", f"max_rel_err={err!r}", "FAIL"]
        assert "broken_op_fixture" in captured.err

    @pytest.mark.parametrize("flag,value", [("--cases", "0"), ("--cases", "-1"), ("--seed", "-1")])
    def test_no_case_or_a_negative_seed_is_a_config_error(self, capsys, flag, value):
        """A run that checks no case passes nothing, and a negative seed has no
        generator: both exit 2 before any suite runs."""
        code = cli.main(["gradcheck", "--filter", "fully_connected", flag, value])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("error: cases must be >= 1 and seed >= 0, got ")


class TestBenchCommand:
    def test_ratio_column_all_one_at_full_fraction(self, tmp_path, capsys):
        code = cli.main(["bench", "--cp-fraction", "1.0", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "bench.json").read_text())["rows"]
        assert all(r["feature_access_ratio"] == 1.0 for r in rows)

    def test_quarter_fraction_ratio_exact(self, tmp_path):
        code = cli.main(["bench", "--cp-fraction", "0.25", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = json.loads((tmp_path / "bench.json").read_text())["rows"]
        pconv_rows = [r for r in rows if "pconv" in r["layer"]]
        assert pconv_rows
        assert all(r["feature_access_ratio"] == 0.25 for r in pconv_rows)

    def test_csv_totals_equal_row_sums(self, tmp_path):
        assert cli.main(["bench", "--out-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, l.split(","))) for l in lines[1:-1]]
        total = lines[-1].split(",")
        for col in ("full_params", "pconv_params", "full_macs", "pconv_macs"):
            idx = header.index(col)
            assert int(total[idx]) == sum(int(r[col]) for r in rows)

    def test_malformed_spec_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "net.cfg"
        bad.write_text("image_size = 64\nwat = 9\n", encoding="utf-8")
        code = cli.main(["bench", "--spec", str(bad), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_PARSE
        assert ":2:" in err


class TestReportCommand:
    def test_report_emits_table_and_files(self, tmp_path, capsys):
        json_out = tmp_path / "cost.json"
        csv_out = tmp_path / "cost.csv"
        code = cli.main(["report", "--json-out", str(json_out), "--csv-out", str(csv_out)])
        out = capsys.readouterr().out
        assert code == 0
        assert "TOTAL" in out
        payload = json.loads(json_out.read_text())
        assert payload["totals"]["params"] == sum(r["params"] for r in payload["layers"])
        assert csv_out.read_text().startswith("layer,")

    @pytest.mark.parametrize("command", ["report", "train"])
    @pytest.mark.parametrize("key,value", [
        ("stride", "0"), ("stride", "-8"), ("image_size", "0"), ("in_channels", "0"),
        ("num_classes", "-5"), ("pconv_kernel", "-1"), ("cbam_spatial_kernel", "-1"),
        ("spp_windows", "4"), ("spp_windows", "0"), ("spp_windows", "-3"), ("activation", "foo"),
        ("cbam_reduction", "0"), ("pconv_kernel", "2"), ("cbam_spatial_kernel", "2"),
        ("cbam_composition", "foo"), ("cbam_channel_mlp", "bar"), ("stem_channels", "3"),
    ])
    def test_out_of_range_spec_value_is_a_config_error(self, tmp_path, capsys, command, key, value):
        path = tmp_path / "net.cfg"
        path.write_text(f"{key} = {value}\n", encoding="utf-8")
        argv = (["report", "--spec", str(path)] if command == "report" else
                ["train", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err


class TestConfigSchema:
    # A value for every key, none of them the default.
    VALUES = {
        "image_size": 48, "in_channels": 3, "stem_channels": 12, "num_classes": 4,
        "stride": 4, "cp_fraction": 0.5, "pconv_kernel": 5, "expansion": 1.5,
        "spp_windows": (3, 7), "cbam_reduction": 2, "cbam_spatial_kernel": 3,
        "cbam_composition": "literal", "cbam_channel_mlp": "literal", "activation": "relu",
        "seed": 7, "epochs": 3, "batch_size": 2, "lr_max": 0.001, "lr_min": 2e-05,
        "weight_decay": 0.001, "loss_variant": "ciou", "freeze_fraction": 0.5,
        "dataset_count": 9, "box_weight": 4.0, "obj_weight": 1.5, "cls_weight": 1.0,
        "dtype": "float32",
        "score_threshold": 0.3, "nms_iou": 0.5, "eval_iou": 0.6, "checked": False,
    }

    def test_keys_are_the_dataclass_fields_and_run_values(self):
        net = {f.name for f in fields(ToyNetSpec)}
        train = {f.name for f in fields(TrainConfig)} - {"net"}
        run = {"score_threshold", "nms_iou", "eval_iou", "checked"}
        assert set(cli._NET_SCHEMA) == net
        assert set(cli._RUN_SCHEMA) == net | train | run == set(self.VALUES)

    def test_every_key_loads_into_its_field(self, tmp_path):
        def text(v):
            if isinstance(v, tuple):
                return ", ".join(map(str, v))
            return str(v).lower() if isinstance(v, bool) else str(v)

        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{k} = {text(v)}\n" for k, v in self.VALUES.items()),
                        encoding="utf-8")
        cfg, values = cli._load_run_config(path)
        defaults = {**cli._RUN_DEFAULTS}
        for obj in (TrainConfig(), ToyNetSpec()):
            defaults.update((f.name, getattr(obj, f.name)) for f in fields(obj))
        for key, want in self.VALUES.items():
            assert defaults[key] != want, key
            loaded = getattr(cfg.net, key) if key in cli._NET_SCHEMA else getattr(cfg, key, values[key])
            assert loaded == want and type(loaded) is type(want), key

    def test_readme_config_block_lists_every_key_at_its_default(self, tmp_path):
        """The README's ini block parses, and it shows each config key once,
        at the default the program uses."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (block,) = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
        path = tmp_path / "readme.cfg"
        path.write_text(block, encoding="utf-8")
        defaults = dict(cli._RUN_DEFAULTS)
        for obj in (TrainConfig(), ToyNetSpec()):
            defaults.update((f.name, getattr(obj, f.name)) for f in fields(obj) if f.name != "net")
        shown = parse_kv_file(path, cli._RUN_SCHEMA)
        assert shown.keys() == cli._RUN_SCHEMA.keys()
        for key, value in shown.items():
            assert value == defaults[key] and type(value) is type(defaults[key]), key


class TestHostileConfigValues:
    @pytest.mark.parametrize("command", ["report", "train"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_a_file_that_is_not_utf8_is_a_parse_error_naming_its_line(
            self, tmp_path, capsys, command, newline):
        """A Latin-1 byte in the comment on line 2 exits 5 naming line 2,
        not a UnicodeDecodeError traceback."""
        path = tmp_path / "net.cfg"
        path.write_bytes(newline.join(["image_size = 64", "# caf\xe9", "activation = mish", ""])
                         .encode("latin-1"))
        argv = (["report", "--spec", str(path)] if command == "report" else
                ["train", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert cli.main(argv) == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: not UTF-8: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "eval", "detect"])
    @pytest.mark.parametrize("key", ["score_threshold", "nms_iou", "eval_iou"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "1.5", "2"])
    def test_a_threshold_outside_the_unit_interval_is_a_config_error(
            self, tmp_path, capsys, command, key, value):
        """NaN, an infinity or a value past 0 or 1 exits 2 naming the key,
        before any weights or image is read."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG + f"{key} = {value}\n", encoding="utf-8")
        argv = {"train": ["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")],
                "eval": ["eval", "--config", str(cfg), "--weights", str(tmp_path / "w.dkw"),
                         "--out-dir", str(tmp_path / "e")],
                "detect": ["detect", "--config", str(cfg), "--weights", str(tmp_path / "w.dkw"),
                           "--image", str(tmp_path / "i.pgm"), "--out", str(tmp_path / "d.json")],
                }[command]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {key} must be in [0, 1], got {float(value)}\n"

    @pytest.mark.parametrize("command", ["train", "eval", "detect"])
    @pytest.mark.parametrize("key", ["lr_max", "lr_min", "weight_decay",
                                     "box_weight", "obj_weight", "cls_weight"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
    def test_a_rate_or_loss_weight_that_is_not_finite_and_non_negative_is_a_config_error(
            self, tmp_path, capsys, command, key, value):
        """A NaN learning rate would train to NaN weights, a negative one would
        ascend the loss and an infinite loss weight would diverge: each exits 2
        naming the key, before anything is trained or read."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("lr_max = 0.004\n", "") + f"{key} = {value}\n",
                       encoding="utf-8")
        out = tmp_path / "o"
        argv = {"train": ["train", "--config", str(cfg), "--out-dir", str(out)],
                "eval": ["eval", "--config", str(cfg), "--weights", str(tmp_path / "w.dkw"),
                         "--out-dir", str(out)],
                "detect": ["detect", "--config", str(cfg), "--weights", str(tmp_path / "w.dkw"),
                           "--image", str(tmp_path / "i.pgm"), "--out", str(out / "d.json")],
                }[command]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {key} must be finite and >= 0, got {float(value)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "bench", "train"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
    def test_an_expansion_that_is_not_finite_and_positive_is_a_config_error(
            self, tmp_path, capsys, command, value):
        """The block's hidden width is ceil(expansion * channels): a NaN or
        infinite ratio exits 2 naming the key, not with a traceback from
        math.ceil, and nothing is written."""
        path = tmp_path / "net.cfg"
        path.write_text(f"expansion = {value}\n", encoding="utf-8")
        out = tmp_path / "o"
        argv = {"report": ["report", "--spec", str(path), "--json-out", str(out)],
                "bench": ["bench", "--spec", str(path), "--out-dir", str(out)],
                "train": ["train", "--config", str(path), "--out-dir", str(out)],
                }[command]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: expansion must be finite and > 0, got {float(value)}\n"
        assert not out.exists()

    def test_zero_rates_and_loss_weights_load(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        keys = ("lr_max", "lr_min", "weight_decay", "box_weight", "obj_weight", "cls_weight")
        cfg.write_text("".join(f"{k} = 0\n" for k in keys), encoding="utf-8")
        train_cfg, _ = cli._load_run_config(cfg)
        assert [getattr(train_cfg, k) for k in keys] == [0.0] * len(keys)

    def test_thresholds_at_the_ends_of_the_unit_interval_load(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("score_threshold = 0\nnms_iou = 1\neval_iou = 1.0\n", encoding="utf-8")
        _, values = cli._load_run_config(cfg)
        assert (values["score_threshold"], values["nms_iou"], values["eval_iou"]) == (0.0, 1.0, 1.0)


# SHA-256 of what `detkit report` (stdout, --json-out, --csv-out) and `detkit
# bench` (stdout, bench.json, bench.csv) write for three net specs. The cost
# model is exact integer arithmetic, so the digests do not depend on the machine.
COST_SPECS = {
    "default": "",
    "cp-half": "cp_fraction = 0.5\n",
    "literal-k3": "cbam_channel_mlp = literal\ncbam_composition = literal\ncbam_spatial_kernel = 3\n",
}
COST_DIGESTS = {
    "cp-half": {
        "bench stdout": "ce9da94fb5ecb0a4b6b6d61fdeb4663b402f0d31db44d67f3ce8169adb6a07c0",
        "bench.csv": "f5595251a2e14111b8a3208a4924a71caa0cd11b3d9b5564dfddf58494810e21",
        "bench.json": "ac6de139f13f83acef85cd53519d453881413f48e9f1598ad6424873082c5f6e",
        "cost.csv": "8d7e860fa8293ba177ac476aaa22ed7b0dd77affc94f93af75909875bd5ec8d1",
        "cost.json": "60d7d3476725a0ae197ee77d7d8a80eb785abe20dfcc18f9c676fa6ca093c643",
        "report stdout": "236409ec0a5d81e5c334326db7869db6543c6816ff55bc5b8b431403367be862",
    },
    "default": {
        "bench stdout": "623b6203bb71aaa648411113dee46f0dd60aa4e93efe049c6a7dac93cd9621e7",
        "bench.csv": "14e980eea66490c93e662651bfa2b118342f3e37804ab90702ba7b98e05ece12",
        "bench.json": "cdb42f9d7179a3806c6800e643636ce639784c68c7b8f42e2c2e578b737c462b",
        "cost.csv": "3e6bd8760f38588ab40c087377d470cca1df545270b09f0fe4cd2d95002d170a",
        "cost.json": "501f19251b72fff5ee26534f2b87aba5d1dcbb30e9fd7ddda4a214632be05fd7",
        "report stdout": "9ecfab6d683e1c16570c40fbfc3d12127302a4e0fbf616fe9e652c7267b149b0",
    },
    "literal-k3": {
        "bench stdout": "f65cba5a31b6e81c8ab7bdab98d5049ab429066d2a0d23d925f2b61270d10671",
        "bench.csv": "838d726ec2743c88fc5bdd5fe17f60037033fb6ab983190d4b2051fc7beb999e",
        "bench.json": "caf21bec141abdb4cdf4a7446fe287d32dd8e3c1211e52aa1a91ea7577a31d23",
        "cost.csv": "ebaea9cf5c5b3d74678510ffe9123bc9487c4f42374a67d5f50b6dcbf69cdd96",
        "cost.json": "b5d7acf3b983e0f8233d2f4365866f2882e9668e522668e17c84cca786126f75",
        "report stdout": "d6c22a2532c91666f79f020dbd7dee4a6ba583d81dece7c8f2180fd61e8949e4",
    },
}


def cost_digests(tmp_path, spec_text, bench_flags=()):
    spec = tmp_path / "net.cfg"
    spec.write_text(spec_text, encoding="utf-8")
    runs = {
        "report": ["report", "--spec", str(spec), "--json-out", str(tmp_path / "cost.json"),
                   "--csv-out", str(tmp_path / "cost.csv")],
        "bench": ["bench", "--out-dir", str(tmp_path),
                  *(bench_flags or ["--spec", str(spec)])],
    }
    digests = {}
    for command, argv in runs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        digests[f"{command} stdout"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    for name in ("cost.json", "cost.csv", "bench.json", "bench.csv"):
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    return digests


class TestCostGolden:
    @pytest.mark.parametrize("case", sorted(COST_SPECS))
    def test_report_and_bench_digests(self, tmp_path, case):
        assert cost_digests(tmp_path, COST_SPECS[case]) == COST_DIGESTS[case]

    def test_cp_fraction_flag_prices_like_the_spec_key(self, tmp_path):
        """`bench --cp-fraction 0.5` on the default spec writes what a spec
        file with cp_fraction = 0.5 does."""
        digests = cost_digests(tmp_path, COST_SPECS["cp-half"], ["--cp-fraction", "0.5"])
        bench = {k: v for k, v in digests.items() if k.startswith("bench")}
        assert bench == {k: v for k, v in COST_DIGESTS["cp-half"].items() if k.startswith("bench")}


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# SHA-256 of the detections JSON that `detkit detect` writes at score threshold
# 0.01, so nearly every grid cell reaches NMS. The weights are ToyNetSpec()
# drawn from PCG64(7) in each dtype; the scenes are synthetic shapes cropped to
# (h, w) = DETECT_SIZES, so letterbox scales up, not at all, and down. Pins
# the forward at batch 1, decode, NMS and the letterbox inverse. Measured with
# NumPy 2.4 on x86-64 OpenBLAS.
DETECT_SIZES = ((40, 28), (64, 64), (90, 150))
DETECT_DIGESTS = {
    "float64": ("ec0edf698be548055ab7c066dc6278374533666f530b24c7dbc52d100bcb32b9",
                "f930e8e1c8eadf3aa3a86ecda2c118aeab11ab5504ecc99e1a91867616166481",
                "94d61dd2757ed96a5467fc0a17b5e8f73f0b1471ed15e6e9b4fc598b325cf85c"),
    "float32": ("da5202494a43b717cfe4b9d66bb0787850fb53ab17defd06f5b6bb5f3aceac62",
                "78c190351dc048bee2b0a6ea7d68d86d55dd4d40e805214a1c3166502cb51dae",
                "0940a352cd8e3068478165dbaba9797e86699d5917f5928e956f52e6f610b725"),
}

# SHA-256 of the summary.json and pr_curve.csv that `detkit eval` writes at
# score threshold 0.01 for the weights of the float64 TRAIN_DIGESTS run
# (tests/test_model.py), on its 10 training images, at two matching IoU
# thresholds. Pins decode, NMS, matching and the PR curve on hundreds of
# detections per run.
EVAL_DIGESTS = {
    "0.5": {"summary.json": "b3879c14825149b3b59f0e2cd2dfed9334ce13f979ece2194b8e0796c17b1a90",
            "pr_curve.csv": "32d4c56a83a7fb9653adc2d9f2971e63bcab0bfdbbe53ea8b412e512776826af"},
    "0.1": {"summary.json": "0ff599faee3e24b642c3465029a8848139a754eb29260e4f80cf8c41f507baa7",
            "pr_curve.csv": "124895814358e9bb78931bde9fac63b4db8494b104f359a6d4f929310480aede"},
}
EVAL_CFG = "seed = 42\nepochs = 3\nbatch_size = 5\ndataset_count = 10\nscore_threshold = 0.01\n"


# SHA-256 of the image that `detkit detect --overlay` writes for the float64
# DETECT_DIGESTS weights and threshold: the three DETECT_SIZES scenes as PGM
# (white outlines), then the last one as a PPM whose channels differ (red
# outlines). Dozens of boxes per scene pin draw_boxes' clamping, rounding and
# colour, and write_image.
OVERLAY_DIGESTS = (
    "916bf29d27442ecf9eb8d9d8f45d9b83a89781e70f677f6fc05999e27af0f3a4",
    "f314ab540f4c7f9896a4ec3b864643ceac8f7dbe6c0eb6792a7a186817ab16ba",
    "faac3daa12d9d7751dc4191a7e2966c0d57de24c562a9b4515e662c0d598c000",
    "552186e2259bcfca31c52feebd45ebb85b42e31469884659b23ffa11d2a55738",
)


def _detect_argv(tmp_path, dtype):
    """detect's arguments up to --image: score threshold 0.01 and the
    ToyNetSpec() weights drawn from PCG64(7) in dtype."""
    from detkit.model import init_params
    from detkit.weights_io import save_weights

    cfg = tmp_path / "detect.cfg"
    cfg.write_text("score_threshold = 0.01\n", encoding="utf-8")
    weights = tmp_path / "init.dkw"
    save_weights(init_params(ToyNetSpec(), np.random.Generator(np.random.PCG64(7)),
                             dtype=getattr(np, dtype)), weights)
    return ["detect", "--config", str(cfg), "--weights", str(weights)]


def _detect_scenes():
    """Pixels of each DETECT_SIZES scene: a synthetic image cropped to (h, w)."""
    return [synth_dataset(11 + k, 1, max(h, w))[0][0].data[:, :, :h, :w]
            for k, (h, w) in enumerate(DETECT_SIZES)]


def detect_digests(tmp_path, dtype):
    argv = _detect_argv(tmp_path, dtype)
    digests = []
    for k, pixels in enumerate(_detect_scenes()):
        image = tmp_path / f"scene{k}.pgm"
        write_image(image, Tensor(pixels))
        out = tmp_path / f"dets{k}.json"
        _quiet_main([*argv, "--image", str(image), "--out", str(out)])
        digests.append(_sha256(out))
    return tuple(digests)


def overlay_digests(tmp_path):
    argv = _detect_argv(tmp_path, "float64")
    scenes = [(f"scene{k}.pgm", pixels) for k, pixels in enumerate(_detect_scenes())]
    gray = scenes[-1][1]
    scenes.append(("scene.ppm", np.concatenate([gray, 1.0 - gray, 0.5 * gray], axis=1)))
    digests = []
    for name, pixels in scenes:
        image = tmp_path / name
        write_image(image, Tensor(pixels))
        overlay = tmp_path / f"overlay-{name}"
        _quiet_main([*argv, "--image", str(image), "--out", str(tmp_path / "dets.json"),
                     "--overlay", str(overlay)])
        digests.append(_sha256(overlay))
    return tuple(digests)


def eval_digests(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(EVAL_CFG, encoding="utf-8")
    _quiet_main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "train")])
    digests = {}
    for iou_thr in EVAL_DIGESTS:
        cfg.write_text(EVAL_CFG + f"eval_iou = {iou_thr}\n", encoding="utf-8")
        out = tmp_path / f"eval{iou_thr}"
        _quiet_main(["eval", "--config", str(cfg), "--weights", str(tmp_path / "train" / "weights.dkw"),
                     "--out-dir", str(out)])
        digests[iou_thr] = {name: _sha256(out / name) for name in ("summary.json", "pr_curve.csv")}
    return digests


class TestDetectEvalGolden:
    """Pins what detect and eval write, so a faster decode, NMS or matcher
    must keep every detection, score and PR point to the bit."""

    @pytest.mark.parametrize("dtype", sorted(DETECT_DIGESTS))
    def test_detect_json_digests(self, tmp_path, dtype):
        assert detect_digests(tmp_path, dtype) == DETECT_DIGESTS[dtype]

    def test_eval_artifact_digests(self, tmp_path):
        assert eval_digests(tmp_path) == EVAL_DIGESTS

    def test_detect_overlay_digests(self, tmp_path):
        assert overlay_digests(tmp_path) == OVERLAY_DIGESTS


class TestDetectScans:
    def scans(self, tmp_path, monkeypatch, *extra):
        """detect on a PPM scene, and each (name, shape) it scans for NaN and
        Inf."""
        gray = _detect_scenes()[0]
        image = tmp_path / "scene.ppm"
        write_image(image, Tensor(np.concatenate([gray, 1.0 - gray, 0.5 * gray], axis=1)))
        argv = [*_detect_argv(tmp_path, "float64"), "--image", str(image),
                "--out", str(tmp_path / "dets.json"), *extra]
        scanned = []
        require_finite = tensor._require_finite

        def recording(what, arr):
            scanned.append((what, arr.shape))
            require_finite(what, arr)

        monkeypatch.setattr(tensor, "_require_finite", recording)
        _quiet_main(argv)
        return gray.shape[2:], scanned

    def test_a_ppm_scene_is_scanned_once(self, tmp_path, monkeypatch):
        """detect scans a PPM scene for NaN and Inf once, where read_image
        makes its Tensor: the channel mean that the one-channel net reads is
        an array, not scanned again."""
        hw, scanned = self.scans(tmp_path, monkeypatch)
        assert scanned == [("tensor", (1, 3, *hw))]

    def test_an_overlay_is_not_scanned_again(self, tmp_path, monkeypatch):
        """The overlay draw_boxes burns into the scene is the array that
        write_image writes, not a second Tensor."""
        hw, scanned = self.scans(tmp_path, monkeypatch, "--overlay", str(tmp_path / "overlay.ppm"))
        assert (tmp_path / "overlay.ppm").is_file()
        assert scanned == [("tensor", (1, 3, *hw))]


class TestTrainEvalDetect:
    def test_pipeline_round_trip(self, tmp_path, small_config, capsys):
        train_dir = tmp_path / "train"
        code = cli.main(["train", "--config", str(small_config), "--out-dir", str(train_dir)])
        assert code == 0
        weights = train_dir / "weights.dkw"
        stats = train_dir / "stats.jsonl"
        assert weights.is_file() and stats.is_file()
        assert len(stats.read_text().strip().splitlines()) == 3

        eval_dir = tmp_path / "eval"
        code = cli.main(["eval", "--config", str(small_config),
                         "--weights", str(weights), "--out-dir", str(eval_dir)])
        assert code == 0
        summary = json.loads((eval_dir / "summary.json").read_text())
        assert set(summary) == {"precision", "recall", "f1", "ap", "per_class_ap",
                                "model_size_mb", "computation_macs"}
        assert (eval_dir / "pr_curve.csv").read_text().startswith("recall,precision")

        # detect on a dataset image written as PGM
        img = synth_dataset(5, 1, 32, 3)[0][0]
        img_path = tmp_path / "scene.pgm"
        write_image(img_path, img)
        out_json = tmp_path / "dets.json"
        overlay = tmp_path / "overlay.pgm"
        code = cli.main(["detect", "--config", str(small_config),
                         "--weights", str(weights), "--image", str(img_path),
                         "--out", str(out_json), "--overlay", str(overlay)])
        assert code == 0
        dets = detections_from_json(out_json.read_text())
        for d in dets:
            assert 0.0 <= d.bbox.x1 <= d.bbox.x2 <= 32.0
            assert 0.0 <= d.bbox.y1 <= d.bbox.y2 <= 32.0
        assert read_image(overlay).shape == (1, 1, 32, 32)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_eval_model_size_is_what_the_loaded_weights_hold(self, tmp_path, small_config, dtype):
        """A float32 model is half the size of its float64 twin."""
        from detkit.model import init_params
        from detkit.weights_io import save_weights

        params = init_params(ToyNetSpec(image_size=32, stem_channels=8), np.random.default_rng(0),
                             dtype=getattr(np, dtype))
        save_weights(params, tmp_path / "w.dkw")
        _quiet_main(["eval", "--config", str(small_config), "--weights", str(tmp_path / "w.dkw"),
                     "--out-dir", str(tmp_path / "e")])
        summary = json.loads((tmp_path / "e" / "summary.json").read_text())
        n_values = sum(p.size for p in params.values())
        assert summary["model_size_mb"] == n_values * np.dtype(dtype).itemsize / 1e6

    def test_train_eval_byte_identical_across_runs(self, tmp_path, small_config):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert cli.main(["train", "--config", str(small_config),
                             "--out-dir", str(d)]) == 0
            assert cli.main(["eval", "--config", str(small_config),
                             "--weights", str(d / "weights.dkw"),
                             "--out-dir", str(d / "eval")]) == 0
        assert (dirs[0] / "weights.dkw").read_bytes() == (dirs[1] / "weights.dkw").read_bytes()
        assert (dirs[0] / "stats.jsonl").read_bytes() == (dirs[1] / "stats.jsonl").read_bytes()
        assert ((dirs[0] / "eval" / "summary.json").read_bytes()
                == (dirs[1] / "eval" / "summary.json").read_bytes())

    def test_detect_on_blank_image_with_zeroed_model(self, tmp_path, small_config):
        """A blank scene and an untrained (zeroed-objectness) model yield a
        valid, empty detection list."""
        from detkit.model import ToyNetSpec, init_params
        from detkit.weights_io import save_weights

        spec = ToyNetSpec(image_size=32, stem_channels=8)
        params = init_params(spec, np.random.default_rng(0))
        params["head.b"][4] = -40.0  # objectness prior: never fire
        weights = tmp_path / "zero.dkw"
        save_weights(params, weights)
        img_path = tmp_path / "blank.pgm"
        write_image(img_path, Tensor(np.full((1, 1, 32, 32), 0.2)))
        out_json = tmp_path / "dets.json"
        code = cli.main(["detect", "--config", str(small_config),
                         "--weights", str(weights), "--image", str(img_path),
                         "--out", str(out_json)])
        assert code == 0
        assert json.loads(out_json.read_text()) == []

    def test_detect_prints_an_edge_clamped_corner_as_an_int(self, tmp_path, small_config, capsys):
        """Every cell predicts a box past the letterboxed frame. Mapped back to
        the 40 x 20 source, y2 = 30 clamps to the image's int height and prints
        as 20; x2 = 40.0 is not past the edge and stays a float."""
        from detkit.model import ToyNetSpec, init_params
        from detkit.weights_io import save_weights

        spec = ToyNetSpec(image_size=32, stem_channels=8)
        params = init_params(spec, np.random.default_rng(0))
        params["head.w"][:] = 0.0
        params["head.b"][:] = [0.0, 0.0, 10.0, 10.0, 40.0, 0.0, 0.0, 0.0]
        weights = tmp_path / "edge.dkw"
        save_weights(params, weights)
        img_path = tmp_path / "wide.pgm"
        write_image(img_path, Tensor(np.full((1, 1, 20, 40), 0.2)))
        out_json = tmp_path / "dets.json"
        code = cli.main(["detect", "--config", str(small_config), "--weights", str(weights),
                         "--image", str(img_path), "--out", str(out_json)])
        assert code == 0
        text = ('[\n  {\n    "bbox": [\n      0.0,\n      0.0,\n      40.0,\n      20\n    ],\n'
                '    "class": 0,\n    "score": 0.5\n  }\n]')
        assert out_json.read_text() == text + "\n"
        assert capsys.readouterr().out == text + "\n"

    def test_missing_weights_distinct_exit(self, tmp_path, small_config, capsys):
        code = cli.main(["eval", "--config", str(small_config),
                         "--weights", str(tmp_path / "nope.dkw"),
                         "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_MISSING

    def test_corrupt_weights_checksum_exit(self, tmp_path, small_config):
        train_dir = tmp_path / "t"
        assert cli.main(["train", "--config", str(small_config),
                         "--out-dir", str(train_dir)]) == 0
        weights = train_dir / "weights.dkw"
        blob = bytearray(weights.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        weights.write_bytes(bytes(blob))
        code = cli.main(["eval", "--config", str(small_config),
                         "--weights", str(weights), "--out-dir", str(tmp_path / "e")])
        assert code == cli.EXIT_CHECKSUM

    def test_version_mismatch_distinct_exit(self, tmp_path, small_config):
        from detkit.weights_io import FORMAT_VERSION, save_weights

        weights = tmp_path / "w.dkw"
        save_weights({"x": np.zeros(3)}, weights)
        weights.write_bytes(with_version(weights.read_bytes(), FORMAT_VERSION + 1))
        code = cli.main(["eval", "--config", str(small_config),
                         "--weights", str(weights), "--out-dir", str(tmp_path / "e")])
        assert code == cli.EXIT_VERSION

    def test_version_1_file_is_a_checksum_exit(self, tmp_path, small_config, capsys):
        """A version-1 file, byte for byte what version 1 wrote, ends in a
        blake2b-8 digest, not a CRC-32: the checksum is checked before the
        version, so it exits 6."""
        from detkit.model import init_params
        from detkit.weights_io import save_weights

        weights = tmp_path / "w.dkw"
        save_weights(init_params(ToyNetSpec(image_size=32, stem_channels=8),
                                 np.random.default_rng(0)), weights)
        body = unsigned(with_version(weights.read_bytes(), 1))
        weights.write_bytes(body + hashlib.blake2b(body, digest_size=8).digest())
        code = cli.main(["eval", "--config", str(small_config),
                         "--weights", str(weights), "--out-dir", str(tmp_path / "e")])
        assert code == cli.EXIT_CHECKSUM
        assert capsys.readouterr().err == "error: checksum mismatch, file is corrupt\n"

    def test_unreadable_image_distinct_exit(self, tmp_path, small_config):
        train_dir = tmp_path / "t"
        assert cli.main(["train", "--config", str(small_config),
                         "--out-dir", str(train_dir)]) == 0
        bad_img = tmp_path / "bad.pgm"
        bad_img.write_bytes(b"not an image at all")
        code = cli.main(["detect", "--config", str(small_config),
                         "--weights", str(train_dir / "weights.dkw"),
                         "--image", str(bad_img), "--out", str(tmp_path / "d.json")])
        assert code == cli.EXIT_IMAGE

    @pytest.mark.parametrize("blob", [
        b"P5\n-2 -3\n255\n" + bytes(6),     # negative dimensions
        b"P5\n0 4\n255\n",                  # zero width
        b"P2\n2 2\n255\n0 999\n1 2\n",      # sample above maxval
    ], ids=["negative-size", "zero-width", "sample-above-maxval"])
    def test_malformed_pgm_image_exit(self, tmp_path, small_config, blob):
        from detkit.model import ToyNetSpec, init_params
        from detkit.weights_io import save_weights

        weights = tmp_path / "w.dkw"
        save_weights(init_params(ToyNetSpec(image_size=32, stem_channels=8),
                                 np.random.default_rng(0)), weights)
        bad_img = tmp_path / "bad.pgm"
        bad_img.write_bytes(blob)
        code = cli.main(["detect", "--config", str(small_config),
                         "--weights", str(weights),
                         "--image", str(bad_img), "--out", str(tmp_path / "d.json")])
        assert code == cli.EXIT_IMAGE

    def test_train_byte_identical_across_processes_default_blas_threads(
            self, tmp_path, small_config):
        """Convolutions run as BLAS matrix products; two fresh processes with
        the library's default thread count must still write the same bytes."""
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                            "NUMEXPR_NUM_THREADS")}
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            subprocess.run([sys.executable, "-m", "detkit.cli", "train",
                            "--config", str(small_config), "--out-dir", str(d)],
                           env=env, check=True, capture_output=True)
        for name in ("weights.dkw", "stats.jsonl"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    @pytest.mark.parametrize("checked", ["true", "false"])
    def test_divergence_exit_names_the_head(self, tmp_path, capsys, checked):
        """An exploding learning rate makes the head non-finite in epoch 0;
        checked and unchecked runs alike exit 10 and say where, and stderr
        holds only that line: numpy's overflow warnings, made errors here,
        are silenced by the command."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 3\nlr_max = 1e300\nlr_min = 1e300\nfreeze_fraction = 0.0\n"
                       f"dataset_count = 10\nimage_size = 32\nchecked = {checked}\n",
                       encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_DIVERGED
        assert capsys.readouterr().err == "error: non-finite head at epoch 0, batch 1\n"

    @pytest.mark.parametrize("checked", ["true", "false"])
    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_nan_weight_exit_names_the_head(self, tmp_path, capsys, command, checked):
        """A NaN in head.b makes every head non-finite: detect and eval exit 2
        and name the head, whatever the config's checked key says."""
        from detkit.model import init_params
        from detkit.weights_io import save_weights

        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG + f"checked = {checked}\n", encoding="utf-8")
        params = init_params(ToyNetSpec(image_size=32, stem_channels=8), np.random.default_rng(0))
        params["head.b"][0] = np.nan
        weights = tmp_path / "nan.dkw"
        save_weights(params, weights)
        image = tmp_path / "x.pgm"
        write_image(image, Tensor(np.full((1, 1, 32, 32), 0.2)))
        argv = [command, "--config", str(cfg), "--weights", str(weights)] + (
            ["--image", str(image), "--out", str(tmp_path / "d.json")] if command == "detect"
            else ["--out-dir", str(tmp_path / "e")])
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: non-finite head\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_negative_seed_exit(self, tmp_path, capsys, command):
        from detkit.model import init_params
        from detkit.weights_io import save_weights

        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG.replace("seed = 5", "seed = -1"), encoding="utf-8")
        weights = tmp_path / "w.dkw"
        save_weights(init_params(ToyNetSpec(image_size=32, stem_channels=8),
                                 np.random.default_rng(0)), weights)
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")] + (
            ["--weights", str(weights)] if command == "eval" else [])
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("command", ["detect", "eval"])
    def test_weights_without_a_parameter_exit_names_it(self, tmp_path, small_config, capsys,
                                                       command):
        """Well-formed weights that lack one of the net's parameters exit 2
        and name it, as weights of a wrong shape do."""
        from detkit.model import init_params
        from detkit.weights_io import save_weights

        params = init_params(ToyNetSpec(image_size=32, stem_channels=8), np.random.default_rng(0))
        del params["head.w"]
        weights = tmp_path / "partial.dkw"
        save_weights(params, weights)
        image = tmp_path / "x.pgm"
        write_image(image, Tensor(np.full((1, 1, 32, 32), 0.2)))
        argv = [command, "--config", str(small_config), "--weights", str(weights)] + (
            ["--image", str(image), "--out", str(tmp_path / "d.json")] if command == "detect"
            else ["--out-dir", str(tmp_path / "e")])
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == "error: weights have no parameter 'head.w'\n"

    def test_weight_dims_past_int64_format_exit(self, tmp_path, small_config, capsys):
        """An entry of 2**31 x 2**31 x 4 elements, 2**64, wraps to 0 in int64.
        Counted exactly, it runs past the file's empty payload: exit 9."""
        body = (weights_header(2, 1) + struct.pack("<H", 6) + b"stem.w"
                + struct.pack("<B3IQ", 3, 2**31, 2**31, 4, 0) + struct.pack("<Q", 0))
        weights = tmp_path / "huge.dkw"
        weights.write_bytes(signed(body))
        code = cli.main(["eval", "--config", str(small_config), "--weights", str(weights),
                         "--out-dir", str(tmp_path / "e")])
        assert code == cli.EXIT_FORMAT
        assert capsys.readouterr().err == "error: entry 'stem.w' runs past the payload\n"

    @pytest.mark.parametrize("edit", [
        lambda body: body.replace(b"stem.w", b"\xfftem.w", 1),
        lambda body: body.replace(b"stem.b", b"stem.w"),
    ], ids=["name-not-utf8", "name-twice"])
    def test_malformed_manifest_name_format_exit(self, tmp_path, small_config, capsys, edit):
        """Entry names that are not UTF-8, or that name one entry twice, in a
        file whose checksum holds: exit 9 with one error line."""
        from detkit.model import init_params
        from detkit.weights_io import save_weights

        weights = tmp_path / "w.dkw"
        save_weights(init_params(ToyNetSpec(image_size=32, stem_channels=8),
                                 np.random.default_rng(0)), weights)
        weights.write_bytes(signed(edit(unsigned(weights.read_bytes()))))
        image = tmp_path / "x.pgm"
        write_image(image, Tensor(np.full((1, 1, 32, 32), 0.2)))
        code = cli.main(["detect", "--config", str(small_config), "--weights", str(weights),
                         "--image", str(image), "--out", str(tmp_path / "d.json")])
        assert code == cli.EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith("error: entry ") and err.count("\n") == 1, err

    # Each size needs more than an exbibyte, past the address space of any
    # 64-bit machine, so the allocation fails before a byte is written.
    @pytest.mark.parametrize("key, value", [("expansion", "1e14"), ("image_size", "1000000000")])
    def test_a_net_too_large_to_allocate_is_a_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs = 1\ndataset_count = 2\n{key} = {value}\n", encoding="utf-8")
        code = cli.main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err

    # Past 8 EiB numpy cannot even describe the array and raises ValueError,
    # not MemoryError (or, for a stem_channels too large for a float,
    # OverflowError); the spec rejects such a size and names its key, or, for
    # a convolution's weight, its layer. The block's pointwise weights are
    # (hidden, channels, 1, 1) and (channels, hidden, 1, 1).
    @pytest.mark.parametrize("key, value, start", [
        pytest.param("expansion", "1e16", "block: weight (400000000000000000, 40, 1, 1) ",
                     id="expansion-1e16"),
        pytest.param("image_size", "2000000000", "image_size ", id="image_size-2000000000"),
        pytest.param("in_channels", "100000000000000000000", "stem: weight (40, ",
                     id="in_channels-100000000000000000000"),
        pytest.param("pconv_kernel", "100000000000000000001", "block: weight (10, 10, ",
                     id="pconv_kernel-100000000000000000001"),
        pytest.param("cbam_spatial_kernel", "100000000000000000001", "cbam: weight (1, 2, ",
                     id="cbam_spatial_kernel-100000000000000000001"),
        pytest.param("stem_channels", "1000000000",
                     "block: weight (2000000000, 1000000000, 1, 1) ", id="stem_channels-1000000000"),
        pytest.param("stem_channels", "1" + "0" * 400, "stem: weight (1000",
                     id="stem_channels-401-digits")])
    def test_a_net_past_the_largest_array_is_a_config_error(self, tmp_path, capsys, key, value,
                                                            start):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"epochs = 1\ndataset_count = 2\n{key} = {value}\n", encoding="utf-8")
        code = cli.main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {start}") and "too large to allocate" in err, err
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["report", "bench"])
    def test_a_stem_too_large_for_a_float_is_a_config_error_in_report_and_bench(
            self, tmp_path, capsys, command):
        """conv_channels rounds cp_fraction * stem_channels as a float; the stem
        is checked first, so a 401-digit width exits 2, not with OverflowError."""
        spec = tmp_path / "net.cfg"
        spec.write_text("stem_channels = 1" + "0" * 400 + "\n", encoding="utf-8")
        out = tmp_path / "o"
        argv = {"report": ["report", "--spec", str(spec), "--json-out", str(out)],
                "bench": ["bench", "--spec", str(spec), "--out-dir", str(out)]}[command]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: stem: weight ") and err.endswith(" is too large to allocate\n")
        assert not out.exists()

    def test_unchecked_train_leaves_tensors_checked(self, tmp_path):
        """checked = false has no effect: after a train run that sets it, a
        Tensor made in the same process still rejects NaN."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CFG + "checked = false\n", encoding="utf-8")
        assert cli.main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        assert tensor.is_checked() is True
        with pytest.raises(NonFiniteError, match="^non-finite tensor$"):
            Tensor(np.full((1, 1, 2, 2), np.nan))

    def test_unknown_config_key_parse_exit(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nbanana = true\n", encoding="utf-8")
        code = cli.main(["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_PARSE
        assert ":2:" in capsys.readouterr().err


class TestExitCodeTable:
    def test_docstring_constants_and_readme_list_the_same_codes(self):
        """The exit codes are written three times: in the cli docstring, as
        the EXIT_* constants and in the README table. All three list the
        same codes, each once, and every code an error maps to is one."""
        constants = sorted(v for k, v in vars(cli).items() if k.startswith("EXIT_"))
        documented = [int(c) for c in re.findall(r"^    (\d+) ", cli.__doc__, re.M)]
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = [int(c) for c in re.findall(r"^\| (\d+) +\|", readme, re.M)]
        assert len(set(constants)) == len(constants) > 1
        assert documented == constants
        assert table == constants
        assert {code for _, code in cli._EXIT_CODES} <= set(constants)


class TestUnusablePaths:
    """A directory given where a file is read exits 4, and an output path the
    file system cannot create exits 2; each prints one error line naming the
    path instead of a traceback."""

    @staticmethod
    def _one_error_line(capsys, start: str) -> None:
        err = capsys.readouterr().err
        assert err.startswith(f"error: {start}") and err.count("\n") == 1, err

    @pytest.mark.parametrize("argv", [
        ["train", "--out-dir", "{tmp}/o", "--config"],
        ["eval", "--weights", "{tmp}/w.dkw", "--out-dir", "{tmp}/o", "--config"],
        ["detect", "--weights", "{tmp}/w.dkw", "--image", "{tmp}/x.pgm", "--out", "{tmp}/d.json", "--config"],
        ["bench", "--out-dir", "{tmp}/o", "--spec"],
        ["report", "--spec"],
    ], ids=["train", "eval", "detect", "bench", "report"])
    def test_a_directory_as_config_or_spec_is_a_missing_file(self, tmp_path, capsys, argv):
        argv = [a.format(tmp=tmp_path) for a in argv] + [str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_MISSING
        what = "net spec" if argv[0] in ("bench", "report") else "config"
        assert capsys.readouterr().err == f"error: {what} file is not a file: {tmp_path}\n"

    @pytest.mark.parametrize("argv", [
        ["bench", "--out-dir", "{file}"],
        ["bench", "--out-dir", "{file}/sub"],
        ["report", "--json-out", "{file}/cost.json"],
        ["report", "--csv-out", "{file}/cost.csv"],
    ], ids=["bench-dir-is-a-file", "bench-dir-under-a-file", "report-json", "report-csv"])
    def test_a_cost_output_that_cannot_be_created_is_a_config_error(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        assert cli.main([a.format(file=blocker) for a in argv]) == cli.EXIT_CONFIG
        self._one_error_line(capsys, f"cannot write {blocker}")

    def test_a_run_output_that_cannot_be_created_is_a_config_error(self, tmp_path, small_config, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        cfg = ["--config", str(small_config)]
        # train creates its output directory before it trains
        assert cli.main(["train", *cfg, "--out-dir", str(blocker)]) == cli.EXIT_CONFIG
        self._one_error_line(capsys, f"cannot write {blocker}: ")
        assert cli.main(["train", *cfg, "--out-dir", str(tmp_path / "t")]) == 0
        image = tmp_path / "scene.pgm"
        write_image(image, synth_dataset(5, 1, 32, 3)[0][0])
        run = [*cfg, "--weights", str(tmp_path / "t" / "weights.dkw")]
        capsys.readouterr()
        assert cli.main(["eval", *run, "--out-dir", str(blocker)]) == cli.EXIT_CONFIG
        self._one_error_line(capsys, f"cannot write {blocker}: ")
        detect = ["detect", *run, "--image", str(image)]
        assert cli.main([*detect, "--out", str(blocker / "d.json")]) == cli.EXIT_CONFIG
        self._one_error_line(capsys, f"cannot write {blocker / 'd.json'}: ")
        assert cli.main([*detect, "--out", str(tmp_path / "d.json"),
                         "--overlay", str(tmp_path)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: cannot write {tmp_path}: Is a directory\n"


class TestImageIO:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        img = Tensor(np.round(rng.uniform(0, 1, (1, 1, 9, 7)) * 255) / 255)
        path = tmp_path / "x.pgm"
        write_image(path, img)
        back = read_image(path)
        assert back.shape == img.shape
        assert np.allclose(back.data, img.data, atol=1 / 255)

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(72)
        img = Tensor(np.round(rng.uniform(0, 1, (1, 3, 5, 6)) * 255) / 255)
        path = tmp_path / "x.ppm"
        write_image(path, img)
        back = read_image(path)
        assert back.shape == img.shape
        assert np.allclose(back.data, img.data, atol=1 / 255)

    def test_ascii_pgm_parsed(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n# comment\n2 2\n255\n0 128\n255 64\n", encoding="utf-8")
        img = read_image(path)
        assert img.shape == (1, 1, 2, 2)
        assert img.data[0, 0, 0, 1] == pytest.approx(128 / 255)
