"""Cost model: exact arithmetic cases, counting oracles, twin comparison."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detkit import blocks, model, ops
from detkit.blocks import PConvSpec
from detkit.cost import COLUMNS, LayerCost, conv_cost, model_cost
from detkit.model import ToyNetSpec, cost_layers, init_params
from detkit.ops import ConvSpec
from detkit.tensor import ConfigError


def same_conv(c_in, c_out, k):
    """Stride-1 conv spec whose padding preserves the spatial size (odd k)."""
    return ConvSpec(c_in, c_out, k, padding=(k - 1) // 2)


def pconv_row(h, w, c, c_p, k):
    """Cost of the partial conv over the first c_p of c channels: the
    bias-free conv the block runs on those channels."""
    return conv_cost(PConvSpec(c, c_p, k).conv_spec, h, w, bias=False)


class TestConvOutSize:
    def test_same_padding_case(self):
        assert ConvSpec(1, 1, 3, 1, 1).out_size(32) == 32

    def test_stem_downsample_case(self):
        assert ConvSpec(1, 1, 7, 2, 3).out_size(224) == 112

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            ConvSpec(1, 1, 5, 1, 0).out_size(3)

    def test_matches_executed_conv_shapes(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 40:
            k = int(rng.integers(1, 6))
            s = int(rng.integers(1, 4))
            p = int(rng.integers(0, 3))
            size = int(rng.integers(1, 20))
            if size + 2 * p < k or (size - k + 2 * p) // s + 1 < 1:
                continue
            spec = ops.ConvSpec(1, 1, k, s, p)
            out = ops.conv2d_forward(np.zeros((1, 1, size, size)), np.zeros((1, 1, k, k)), None, spec)
            assert out.shape[2] == spec.out_size(size) == (size - k + 2 * p) // s + 1
            checked += 1


class TestConvCost:
    def test_square_case_memory_formula(self):
        # h*w*2c + k^2 c^2 with h = w = 16, c = 64, k = 3
        lc = conv_cost(same_conv(64, 64, 3), 16, 16)
        assert lc.mem_access_exact == 16 * 16 * 128 + 9 * 4096 == 69632
        assert lc.mem_access_approx == 16 * 16 * 128

    def test_single_mac(self):
        lc = conv_cost(ConvSpec(1, 1, 1), 1, 1)
        assert lc.macs == 1

    def test_params_match_constructed_layer(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cin, cout, k = (int(rng.integers(1, 9)) for _ in range(3))
            k = k if k % 2 else k + 1
            w = np.zeros((cout, cin, k, k))
            b = np.zeros(cout)
            assert conv_cost(same_conv(cin, cout, k), 8, 8).params == w.size + b.size
            assert conv_cost(same_conv(cin, cout, k), 8, 8, bias=False).params == w.size

    def test_strided_macs_use_output_size(self):
        lc = conv_cost(ConvSpec(2, 4, 3, stride=2, padding=1), 8, 8)
        assert lc.macs == 4 * 4 * 9 * 2 * 4

    def test_a_map_too_small_for_the_kernel_is_rejected(self):
        with pytest.raises(ConfigError):
            conv_cost(ConvSpec(1, 1, 5), 3, 8)


def counting_pconv_macs(h, w, c_p, k):
    """Loop-count instrumentation: run the sliding window over the conv
    channels and count every multiply-accumulate."""
    count = 0
    pad = (k - 1) // 2
    for _o in range(c_p):
        for _i in range(c_p):
            for _y in range(-pad, h + pad - k + 1):
                for _x in range(-pad, w + pad - k + 1):
                    count += k * k
    return count


class TestPConvCost:
    def test_exact_and_approx_values(self):
        lc = pconv_row(16, 16, 64, 16, 3)
        assert lc.params == 9 * 256
        assert lc.mem_access_exact == 16 * 16 * 32 + 9 * 256 == 10496
        assert lc.mem_access_approx == 16 * 16 * 32 == 8192

    def test_quarter_channels_quarter_traffic(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            c = 4 * int(rng.integers(1, 33))
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            k = int(rng.integers(0, 4)) * 2 + 1
            pc = pconv_row(h, w, c, c // 4, k)
            full = conv_cost(same_conv(c, c, k), h, w)
            assert Fraction(pc.mem_access_approx, full.mem_access_approx) == Fraction(1, 4)

    def test_feature_ratio_is_cp_over_c(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            c = int(rng.integers(1, 65))
            cp = int(rng.integers(1, c + 1))
            h, w, k = int(rng.integers(1, 33)), int(rng.integers(1, 33)), 3
            pc = pconv_row(h, w, c, cp, k)
            assert Fraction(pc.mem_access_approx, h * w * 2 * c) == Fraction(cp, c)

    def test_macs_match_loop_instrumentation(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            cp = int(rng.integers(1, 5))
            k = 3
            assert pconv_row(h, w, cp + 2, cp, k).macs == counting_pconv_macs(h, w, cp, k)

    def test_degenerates_to_full_conv_square_case(self):
        """At c_p = c the partial conv runs, and is priced as, the bias-free
        shape-preserving full conv."""
        assert PConvSpec(6, 6, 3).conv_spec == same_conv(6, 6, 3)
        assert pconv_row(12, 10, 6, 6, 3) == conv_cost(same_conv(6, 6, 3), 12, 10, bias=False)

    def test_invariant_approx_not_above_exact(self):
        with pytest.raises(ConfigError):
            LayerCost("bad", 1, 1, 5, 6)


@st.composite
def cost_rows(draw):
    """A valid LayerCost row; counts past int64 check that sums stay exact."""
    count = st.integers(0, 10**20)
    approx = draw(count)
    return LayerCost(draw(st.text("abc.12", min_size=1, max_size=8)), draw(count), draw(count),
                     approx + draw(count), approx)


class TestModelCost:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(cost_rows(), max_size=8))
    @example([])
    def test_total_is_the_last_row_of_every_table_and_sums_each_column(self, rows):
        report = model_cost(rows)
        sums = [sum(r.params for r in rows), sum(r.macs for r in rows),
                sum(r.mem_access_exact for r in rows), sum(r.mem_access_approx for r in rows)]
        assert report.total == LayerCost("TOTAL", *sums)
        cells = ["TOTAL", *map(str, sums)]
        csv = report.to_csv().splitlines()
        assert csv[0] == ",".join(COLUMNS) and len(csv) == len(rows) + 2
        assert csv[-1] == ",".join(cells)
        table = report.to_table().splitlines()
        assert table[0].split() == list(COLUMNS) and len(table) == len(rows) + 3
        assert table[-1].split() == cells
        totals = report.to_json_dict()["totals"]
        assert totals == {**dict(zip(COLUMNS[1:], sums)), "model_size_bytes": 8 * sums[0]}

    def test_empty_net(self):
        report = model_cost([])
        assert report.total.params == 0
        assert report.total.macs == 0
        assert report.total.mem_access_exact == 0
        assert report.total.mem_access_approx == 0

    def test_single_conv_totals(self):
        lc = conv_cost(same_conv(3, 8, 3), 16, 16)
        report = model_cost([lc])
        assert report.total.params == lc.params
        assert report.total.macs == lc.macs

    def test_totals_equal_sum_of_layers(self):
        report = model_cost(cost_layers(ToyNetSpec()))
        assert report.total.params == sum(l.params for l in report.layers)
        assert report.total.macs == sum(l.macs for l in report.layers)
        assert report.total.mem_access_exact == sum(l.mem_access_exact for l in report.layers)

    def test_pconv_net_strictly_cheaper_than_full_twin(self):
        spec = ToyNetSpec()
        pconv_report = model_cost(cost_layers(spec))
        full_report = model_cost(cost_layers(replace(spec, cp_fraction=1.0)))
        assert pconv_report.total.params < full_report.total.params
        assert pconv_report.total.macs < full_report.total.macs

    @pytest.mark.parametrize("cp_fraction", [0.25, 1.0])
    def test_params_total_matches_initialized_model(self, cp_fraction):
        """The cost report's parameter count agrees with the real parameter
        store element count (construct-and-count oracle), for the default
        net and for its full-conv twin."""
        spec = ToyNetSpec(cp_fraction=cp_fraction)
        params = init_params(spec, np.random.default_rng(0))
        n_elements = sum(v.size for v in params.values())
        report = model_cost(cost_layers(spec))
        # pconv layers carry no bias; every other conv/linear does
        assert report.total.params == n_elements

    @pytest.mark.parametrize("spec", [
        ToyNetSpec(),
        ToyNetSpec(cbam_channel_mlp="literal", cbam_composition="literal", cbam_spatial_kernel=3),
        ToyNetSpec(cp_fraction=1.0),
    ], ids=["default", "literal-k3", "cp-1.0"])
    def test_conv_rows_price_the_convolutions_the_forward_runs(self, monkeypatch, spec):
        """Each conv2d_forward call of a batch-1 forward, priced on the spec,
        input size and bias it ran with, is one conv row of cost_layers."""
        forward, ran = ops.conv2d_forward, []

        def recording(x, w, b, conv_spec):
            ran.append(conv_cost(conv_spec, x.shape[2], x.shape[3], bias=b is not None))
            return forward(x, w, b, conv_spec)

        for module in (model, blocks):
            monkeypatch.setattr(module, "conv2d_forward", recording)
        size = spec.image_size
        x = np.random.default_rng(0).standard_normal((1, spec.in_channels, size, size))
        model.net_forward(init_params(spec, np.random.default_rng(1)), spec, x)

        def unnamed(rows):
            return Counter(replace(r, name="") for r in rows)

        conv_rows = [r for r in cost_layers(spec) if r.name not in ("spp", "cbam.fc1", "cbam.fc2")]
        assert len(ran) == len(conv_rows)
        assert unnamed(ran) == unnamed(conv_rows)

    def test_csv_and_table_render(self):
        report = model_cost(cost_layers(ToyNetSpec()))
        csv = report.to_csv()
        assert csv.splitlines()[0] == "layer,params,macs,mem_exact,mem_approx"
        assert csv.splitlines()[-1].startswith("TOTAL,")
        assert "stem" in report.to_table()


class TestLinearCost:
    """A fully connected layer is priced as a 1x1 convolution on a 1x1 map."""

    def test_params_and_macs(self):
        lc = conv_cost(ConvSpec(10, 4, kernel=1), 1, 1)
        assert lc.params == 44
        assert lc.macs == 40
        assert lc.mem_access_approx == 10 + 4
        assert lc.mem_access_exact == 10 + 4 + 10 * 4
