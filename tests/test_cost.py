"""Cost model: exact arithmetic cases, counting oracles, twin comparison."""

from fractions import Fraction

import numpy as np
import pytest

from detkit import ops
from detkit.cost import (
    LayerCost,
    conv_cost,
    conv_out_size,
    linear_cost,
    model_cost,
    pconv_cost,
)
from detkit.model import ToyNetSpec, cost_layers, init_params
from detkit.tensor import ConfigError


class TestConvOutSize:
    def test_same_padding_case(self):
        assert conv_out_size(32, 3, 1, 1) == 32

    def test_stem_downsample_case(self):
        assert conv_out_size(224, 7, 3, 2) == 112

    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            conv_out_size(3, 5, 0, 1)

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
            out = ops.conv2d_forward(
                np.zeros((1, 1, size, size)), np.zeros((1, 1, k, k)),
                None, ops.ConvSpec(1, 1, k, s, p))
            assert out.shape[2] == conv_out_size(size, k, p, s)
            checked += 1


class TestConvCost:
    def test_square_case_memory_formula(self):
        # h*w*2c + k^2 c^2 with h = w = 16, c = 64, k = 3
        lc = conv_cost(16, 16, 64, 64, 3)
        assert lc.mem_access_exact == 16 * 16 * 128 + 9 * 4096 == 69632
        assert lc.mem_access_approx == 16 * 16 * 128

    def test_single_mac(self):
        lc = conv_cost(1, 1, 1, 1, 1)
        assert lc.macs == 1

    def test_params_match_constructed_layer(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            cin, cout, k = (int(rng.integers(1, 9)) for _ in range(3))
            lc = conv_cost(8, 8, cin, cout, k if k % 2 else k + 1)
            k = k if k % 2 else k + 1
            w = np.zeros((cout, cin, k, k))
            b = np.zeros(cout)
            assert lc.params == w.size + b.size

    def test_strided_macs_use_output_size(self):
        lc = conv_cost(8, 8, 2, 4, 3, stride=2, padding=1)
        assert lc.macs == 4 * 4 * 9 * 2 * 4


def counting_pconv_macs(h, w, c_p, k):
    """Loop-count instrumentation: run the sliding window over the conv
    channels and count every multiply-accumulate."""
    count = 0
    pad = (k - 1) // 2
    for _o in range(c_p):
        for _i in range(c_p):
            for _y in range(conv_out_size(h, k, pad, 1)):
                for _x in range(conv_out_size(w, k, pad, 1)):
                    count += k * k
    return count


class TestPConvCost:
    def test_exact_and_approx_values(self):
        lc = pconv_cost(16, 16, 64, 16, 3)
        assert lc.mem_access_exact == 16 * 16 * 32 + 9 * 256 == 10496
        assert lc.mem_access_approx == 16 * 16 * 32 == 8192

    def test_quarter_channels_quarter_traffic(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            c = 4 * int(rng.integers(1, 33))
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            k = int(rng.integers(0, 4)) * 2 + 1
            pc = pconv_cost(h, w, c, c // 4, k)
            full = conv_cost(h, w, c, c, k)
            assert Fraction(pc.mem_access_approx, full.mem_access_approx) == Fraction(1, 4)

    def test_feature_ratio_is_cp_over_c(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            c = int(rng.integers(1, 65))
            cp = int(rng.integers(1, c + 1))
            h, w, k = int(rng.integers(1, 33)), int(rng.integers(1, 33)), 3
            pc = pconv_cost(h, w, c, cp, k)
            assert Fraction(pc.mem_access_approx, h * w * 2 * c) == Fraction(cp, c)

    def test_macs_match_loop_instrumentation(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            cp = int(rng.integers(1, 5))
            k = 3
            assert pconv_cost(h, w, cp + 2, cp, k).macs == counting_pconv_macs(h, w, cp, k)

    def test_degenerates_to_full_conv_square_case(self):
        lc_p = pconv_cost(12, 10, 6, 6, 3)
        lc_c = conv_cost(12, 10, 6, 6, 3, bias=False)
        assert (lc_p.params, lc_p.macs) == (lc_c.params, lc_c.macs)
        assert (lc_p.mem_access_exact, lc_p.mem_access_approx) == (
            lc_c.mem_access_exact, lc_c.mem_access_approx)

    def test_invariant_approx_not_above_exact(self):
        with pytest.raises(ConfigError):
            LayerCost("bad", 1, 1, 5, 6)


class TestModelCost:
    def test_empty_net(self):
        report = model_cost([])
        assert report.total_params == 0
        assert report.total_macs == 0
        assert report.total_mem_exact == 0

    def test_single_conv_totals(self):
        lc = conv_cost(16, 16, 3, 8, 3)
        report = model_cost([lc])
        assert report.total_params == lc.params
        assert report.total_macs == lc.macs

    def test_totals_equal_sum_of_layers(self):
        report = model_cost(cost_layers(ToyNetSpec()))
        assert report.total_params == sum(l.params for l in report.layers)
        assert report.total_macs == sum(l.macs for l in report.layers)
        assert report.total_mem_exact == sum(l.mem_access_exact for l in report.layers)

    def test_pconv_net_strictly_cheaper_than_full_twin(self):
        spec = ToyNetSpec()
        pconv_report = model_cost(cost_layers(spec))
        from dataclasses import replace

        full_report = model_cost(cost_layers(replace(spec, cp_fraction=1.0)))
        assert pconv_report.total_params < full_report.total_params
        assert pconv_report.total_macs < full_report.total_macs

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
        assert report.total_params == n_elements

    def test_csv_and_table_render(self):
        report = model_cost(cost_layers(ToyNetSpec()))
        csv = report.to_csv()
        assert csv.splitlines()[0] == "layer,params,macs,mem_exact,mem_approx"
        assert csv.splitlines()[-1].startswith("TOTAL,")
        assert "stem" in report.to_table()


class TestLinearCost:
    def test_params_and_macs(self):
        lc = linear_cost(10, 4)
        assert lc.params == 44
        assert lc.macs == 40
