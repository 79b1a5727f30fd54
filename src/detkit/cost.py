"""Analytical per-layer cost accounting: parameters, multiply-accumulates,
and memory accesses. All arithmetic is exact (Python ints / Fractions).

Memory-access model (the formula sheet)
---------------------------------------
Counts are element accesses for one image. A convolution over a map of
spatial size h x w reads every input position once and writes every output
position once, plus one access per kernel weight:

    full conv, square case (c_in = c_out = c, stride 1, same padding):
        exact  = h*w*2c + k^2 * c^2
        approx = h*w*2c            (weight accesses dropped)

    full conv, general case:
        exact  = h*w*c_in + h_out*w_out*c_out + k^2 * c_in * c_out
        approx = h*w*c_in + h_out*w_out*c_out

    partial conv over the first c_p of c channels (shape preserving):
        exact  = h*w*2c_p + k^2 * c_p^2
        approx = h*w*2c_p

The approximation drops the weight term, which is only fair when
h*w*2c_p >> k^2 * c_p^2; both figures are therefore always reported.
The untouched c - c_p channels of a partial conv cost nothing here: the
operator never reads or writes them (pass-through).

MAC counts are h_out * w_out * k^2 * c_in * c_out for convolutions and
in_features * out_features for fully connected layers. Max pooling performs
comparisons, not multiply-accumulates, so pooling layers report zero MACs
but nonzero memory traffic.

Each ``*_cost`` builder prices one layer and returns a ``LayerCost`` row.
:func:`detkit.model.cost_layers` calls them on the layer specs the network
runs; :func:`model_cost` takes those rows, in order, and only sums them into
a ``CostReport``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .tensor import ConfigError


@dataclass(frozen=True)
class LayerCost:
    name: str
    params: int
    macs: int
    mem_access_exact: int
    mem_access_approx: int

    def __post_init__(self):
        if min(self.params, self.macs, self.mem_access_exact, self.mem_access_approx) < 0:
            raise ConfigError(f"layer {self.name!r}: negative cost")
        if self.mem_access_approx > self.mem_access_exact:
            raise ConfigError(
                f"layer {self.name!r}: approximate memory access exceeds exact"
            )


@dataclass
class CostReport:
    layers: list[LayerCost] = field(default_factory=list)

    @property
    def total_params(self) -> int:
        return sum(l.params for l in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def total_mem_exact(self) -> int:
        return sum(l.mem_access_exact for l in self.layers)

    @property
    def total_mem_approx(self) -> int:
        return sum(l.mem_access_approx for l in self.layers)

    def model_size_bytes(self, bytes_per_element: int = 8) -> int:
        return self.total_params * bytes_per_element

    def rows(self) -> list[dict]:
        return [
            {
                "layer": l.name,
                "params": l.params,
                "macs": l.macs,
                "mem_exact": l.mem_access_exact,
                "mem_approx": l.mem_access_approx,
            }
            for l in self.layers
        ]

    def to_json_dict(self, bytes_per_element: int = 8) -> dict:
        return {
            "layers": self.rows(),
            "totals": {
                "params": self.total_params,
                "macs": self.total_macs,
                "mem_exact": self.total_mem_exact,
                "mem_approx": self.total_mem_approx,
                "model_size_bytes": self.model_size_bytes(bytes_per_element),
            },
        }

    def to_csv(self) -> str:
        lines = ["layer,params,macs,mem_exact,mem_approx"]
        for r in self.rows():
            lines.append(f"{r['layer']},{r['params']},{r['macs']},{r['mem_exact']},{r['mem_approx']}")
        lines.append(
            f"TOTAL,{self.total_params},{self.total_macs},{self.total_mem_exact},{self.total_mem_approx}"
        )
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        headers = ["layer", "params", "macs", "mem_exact", "mem_approx"]
        rows = [[r["layer"], str(r["params"]), str(r["macs"]), str(r["mem_exact"]), str(r["mem_approx"])]
                for r in self.rows()]
        rows.append(["TOTAL", str(self.total_params), str(self.total_macs),
                     str(self.total_mem_exact), str(self.total_mem_approx)])
        widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
        def fmt(cells):
            return "  ".join(c.ljust(w) if i == 0 else c.rjust(w) for i, (c, w) in enumerate(zip(cells, widths)))
        out = [fmt(headers), fmt(["-" * w for w in widths])]
        out.extend(fmt(row) for row in rows)
        return "\n".join(out) + "\n"


def conv_out_size(in_size: int, k: int, p: int, s: int) -> int:
    """floor((in - k + 2p) / s) + 1; raises when the result would be < 1."""
    if s < 1:
        raise ConfigError("stride must be >= 1")
    if k < 1 or in_size < 1 or p < 0:
        raise ConfigError("invalid conv geometry")
    out = (in_size - k + 2 * p) // s + 1
    if out < 1:
        raise ConfigError(
            f"conv output size {out} < 1 for in={in_size}, k={k}, p={p}, s={s}"
        )
    return out


def conv_cost(h: int, w: int, c_in: int, c_out: int, k: int,
              stride: int = 1, padding: int | None = None,
              bias: bool = True, name: str = "conv") -> LayerCost:
    """Cost of a full convolution. Default geometry is shape preserving
    (stride 1, padding (k - 1) // 2); see the module docstring for the
    memory-access model."""
    if min(h, w, c_in, c_out, k) < 1:
        raise ConfigError("conv dims must be >= 1")
    if padding is None:
        padding = (k - 1) // 2
    h_out = conv_out_size(h, k, padding, stride)
    w_out = conv_out_size(w, k, padding, stride)
    params = k * k * c_in * c_out + (c_out if bias else 0)
    macs = h_out * w_out * k * k * c_in * c_out
    feature_access = h * w * c_in + h_out * w_out * c_out
    exact = feature_access + k * k * c_in * c_out
    return LayerCost(name, params, macs, exact, feature_access)


def pconv_cost(h: int, w: int, c: int, c_p: int, k: int, name: str = "pconv") -> LayerCost:
    """Cost of a partial convolution over the first c_p of c channels
    (stride 1, same padding, no bias)."""
    if min(h, w, c, c_p, k) < 1:
        raise ConfigError("pconv dims must be >= 1")
    if not 1 <= c_p <= c:
        raise ConfigError(f"c_p must be in [1, {c}]")
    h_out = conv_out_size(h, k, (k - 1) // 2, 1)
    w_out = conv_out_size(w, k, (k - 1) // 2, 1)
    params = k * k * c_p * c_p
    macs = h_out * w_out * k * k * c_p * c_p
    approx = h * w * 2 * c_p
    exact = approx + k * k * c_p * c_p
    return LayerCost(name, params, macs, exact, approx)


def linear_cost(in_features: int, out_features: int, bias: bool = True,
                name: str = "linear") -> LayerCost:
    if in_features < 1 or out_features < 1:
        raise ConfigError("feature counts must be >= 1")
    params = in_features * out_features + (out_features if bias else 0)
    macs = in_features * out_features
    exact = in_features + out_features + in_features * out_features
    approx = in_features + out_features
    return LayerCost(name, params, macs, exact, approx)


def spp_cost(h: int, w: int, c: int, num_windows: int, name: str = "spp") -> LayerCost:
    """Pyramid max pooling: no parameters, no MACs (comparisons only); one
    read of the input per window plus one write per output channel."""
    if min(h, w, c) < 1 or num_windows < 0:
        raise ConfigError("spp dims must be >= 1")
    reads = h * w * c * num_windows
    writes = h * w * c * (1 + num_windows)
    mem = reads + writes
    return LayerCost(name, 0, 0, mem, mem)


def model_cost(layers) -> CostReport:
    """Report over a sequence of ``LayerCost`` rows, such as
    :func:`detkit.model.cost_layers` returns."""
    return CostReport(list(layers))
