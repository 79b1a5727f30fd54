"""Analytical per-layer cost accounting: parameters, multiply-accumulates,
and memory accesses. All arithmetic is exact, in Python ints.

Memory-access model (the formula sheet)
---------------------------------------
Counts are element accesses for one image. A convolution over a map of
spatial size h x w reads every input position once and writes every output
position once, plus one access per kernel weight:

    exact  = h*w*c_in + h_out*w_out*c_out + k^2 * c_in * c_out
    approx = h*w*c_in + h_out*w_out*c_out      (weight accesses dropped)

A shape-preserving square conv (c_in = c_out = c, stride 1, same padding)
gives exact = h*w*2c + k^2 * c^2. The partial conv over the first c_p of c
channels is that same formula, bias-free, at c_in = c_out = c_p, since it
runs a regular convolution on those channels:

    exact  = h*w*2c_p + k^2 * c_p^2
    approx = h*w*2c_p

The approximation drops the weight term, which is only fair when the
feature term dwarfs it (h*w*2c_p >> k^2 * c_p^2 for the partial conv);
both figures are therefore always reported.
The untouched c - c_p channels of a partial conv cost nothing here: the
operator never reads or writes them (pass-through).

MAC counts are h_out * w_out * k^2 * c_in * c_out for convolutions. A fully
connected layer is a 1x1 convolution on a 1x1 map: in * out MACs and
in + out feature accesses, priced by the same builder. Max pooling performs
comparisons, not multiply-accumulates, so pooling layers report zero MACs
but nonzero memory traffic.

Each ``*_cost`` builder prices one layer and returns a ``LayerCost`` row.
:func:`detkit.model.cost_layers` calls them on the layer specs the network
runs; :func:`model_cost` takes those rows, in order, into a ``CostReport``.
Its ``total`` is one more ``LayerCost``, named TOTAL, that sums each column.
The table, CSV and JSON write their header from ``COLUMNS`` and each row,
TOTAL included, from its fields.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

from .ops import ConvSpec
from .tensor import ConfigError


# The header of every cost table: one column per LayerCost field, in field order.
COLUMNS = ("layer", "params", "macs", "mem_exact", "mem_approx")


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
    def total(self) -> LayerCost:
        """The TOTAL row: each column summed over the layers, zeros when
        there are none."""
        return LayerCost(
            "TOTAL",
            params=sum(l.params for l in self.layers),
            macs=sum(l.macs for l in self.layers),
            mem_access_exact=sum(l.mem_access_exact for l in self.layers),
            mem_access_approx=sum(l.mem_access_approx for l in self.layers),
        )

    def to_json_dict(self) -> dict:
        """Each layer as a {column: cell} dict, and the TOTAL row's counts
        plus the parameters' size stored as float64."""
        layers = [dict(zip(COLUMNS, astuple(l))) for l in self.layers]
        totals = dict(zip(COLUMNS, astuple(self.total)))
        del totals["layer"]
        totals["model_size_bytes"] = 8 * totals["params"]
        return {"layers": layers, "totals": totals}

    def to_csv(self) -> str:
        lines = [",".join(COLUMNS)]
        lines.extend(",".join(map(str, astuple(l))) for l in [*self.layers, self.total])
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        rows = [[str(c) for c in astuple(l)] for l in [*self.layers, self.total]]
        widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(COLUMNS)]
        def fmt(cells):
            return "  ".join(c.ljust(w) if i == 0 else c.rjust(w) for i, (c, w) in enumerate(zip(cells, widths)))
        out = [fmt(COLUMNS), fmt(["-" * w for w in widths])]
        out.extend(fmt(row) for row in rows)
        return "\n".join(out) + "\n"


def conv_cost(spec: ConvSpec, h: int, w: int, bias: bool = True,
              name: str = "conv") -> LayerCost:
    """Cost of the convolution ``spec`` over an h x w input; output sizes
    come from ``spec.out_size``. See the module docstring for the
    memory-access model."""
    k, c_in, c_out = spec.kernel, spec.in_channels, spec.out_channels
    h_out, w_out = spec.out_size(h), spec.out_size(w)
    params = k * k * c_in * c_out + (c_out if bias else 0)
    macs = h_out * w_out * k * k * c_in * c_out
    feature_access = h * w * c_in + h_out * w_out * c_out
    exact = feature_access + k * k * c_in * c_out
    return LayerCost(name, params, macs, exact, feature_access)


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
