"""Outside-in span tracing of detkit's public functions.

``Tracer.patch`` wraps every public function of the given modules and
rebinds the wrapper under every name that refers to the function in any of
those modules. ``from .ops import conv2d_forward`` gives ``model`` and
``blocks`` their own binding, and ``cli`` binds ``net_forward`` and
``read_image`` the same way, so patching only the defining module would miss
every call made through them.

A span records its name, start, end and parent (the span open when it
began). Spans are kept in flat arrays in memory and written out once, by
``save``, when the run ends. A span's self time is its duration minus the
durations of its direct children.

The network layers of ``detkit.model`` are also spanned by call site: the
k-th op called from inside ``net_forward`` (or ``net_backward``) is labelled
with the k-th entry of ``FORWARD_SITES`` (or ``BACKWARD_SITES``), giving
spans such as ``model.block2.fwd``.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter

# Order of the layer calls inside model.net_forward / model.net_backward.
FORWARD_SITES = (
    ("conv2d_forward", "stem"), ("activation", "stem"),
    ("fasternet_block_forward", "block1"), ("fasternet_block_forward", "block2"),
    ("spp", "spp"), ("cbam_forward", "cbam"), ("conv2d_forward", "head"),
)
BACKWARD_SITES = (
    ("conv2d_backward", "head"), ("cbam_backward", "cbam"), ("spp_backward", "spp"),
    ("fasternet_block_backward", "block2"), ("fasternet_block_backward", "block1"),
    ("activation_backward", "stem"), ("conv2d_backward", "stem"),
)
MODEL_LAYERS = ("stem", "block1", "block2", "spp", "cbam", "head")

# Called per element or per box pair inside loops (NMS calls iou ~2000 times
# per image); a span would cost more than the call it measures.
NOT_SPANNED = frozenset({
    "losses.iou", "losses.cell_to_box",
    "ops.relu", "ops.relu_grad", "ops.sigmoid", "ops.sigmoid_grad",
    "ops.softplus", "ops.mish", "ops.mish_grad",
    "tensor.is_checked", "tensor.verify_mode_forced",
})

# Spans whose result length is summed, e.g. NMS candidates and survivors.
COUNT_RESULTS = frozenset({"postprocess.decode", "postprocess.nms"})


def short_name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.depths = array("q")
        self._stack = [-1]
        self.result_len: dict[str, int] = {}
        self.tensor_inits = 0
        self._site_parent = -2
        self._site_index = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.starts)

    def _open(self, nid: int) -> int:
        i = len(self.starts)
        self.parents.append(self._stack[-1])
        self.name_ids.append(nid)
        self.depths.append(len(self._stack) - 1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(_clock())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = _clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        open_, close = self._open, self._close
        if name in COUNT_RESULTS:
            totals = self.result_len
            totals.setdefault(name, 0)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = open_(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(i)
                totals[name] += len(result)
                return result
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)
        return traced

    def _site_wrap(self, op_name: str, fn):
        """Span a layer call made from net_forward / net_backward."""
        fwd = self.name_id("model.net_forward")
        bwd = self.name_id("model.net_backward")
        ids = {
            (direction, layer): self.name_id(f"model.{layer}.{direction}")
            for direction in ("fwd", "bwd") for layer in MODEL_LAYERS
        }
        other = self.name_id("model.unmatched_site")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1]
            if parent != self._site_parent:
                self._site_parent, self._site_index = parent, 0
            k = self._site_index
            self._site_index += 1
            pid = self.name_ids[parent] if parent >= 0 else -1
            sites, direction = (FORWARD_SITES, "fwd") if pid == fwd else (BACKWARD_SITES, "bwd")
            if pid in (fwd, bwd) and k < len(sites) and sites[k][0] == op_name:
                nid = ids[(direction, sites[k][1])]
            else:
                nid = other
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return traced

    @contextmanager
    def patch(self, modules, extra=()):
        """Install wrappers for the duration of the block, then restore.

        Besides the public functions, this counts ``tensor.Tensor``
        constructions and spans the layer call sites of ``model``, when those
        modules are given. ``extra`` is a sequence of (mapping, key, span
        name) entries to wrap in place, e.g. the gradcheck suite registry."""
        by_name = {short_name(m): m for m in modules}
        model_module = by_name.get("model")
        tensor_cls = getattr(by_name.get("tensor"), "Tensor", None)
        targets = {}
        for mod in modules:
            prefix = short_name(mod)
            for attr, val in vars(mod).items():
                name = f"{prefix}.{attr}"
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in NOT_SPANNED):
                    targets[val] = self.wrap(name, val)
        undo = []

        def rebind(mapping, key, new):
            undo.append((mapping, key, mapping[key]))
            mapping[key] = new

        for mod in modules:
            namespace = vars(mod)
            for attr, val in list(namespace.items()):
                if inspect.isfunction(val) and val in targets:
                    rebind(namespace, attr, targets[val])
        if model_module is not None:
            namespace = vars(model_module)
            for attr in {op for op, _ in FORWARD_SITES + BACKWARD_SITES} & namespace.keys():
                rebind(namespace, attr, self._site_wrap(attr, namespace[attr]))
        for mapping, key, name in extra:
            rebind(mapping, key, self.wrap(name, mapping[key]))
        if tensor_cls is not None:
            orig_init = tensor_cls.__init__

            def counting_init(obj, *args, **kwargs):
                self.tensor_inits += 1
                orig_init(obj, *args, **kwargs)
            tensor_cls.__init__ = counting_init
        try:
            yield self
        finally:
            if tensor_cls is not None:
                tensor_cls.__init__ = orig_init
            for mapping, key, val in reversed(undo):
                mapping[key] = val

    # ------------------------------------------------------------------
    # analysis

    def arrays(self, first: int = 0) -> dict:
        """Spans from index ``first`` on, as numpy arrays, with self times.

        Parents that precede ``first`` are treated as absent."""
        def tail(buf, dtype):  # a copy, so the arrays can still grow
            return np.frombuffer(buf, dtype=dtype)[first:].copy()

        start, end = tail(self.starts, np.float64), tail(self.ends, np.float64)
        parent = tail(self.parents, np.int64) - first
        parent[parent < 0] = -1
        name, depth = tail(self.name_ids, np.int64), tail(self.depths, np.int64)
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.zeros_like(dur)
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        return {"start": start, "end": end, "parent": parent, "name": name,
                "depth": depth, "dur": dur, "self": dur - child_sum}

    def save(self, path, first: int = 0) -> None:
        a = self.arrays(first)
        np.savez(path, names=np.array(self.names), **a)


def recompute_mask(names: list[str], a: dict) -> np.ndarray:
    """Forward-op spans whose nearest forward-or-backward ancestor is a
    backward span: forward work redone during backward. Nested forward ops
    inside such a span are not counted again."""
    kinds = np.zeros(len(names), dtype=np.int8)  # 0 other, 1 forward, 2 backward
    name_set = set(names)
    for k, n in enumerate(names):
        if n.endswith("_backward") or n.endswith(".bwd"):
            kinds[k] = 2
        elif n.endswith("_forward") or n.endswith(".fwd") or n + "_backward" in name_set:
            kinds[k] = 1
    kind = kinds[a["name"]]
    nearest = np.zeros_like(kind)
    depth, parent = a["depth"], a["parent"]
    for d in range(1, int(depth.max(initial=0)) + 1):
        idx = np.nonzero((depth == d) & (parent >= 0))[0]
        p = parent[idx]
        nearest[idx] = np.where(kind[p] != 0, kind[p], nearest[p])
    return (kind == 1) & (nearest == 2)
