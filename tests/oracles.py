"""Independent reference implementations shared by the test modules.

Everything here is deliberately written against the contract, not the
production code paths: explicit loops, exhaustive scans, no shared helpers.
"""

import numpy as np

from detkit.losses import BBox, iou
from detkit.postprocess import Detection


def naive_conv2d(x, w, b, stride, padding):
    """Six-loop sliding-window convolution."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding))
    xp[:, :, padding:padding + h, padding:padding + wd] = x
    h_out = (h - k + 2 * padding) // stride + 1
    w_out = (wd - k + 2 * padding) // stride + 1
    out = np.zeros((n, cout, h_out, w_out))
    for ni in range(n):
        for oi in range(cout):
            for yi in range(h_out):
                for xi in range(w_out):
                    window = xp[ni, :, yi * stride:yi * stride + k, xi * stride:xi * stride + k]
                    out[ni, oi, yi, xi] = np.sum(window * w[oi]) + (b[oi] if b is not None else 0.0)
    return out


def naive_sliding_max(x, window):
    """Max over the window clipped to the image, stride 1."""
    n, c, h, w = x.shape
    r = (window - 1) // 2
    out = np.empty_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    ys = slice(max(0, i - r), min(h, i + r + 1))
                    xs = slice(max(0, j - r), min(w, j + r + 1))
                    out[ni, ci, i, j] = x[ni, ci, ys, xs].max()
    return out


def per_tap_conv2d(x, w, b, stride, padding):
    """Convolution as one channel contraction per kernel tap."""
    n = x.shape[0]
    cout, _, k, _ = w.shape
    h_out = (x.shape[2] - k + 2 * padding) // stride + 1
    w_out = (x.shape[3] - k + 2 * padding) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, cout, h_out, w_out))
    for ki in range(k):
        for kj in range(k):
            patch = xp[:, :, ki:ki + stride * h_out:stride, kj:kj + stride * w_out:stride]
            out += np.einsum("nchw,oc->nohw", patch, w[:, :, ki, kj])
    if b is not None:
        out += np.asarray(b)[None, :, None, None]
    return out


def per_tap_conv2d_backward(x, w, stride, padding, upstream):
    """Gradients (x, w, b) of <upstream, conv>, accumulated tap by tap."""
    k = w.shape[2]
    _, _, h, wd = x.shape
    h_out, w_out = upstream.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    grad_w = np.zeros_like(w)
    grad_xp = np.zeros_like(xp)
    for ki in range(k):
        for kj in range(k):
            rows = slice(ki, ki + stride * h_out, stride)
            cols = slice(kj, kj + stride * w_out, stride)
            grad_w[:, :, ki, kj] = np.einsum("nohw,nchw->oc", upstream, xp[:, :, rows, cols])
            grad_xp[:, :, rows, cols] += np.einsum("nohw,oc->nchw", upstream, w[:, :, ki, kj])
    grad_x = grad_xp[:, :, padding:padding + h, padding:padding + wd]
    return grad_x, grad_w, upstream.sum(axis=(0, 2, 3))


def scan_maxpool_same(x, window):
    """Stride-1 same-size max pool scanning the window offsets in row-major
    order; a later offset wins only if strictly larger. Returns the pooled
    map and the flat offset di * window + dj of each winner."""
    p = (window - 1) // 2
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)), constant_values=-np.inf)
    best = xp[:, :, 0:h, 0:w].copy()
    arg = np.zeros((n, c, h, w), dtype=np.int64)
    for idx in range(1, window * window):
        di, dj = divmod(idx, window)
        sl = xp[:, :, di:di + h, dj:dj + w]
        mask = sl > best
        np.copyto(best, sl, where=mask)
        arg[mask] = idx
    return best, arg


def scan_maxpool_same_backward(x, window, upstream):
    """Gradient of <upstream, pool(x)>: each upstream entry goes to the
    winner found by rescanning x, one window offset at a time."""
    p = (window - 1) // 2
    n, c, h, w = x.shape
    _, arg = scan_maxpool_same(x, window)
    grad_p = np.zeros((n, c, h + 2 * p, w + 2 * p))
    for idx in range(window * window):
        di, dj = divmod(idx, window)
        grad_p[:, :, di:di + h, dj:dj + w] += upstream * (arg == idx)
    return grad_p[:, :, p:p + h, p:p + w]


def brute_force_nms(dets, thr):
    """Per-class exhaustive suppression, then a global merge sorted by
    (score desc, class asc, input order)."""
    kept = []
    for cls in sorted({d.class_id for d in dets}):
        pool = [(i, d) for i, d in enumerate(dets) if d.class_id == cls]
        while pool:
            pool.sort(key=lambda t: (-t[1].score, t[0]))
            idx, best = pool.pop(0)
            kept.append((idx, best))
            pool = [(i, d) for i, d in pool if iou(d.bbox, best.bbox) <= thr]
    kept.sort(key=lambda t: (-t[1].score, t[1].class_id, t[0]))
    return [d for _, d in kept]


def random_detections(rng, n, classes=3, size=50.0):
    dets = []
    for _ in range(n):
        x1, y1 = rng.uniform(0, size - 5, size=2)
        w, h = rng.uniform(1, 15, size=2)
        dets.append(Detection(
            BBox(x1, y1, min(x1 + w, size), min(y1 + h, size)),
            float(rng.uniform(0.01, 1.0)),
            int(rng.integers(classes)),
        ))
    return dets
