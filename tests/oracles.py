"""Independent references used by the tests.

The op references are deliberately written as plain nested loops so they
share no code path (im2col, BLAS, argmax vectorization) with the package.
The full-width backbone passes are the reference for the compacted ones:
they share the ops, not the channel bookkeeping.  The enumeration argmin
and single-configuration loss re-check ``growcl.enumcheck``'s shared table,
and ``save_idx`` writes the IDX files that ``growcl.data.load_idx`` reads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from growcl.backbone import BackwardResult, effective_filters
from growcl.data import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, Dataset
from growcl.enumcheck import MicroInstance, _all_kernel_configs, _loss_table
from growcl.ops import (
    conv2d,
    conv2d_backward,
    group_norm,
    group_norm_backward,
    linear,
    linear_backward,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
)


def conv2d_loops(x, w, b, stride=1, pad=0):
    """Six-nested-loop cross-correlation reference."""
    n, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = (h + 2 * pad - k) // stride + 1
    wo = (wd + 2 * pad - k) // stride + 1
    xp = np.zeros((n, cin, h + 2 * pad, wd + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for ki in range(k):
                            for kj in range(k):
                                acc += xp[ni, ci, i * stride + ki, j * stride + kj] * w[co, ci, ki, kj]
                    out[ni, co, i, j] = acc + b[co]
    return out


def linear_loops(x, w, b):
    n, d = x.shape
    o = w.shape[0]
    out = np.zeros((n, o))
    for ni in range(n):
        for oi in range(o):
            acc = 0.0
            for di in range(d):
                acc += x[ni, di] * w[oi, di]
            out[ni, oi] = acc + b[oi]
    return out


def maxpool2d_loops(x, k, stride):
    n, c, h, w = x.shape
    ho = (h - k) // stride + 1
    wo = (w - k) // stride + 1
    out = np.zeros((n, c, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    best = -math.inf
                    for ki in range(k):
                        for kj in range(k):
                            v = x[ni, ci, i * stride + ki, j * stride + kj]
                            if v > best:
                                best = v
                    out[ni, ci, i, j] = best
    return out


def cross_entropy_direct(logits, labels):
    """Mean -log softmax via the direct (unvectorized) formula."""
    n, k = logits.shape
    total = 0.0
    for i in range(n):
        row = logits[i]
        m = max(float(v) for v in row)
        denom = sum(math.exp(float(v) - m) for v in row)
        total += -(float(row[labels[i]]) - m - math.log(denom))
    return total / n


def expand_mask_loops(w, bits, granularity):
    """Explicitly expand a channel/kernel mask and multiply elementwise."""
    out = np.zeros_like(w)
    cout, cin, k, _ = w.shape
    for co in range(cout):
        for ci in range(cin):
            m = bits[co] if granularity == "channel" else bits[co, ci]
            for ki in range(k):
                for kj in range(k):
                    out[co, ci, ki, kj] = w[co, ci, ki, kj] * m
    return out


# ---------------------------------------------------------------------------
# full-width backbone passes
# ---------------------------------------------------------------------------
#
# The passes as they ran before compaction: every conv, relu and maxpool at
# full channel capacity, with off channels zero-filled.  The compacted
# ``backbone.forward_pass``/``backward_pass`` must reproduce them.

def all_channel_filters(layer, mult):
    """``effective_filters`` on every output and input channel."""
    return effective_filters(layer, mult, np.arange(layer.spec.out_channels),
                             np.arange(layer.spec.in_channels))


def forward_pass_full(backbone, view, x, want_cache=False):
    cache = {"layers": []}
    h = np.asarray(x, dtype=np.float64)
    for layer in backbone.layers:
        name = layer.spec.name
        on = view.channel_on[name]
        eff_w = all_channel_filters(layer, view.multipliers[name])
        eff_b = np.where(on, layer.bias, 0.0)
        h, conv_cache = conv2d(h, eff_w, eff_b, stride=layer.spec.stride, pad=layer.spec.pad)
        norm_cache = None
        if view.norm_scale is not None:
            h, norm_cache = group_norm(
                h, view.norm_scale[name], view.norm_shift[name],
                eps=backbone.arch.norm_eps,
            )
        h[:, ~on] = 0.0   # kill bias/norm leakage from channels outside the task
        h, relu_cache = relu(h)
        pool_cache = None
        if layer.spec.pool:
            h, pool_cache = maxpool2d(h, k=layer.spec.pool)
        cache["layers"].append((conv_cache, norm_cache, relu_cache, pool_cache, on))
    logits, cache["head"] = linear(h.reshape(h.shape[0], -1), view.head_weight, view.head_bias)
    cache["flat_shape"] = h.shape
    return (logits, cache) if want_cache else logits


def backward_pass_full(backbone, cache, dlogits):
    dflat, d_hw, d_hb = linear_backward(dlogits, cache["head"])
    dh = dflat.reshape(cache["flat_shape"])
    d_eff, d_bias, d_ns, d_nsh = {}, {}, {}, {}
    for layer, caches in zip(reversed(backbone.layers), reversed(cache["layers"])):
        conv_cache, norm_cache, relu_cache, pool_cache, on = caches
        name = layer.spec.name
        if pool_cache is not None:
            dh = maxpool2d_backward(dh, pool_cache)
        dh = relu_backward(dh, relu_cache)
        dh[:, ~on] = 0.0
        if norm_cache is not None:
            dh, d_ns[name], d_nsh[name] = group_norm_backward(dh, norm_cache)
        dh, d_eff[name], db = conv2d_backward(dh, conv_cache)
        d_bias[name] = np.where(on, db, 0.0)
    return BackwardResult(d_eff, d_bias, d_hw, d_hb, d_ns, d_nsh)


# ---------------------------------------------------------------------------
# enumeration: argmin of one branch, loss of one configuration
# ---------------------------------------------------------------------------

@dataclass
class EnumResult:
    min_loss: float
    argmin_weights: np.ndarray        # [Cout, Cin]
    argmin_gate: np.ndarray           # [Cout]
    argmin_kernel_mask: np.ndarray    # [Cout, Cin]


def enumerate_min_loss(instance: MicroInstance, attentive_free: bool) -> EnumResult:
    """Exact global minimum over the discretized configuration space.

    With ``attentive_free`` the kernel mask ranges over all {0,1} grids;
    otherwise it is pinned to all-ones, which leaves every weight in play.
    """
    if attentive_free:
        kernel_configs = _all_kernel_configs(instance)
    else:
        kernel_configs = np.ones((1, instance.out_channels, instance.in_channels))
    losses, w_configs, gate_configs = _loss_table(instance, kernel_configs)
    flat = int(np.argmin(losses))           # first minimum = lexicographic tie-break
    iw, ig, ik = np.unravel_index(flat, losses.shape)
    return EnumResult(
        min_loss=float(losses[iw, ig, ik]),
        argmin_weights=w_configs[iw].copy(),
        argmin_gate=gate_configs[ig].copy(),
        argmin_kernel_mask=kernel_configs[ik].copy(),
    )


def evaluate_configuration(instance: MicroInstance, weights: np.ndarray,
                           gate: np.ndarray, kernel_mask: np.ndarray) -> float:
    """Loss of a single configuration (used to re-check reported argmins)."""
    eff = weights * gate[:, None] * kernel_mask
    logits = instance.inputs @ eff.T
    zmax = logits.max(axis=1, keepdims=True)
    logp = logits - zmax - np.log(np.exp(logits - zmax).sum(axis=1, keepdims=True))
    data = -logp[np.arange(len(instance.labels)), instance.labels].mean()
    return float(data + instance.lam * gate.sum())


# ---------------------------------------------------------------------------
# IDX writer
# ---------------------------------------------------------------------------

def save_idx(dataset: Dataset, images_path, labels_path) -> None:
    """Write a dataset out as an IDX pair (values quantized to bytes)."""
    n, c, h, w = dataset.images.shape
    if c != 1:
        raise ValueError(f"IDX stores single-channel images, got C={c}")
    pixels = np.clip(np.rint(dataset.images * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, h, w))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        f.write(dataset.labels.astype(np.uint8).tobytes())
