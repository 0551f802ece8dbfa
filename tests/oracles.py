"""Independent references used by the tests.

The op references are deliberately written as plain nested loops so they
share no code path (im2col, BLAS, strided compares) with the package.  The
argmax maxpool with its scatter-add backward is the kernel the package ran
before it pooled ahead of relu; after relu, it is the reference for both.
The strided compare-and-copy maxpool is the kernel it ran next, until the
forward took maxima alone; it is the reference for the standalone op.
The full-width backbone passes are the reference for the compacted ones:
they run relu before that maxpool, and share conv and norm, not the channel
bookkeeping.  ``train_view_reference`` and ``eval_view_reference`` build a
task in training's view and a finished task's view, each by its own rule;
they are the reference for ``growcl.backbone.task_view``.  The per-sample
renderers and ``synth_tasks_per_sample`` are the reference for
``growcl.data.synth_tasks``, which renders a class at once.  The brute-force
table over every (weights, gate, kernel mask) triple, its argmin and the
single-configuration loss re-check ``growcl.enumcheck``'s table over
distinct effective matrices, and ``save_idx`` writes the IDX files that
``growcl.data.load_idx`` reads.  ``first_difference`` is
``bench/rundiff.py``'s, the byte-identity check of two run directories.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from growcl.backbone import (
    BackwardResult,
    KernelState,
    SlotState,
    TaskView,
    effective_filters,
)
from growcl.data import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    Dataset,
    Task,
    _separated_layout,
    _split_indices,
)
from growcl.enumcheck import MicroInstance
from growcl.ops import (
    conv2d,
    conv2d_backward,
    group_norm,
    group_norm_backward,
    linear,
    linear_backward,
    pool_out_size,
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


def maxpool2d_argmax(x, k):
    """Max over k x k windows by argmax: the first maximal element in
    row-major window order, the first NaN where a window holds one."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    ho, wo = pool_out_size(h, k), pool_out_size(w, k)
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, ho, wo, k, k),
        strides=(sn, sc, k * sh, k * sw, sh, sw),
        writeable=False,
    )
    flat = windows.reshape(n, c, ho, wo, k * k)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return np.ascontiguousarray(out), (x.shape, k, arg)


def maxpool2d_argmax_backward(dout, cache):
    """Scatter-add of each window's gradient to its argmax."""
    x_shape, k, arg = cache
    n, c, h, w = x_shape
    ho, wo = arg.shape[2], arg.shape[3]
    dx = np.zeros(x_shape, dtype=dout.dtype)
    ki, kj = np.divmod(arg, k)
    rows = (np.arange(ho)[None, None, :, None] * k + ki)
    colz = (np.arange(wo)[None, None, None, :] * k + kj)
    ns = np.arange(n)[:, None, None, None]
    cs = np.arange(c)[None, :, None, None]
    np.add.at(dx, (ns, cs, rows, colz), dout)
    return dx


def maxpool2d_strided(x, k):
    """The compare-and-copy maxpool the package ran before it took maxima
    with ``np.fmax``: one strided compare per window slot builds the winning
    slot in the forward.  Ties go to the first row-major element, NaN loses
    to every number, and an all-NaN window keeps slot 0."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    hk, wk = pool_out_size(h, k) * k, pool_out_size(w, k) * k
    out = x[:, :, 0:hk:k, 0:wk:k].copy()
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(k * k - 1))
    for s in range(1, k * k):
        ki, kj = divmod(s, k)
        v = x[:, :, ki:hk:k, kj:wk:k]
        take = (v > out) | (np.isnan(out) & ~np.isnan(v))
        np.copyto(out, v, where=take)
        np.copyto(arg, s, where=take)
    return out, (x.shape, k, arg)


def maxpool2d_strided_backward(dout, cache):
    """Each window's gradient goes to its winning slot, added into zeros (a
    -0.0 gradient lands as +0.0)."""
    x_shape, k, arg = cache
    hk, wk = arg.shape[2] * k, arg.shape[3] * k
    dx = np.zeros(x_shape, dtype=dout.dtype)
    for s in range(k * k):
        ki, kj = divmod(s, k)
        dx[:, :, ki:hk:k, kj:wk:k] += np.where(arg == s, dout, 0.0)
    return dx


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
# full channel capacity, with off channels zero-filled, and relu ahead of
# the argmax maxpool.  The compacted ``backbone.forward_pass``/
# ``backward_pass`` must reproduce them.

def all_channel_filters(layer, mult):
    """``effective_filters`` on every output and input channel."""
    return effective_filters(layer, mult, np.arange(layer.spec.out_channels),
                             np.arange(layer.spec.in_channels))


def forward_pass_full(backbone, view, x, want_cache=False, start=0, stop=None):
    # takes backbone.forward_pass's arguments.  A given input and a stopped
    # pass's output are on their layer's on channels, as there; in between,
    # every channel is computed.
    layers = backbone.layers
    cache = {"start": start, "layers": []}
    h = np.asarray(x, dtype=np.float64)
    if start > 0:
        on = layers[start - 1].spec.name
        h = np.zeros((h.shape[0], layers[start - 1].spec.out_channels) + h.shape[2:])
        h[:, view.channel_on[on]] = x
    for layer in layers[start:stop]:
        name = layer.spec.name
        on = view.channel_on[name]
        eff_w = all_channel_filters(layer, view.multipliers[name])
        eff_b = np.where(on, layer.bias, 0.0)
        h, conv_cache = conv2d(h, eff_w, eff_b, stride=layer.spec.stride, pad=layer.spec.pad)
        norm_cache = None
        if view.norm_scale is not None:
            h, norm_cache = group_norm(h, view.norm_scale[name], view.norm_shift[name])
        h[:, ~on] = 0.0   # kill bias/norm leakage from channels outside the task
        h, relu_cache = relu(h)
        pool_cache = None
        if layer.spec.pool:
            h, pool_cache = maxpool2d_argmax(h, k=layer.spec.pool)
        cache["layers"].append((conv_cache, norm_cache, relu_cache, pool_cache, on))
    if stop is not None:
        return h[:, view.channel_on[layers[stop - 1].spec.name]]
    logits, cache["head"] = linear(h.reshape(h.shape[0], -1), view.head_weight, view.head_bias)
    cache["flat_shape"] = h.shape
    return (logits, cache) if want_cache else logits


def backward_pass_full(backbone, cache, dlogits):
    dflat, d_hw, d_hb = linear_backward(dlogits, cache["head"])
    dh = dflat.reshape(cache["flat_shape"])
    d_eff, d_bias, d_ns, d_nsh = {}, {}, {}, {}
    for layer in backbone.layers[:cache["start"]]:   # not run: +0.0 gradients
        name = layer.spec.name
        d_eff[name], d_bias[name] = np.zeros_like(layer.weights), np.zeros_like(layer.bias)
        if backbone.arch.group_norm:
            d_ns[name], d_nsh[name] = np.zeros_like(layer.bias), np.zeros_like(layer.bias)
    ran = backbone.layers[cache["start"]:]
    for layer, caches in zip(reversed(ran), reversed(cache["layers"])):
        conv_cache, norm_cache, relu_cache, pool_cache, on = caches
        name = layer.spec.name
        if pool_cache is not None:
            dh = maxpool2d_argmax_backward(dh, pool_cache)
        dh = relu_backward(dh, relu_cache)
        dh[:, ~on] = 0.0
        if norm_cache is not None:
            dh, d_ns[name], d_nsh[name] = group_norm_backward(dh, norm_cache)
        dh, d_eff[name], db = conv2d_backward(dh, conv_cache)
        d_bias[name] = np.where(on, db, 0.0)
    return BackwardResult(d_eff, d_bias, d_hw, d_hb, d_ns, d_nsh)


# ---------------------------------------------------------------------------
# task views: one builder per kind of task
# ---------------------------------------------------------------------------
#
# ``backbone.task_view`` decides both kinds of view with one rule.  These
# two builders decide them apart, each by the rule for its own kind: a task
# in training sees every FIXED channel, and a finished task none of the
# RELEASED kernels.

def train_view_reference(trainer) -> TaskView:
    """The view of ``trainer``'s task at the hard bits of its logits: FIXED
    and growing channels on; USED kernels of FIXED channels take their reuse
    bit, RELEASED ones 1, growing rows their claim bit."""
    multipliers, channel_on = {}, {}
    for layer in trainer.backbone.layers:
        name = layer.spec.name
        fixed = layer.slot_state == SlotState.FIXED
        training = layer.slot_state == SlotState.GROWN_TRAINING
        used = (layer.kernel_state == KernelState.USED) & fixed[:, None]
        released = (layer.kernel_state == KernelState.RELEASED) & fixed[:, None]
        rows = np.broadcast_to(training[:, None], used.shape)
        mult = np.zeros_like(layer.kernel_state, dtype=np.float64)
        mult[used] = trainer.reuse_masks[name].hard_bits()[used]
        mult[released] = 1.0
        mult[rows] = trainer.claim_masks[name].hard_bits()[rows]
        multipliers[name] = mult
        channel_on[name] = fixed | training
    return TaskView(multipliers, channel_on, trainer.head_weight, trainer.head_bias,
                    trainer.norm_scale, trainer.norm_shift)


def eval_view_reference(backbone, snapshot) -> TaskView:
    """The view of a finished task t: channels FIXED with owner <= t on;
    kernels USED by t take 1, USED by an earlier task their reuse bit (1
    without reuse bits), and all others, RELEASED ones included, 0."""
    t = snapshot.task_id
    multipliers, channel_on = {}, {}
    for layer in backbone.layers:
        name = layer.spec.name
        on = (layer.slot_state == SlotState.FIXED) & (layer.slot_owner <= t)
        mult = np.zeros_like(layer.kernel_state, dtype=np.float64)
        used = on[:, None] & (layer.kernel_state == KernelState.USED)
        old = used & (layer.kernel_owner < t)
        mult[used & (layer.kernel_owner == t)] = 1.0
        mult[old] = 1.0 if snapshot.reuse_bits is None else snapshot.reuse_bits[name][old]
        multipliers[name] = mult
        channel_on[name] = on
    return TaskView(multipliers, channel_on, snapshot.head_weight, snapshot.head_bias,
                    snapshot.norm_scale, snapshot.norm_shift)


# ---------------------------------------------------------------------------
# enumeration: argmin of one branch, loss of one configuration
# ---------------------------------------------------------------------------

@dataclass
class EnumResult:
    min_loss: float
    argmin_weights: np.ndarray        # [Cout, Cin]
    argmin_gate: np.ndarray           # [Cout]
    argmin_kernel_mask: np.ndarray    # [Cout, Cin]


def _loss_table(instance: MicroInstance,
                kernel_configs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Penalized loss for every (w, gate, kernel mask) combination.

    Returns (losses [nw, ng, nk], w_configs, gate_configs); enumeration
    order is lexicographic in each axis, so a flat argmin is the documented
    tie-break.
    """
    co, ci = instance.out_channels, instance.in_channels
    w_configs = np.array(
        list(itertools.product(instance.weight_grid, repeat=co * ci))
    ).reshape(-1, co, ci)
    gate_configs = np.array(
        list(itertools.product((0.0, 1.0), repeat=co))
    ).reshape(-1, co)
    x = instance.inputs                       # [P, ci]
    y = instance.labels
    # effective weights: [nw, ng, nk, co, ci]
    eff = (w_configs[:, None, None, :, :]
           * gate_configs[None, :, None, :, None]
           * kernel_configs[None, None, :, :, :])
    logits = np.einsum("abcoi,pi->abcop", eff, x)          # [nw, ng, nk, co, P]
    zmax = logits.max(axis=3, keepdims=True)
    logp = logits - zmax - np.log(np.exp(logits - zmax).sum(axis=3, keepdims=True))
    picked = np.take_along_axis(logp, y[None, None, None, None, :], axis=3)[..., 0, :]
    data_loss = -picked.mean(axis=-1)                       # [nw, ng, nk]
    penalty = instance.lam * gate_configs.sum(axis=1)       # [ng]
    return data_loss + penalty[None, :, None], w_configs, gate_configs


def enumerate_min_loss(instance: MicroInstance, attentive_free: bool) -> EnumResult:
    """Exact global minimum over the discretized configuration space.

    With ``attentive_free`` the kernel mask ranges over all {0,1} grids;
    otherwise it is pinned to all-ones, which leaves every weight in play.
    """
    co, ci = instance.out_channels, instance.in_channels
    if attentive_free:
        kernel_configs = np.array(
            list(itertools.product((0.0, 1.0), repeat=co * ci))
        ).reshape(-1, co, ci)
    else:
        kernel_configs = np.ones((1, co, ci))
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
# synthetic tasks, one sample at a time
# ---------------------------------------------------------------------------

def stripe_image(size, angle, freq, phase):
    ax = np.arange(size) / size
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    t = xx * np.cos(angle) + yy * np.sin(angle)
    return 0.5 + 0.5 * np.sin(2.0 * np.pi * freq * t + phase)


def blob_image(size, centers, width, dx, dy):
    ax = np.arange(size)
    yy, xx = np.meshgrid(ax, ax, indexing="ij")
    img = np.zeros((size, size))
    for cy, cx in centers:
        ddy = (yy - (cy + dy) + size / 2) % size - size / 2
        ddx = (xx - (cx + dx) + size / 2) % size - size / 2
        img += np.exp(-(ddx**2 + ddy**2) / (2.0 * width**2))
    return np.clip(img, 0.0, 1.0)


def synth_tasks_per_sample(rng, n_tasks, classes_per_task, samples_per_class,
                           image_size, difficulty):
    """``growcl.data.synth_tasks`` rendering and clipping each sample alone,
    with the same draws."""
    sigma_stripe = 0.55 * (2.0 - difficulty)
    sigma_blob = 0.70 * (2.0 - difficulty)
    tasks = []
    for t in range(1, n_tasks + 1):
        trng = rng.substream(f"task{t}")
        stripes = t % 2 == 1
        noise_sigma = sigma_stripe if stripes else sigma_blob
        base = float(trng.uniform(0.0, np.pi))
        layouts, images, labels = [], [], []
        for c in range(classes_per_task):
            crng = trng.substream(f"class{c}")
            noise = crng.normal(0.0, noise_sigma,
                                size=(samples_per_class, image_size, image_size))
            if stripes:
                jitter = float(crng.uniform(-0.08, 0.08)) * difficulty
                angle = base + np.pi * c / classes_per_task + jitter
                freq = 2.0 + float(crng.integers(0, 2))
                phases = crng.uniform(0.0, 2.0 * np.pi, size=samples_per_class)
                protos = [stripe_image(image_size, angle, freq, phases[s])
                          for s in range(samples_per_class)]
            else:
                centers = _separated_layout(crng, layouts, image_size, n_blobs=3,
                                            min_sep=image_size / 4.0 * difficulty)
                layouts.append(centers)
                width = image_size / 10.0
                shifts = crng.uniform(-2.0, 2.0, size=(samples_per_class, 2))
                angles = crng.uniform(0.0, np.pi, size=samples_per_class)
                phases = crng.uniform(0.0, 2.0 * np.pi, size=samples_per_class)
                protos = [
                    blob_image(image_size, centers, width, shifts[s, 0], shifts[s, 1])
                    + 0.35 * (stripe_image(image_size, angles[s], 2.0, phases[s]) - 0.5)
                    for s in range(samples_per_class)
                ]
            for s in range(samples_per_class):
                images.append(np.clip(protos[s] + noise[s], 0.0, 1.0))
                labels.append(c)
        full = Dataset(np.stack(images)[:, None, :, :], np.asarray(labels, dtype=np.int64),
                       n_classes=classes_per_task)
        tr, va, te = _split_indices(len(full), trng.substream("split"))
        tasks.append(Task(t, full.subset(tr), full.subset(va), full.subset(te)))
    return tasks


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


RUNDIFF = Path(__file__).resolve().parents[1] / "bench" / "rundiff.py"


def first_difference(dir_a, dir_b):
    spec = importlib.util.spec_from_file_location("bench_rundiff", RUNDIFF)
    rundiff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rundiff)
    return rundiff.first_difference(dir_a, dir_b)
