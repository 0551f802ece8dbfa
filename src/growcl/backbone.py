"""Shared backbone state: layer weights, channel slots, kernel ownership.

Every conv layer is allocated at its full channel capacity up front, but a
channel only participates once a task has grown it.  Each channel slot walks
the lifecycle UNGROWN -> GROWN_TRAINING <-> DETACHED -> PRUNED/FIXED; once
FIXED it belongs to its owner task forever.  Within a FIXED slot, each
(out, in) kernel is USED by its owner task (immutable) or RELEASED, owner 0
(trainable by the current task until it claims it); only owners are stored.

The per-task sub-network is expressed as a kernel multiplier grid plus a
channel-activity row mask (a ``TaskView``).  One function, ``task_view``,
builds it from the slot and kernel states, for the task in training and
for every finished task alike.  Masked positions are written as exact +0.0
so outputs are reproducible byte-for-byte no matter what later tasks write
into released or not-yet-grown storage.

The passes compute only on the view's on channels: each conv takes the
previous layer's on channels and produces its own, and maxpool and then relu
run on that compact tensor (pooling first gives relu's bytes on a smaller
tensor; see ``ops``).  Full width comes back only around group norm and
before the head.  The channel indices depend on the view alone, so a
finished task's passes keep their shapes and their bytes.

A pass may run part of the layers.  Stopped after layer k - 1, it returns
that layer's output on its on channels; started at layer k from such an
output, it runs the layers from k and the head.  Both are the full pass's
loop, and an image's bytes do not depend on its batch, so the parts give
the full pass's bytes.  A backward stops at the forward's first layer: that
layer computes no input gradient, and every layer below gets +0.0
gradients.

Every array a pass returns or caches is its own (see ``ops``), so a forward
cache may be back-propagated after later passes on the same backbone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from .ops import (
    conv2d,
    conv2d_backward,
    conv_out_size,
    group_norm,
    group_norm_backward,
    linear,
    linear_backward,
    maxpool2d,
    maxpool2d_backward,
    pool_out_size,
    relu,
    relu_backward,
)


class SlotState(IntEnum):
    UNGROWN = 0
    GROWN_TRAINING = 1
    DETACHED = 2
    PRUNED = 3
    FIXED = 4


class KernelState(IntEnum):
    UNTRACKED = 0
    USED = 1
    RELEASED = 2


@dataclass(frozen=True)
class ConvLayerSpec:
    name: str
    in_channels: int
    out_channels: int       # full capacity (the ratio denominator)
    seed_channels: int      # channels materialized before task 1 trains
    kernel: int = 3
    stride: int = 1
    pad: int = 1
    pool: int = 2           # maxpool window, ahead of relu; 0 disables

    @property
    def params_per_channel(self) -> int:
        return self.in_channels * self.kernel * self.kernel + 1  # + bias

    @property
    def full_params(self) -> int:
        return self.out_channels * self.params_per_channel


@dataclass(frozen=True)
class ArchSpec:
    image_size: int
    in_channels: int
    layers: tuple[ConvLayerSpec, ...]
    group_norm: bool = False

    def spatial_after(self, index: int) -> int:
        """Spatial extent after layer ``index`` (conv + optional pool), by
        the rules of ``ops``: ShapeError where a layer cannot run."""
        size = self.image_size
        for spec in self.layers[: index + 1]:
            size = conv_out_size(size, spec.kernel, spec.stride, spec.pad)
            if spec.pool:
                size = pool_out_size(size, spec.pool)
        return size

    @property
    def feature_dim(self) -> int:
        last = self.layers[-1]
        s = self.spatial_after(len(self.layers) - 1)
        return last.out_channels * s * s

    @property
    def full_params(self) -> int:
        return sum(spec.full_params for spec in self.layers)


class LayerState:
    """Weights plus slot/kernel bookkeeping for one conv layer."""

    def __init__(self, spec: ConvLayerSpec):
        self.spec = spec
        k = spec.kernel
        self.weights = np.zeros((spec.out_channels, spec.in_channels, k, k))
        self.bias = np.zeros(spec.out_channels)
        self.slot_state = np.full(spec.out_channels, SlotState.UNGROWN, dtype=np.int8)
        self.slot_owner = np.zeros(spec.out_channels, dtype=np.int32)
        self.kernel_owner = np.zeros((spec.out_channels, spec.in_channels), dtype=np.int32)

    @property
    def kernel_state(self) -> np.ndarray:
        """Read-only: USED where a task owns the kernel, RELEASED in a FIXED
        row where none does, UNTRACKED elsewhere."""
        fixed = (self.slot_state == SlotState.FIXED)[:, None]
        state = np.where(self.kernel_owner > 0, KernelState.USED, np.where(
            fixed, KernelState.RELEASED, KernelState.UNTRACKED)).astype(np.int8)
        state.flags.writeable = False
        return state

    def active_channels(self, include_training: bool = True) -> np.ndarray:
        active = self.slot_state == SlotState.FIXED
        if include_training:
            active |= self.slot_state == SlotState.GROWN_TRAINING
        return active

    def active_params(self, include_training: bool = True) -> int:
        return int(self.active_channels(include_training).sum()) * self.spec.params_per_channel


class BackboneState:
    """All layers plus the ownership ledger they carry."""

    def __init__(self, arch: ArchSpec):
        self.arch = arch
        self.layers = [LayerState(spec) for spec in arch.layers]

    def active_params(self, include_training: bool = True) -> int:
        return sum(l.active_params(include_training) for l in self.layers)

    def growth_ratio(self, include_training: bool = True) -> float:
        return self.active_params(include_training) / self.arch.full_params

    def protected_digests(self) -> dict[tuple, bytes]:
        """The bytes of each immutable item, every USED kernel and FIXED bias,
        keyed by its position and owner.

        Earlier entries must survive verbatim in any later call; the driver
        asserts this at every task boundary.
        """
        out: dict[tuple, bytes] = {}
        for layer in self.layers:
            name = layer.spec.name
            for j, i in np.argwhere(layer.kernel_state == KernelState.USED):
                key = (name, int(j), int(i), int(layer.kernel_owner[j, i]))
                out[key] = layer.weights[j, i].tobytes()
            for j in np.flatnonzero(layer.slot_state == SlotState.FIXED):
                out[(name, int(j), "bias", int(layer.slot_owner[j]))] = layer.bias[j].tobytes()
        return out


# ---------------------------------------------------------------------------
# per-task sub-network view and forward pass
# ---------------------------------------------------------------------------

@dataclass
class TaskView:
    """Kernel multipliers + channel activity defining one task's network."""

    multipliers: dict[str, np.ndarray]          # [out_cap, in_cap] {0,1}, 0 on off rows
    channel_on: dict[str, np.ndarray]           # bool [out_cap]
    head_weight: np.ndarray                     # [K, feature_dim]
    head_bias: np.ndarray                       # [K]
    norm_scale: dict[str, np.ndarray] | None = None
    norm_shift: dict[str, np.ndarray] | None = None


def task_view(backbone: BackboneState, t: int, reuse_bits: dict[str, np.ndarray] | None,
              claim_bits: dict[str, np.ndarray] | None, head_weight: np.ndarray,
              head_bias: np.ndarray, norm_scale: dict[str, np.ndarray] | None,
              norm_shift: dict[str, np.ndarray] | None) -> TaskView:
    """Task t's sub-network: the one rule for a task in training (given its
    ``claim_bits``) and for a finished task (``claim_bits`` None).

    On channels are the FIXED ones owned by tasks 1..t, plus the growing
    ones when ``claim_bits`` are given.  Kernel multipliers: a growing row
    takes its claim bit; a USED kernel takes 1 if t owns it and its reuse
    bit (1 when ``reuse_bits`` is None) if an earlier task does; a RELEASED
    kernel in a channel of an earlier task takes 1; everything else is 0.

    This relies on an invariant ``finalize_task`` keeps: a task that
    finishes claims every RELEASED kernel.  So after task t the only
    RELEASED kernels in t's on channels are t's own releases, which t
    trained at claim bit 0 and its view keeps at 0, and a finished task's
    view never changes.
    """
    multipliers, channel_on = {}, {}
    for layer in backbone.layers:
        name = layer.spec.name
        state, owner = layer.kernel_state, layer.kernel_owner
        fixed = layer.slot_state == SlotState.FIXED
        on = fixed & (layer.slot_owner <= t)
        used = on[:, None] & (state == KernelState.USED)
        old = used & (owner < t)
        mult = np.zeros(state.shape)
        mult[used & (owner == t)] = 1.0
        mult[old] = 1.0 if reuse_bits is None else reuse_bits[name][old]
        mult[(fixed & (layer.slot_owner < t))[:, None] & (state == KernelState.RELEASED)] = 1.0
        if claim_bits is not None:
            growing = layer.slot_state == SlotState.GROWN_TRAINING
            mult[growing] = claim_bits[name][growing]
            on = on | growing
        multipliers[name] = mult
        channel_on[name] = on
    return TaskView(multipliers, channel_on, head_weight, head_bias, norm_scale, norm_shift)


class LayerCache(NamedTuple):
    conv: tuple
    norm: tuple | None
    pool: tuple | None
    relu: np.ndarray
    out_index: np.ndarray   # the layer's on channels
    in_index: np.ndarray    # the previous layer's on channels (the image: all)


@dataclass
class ForwardCache:
    start: int = 0              # the first layer the pass ran
    layer_caches: list[LayerCache] = field(default_factory=list)   # from ``start`` on
    feature_shape: tuple = ()   # full-width [N, C, H, W] fed to the head
    head_cache: object = None


# Compact tensors are gathered with np.take(..., axis=1), never h[:, idx]:
# that indexing can return a non-C-contiguous array, and the sums taken over
# it later (group norm, the bias gradient) then group their terms differently.

def _scatter(h: np.ndarray, idx: np.ndarray, width: int) -> np.ndarray:
    """Full width [N, width, H, W] with exact +0.0 on the channels not in idx."""
    out = np.zeros((h.shape[0], width) + h.shape[2:])
    out[:, idx] = h
    return out


def effective_filters(layer: LayerState, mult: np.ndarray,
                      rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """weights * multiplier on the [rows, cols] block of output and input
    channels, with masked positions forced to exact +0.0."""
    block = np.ix_(rows, cols)
    m = mult[block]
    # multipliers are 0.0 or 1.0 and w * 1.0 is w, so a select gives the product
    return np.where(m[:, :, None, None] != 0.0, layer.weights[block], 0.0)


def forward_pass(backbone: BackboneState, view: TaskView, x: np.ndarray,
                 want_cache: bool = False, start: int = 0, stop: int | None = None):
    """Run the masked backbone + head; returns logits (and caches).

    Each layer computes only its view's on channels from the previous
    layer's on channels.  Full width comes back for group norm, whose
    statistics count the off channels' zeros, and before the head.

    From ``start`` > 0 the pass runs from layer ``start``, and ``x`` is
    layer ``start`` - 1's output on its on channels.  Given ``stop``, it
    runs up to layer ``stop`` - 1 and returns that output, a fresh array,
    instead of logits."""
    layers = backbone.layers
    cache = ForwardCache(start) if want_cache else None
    h = np.asarray(x, dtype=np.float64)
    ii = (np.arange(backbone.arch.in_channels) if start == 0
          else np.flatnonzero(view.channel_on[layers[start - 1].spec.name]))
    for layer in layers[start:stop]:
        name = layer.spec.name
        oi = np.flatnonzero(view.channel_on[name])
        eff_w = effective_filters(layer, view.multipliers[name], oi, ii)
        h, conv_cache = conv2d(h, eff_w, layer.bias[oi],
                               stride=layer.spec.stride, pad=layer.spec.pad)
        norm_cache = None
        if view.norm_scale is not None:
            h, norm_cache = group_norm(
                _scatter(h, oi, layer.spec.out_channels), view.norm_scale[name],
                view.norm_shift[name])
            h = np.take(h, oi, axis=1)
        pool_cache = None
        if layer.spec.pool:
            h, pool_cache = maxpool2d(h, k=layer.spec.pool)
        h, relu_cache = relu(h)
        if want_cache:
            cache.layer_caches.append(
                LayerCache(conv_cache, norm_cache, pool_cache, relu_cache, oi, ii))
        ii = oi
    if stop is not None:
        return h
    h = _scatter(h, ii, layers[-1].spec.out_channels)
    logits, head_cache = linear(h.reshape(h.shape[0], -1), view.head_weight, view.head_bias)
    if want_cache:
        cache.feature_shape = h.shape
        cache.head_cache = head_cache
        return logits, cache
    return logits


@dataclass
class BackwardResult:
    d_eff_weights: dict[str, np.ndarray]
    d_bias: dict[str, np.ndarray]
    d_head_weight: np.ndarray
    d_head_bias: np.ndarray
    d_norm_scale: dict[str, np.ndarray]
    d_norm_shift: dict[str, np.ndarray]


def backward_pass(backbone: BackboneState, cache: ForwardCache,
                  dlogits: np.ndarray) -> BackwardResult:
    """Backpropagate through the head and the layers the forward ran, on its
    on channels.

    Returns gradients w.r.t. the *effective* (masked) filters and the biases
    at full capacity, exact +0.0 outside the on block; the trainer splits
    the filter gradients into weight and mask-logit gradients.  The layers
    below the forward's ``start`` get all +0.0 gradients, and the lowest
    layer it ran computes no input gradient.
    """
    dflat, d_hw, d_hb = linear_backward(dlogits, cache.head_cache)
    d_eff: dict[str, np.ndarray] = {}
    d_bias: dict[str, np.ndarray] = {}
    d_ns: dict[str, np.ndarray] = {}
    d_nsh: dict[str, np.ndarray] = {}
    dh = None
    for index in reversed(range(len(backbone.layers))):
        layer = backbone.layers[index]
        name = layer.spec.name
        d_bias[name] = np.zeros_like(layer.bias)
        d_eff[name] = np.zeros_like(layer.weights)
        if index < cache.start:
            if backbone.arch.group_norm:
                d_ns[name], d_nsh[name] = np.zeros_like(layer.bias), np.zeros_like(layer.bias)
            continue
        lc = cache.layer_caches[index - cache.start]
        if dh is None:
            dh = np.take(dflat.reshape(cache.feature_shape), lc.out_index, axis=1)
        dh = relu_backward(dh, lc.relu)
        if lc.pool is not None:
            dh = maxpool2d_backward(dh, lc.pool)
        if lc.norm is not None:
            full, d_ns[name], d_nsh[name] = group_norm_backward(
                _scatter(dh, lc.out_index, layer.spec.out_channels), lc.norm)
            dh = np.take(full, lc.out_index, axis=1)
        # neither the input image nor a given input needs a gradient
        dh, dw_eff, db = conv2d_backward(dh, lc.conv, need_dx=index > cache.start)
        d_bias[name][lc.out_index] = db
        d_eff[name][np.ix_(lc.out_index, lc.in_index)] = dw_eff
    return BackwardResult(d_eff, d_bias, d_hw, d_hb, d_ns, d_nsh)
