"""Dense-tensor numerics: forward passes and hand-derived backward passes.

Everything is float64 and pure: identical inputs give bitwise-identical
outputs, so layer outputs can be fingerprinted byte-for-byte.  Each forward
returns ``(output, cache)`` and has a matching ``*_backward(dout, cache)``
returning gradients for every differentiable input.

Per-channel bytes: a conv output channel, and its bias gradient, come out
byte-identical whichever other output channels are computed alongside it
(none, some or all).  The backbone relies on this to compute only a task's
on channels and still reproduce the full-width results.

Documented tie-breaks (oracles in the tests rely on these):
  * relu subgradient at exactly 0 is 0;
  * maxpool routes the gradient to the first maximal element in row-major
    window order (an all-NaN window: its first), and NaN counts as below
    every number.  With these two rules relu commutes with maxpool, forward
    and backward, byte for byte: the backbone pools first and runs relu on
    the k*k times smaller tensor.

The maxpool forward only takes maxima (one ``np.fmax`` per window slot) and
caches its input and output; the backward finds each window's winning slot
and writes each slot of the input gradient once, without a branch.
Inference passes, which never run a backward, so skip the winner search.

Workspaces: ``conv2d``, ``conv2d_backward`` and ``maxpool2d_backward`` take
an optional ``workspace``, a dict that the caller owns and hands to one
layer's ops on every call (each ``backbone`` layer owns one, which every
pass on the backbone uses).  Each large array the op builds is then a view
of the dict's buffer for its role, grown to the largest shape asked for and
never shrunk, so a pass reuses the pages the pass before it faulted in.
The roles: ``image`` (the padded input, then the image gradient), ``cols``
(the im2col columns, then their gradient, written once the filter gradient
has read them), ``out`` (the conv output, then the pooling gradient,
written once the winners are found) and the pooling masks.  A view lives
until the next call that takes its role, so a conv output and its caches
serve one pooling pass and one backward, and a ``dx`` must be read before
the layer below runs.  Without a workspace every call allocates fresh
arrays, so its results share no memory with any other call's.  The bytes
are the same either way.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Inputs whose shapes cannot be combined by the requested operation."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


Workspace = dict[str, np.ndarray]   # role -> grow-only flat buffer


def _buffer(workspace: Workspace | None, role: str, shape: tuple,
            dtype=np.float64) -> np.ndarray:
    """An uninitialized C-contiguous array of ``shape``: a fresh one without
    a workspace, else a view of the workspace's ``role`` buffer, which is
    replaced by a larger one when it is too small."""
    if workspace is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = workspace.pop(role, None)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = None   # freed first, so the allocator may reuse its pages
        buf = np.empty(size, dtype)
    workspace[role] = buf
    return buf[:size].reshape(shape)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

def conv_out_size(extent: int, k: int, stride: int, pad: int) -> int:
    span = extent + 2 * pad - k
    if span < 0:
        raise ShapeError(f"kernel {k} with pad {pad} exceeds input extent {extent}")
    if span % stride != 0:
        raise ShapeError(
            f"(extent {extent} + 2*pad {pad} - kernel {k}) not divisible by stride {stride}"
        )
    return span // stride + 1


def _im2col(x: np.ndarray, k: int, stride: int, pad: int,
            workspace: Workspace | None) -> tuple[np.ndarray, tuple]:
    """[N,C,H,W] -> [N, C*k*k, Ho*Wo] patch matrix (copy, C-contiguous)."""
    n, c, h, w = x.shape
    ho = conv_out_size(h, k, stride, pad)
    wo = conv_out_size(w, k, stride, pad)
    if pad > 0:
        # a reused buffer's border holds whatever its last shape put there
        xp = _buffer(workspace, "image", (n, c, h + 2 * pad, w + 2 * pad))
        xp[:, :, :pad] = xp[:, :, pad + h:] = 0.0
        xp[:, :, :, :pad] = xp[:, :, :, pad + w:] = 0.0
        xp[:, :, pad:pad + h, pad:pad + w] = x
        x = xp
    sn, sc, sh, sw = x.strides
    patches = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, k, k, ho, wo),
        strides=(sn, sc, sh, sw, stride * sh, stride * sw),
        writeable=False,
    )
    cols = _buffer(workspace, "cols", patches.shape)
    np.copyto(cols, patches)
    return cols.reshape(n, c * k * k, ho * wo), (x.shape, ho, wo)


def _col2im(cols: np.ndarray, x_padded_shape: tuple, k: int, stride: int, pad: int,
            out_hw: tuple[int, int], workspace: Workspace | None) -> np.ndarray:
    """Scatter-add [N, C*k*k, Ho*Wo] columns back to the unpadded image."""
    n, c, hp, wp = x_padded_shape
    ho, wo = out_hw
    grid = cols.reshape(n, c, k, k, ho, wo)
    x = _buffer(workspace, "image", (n, c, hp, wp))
    x.fill(0.0)
    for ki in range(k):
        h_end = ki + stride * ho
        for kj in range(k):
            w_end = kj + stride * wo
            x[:, :, ki:h_end:stride, kj:w_end:stride] += grid[:, :, ki, kj]
    if pad > 0:
        x = x[:, :, pad:hp - pad, pad:wp - pad]
    return x


def conv2d(x, filters, bias, stride: int = 1, pad: int = 0,
           workspace: Workspace | None = None):
    """Cross-correlate [N,Cin,H,W] with [Cout,Cin,k,k] filters plus bias.

    Returns ``(out [N,Cout,Ho,Wo], cache)``; with a ``workspace``, ``out``
    and the cache's columns are views of its buffers.
    """
    x, w, b = _as_array(x), _as_array(filters), _as_array(bias)
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input/filters, got {x.shape} and {w.shape}")
    if stride < 1 or pad < 0:
        raise ShapeError(f"stride must be >= 1 and pad >= 0, got {stride}, {pad}")
    n, cin, h, wd = x.shape
    cout, cin_f, kh, kw = w.shape
    if kh != kw:
        raise ShapeError(f"only square kernels supported, got {kh}x{kw}")
    if cin != cin_f:
        raise ShapeError(f"input channels {cin} != filter channels {cin_f}")
    if b.shape != (cout,):
        raise ShapeError(f"bias shape {b.shape} != ({cout},)")
    cols, (xp_shape, ho, wo) = _im2col(x, kh, stride, pad, workspace)
    wm = w.reshape(cout, cin * kh * kw)   # explicit sizes: cout or cin may be 0
    # numpy hands a one-row product to gemv, which sums in another order
    # than gemm; a zero second row keeps the gemm, so a channel's bytes do
    # not depend on how many channels are computed alongside it
    rows = wm if cout != 1 else np.concatenate([wm, np.zeros_like(wm)])
    out = _buffer(workspace, "out", (n, len(rows), ho * wo))
    out = np.matmul(rows, cols, out=out)[:, :cout]   # [N, Cout, Ho*Wo] via broadcasting
    out += b[None, :, None]
    out = out.reshape(n, cout, ho, wo)
    cache = (cols, w.shape, wm, xp_shape, kh, stride, pad, (ho, wo))
    return out, cache


def conv2d_backward(dout: np.ndarray, cache, need_dx: bool = True,
                    workspace: Workspace | None = None):
    """Gradients (dx, dfilters, dbias) for conv2d; dx is None unless
    ``need_dx`` (a first layer has no use for its input-image gradient).
    With a ``workspace`` (the forward's), ``dx`` is a view of its buffers
    and the cached columns are overwritten, so a cache serves one backward."""
    cols, w_shape, wm, xp_shape, k, stride, pad, out_hw = cache
    n, cout, ho, wo = dout.shape
    go = dout.reshape(n, cout, ho * wo)
    # a lone channel gets a zero companion, as in conv2d: numpy would merge
    # the summed axes of [N, 1, HW] into one pairwise sum in another order
    rows = go if cout != 1 else np.concatenate([go, np.zeros_like(go)], axis=1)
    db = rows.sum(axis=(0, 2))[:cout]
    dwm = np.einsum("nop,ncp->oc", go, cols)
    dw = dwm.reshape(w_shape)
    dx = None
    if need_dx:
        # the filter gradient has read the columns, so theirs is the space
        dcols = _buffer(workspace, "cols", (n, wm.shape[1], ho * wo))
        np.matmul(wm.T, go, out=dcols)
        dx = _col2im(dcols, xp_shape, k, stride, pad, out_hw, workspace)
    return dx, dw, db


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

def linear(x, weight, bias):
    """Affine map [N,D] @ [O,D]^T + [O] -> [N,O]."""
    x, w, b = _as_array(x), _as_array(weight), _as_array(bias)
    if x.ndim != 2 or w.ndim != 2:
        raise ShapeError(f"linear expects 2-d input/weight, got {x.shape} and {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"inner dimensions disagree: input {x.shape} vs weight {w.shape}")
    if b.shape != (w.shape[0],):
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[0]},)")
    out = x @ w.T + b
    return out, (x, w)


def linear_backward(dout: np.ndarray, cache):
    x, w = cache
    dx = dout @ w
    dw = dout.T @ x
    db = dout.sum(axis=0)
    return dx, dw, db


# ---------------------------------------------------------------------------
# relu / maxpool
# ---------------------------------------------------------------------------

def relu(x):
    """Elementwise max(0, x); subgradient at exactly 0 is 0."""
    x = _as_array(x)
    mask = x > 0
    out = np.where(mask, x, 0.0)
    return out, mask


def relu_backward(dout: np.ndarray, cache) -> np.ndarray:
    return np.where(cache, dout, 0.0)


def pool_out_size(extent: int, k: int) -> int:
    if k > extent:
        raise ShapeError(f"pool window {k} exceeds input extent {extent}")
    return extent // k


def maxpool2d(x, k: int):
    """Max over non-overlapping k x k windows (stride k) of [N,C,H,W]; NaN
    loses to every number, and an all-NaN window pools to NaN.

    A copy of window slot 0, then one ``np.fmax`` per further slot.  The
    winning slot is not searched for here, so a pass that never runs the
    backward pays nothing for it; ``maxpool2d_backward`` finds it.  The value
    pooled from a +-0.0 tie may carry either sign (the relu that follows
    maps both to +0.0).  The cache holds ``x`` and the returned pooled array
    itself: callers must not write into either."""
    x = _as_array(x)
    n, c, h, w = x.shape
    hk, wk = pool_out_size(h, k) * k, pool_out_size(w, k) * k
    out = x[:, :, 0:hk:k, 0:wk:k].copy()
    for s in range(1, k * k):
        ki, kj = divmod(s, k)
        np.fmax(out, x[:, :, ki:hk:k, kj:wk:k], out=out)
    return out, (x, k, out)


def maxpool2d_backward(dout: np.ndarray, cache,
                       workspace: Workspace | None = None) -> np.ndarray:
    """Each window's gradient goes to its winner: the first slot, in
    row-major order, equal to the pooled value (so a +-0.0 tie goes to the
    first zero), and slot 0 for an all-NaN window; every other slot gets
    +0.0.  The forward cached what this search needs, and a -0.0 gradient
    lands as +0.0.

    With a ``workspace`` (the conv's), ``dx`` takes the conv output's
    buffer, which holds the cached input unless a norm sits between them
    (laid out apart from ``dx`` when the conv had one output channel):
    every window slot of the input is read before any of ``dx``, the
    uncovered rows and columns included, is written, and a cache serves one
    backward."""
    x, k, out = cache
    hk, wk = out.shape[2] * k, out.shape[3] * k
    wins = _buffer(workspace, "pool_win", (k * k, *out.shape), bool)
    open_ = _buffer(workspace, "pool_open", out.shape, bool)   # windows still to settle
    for s, win in enumerate(wins):
        ki, kj = divmod(s, k)
        np.equal(x[:, :, ki:hk:k, kj:wk:k], out, out=win)
        if s == 0:
            win |= np.isnan(out, out=open_)   # nothing equals an all-NaN window's NaN
            np.logical_not(win, out=open_)
        else:
            win &= open_
            open_ ^= win
    # each window slot of dx is written once, by a select that does not
    # branch: the gradient's bits times the slot's 0/1 winner flag (a masked
    # copy branches on every element and took about 3x as long)
    dx = _buffer(workspace, "out", x.shape, dout.dtype)
    dx[:, :, hk:] = 0.0          # rows and columns no window covers
    dx[:, :, :hk, wk:] = 0.0
    grad = (dout + 0.0).view(np.uint64)
    bits = dx.view(np.uint64)
    for s, win in enumerate(wins):
        ki, kj = divmod(s, k)
        np.multiply(grad, win, out=bits[:, :, ki:hk:k, kj:wk:k])
    return dx


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------

def cross_entropy(logits, labels):
    """Mean of -log softmax(logits)[label], stabilized by max subtraction.

    Returns ``(loss, dlogits)`` where dlogits is the gradient of the mean
    loss with respect to the logits.
    """
    z = _as_array(logits)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim != 2:
        raise ShapeError(f"logits must be [N,K], got {z.shape}")
    n, k = z.shape
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape} != ({n},)")
    if y.size and (y.min() < 0 or y.max() >= k):
        bad = y[(y < 0) | (y >= k)][0]
        raise ValueError(f"label {bad} outside [0, {k})")
    zmax = z.max(axis=1, keepdims=True)
    zs = z - zmax
    logsumexp = np.log(np.exp(zs).sum(axis=1, keepdims=True))
    logp = zs - logsumexp
    loss = float(-logp[np.arange(n), y].mean())
    dlogits = np.exp(logp)
    dlogits[np.arange(n), y] -= 1.0
    dlogits /= n
    return loss, dlogits


# ---------------------------------------------------------------------------
# group normalization (optional per-task layer)
# ---------------------------------------------------------------------------

def group_norm(x, scale, shift, eps: float = 1e-5):
    """Normalize [N,C,H,W] per sample over all channels (one group), then
    a per-channel affine."""
    x = _as_array(x)
    g, b = _as_array(scale), _as_array(shift)
    n, c, h, w = x.shape
    if g.shape != (c,) or b.shape != (c,):
        raise ShapeError(f"affine params must be shape ({c},)")
    xg = x.reshape(n, 1, -1)
    mean = xg.mean(axis=2, keepdims=True)
    var = xg.var(axis=2, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = ((xg - mean) * inv).reshape(n, c, h, w)
    out = xhat * g[None, :, None, None] + b[None, :, None, None]
    return out, (xhat, inv, g, (n, c, h, w))


def group_norm_backward(dout: np.ndarray, cache):
    xhat, inv, g, shape = cache
    n, c, h, w = shape
    dshift = dout.sum(axis=(0, 2, 3))
    dscale = (dout * xhat).sum(axis=(0, 2, 3))
    dxhat = (dout * g[None, :, None, None]).reshape(n, 1, -1)
    xh = xhat.reshape(n, 1, -1)
    dxg = inv * (dxhat - dxhat.mean(axis=2, keepdims=True)
                 - xh * (dxhat * xh).mean(axis=2, keepdims=True))
    return dxg.reshape(n, c, h, w), dscale, dshift


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def sgd_step(param: np.ndarray, grad: np.ndarray, lr: float, momentum: float,
             velocity: np.ndarray, keep: np.ndarray | None = None) -> None:
    """v <- momentum*v + grad; param <- param - lr*v  (both updated in place).

    With a bool ``keep``, v is zeroed outside ``keep`` before param moves, so
    those entries stay bit-identical and carry no velocity into a later step:
    an entry that stops or starts being trainable needs no velocity reset.
    """
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ShapeError(
            f"param {param.shape}, grad {grad.shape}, velocity {velocity.shape} disagree"
        )
    if keep is not None and (keep.shape != param.shape or keep.dtype != bool):
        raise ShapeError(f"keep must be a bool array of shape {param.shape}, "
                         f"got {keep.dtype} {keep.shape}")
    velocity *= momentum
    velocity += grad
    if keep is not None:
        velocity[~keep] = 0.0
    param -= lr * velocity


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def finite_diff_check(fn: Callable[[np.ndarray], tuple[float, np.ndarray]],
                      point: np.ndarray, eps: float = 1e-5) -> float:
    """Central differences vs the analytic gradient returned by ``fn``.

    ``fn(point)`` must return ``(scalar value, gradient wrt point)``.  The
    relative error per coordinate is |analytic - numeric| / max(|numeric|,
    1e-8); a coordinate where both are below 1e-10 in absolute terms counts
    as exact.  Returns the worst relative error over all coordinates.
    """
    point = np.asarray(point, dtype=np.float64)
    _, analytic = fn(point)
    analytic = np.asarray(analytic, dtype=np.float64)
    if analytic.shape != point.shape:
        raise ShapeError(f"gradient shape {analytic.shape} != point shape {point.shape}")
    worst = 0.0
    it = np.nditer(point, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        saved = point[idx]
        point[idx] = saved + eps
        up, _ = fn(point)
        point[idx] = saved - eps
        dn, _ = fn(point)
        point[idx] = saved
        numeric = (up - dn) / (2.0 * eps)
        diff = abs(float(analytic[idx]) - numeric)
        if diff < 1e-10:
            continue
        worst = max(worst, diff / max(abs(numeric), 1e-8))
    return worst
