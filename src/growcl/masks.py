"""Binary mask machinery: noisy relaxation, straight-through binarization
and the sparsity penalty.  Masks are applied to filter banks by
``backbone.effective_filters``.

Three mask roles share this machinery:

  * grow mask    -- one logit per output channel; its bits drive channel
                    growth and detachment (see growth.py);
  * claim mask   -- one logit per (out, in) kernel of a freshly grown
                    channel; bit 1 claims the kernel for the current task,
                    bit 0 releases it for later tasks;
  * reuse mask   -- one logit per (out, in) kernel of frozen earlier-task
                    channels; bit 1 borrows that kernel for the current task.

A logit m maps to a soft probability through a two-class Gumbel relaxation
of sigmoid(m); forward passes only ever see hard {0,1} bits, while gradients
travel through the relaxed path (straight-through).  Bits are plain float64
arrays shaped like their logits.  Every mode applies all three masks and only
chooses which logits learn (driver.py): ``grow_only`` and scratch models keep
the claim and reuse masks frozen at their keep-all initialization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MaskParam:
    """Real-valued float64 logits of one mask, shaped as its role requires."""

    logits: np.ndarray

    def hard_bits(self) -> np.ndarray:
        """Noise-free binarization: bit 1 where sigmoid(logit) >= 0.5."""
        return binarize_ste(sigmoid(self.logits))


# ---------------------------------------------------------------------------
# noise and relaxation
# ---------------------------------------------------------------------------

_U_LO = 1e-300
_U_HI = np.nextafter(1.0, 0.0)


def gumbel_from_uniform(u) -> np.ndarray:
    """g = -log(-log(u)) for u in the open interval (0,1)."""
    u = np.asarray(u, dtype=np.float64)
    return -np.log(-np.log(u))


def gumbel_noise(rng, shape) -> np.ndarray:
    """Standard Gumbel samples from a SeededRng stream."""
    u = np.clip(np.asarray(rng.random(size=shape), dtype=np.float64), _U_LO, _U_HI)
    return gumbel_from_uniform(u)


def sigmoid(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return -np.logaddexp(0.0, -x)


def gumbel_sigmoid(m_r, g0, g1, temperature: float) -> np.ndarray:
    """Two-class Gumbel relaxation of sigmoid(m_r).

    p = exp((log sigmoid(m_r) + g0)/T) / (same + exp(g1/T)), computed by
    factoring out the larger exponent.  Output is strictly inside (0,1).
    """
    m_r = np.asarray(m_r, dtype=np.float64)
    a = (log_sigmoid(m_r) + g0) / temperature
    b = np.asarray(g1, dtype=np.float64) / temperature
    m = np.maximum(a, b)
    num = np.exp(a - m)
    den = np.exp(b - m)
    p = num / (num + den)
    return np.clip(p, np.finfo(np.float64).tiny, _U_HI)


def gumbel_sigmoid_grad(m_r, g0, g1, temperature: float) -> np.ndarray:
    """d p / d m_r for gumbel_sigmoid at the given noise values."""
    p = gumbel_sigmoid(m_r, g0, g1, temperature)
    return p * (1.0 - p) * sigmoid(-np.asarray(m_r, dtype=np.float64)) / temperature


# ---------------------------------------------------------------------------
# straight-through binarization
# ---------------------------------------------------------------------------

def binarize_ste(p) -> np.ndarray:
    """1.0 where p >= 0.5 else 0.0 (ties round up)."""
    p = np.asarray(p, dtype=np.float64)
    return np.where(p >= 0.5, 1.0, 0.0)


def ste_logit_grad(dbits, logits, g0, g1, temperature: float) -> np.ndarray:
    """Route a gradient w.r.t. hard bits back to the logits.

    Chains the straight-through identity (bits -> p) with the relaxed
    derivative dp/dlogit evaluated at the given Gumbel noise.
    """
    return np.asarray(dbits, dtype=np.float64) * gumbel_sigmoid_grad(
        logits, g0, g1, temperature)


# ---------------------------------------------------------------------------
# sparsity penalty
# ---------------------------------------------------------------------------

def l0_penalty(bits: np.ndarray, logits: np.ndarray,
               lam: float) -> tuple[float, np.ndarray]:
    """lam * (number of 1-bits), with a relaxed gradient surrogate.

    The value is the exact count; the surrogate gradient is the derivative
    of the relaxed count lam * sum(sigmoid(logits)), i.e. lam * sigmoid'(l)
    per logit, so shrinking pressure reaches every logit regardless of its
    current bit.
    """
    bits = np.asarray(bits, dtype=np.float64)
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != bits.shape:
        raise ValueError(f"logits shape {logits.shape} != bits shape {bits.shape}")
    value = float(lam * bits.sum())
    s = sigmoid(logits)
    dlogits = lam * s * (1.0 - s)
    return value, dlogits
