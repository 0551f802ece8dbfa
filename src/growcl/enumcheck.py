"""Exhaustive verification that kernel-level masking can only help.

On micro instances small enough to enumerate completely, the minimum of the
penalized loss over (weights, channel gate, kernel mask) is compared with
the minimum over (weights, channel gate) at kernel mask fixed to all-ones.
The second search space is a subset of the first, so

    min_free <= min_constrained

must hold exactly.  Every entry of the effective weights ``w * g * k`` is a
grid value or 0, so one table holds the data loss of each distinct effective
matrix, at most ``|grid + {0}| ** (co * ci)`` rows.  Both minima are read
from it, so the comparison carries zero numerical tolerance.  The matrices,
the gates and which matrices each branch reaches depend only on the shape
and the grid, so ``_grid_tables`` builds them once per grid, read-only; an
instance computes only its data losses, penalties and the two minima.
Strict inequality on some instances shows the kernel mask buys real
freedom; grids that exclude the value 0 model trained weights (which are
never exactly zero), and those are where strict gaps appear.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .rng import SeededRng


@dataclass(frozen=True)
class MicroInstance:
    """A fully enumerable one-layer classification problem (1x1 kernels).

    ``random_instance`` builds every one: 2x2 channels, 5-8 points, labels
    0/1 and at most 5 grid values, so at most 625 distinct effective weight
    matrices."""

    instance_id: int
    out_channels: int                 # also the class count
    in_channels: int
    weight_grid: tuple[float, ...]    # candidate values per weight
    inputs: np.ndarray                # [P, in_channels]
    labels: np.ndarray                # [P] in [0, out_channels)
    lam: float                        # channel-gate sparsity coefficient


# mathematically tied configurations can differ by ~1 ulp through different
# float paths; a gap must clear this floor before it counts as strict
STRICT_GAP_FLOOR = 1e-9


@dataclass
class VerifyResult:
    instance_id: int
    min_free: float
    min_constrained: float
    passed: bool      # exact: min over the superset cannot exceed the subset's
    strict: bool      # gap above STRICT_GAP_FLOOR: masking bought real freedom


@functools.lru_cache(maxsize=16)
def _grid_tables(co: int, ci: int, weight_grid: tuple[float, ...],
                 force_identity_mask: bool):
    """The tables of one shape and grid, which no instance data reaches: the
    effective matrices over ``grid + {0}``, the gates' penalty units, and
    per branch the matrices each gate reaches, gate after gate, with where
    each gate's run starts.  Cached read-only: a sweep draws every instance
    from a handful of grids."""
    values = sorted(set(weight_grid) | {0.0})
    eff = np.array(list(itertools.product(values, repeat=co * ci))).reshape(-1, co, ci)
    gates = np.array(list(itertools.product((0.0, 1.0), repeat=co)))   # [ng, co]
    units = gates.sum(axis=1)                                # [ng]
    on = gates.astype(bool)[None]                            # [1, ng, co]
    zero_rows = (eff == 0.0).all(axis=2)[:, None, :]         # [ne, 1, co]
    grid_rows = np.isin(eff, weight_grid).all(axis=2)[:, None, :]
    constrained = np.where(on, grid_rows, zero_rows).all(axis=2)     # [ne, ng]
    free = constrained if force_identity_mask else (on | zero_rows).all(axis=2)
    tables = [eff, units]
    for reachable in (free, constrained):
        gate, row = np.nonzero(reachable.T)   # gate-major; no gate reaches nothing
        tables += [row, np.searchsorted(gate, np.arange(len(gates)))]
    for table in tables:
        table.flags.writeable = False
    return tuple(tables)


def verify_mask_freedom(instance: MicroInstance,
                        force_identity_mask: bool = False) -> VerifyResult:
    """Check min_free <= min_constrained from one shared enumeration.

    A gate reaches the effective matrices whose off-gate rows are zero; at
    kernel mask all-ones, its on-gate rows hold grid values only.  Adding
    ``lam * |g|`` is monotone, so a branch's minimum over gates of (its
    rows' minimum data loss + penalty) is its minimum penalized loss.  A
    minimum is exact in any order, so reading it per gate from the cached
    row runs gives the bytes a masked minimum over the whole table does.

    ``force_identity_mask`` plants a fault for verifier self-tests: the
    "free" branch is evaluated with the kernel mask pinned to all-ones, so
    strict inequalities disappear and the sweep's suspicious-equality
    diagnostic must fire.
    """
    eff, units, *branches = _grid_tables(
        instance.out_channels, instance.in_channels, instance.weight_grid,
        force_identity_mask)
    logits = np.einsum("eoi,pi->eop", eff, instance.inputs)  # [ne, co, P]
    zmax = logits.max(axis=1, keepdims=True)
    logp = logits - zmax - np.log(np.exp(logits - zmax).sum(axis=1, keepdims=True))
    picked = np.take_along_axis(logp, instance.labels[None, None, :], axis=1)[:, 0, :]
    data_loss = -picked.mean(axis=-1)                        # [ne]
    penalty = instance.lam * units                           # [ng]
    min_free, min_constrained = (
        float((np.minimum.reduceat(data_loss[rows], starts) + penalty).min())
        for rows, starts in (branches[:2], branches[2:]))
    return VerifyResult(
        instance_id=instance.instance_id,
        min_free=min_free,
        min_constrained=min_constrained,
        passed=min_free <= min_constrained,
        strict=min_constrained - min_free > STRICT_GAP_FLOOR,
    )


# ---------------------------------------------------------------------------
# randomized sweep
# ---------------------------------------------------------------------------

_GRIDS_WITH_ZERO = (
    (-1.0, -0.5, 0.0, 0.5, 1.0),
    (-1.0, 0.0, 1.0),
)
_GRIDS_WITHOUT_ZERO = (
    (-1.0, 1.0),
    (-1.0, 0.5),
)


def random_instance(rng: SeededRng, instance_id: int) -> MicroInstance:
    """Draw a random enumerable instance.

    Half the instances use weight grids without 0 (trained weights are never
    exactly zero), which is where kernel masking can strictly win.  Two-class
    softmax only sees logit differences, so equal kernels across the two
    output rows already cancel; strict gaps therefore need a second feature
    that is only partially label-correlated (flipped on a fraction of the
    points), where an intermediate slope reachable only by zeroing one
    kernel is optimal.
    """
    with_zero = bool(rng.integers(0, 2))
    grids = _GRIDS_WITH_ZERO if with_zero else _GRIDS_WITHOUT_ZERO
    grid = grids[int(rng.integers(0, len(grids)))]
    p = int(rng.integers(5, 9))
    labels = rng.integers(0, 2, size=p).astype(np.int64)
    sign = 2.0 * labels - 1.0
    informative = sign * rng.uniform(0.4, 1.0, size=p)
    flip_rate = rng.uniform(0.25, 0.45)
    flips = np.where(rng.random(p) < flip_rate, -1.0, 1.0)
    partial = sign * flips * rng.uniform(0.4, 0.9, size=p)
    inputs = np.round(np.stack([informative, partial], axis=1), 3)
    lam = float(rng.integers(0, 3)) * 0.05
    return MicroInstance(
        instance_id=instance_id,
        out_channels=2,
        in_channels=2,
        weight_grid=grid,
        inputs=inputs,
        labels=labels,
        lam=lam,
    )


@dataclass
class SweepReport:
    results: list[VerifyResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def strict_count(self) -> int:
        return sum(r.strict for r in self.results)

    @property
    def suspicious_equality(self) -> bool:
        # a healthy sweep produces strict gaps on a visible fraction of
        # instances; none at all indicates a broken free branch
        return self.strict_count == 0

    def to_csv(self) -> str:
        lines = ["instance_id,min_free,min_constrained,pass"]
        for r in self.results:
            lines.append(
                f"{r.instance_id},{r.min_free:.12g},{r.min_constrained:.12g},"
                f"{int(r.passed)}"
            )
        return "\n".join(lines) + "\n"


def run_sweep(n_instances: int, seed: int,
              force_identity_mask: bool = False) -> SweepReport:
    rng = SeededRng(seed).substream("enumcheck")
    report = SweepReport()
    for i in range(1, n_instances + 1):
        instance = random_instance(rng.substream(f"instance{i}"), i)
        report.results.append(
            verify_mask_freedom(instance, force_identity_mask=force_identity_mask)
        )
    return report
