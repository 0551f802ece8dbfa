"""Channel-slot state machine, filter initialization, task finalization,
growth-cap enforcement, and per-task size accounting.

Transition table applied by ``query_and_transition`` (bit = queried mask
value for the slot; FIXED slots must never be queried):

    UNGROWN        + 1 -> GROWN_TRAINING   (fresh random filter)
    GROWN_TRAINING + 0 -> DETACHED         (weights retained)
    DETACHED       + 1 -> GROWN_TRAINING   (original weights restored)
    anything else      -> unchanged        (PRUNED stays pruned)

At task end, ``finalize_task`` gives the task every RELEASED kernel (it
retrained them), turns DETACHED into PRUNED (weights dropped) and
GROWN_TRAINING into FIXED(owner); a newly fixed slot's kernels get the task
as owner where its claim bit is 1 and owner 0 (RELEASED) where it is 0.  It
is the only code that hands out kernel ownership.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backbone import BackboneState, ConvLayerSpec, KernelState, LayerState, SlotState
from .rng import SeededRng


class ContractViolation(RuntimeError):
    """A caller broke an interface precondition (e.g. queried a FIXED slot)."""


class GrowthCapError(RuntimeError):
    """The growth cap cannot be met even after detaching all current growth."""


def grow_filter(spec: ConvLayerSpec, rng: SeededRng) -> np.ndarray:
    """Fresh filter [Cin,k,k], uniform in +-sqrt(6/fan_in), fan_in=Cin*k^2."""
    fan_in = spec.in_channels * spec.kernel * spec.kernel
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(spec.in_channels, spec.kernel, spec.kernel))


@dataclass(frozen=True)
class SlotAction:
    layer: str
    index: int
    action: str   # "grow" | "regrow" | "detach" | "prune" | "fix"


def query_and_transition(layer: LayerState, bits: np.ndarray,
                         rng: SeededRng) -> list[SlotAction]:
    """Apply one round of mask-bit queries to a layer's slots.

    ``bits`` holds one {0,1} value per non-FIXED slot and NaN for FIXED
    slots (supplying a bit for a FIXED slot is a contract violation).
    """
    bits = np.asarray(bits, dtype=np.float64)
    if bits.shape != layer.slot_state.shape:
        raise ContractViolation(
            f"{layer.spec.name}: expected one bit per slot "
            f"({layer.slot_state.shape[0]}), got shape {bits.shape}"
        )
    fixed = layer.slot_state == SlotState.FIXED
    if np.any(~np.isnan(bits[fixed])):
        j = int(np.flatnonzero(fixed & ~np.isnan(bits))[0])
        raise ContractViolation(
            f"{layer.spec.name}: mask bit supplied for FIXED slot {j}"
        )
    actions: list[SlotAction] = []
    for j in np.flatnonzero(~fixed):
        bit = bits[j]   # NaN matches no transition below
        state = SlotState(layer.slot_state[j])
        if state == SlotState.UNGROWN and bit == 1.0:
            layer.weights[j] = grow_filter(layer.spec, rng)
            layer.bias[j] = 0.0
            layer.slot_state[j] = SlotState.GROWN_TRAINING
            actions.append(SlotAction(layer.spec.name, int(j), "grow"))
        elif state == SlotState.GROWN_TRAINING and bit == 0.0:
            layer.slot_state[j] = SlotState.DETACHED   # weights stay in place
            actions.append(SlotAction(layer.spec.name, int(j), "detach"))
        elif state == SlotState.DETACHED and bit == 1.0:
            layer.slot_state[j] = SlotState.GROWN_TRAINING
            actions.append(SlotAction(layer.spec.name, int(j), "regrow"))
    return actions


def finalize_task(layer: LayerState, claim_bits: np.ndarray, task_id: int) -> list[SlotAction]:
    """End-of-task cleanup for one layer; the one place kernels change owner.

    Every RELEASED kernel becomes task_id's first: the task retrained it, so
    it is now part of the task's function (``task_view`` relies on no
    RELEASED kernel of an earlier task's channel outliving a finished task).
    Then DETACHED slots become PRUNED (weights discarded) and GROWN_TRAINING
    slots become FIXED(task_id), their kernels owned by task_id where the
    claim bit is 1 and by none (RELEASED) where it is 0.
    """
    claim_bits = np.asarray(claim_bits, dtype=np.float64)
    if claim_bits.shape != layer.kernel_owner.shape:
        raise ContractViolation(
            f"{layer.spec.name}: claim bits must be shape {layer.kernel_owner.shape}"
        )
    layer.kernel_owner[layer.kernel_state == KernelState.RELEASED] = task_id
    actions: list[SlotAction] = []
    for j in np.flatnonzero(layer.slot_state == SlotState.DETACHED):
        layer.weights[j] = 0.0
        layer.bias[j] = 0.0
        layer.slot_state[j] = SlotState.PRUNED
        actions.append(SlotAction(layer.spec.name, int(j), "prune"))
    for j in np.flatnonzero(layer.slot_state == SlotState.GROWN_TRAINING):
        layer.slot_state[j] = SlotState.FIXED
        layer.slot_owner[j] = task_id
        layer.kernel_owner[j] = np.where(claim_bits[j] == 1.0, task_id, 0)
        actions.append(SlotAction(layer.spec.name, int(j), "fix"))
    return actions


def boundary_violation(backbone: BackboneState, last: int) -> str | None:
    """The first way ``backbone`` breaks what ``finalize_task`` leaves after
    task ``last``, as ``layer/array[index] = value: rule``; None if none.

    - every slot is UNGROWN, PRUNED or FIXED;
    - ``slot_owner`` is at least 1 on the FIXED slots and 0 on the rest;
    - a non-FIXED row holds owners 0, and its weight and bias bytes are all
      +0.0;
    - a kernel's owner is 0 (RELEASED, in a FIXED row) or its row's task or
      a later one;
    - no owner is above ``last``.
    """
    for layer in backbone.layers:
        fixed = layer.slot_state == SlotState.FIXED
        row = fixed[:, None]
        owner = layer.kernel_owner
        rules = (
            ("slot_state", ~np.isin(layer.slot_state, (SlotState.UNGROWN, SlotState.PRUNED,
                                                       SlotState.FIXED)),
             "a task boundary holds only UNGROWN, PRUNED or FIXED slots"),
            ("slot_owner", np.where(fixed, layer.slot_owner < 1, layer.slot_owner != 0),
             "a FIXED slot has an owner of at least 1, any other slot owner 0"),
            ("kernel_owner", ~row & (owner != 0), "a row that is not FIXED has owners 0"),
            ("kernel_owner", (owner != 0) & (owner < layer.slot_owner[:, None]),
             "a kernel's owner is 0 or its row's task or a later one"),
            ("slot_owner", layer.slot_owner > last, f"no owner is above the last task {last}"),
            ("kernel_owner", owner > last, f"no owner is above the last task {last}"),
            ("weights", ~row[:, :, None, None] & (layer.weights.view(np.int64) != 0),
             "a row that is not FIXED holds +0.0 weights"),
            ("bias", ~fixed & (layer.bias.view(np.int64) != 0),
             "a row that is not FIXED holds a +0.0 bias"),
        )
        for array, broken, rule in rules:
            if broken.any():
                index = tuple(int(i) for i in np.argwhere(broken)[0])
                value = getattr(layer, array)[index]
                return (f"{layer.spec.name}/{array}[{', '.join(map(str, index))}] "
                        f"= {value}: {rule}")
    return None


def enforce_growth_cap(backbone: BackboneState,
                       grow_logits: dict[str, np.ndarray],
                       cap_ratio: float) -> list[SlotAction]:
    """Detach current-task growth, lowest grow-logit first, until under cap.

    FIXED slots are never touched; if they alone exceed the cap the run
    cannot proceed and a GrowthCapError is raised.
    """
    budget = cap_ratio * backbone.arch.full_params
    fixed_params = backbone.active_params(include_training=False)
    if fixed_params > budget:
        raise GrowthCapError(
            f"fixed weights alone ({fixed_params} params) exceed the growth cap "
            f"({budget:.0f} params = {cap_ratio} of {backbone.arch.full_params})"
        )
    active = backbone.active_params(include_training=True)
    if active <= budget:
        return []
    candidates = []   # (logit, layer_idx, slot_idx, params)
    for li, layer in enumerate(backbone.layers):
        logits = grow_logits[layer.spec.name]
        for j in np.flatnonzero(layer.slot_state == SlotState.GROWN_TRAINING):
            candidates.append((float(logits[j]), li, int(j), layer.spec.params_per_channel))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    actions: list[SlotAction] = []
    for _, li, j, params in candidates:
        if active <= budget:
            break
        layer = backbone.layers[li]
        layer.slot_state[j] = SlotState.DETACHED
        active -= params
        actions.append(SlotAction(layer.spec.name, j, "detach"))
    return actions


# ---------------------------------------------------------------------------
# size accounting
# ---------------------------------------------------------------------------

def ratio_label(ratio: float) -> str:
    """Human form of a size ratio: 0.3 -> '0.3x', 1.0 -> '1x', 0.48 -> '0.48x'."""
    text = f"{ratio:.2f}".rstrip("0").rstrip(".")
    return f"{text}x"


@dataclass
class LedgerRow:
    task_id: int
    active_channels: dict[str, int]
    active_params_per_layer: dict[str, int]
    active_params: int
    growth_ratio: float


@dataclass
class GrowthLedger:
    rows: list[LedgerRow] = field(default_factory=list)

    def record(self, task_id: int, backbone: BackboneState) -> LedgerRow:
        row = LedgerRow(
            task_id=task_id,
            active_channels={
                l.spec.name: int(l.active_channels(include_training=False).sum())
                for l in backbone.layers
            },
            active_params_per_layer={
                l.spec.name: l.active_params(include_training=False)
                for l in backbone.layers
            },
            active_params=backbone.active_params(include_training=False),
            growth_ratio=backbone.growth_ratio(include_training=False),
        )
        if self.rows and row.growth_ratio < self.rows[-1].growth_ratio - 1e-15:
            raise ContractViolation(
                f"growth ratio decreased: task {task_id} has {row.growth_ratio:.6f} "
                f"after {self.rows[-1].growth_ratio:.6f}"
            )
        self.rows.append(row)
        return row

    def to_csv(self) -> str:
        lines = ["task_id,layer,active_channels,active_params,growth_ratio"]
        for row in self.rows:
            for name, channels in row.active_channels.items():
                layer_params = row.active_params_per_layer[name]
                lines.append(
                    f"{row.task_id},{name},{channels},{layer_params},"
                    f"{row.growth_ratio:.6f}"
                )
            lines.append(
                f"{row.task_id},total,{sum(row.active_channels.values())},"
                f"{row.active_params},{row.growth_ratio:.6f}"
            )
        return "\n".join(lines) + "\n"
