"""Channel-slot state machine, filter initialization, task finalization,
growth-cap enforcement, and per-task size accounting.

Transition table applied by ``query_and_transition`` (bit = queried mask
value for the slot; FIXED slots must never be queried):

    UNGROWN        + 1 -> GROWN_TRAINING   (fresh random filter)
    GROWN_TRAINING + 0 -> DETACHED         (weights retained)
    DETACHED       + 1 -> GROWN_TRAINING   (original weights restored)
    anything else      -> unchanged        (PRUNED stays pruned)

At task end, ``finalize_task`` turns DETACHED into PRUNED (weights dropped)
and GROWN_TRAINING into FIXED(owner); kernels of newly fixed slots are
partitioned by the task's claim bits into USED(owner) and RELEASED.
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
        bit = bits[j]
        if np.isnan(bit):
            continue
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
    """End-of-task cleanup for one layer.

    DETACHED slots become PRUNED (weights discarded); GROWN_TRAINING slots
    become FIXED(task_id) and their kernels are tagged USED(task_id) where
    the claim bit is 1 and RELEASED where it is 0.
    """
    claim_bits = np.asarray(claim_bits, dtype=np.float64)
    if claim_bits.shape != layer.kernel_state.shape:
        raise ContractViolation(
            f"{layer.spec.name}: claim bits must be shape {layer.kernel_state.shape}"
        )
    actions: list[SlotAction] = []
    for j in np.flatnonzero(layer.slot_state == SlotState.DETACHED):
        layer.weights[j] = 0.0
        layer.bias[j] = 0.0
        layer.slot_state[j] = SlotState.PRUNED
        actions.append(SlotAction(layer.spec.name, int(j), "prune"))
    for j in np.flatnonzero(layer.slot_state == SlotState.GROWN_TRAINING):
        layer.slot_state[j] = SlotState.FIXED
        layer.slot_owner[j] = task_id
        claimed = claim_bits[j] == 1.0
        layer.kernel_state[j, claimed] = KernelState.USED
        layer.kernel_owner[j, claimed] = task_id
        layer.kernel_state[j, ~claimed] = KernelState.RELEASED
        layer.kernel_owner[j, ~claimed] = 0
        actions.append(SlotAction(layer.spec.name, int(j), "fix"))
    return actions


def claim_released_kernels(layer: LayerState, task_id: int) -> int:
    """Tag every currently RELEASED kernel as USED(task_id); returns count.

    Called at finalize time by a task that retrained the released weights,
    freezing them into that task's function."""
    released = layer.kernel_state == KernelState.RELEASED
    layer.kernel_state[released] = KernelState.USED
    layer.kernel_owner[released] = task_id
    return int(released.sum())


def enforce_growth_cap(backbone: BackboneState,
                       grow_logits: dict[str, np.ndarray],
                       cap_ratio: float) -> list[SlotAction]:
    """Detach current-task growth, lowest grow-logit first, until under cap.

    FIXED slots are never touched; if they alone exceed the cap the run
    cannot proceed and a GrowthCapError is raised.
    """
    if not 0.0 < cap_ratio <= 1.0:
        raise ValueError(f"cap_ratio must be in (0, 1], got {cap_ratio}")
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

def growth_ratio(active_params: int, full_params: int) -> float:
    return active_params / full_params


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
    full_params: int
    rows: list[LedgerRow] = field(default_factory=list)

    def record(self, task_id: int, backbone: BackboneState) -> LedgerRow:
        active = backbone.active_params(include_training=False)
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
            active_params=active,
            growth_ratio=growth_ratio(active, self.full_params),
        )
        if self.rows and row.growth_ratio < self.rows[-1].growth_ratio - 1e-15:
            raise ContractViolation(
                f"growth ratio decreased: task {task_id} has {row.growth_ratio:.6f} "
                f"after {self.rows[-1].growth_ratio:.6f}"
            )
        self.rows.append(row)
        return row

    def ratios(self) -> list[float]:
        return [r.growth_ratio for r in self.rows]

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
