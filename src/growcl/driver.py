"""Task-sequence execution: one trainer, one sequence runner.

``TaskTrainer`` is the only training loop: ``train_phase`` runs epochs of
``train_step``.  Every task applies the same masks (reuse bits on frozen used
kernels, 1 on released kernels, claim bits on growing channels); a mode only
chooses which mask logits learn.  ``run_pipeline`` runs every mode.  ``grown``
and ``grow_only`` learn the task sequence on one shared backbone:

  * ``grown``: task 1 sparse-grows a seed backbone.  Each later task first
    runs a pick-and-reuse phase (learn a kernel-reuse mask over frozen
    weights and retrain released kernels, jointly with a fresh head); if its
    validation accuracy misses the task's target, an expansion phase grows
    new channels under the channel gate + kernel claim masks with the
    sparsity penalty.
  * ``grow_only``: every task grows with the channel gate only on the frozen
    backbone; its reuse and claim masks stay frozen at keep-all, so it never
    releases a kernel.

Finalization freezes everything the task's function depends on, writes a
snapshot whose probe fingerprint pins the task's logits byte-for-byte, and
the forgetting check re-verifies every earlier fingerprint at every task
boundary.  ``scratch`` trains an independent full-capacity model per task
with the same trainer: a fresh backbone whose slots all train, with the
keep-all reuse and claim masks of ``grow_only`` and growth switched off.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .backbone import (
    BackboneState,
    KernelState,
    SlotState,
    TaskView,
    backward_pass,
    forward_pass,
)
from .config import RunConfig
from .data import Task, TaskSequence, load_group_file, load_idx, split_by_class, synth_tasks
from .growth import (
    ContractViolation,
    GrowthLedger,
    claim_released_kernels,
    enforce_growth_cap,
    finalize_task,
    query_and_transition,
)
from .masks import (
    MaskParam,
    binarize_ste,
    gumbel_noise,
    gumbel_sigmoid,
    l0_penalty,
    ste_logit_grad,
)
from .ops import cross_entropy, sgd_step
from .rng import SeededRng

PROBE_SIZE = 64
EVAL_BATCH = 256

# Mask logits get larger steps than weights: straight-through gradients are
# damped by p(1-p)*sigmoid(-m)/T, and gate decisions must settle within a
# phase (tens of epochs), not across hundreds.  Selection logits (reuse and
# claim masks) start at a good default (+1, keep everything) and only need
# refinement, so they move slower than channel-gate logits.
GATE_LR_SCALE = 20.0
SELECT_LR_SCALE = 2.0

# Claim and reuse logits start at +1: keep-biased, so a kernel is only
# released or dropped when gradients actively argue against it.
CLAIM_INIT = 1.0

# At most this many UNGROWN slots per layer are tried per epoch query, and
# only while validation accuracy is still below the task's target.  Slots a
# task tries and then drops are pruned for good at finalize, so unbounded
# exploration would exhaust the slot pool within one task.
EXPLORE_PER_EPOCH = 1


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    task: Task
    target_accuracy: float
    growth_cap: float

    def __post_init__(self):
        if not 0.0 < self.target_accuracy <= 1.0:
            raise ValueError(f"target accuracy {self.target_accuracy} outside (0, 1]")
        if not 0.0 < self.growth_cap <= 1.0:
            raise ValueError(f"growth cap {self.growth_cap} outside (0, 1]")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TaskSnapshot:
    """Everything needed to reproduce one task's inference bit-exactly,
    given the shared backbone.

    The frozen bits are what inference uses; the raw mask logits ride along
    for post-hoc analysis (they never affect evaluation)."""

    task_id: int
    n_classes: int
    reuse_bits: dict[str, np.ndarray] | None
    claim_bits: dict[str, np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray
    norm_scale: dict[str, np.ndarray] | None
    norm_shift: dict[str, np.ndarray] | None
    probe_images: np.ndarray
    probe_fingerprint: str
    reuse_logits: dict[str, np.ndarray] | None = None
    claim_logits: dict[str, np.ndarray] | None = None


@dataclass
class GateLogEntry:
    task_id: int
    pick_accuracy: float
    target_accuracy: float
    expanded: bool


@dataclass
class EpochLogEntry:
    task_id: int
    phase: str
    epoch: int
    loss: float
    val_accuracy: float
    growth_ratio: float


# ---------------------------------------------------------------------------
# view construction
# ---------------------------------------------------------------------------

def build_eval_view(backbone: BackboneState, snapshot: TaskSnapshot) -> TaskView:
    """The frozen sub-network of a finished task.

    Multiplier rules per kernel (j, i) in channels FIXED with owner <= t:
    USED by an earlier task -> that task's stored reuse bit; USED by task t
    itself (own claims and retrained released kernels) -> 1; USED by a later
    task or still RELEASED -> 0 (those were releases of t's own growth,
    which t's training already multiplied by 0).
    """
    t = snapshot.task_id
    multipliers: dict[str, np.ndarray] = {}
    channel_on: dict[str, np.ndarray] = {}
    for layer in backbone.layers:
        name = layer.spec.name
        on = (layer.slot_state == SlotState.FIXED) & (layer.slot_owner <= t)
        mult = np.zeros_like(layer.kernel_state, dtype=np.float64)
        rows = on[:, None]
        used = layer.kernel_state == KernelState.USED
        own = rows & used & (layer.kernel_owner == t)
        old = rows & used & (layer.kernel_owner < t)
        mult[own] = 1.0
        if snapshot.reuse_bits is None:
            mult[old] = 1.0
        else:
            mult[old] = snapshot.reuse_bits[name][old]
        multipliers[name] = mult
        channel_on[name] = on
    return TaskView(
        multipliers=multipliers,
        channel_on=channel_on,
        head_weight=snapshot.head_weight,
        head_bias=snapshot.head_bias,
        norm_scale=snapshot.norm_scale,
        norm_shift=snapshot.norm_shift,
    )


@dataclass
class TrainView:
    view: TaskView
    used_old: dict[str, np.ndarray]        # bool [oc, ic]: frozen reusable kernels
    training_rows: dict[str, np.ndarray]   # bool [oc]: this task's growing channels
    trainable_kernels: dict[str, np.ndarray]   # bool [oc, ic]


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

def _masked_momentum_step(param: np.ndarray, grad: np.ndarray, keep: np.ndarray,
                          lr: float, momentum: float, velocity: np.ndarray) -> None:
    """Momentum SGD on the ``keep`` entries only.  The velocity is zeroed
    outside ``keep`` before the parameter moves, so those entries stay
    bit-identical even when they were trainable in an earlier step."""
    velocity *= momentum
    velocity += grad
    velocity[~keep] = 0.0
    param -= lr * velocity


class TaskTrainer:
    """Owns one task's trainable state across its phases (grow, or pick then
    expand); a scratch model is one more such task on its own backbone.

    Forward passes always see hard {0,1} bits derived from the current
    logits; gradients reach the logits through the straight-through
    estimator with fresh Gumbel noise on the relaxed path each step.

    ``kernel_masks`` chooses whether the reuse and claim logits learn and
    ride in the snapshot; without it (``grow_only`` and scratch models) they
    stay at their keep-all +1 start.  Gate logits learn in grow phases.
    """

    def __init__(self, backbone: BackboneState, spec: TaskSpec, config: RunConfig,
                 kernel_masks: bool, root_rng: SeededRng,
                 streams: dict[str, SeededRng] | None = None):
        """Random streams are ``task{t}/<name>`` under ``root_rng``;
        ``streams`` replaces some of them by name (a scratch model brings its
        own ``init``, which has already drawn its conv weights, and
        ``batches``)."""
        self.backbone = backbone
        self.spec = spec
        self.task = spec.task
        self.config = config
        self.kernel_masks = kernel_masks
        t = spec.task_id
        named = {name: root_rng.substream(f"task{t}/{name}")
                 for name in ("gumbel", "growth", "batches", "init")}
        named.update(streams or {})
        self.gumbel = named["gumbel"]
        self.growth = named["growth"]
        self.batches = named["batches"]
        init = named["init"]

        self.grow_masks: dict[str, MaskParam] = {}
        self.claim_masks: dict[str, MaskParam] = {}
        self.reuse_masks: dict[str, MaskParam] = {}
        self.w_vel: dict[str, np.ndarray] = {}
        self.b_vel: dict[str, np.ndarray] = {}
        self.logit_vel: dict[str, np.ndarray] = {}
        for layer in backbone.layers:
            name = layer.spec.name
            grow_logits = np.full(layer.spec.out_channels, -1.0)
            grow_logits[layer.slot_state == SlotState.GROWN_TRAINING] = 1.0
            kernels = (layer.spec.out_channels, layer.spec.in_channels)
            self.grow_masks[name] = MaskParam(grow_logits)
            self.claim_masks[name] = MaskParam(np.full(kernels, CLAIM_INIT))
            self.reuse_masks[name] = MaskParam(np.full(kernels, CLAIM_INIT))
            self.w_vel[name] = np.zeros_like(layer.weights)
            self.b_vel[name] = np.zeros_like(layer.bias)
            self.logit_vel[f"{name}/grow"] = np.zeros_like(grow_logits)
            self.logit_vel[f"{name}/claim"] = np.zeros_like(self.claim_masks[name].logits)
            self.logit_vel[f"{name}/reuse"] = np.zeros_like(self.reuse_masks[name].logits)

        d = backbone.arch.feature_dim
        k = self.task.n_classes
        self.head_weight = init.uniform(-np.sqrt(6.0 / d), np.sqrt(6.0 / d), size=(k, d))
        self.head_bias = np.zeros(k)
        self.head_w_vel = np.zeros_like(self.head_weight)
        self.head_b_vel = np.zeros_like(self.head_bias)

        self.norm_scale = self.norm_shift = None
        self.norm_vel = {}
        if backbone.arch.group_norm:
            self.norm_scale = {l.spec.name: np.ones(l.spec.out_channels) for l in backbone.layers}
            self.norm_shift = {l.spec.name: np.zeros(l.spec.out_channels) for l in backbone.layers}
            self.norm_vel = {f"{l.spec.name}/{p}": np.zeros(l.spec.out_channels)
                             for l in backbone.layers for p in ("scale", "shift")}

        self.lam_eff = config.lambda_l0
        self.gate_lr = config.learning_rate * GATE_LR_SCALE
        self.select_lr = config.learning_rate * SELECT_LR_SCALE
        self.grow_phase = False

    # -- view -------------------------------------------------------------

    def build_train_view(self) -> TrainView:
        multipliers, channel_on = {}, {}
        used_old, training_rows, trainable_kernels = {}, {}, {}
        for layer in self.backbone.layers:
            name = layer.spec.name
            fixed = layer.slot_state == SlotState.FIXED
            training = layer.slot_state == SlotState.GROWN_TRAINING
            used = (layer.kernel_state == KernelState.USED) & fixed[:, None]
            released = (layer.kernel_state == KernelState.RELEASED) & fixed[:, None]
            rows = np.broadcast_to(training[:, None], used.shape)
            mult = np.zeros_like(layer.kernel_state, dtype=np.float64)
            mult[used] = self.reuse_masks[name].hard_bits()[used]
            mult[released] = 1.0
            mult[rows] = self.claim_masks[name].hard_bits()[rows]
            multipliers[name] = mult
            channel_on[name] = fixed | training
            used_old[name] = used
            training_rows[name] = training
            trainable_kernels[name] = rows | released
        view = TaskView(
            multipliers=multipliers,
            channel_on=channel_on,
            head_weight=self.head_weight,
            head_bias=self.head_bias,
            norm_scale=self.norm_scale,
            norm_shift=self.norm_shift,
        )
        return TrainView(view, used_old, training_rows, trainable_kernels)

    # -- growth queries -----------------------------------------------------

    def _reset_slot_velocity(self, layer_name: str, index: int) -> None:
        self.w_vel[layer_name][index] = 0.0
        self.b_vel[layer_name][index] = 0.0

    def query_epoch(self, temperature: float, need_growth: bool) -> None:
        """Start-of-epoch mask query + transitions + cap enforcement.

        Slots currently in the model (GROWN_TRAINING) are kept or detached
        by their learned gate bit (logit >= 0), so retention is never a coin
        flip.  Exploration is what the noisy sampled bit drives: DETACHED
        slots may be re-tried any time, while UNGROWN slots are tried (at
        most EXPLORE_PER_EPOCH per layer) only while the task still needs
        growth -- once the target accuracy is met, no new channel is ever
        materialized.  A slot grown for the first time starts its gate logit
        at +1: trying a channel is a commitment it must then defend against
        the sparsity pressure and the data gradient.
        """
        for layer in self.backbone.layers:
            name = layer.spec.name
            logits = self.grow_masks[name].logits
            n = layer.spec.out_channels
            g0 = gumbel_noise(self.gumbel, (n,))
            g1 = gumbel_noise(self.gumbel, (n,))
            noisy_bits = binarize_ste(gumbel_sigmoid(logits, g0, g1, temperature))
            hard_bits = self.grow_masks[name].hard_bits()
            active = layer.slot_state == SlotState.GROWN_TRAINING
            ungrown = layer.slot_state == SlotState.UNGROWN
            bits = np.where(active, hard_bits, noisy_bits)
            if need_growth:
                tries = np.flatnonzero(ungrown & (bits == 1.0))
                bits[tries[EXPLORE_PER_EPOCH:]] = 0.0
            else:
                bits[ungrown] = 0.0
            bits[layer.slot_state == SlotState.FIXED] = np.nan
            for action in query_and_transition(layer, bits, self.growth):
                self._reset_slot_velocity(name, action.index)
                if action.action == "grow":
                    logits[action.index] = 1.0
        self._enforce_cap()

    def _enforce_cap(self) -> None:
        logits = {name: m.logits for name, m in self.grow_masks.items()}
        for action in enforce_growth_cap(self.backbone, logits, self.spec.growth_cap):
            self._reset_slot_velocity(action.layer, action.index)

    # -- one optimization step ---------------------------------------------

    def _relaxed_grad(self, mask: MaskParam, d_bits: np.ndarray,
                      temperature: float) -> np.ndarray:
        """Straight-through logit gradient at fresh Gumbel noise.

        The surrogate is temperature-normalized (T * dp/dlogit) so that
        annealing T sharpens the relaxation and settles the masks instead of
        amplifying their updates 1/T-fold."""
        g0 = gumbel_noise(self.gumbel, mask.logits.shape)
        g1 = gumbel_noise(self.gumbel, mask.logits.shape)
        return temperature * ste_logit_grad(d_bits, mask.logits, g0, g1, temperature)

    def train_step(self, images: np.ndarray, labels: np.ndarray,
                   temperature: float) -> float:
        lr, momentum = self.config.learning_rate, self.config.momentum
        tv = self.build_train_view()
        logits, cache = forward_pass(self.backbone, tv.view, images, want_cache=True)
        loss, dlogits = cross_entropy(logits, labels)
        grads = backward_pass(self.backbone, tv.view, cache, dlogits)
        learns_masks = self.kernel_masks or self.grow_phase

        penalty_value = 0.0
        for layer in self.backbone.layers:
            name = layer.spec.name
            mult = tv.view.multipliers[name]
            d_eff = grads.d_eff_weights[name]
            rows = tv.training_rows[name]
            if learns_masks:   # sensitivity to each kernel's bit, before weights move
                d_mult = (d_eff * layer.weights).sum(axis=(2, 3))

            # weights: only this task's growing rows and released kernels move
            trainable = np.broadcast_to(
                tv.trainable_kernels[name][:, :, None, None], layer.weights.shape
            )
            _masked_momentum_step(layer.weights, d_eff * mult[:, :, None, None],
                                  trainable, lr, momentum, self.w_vel[name])
            _masked_momentum_step(layer.bias, grads.d_bias[name], rows,
                                  lr, momentum, self.b_vel[name])

            # per-task normalization affine
            if self.norm_scale is not None:
                sgd_step(self.norm_scale[name], grads.d_norm_scale[name],
                         lr, momentum, self.norm_vel[f"{name}/scale"])
                sgd_step(self.norm_shift[name], grads.d_norm_shift[name],
                         lr, momentum, self.norm_vel[f"{name}/shift"])

            if self.kernel_masks:
                # reuse-mask logits (frozen used kernels of earlier tasks)
                used = tv.used_old[name]
                reuse = self.reuse_masks[name]
                d_logits = self._relaxed_grad(reuse, np.where(used, d_mult, 0.0),
                                              temperature)
                _masked_momentum_step(reuse.logits, d_logits, used, self.select_lr,
                                      momentum, self.logit_vel[f"{name}/reuse"])

                # claim-mask logits (kernels of this task's growing channels)
                claim = self.claim_masks[name]
                row_grid = np.broadcast_to(rows[:, None], claim.logits.shape)
                d_logits = self._relaxed_grad(claim, np.where(row_grid, d_mult, 0.0),
                                              temperature)
                _masked_momentum_step(claim.logits, d_logits, row_grid, self.select_lr,
                                      momentum, self.logit_vel[f"{name}/claim"])

            # channel-gate logits: data sensitivity plus the sparsity surrogate
            if self.grow_phase:
                grow = self.grow_masks[name]
                d_gate = (d_mult * np.where(rows[:, None], mult, 0.0)).sum(axis=1)
                queryable = (layer.slot_state != SlotState.FIXED) & \
                            (layer.slot_state != SlotState.PRUNED)
                gate_bits = np.where(queryable, grow.hard_bits(), 0.0)
                value, d_l0 = l0_penalty(gate_bits, grow.logits, self.lam_eff)
                penalty_value += value
                d_logits = self._relaxed_grad(grow, d_gate, temperature) + d_l0
                _masked_momentum_step(grow.logits, d_logits, queryable, self.gate_lr,
                                      momentum, self.logit_vel[f"{name}/grow"])

        sgd_step(self.head_weight, grads.d_head_weight, lr, momentum, self.head_w_vel)
        sgd_step(self.head_bias, grads.d_head_bias, lr, momentum, self.head_b_vel)
        return loss + penalty_value

    # -- phases --------------------------------------------------------------

    def temperature(self, epoch: int, total: int) -> float:
        if total <= 1:
            return self.config.temp_end
        frac = epoch / (total - 1)
        return self.config.temp_start + (self.config.temp_end - self.config.temp_start) * frac

    def validation_accuracy(self) -> float:
        tv = self.build_train_view()
        return _dataset_accuracy(self.backbone, tv.view, self.task.val)

    def train_phase(self, phase: str, n_epochs: int, grow: bool,
                    epoch_log: list[EpochLogEntry]) -> None:
        self.grow_phase = grow
        train = self.task.train
        n = len(train)
        bs = self.config.batch_size
        val_acc = None
        for epoch in range(n_epochs):
            temp = self.temperature(epoch, n_epochs)
            if grow:
                if val_acc is None:
                    val_acc = self.validation_accuracy()
                self.query_epoch(temp, need_growth=val_acc < self.spec.target_accuracy)
            order = self.batches.permutation(n)
            losses = []
            for start in range(0, n, bs):
                idx = order[start:start + bs]
                losses.append(self.train_step(train.images[idx], train.labels[idx], temp))
            loss = float(np.mean(losses))
            self._check_finite(loss, f"task {self.spec.task_id}, {phase} epoch {epoch}")
            val_acc = self.validation_accuracy()
            epoch_log.append(EpochLogEntry(
                task_id=self.spec.task_id,
                phase=phase,
                epoch=epoch,
                loss=loss,
                val_accuracy=val_acc,
                growth_ratio=self.backbone.growth_ratio(include_training=True),
            ))
        self.grow_phase = False

    def _check_finite(self, loss: float, where: str) -> None:
        """Raise FloatingPointError when the epoch loss or any array this
        trainer updates holds a NaN or infinity, before it can be snapshot."""
        arrays = {"head weight": self.head_weight, "head bias": self.head_bias}
        for layer in self.backbone.layers:
            name = layer.spec.name
            arrays[f"{name} weights"] = layer.weights
            arrays[f"{name} bias"] = layer.bias
            for role, masks in (("grow", self.grow_masks), ("claim", self.claim_masks),
                                ("reuse", self.reuse_masks)):
                arrays[f"{name} {role} logits"] = masks[name].logits
            if self.norm_scale is not None:
                arrays[f"{name} norm scale"] = self.norm_scale[name]
                arrays[f"{name} norm shift"] = self.norm_shift[name]
        arrays["loss"] = np.array(loss)   # last, so a bad parameter is named first
        for what, values in arrays.items():
            if not np.all(np.isfinite(values)):
                raise FloatingPointError(f"non-finite {what} ({where})")

    # -- finalization ---------------------------------------------------------

    def finalize(self) -> TaskSnapshot:
        """Freeze exactly the network the task last trained with.

        No query runs here: the active set is the one the head has adapted
        to, so fixing it cannot ablate features the task depends on.
        """
        t = self.spec.task_id
        self._enforce_cap()   # no-op unless a caller skipped the epoch queries
        claim_bits: dict[str, np.ndarray] = {}
        for layer in self.backbone.layers:
            name = layer.spec.name
            claim_released_kernels(layer, t)
            claim_bits[name] = self.claim_masks[name].hard_bits()
            finalize_task(layer, claim_bits[name], t)
        reuse_bits = reuse_logits = claim_logits = None
        if self.kernel_masks:
            reuse_bits = {n: _frozen(m.hard_bits()) for n, m in self.reuse_masks.items()}
            reuse_logits = {n: _frozen(m.logits) for n, m in self.reuse_masks.items()}
            claim_logits = {n: _frozen(m.logits) for n, m in self.claim_masks.items()}
        probe = _frozen(self.task.val.images[:PROBE_SIZE])
        snapshot = TaskSnapshot(
            task_id=t,
            n_classes=self.task.n_classes,
            reuse_bits=reuse_bits,
            claim_bits={name: _frozen(bits) for name, bits in claim_bits.items()},
            reuse_logits=reuse_logits,
            claim_logits=claim_logits,
            head_weight=_frozen(self.head_weight),
            head_bias=_frozen(self.head_bias),
            norm_scale=(None if self.norm_scale is None
                        else {n: _frozen(v) for n, v in self.norm_scale.items()}),
            norm_shift=(None if self.norm_shift is None
                        else {n: _frozen(v) for n, v in self.norm_shift.items()}),
            probe_images=probe,
            probe_fingerprint="",
        )
        fingerprint = probe_fingerprint(self.backbone, snapshot)
        object.__setattr__(snapshot, "probe_fingerprint", fingerprint)
        return snapshot


# ---------------------------------------------------------------------------
# evaluation / forgetting
# ---------------------------------------------------------------------------

def _batched_logits(backbone: BackboneState, view: TaskView, images: np.ndarray) -> np.ndarray:
    outs = [
        forward_pass(backbone, view, images[s:s + EVAL_BATCH])
        for s in range(0, len(images), EVAL_BATCH)
    ]
    return np.concatenate(outs, axis=0)


def _dataset_accuracy(backbone: BackboneState, view: TaskView, dataset) -> float:
    logits = _batched_logits(backbone, view, dataset.images)
    return float((logits.argmax(axis=1) == dataset.labels).mean())


def evaluate(task_id: int, backbone: BackboneState, snapshot: TaskSnapshot | None,
             dataset) -> float:
    """Deterministic accuracy of a finished task's frozen sub-network."""
    if snapshot is None:
        raise KeyError(f"no snapshot for task {task_id}")
    if snapshot.task_id != task_id:
        raise KeyError(f"snapshot belongs to task {snapshot.task_id}, not {task_id}")
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    view = build_eval_view(backbone, snapshot)
    return _dataset_accuracy(backbone, view, dataset)


def probe_fingerprint(backbone: BackboneState, snapshot: TaskSnapshot) -> str:
    """sha256 over the task's probe-batch logit bytes."""
    view = build_eval_view(backbone, snapshot)
    logits = _batched_logits(backbone, view, snapshot.probe_images)
    return hashlib.sha256(logits.tobytes()).hexdigest()


def forgetting_check(snapshots: dict[int, TaskSnapshot],
                     backbone: BackboneState) -> dict[int, bool]:
    """Recompute each task's probe logits; pass iff bitwise-equal to stored."""
    return {
        t: probe_fingerprint(backbone, snap) == snap.probe_fingerprint
        for t, snap in sorted(snapshots.items())
    }


# ---------------------------------------------------------------------------
# scratch training (independent full-capacity model per task)
# ---------------------------------------------------------------------------

@dataclass
class ScratchOutcome:
    task_id: int
    val_accuracy: float
    test_accuracy: float
    epoch_log: list[EpochLogEntry]


def train_scratch_model(task: Task, config: RunConfig, seed: int) -> ScratchOutcome:
    """Train one full-capacity model on one task (keep-all masks, no growth).

    The model is a fresh backbone whose every slot trains, run by
    ``TaskTrainer`` without kernel masks and with growth off.  All streams
    derive from the task id, so the outcome is independent of the task's
    position in any sequence.
    """
    rng = SeededRng(seed).substream(f"scratch/task{task.task_id}")
    init = rng.substream("init")
    backbone = BackboneState(config.arch)
    for layer in backbone.layers:
        bound = np.sqrt(6.0 / (layer.spec.in_channels * layer.spec.kernel ** 2))
        layer.weights[:] = init.uniform(-bound, bound, size=layer.weights.shape)
        layer.slot_state[:] = SlotState.GROWN_TRAINING
    spec = TaskSpec(task.task_id, task, target_accuracy=1.0, growth_cap=1.0)
    trainer = TaskTrainer(backbone, spec, config, False, rng,
                          streams={"init": init, "batches": rng.substream("batches")})
    epoch_log: list[EpochLogEntry] = []
    trainer.train_phase("scratch", config.epochs["scratch"], grow=False,
                        epoch_log=epoch_log)
    return ScratchOutcome(
        task_id=task.task_id,
        val_accuracy=epoch_log[-1].val_accuracy,
        test_accuracy=_dataset_accuracy(backbone, trainer.build_train_view().view,
                                        task.test),
        epoch_log=epoch_log,
    )


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    mode: str
    config: RunConfig
    backbone: BackboneState | None = None
    ledger: GrowthLedger | None = None
    targets: dict[int, float] = field(default_factory=dict)
    snapshots: dict[int, TaskSnapshot] = field(default_factory=dict)
    test_accuracies: dict[int, float] = field(default_factory=dict)
    val_accuracies: dict[int, float] = field(default_factory=dict)
    ratios: dict[int, float] = field(default_factory=dict)
    gate_log: list[GateLogEntry] = field(default_factory=list)
    epoch_log: list[EpochLogEntry] = field(default_factory=list)
    forgetting_log: list[dict] = field(default_factory=list)

    @property
    def task_ids(self) -> list[int]:
        return sorted(self.test_accuracies)

    @property
    def avg_accuracy(self) -> float:
        return float(np.mean([self.test_accuracies[t] for t in self.task_ids]))

    @property
    def run_id(self) -> str:
        return f"{self.mode}-seed{self.config.seed}-{self.config.digest[:8]}"


def build_tasks(config: RunConfig) -> TaskSequence:
    rng = SeededRng(config.seed).substream("data")
    src = config.task_source
    if src["source"] == "synthetic":
        return synth_tasks(
            rng,
            n_tasks=src["n_tasks"],
            classes_per_task=src["classes_per_task"],
            samples_per_class=src["samples_per_class"],
            image_size=src["image_size"],
            difficulty=src["difficulty"],
        )
    dataset = load_idx(src["images"], src["labels"])
    groups = load_group_file(src["groups"])
    return split_by_class(dataset, groups, rng)


def resolve_targets(tasks: TaskSequence, config: RunConfig) -> dict[int, float]:
    """Explicit targets from config, else scratch accuracy minus the slack."""
    if config.target_accuracy is not None:
        values = config.target_accuracy
        if len(values) == 1:
            values = values * len(tasks)
        if len(values) != len(tasks):
            raise ValueError(
                f"{len(values)} target accuracies for {len(tasks)} tasks"
            )
        return {task.task_id: values[i] for i, task in enumerate(tasks)}
    targets = {}
    for task in tasks:
        outcome = train_scratch_model(task, config, config.seed)
        targets[task.task_id] = max(1e-6, outcome.val_accuracy - config.target_slack)
    return targets


def _check_boundary(result: RunResult, digests_before: dict, after_task: int) -> dict:
    digests_now = result.backbone.protected_digests()
    for key, value in digests_before.items():
        if digests_now.get(key) != value:
            raise ContractViolation(
                f"protected weight changed after task {after_task}: {key}"
            )
    passes = forgetting_check(result.snapshots, result.backbone)
    result.forgetting_log.append(
        {"after_task": after_task, "passes": {str(t): bool(v) for t, v in passes.items()}}
    )
    if not all(passes.values()):
        failed = [t for t, ok in passes.items() if not ok]
        raise ContractViolation(
            f"forgetting check failed after task {after_task} for tasks {failed}"
        )
    return digests_now


def train_task1(backbone: BackboneState, spec: TaskSpec, config: RunConfig,
                kernel_masks: bool, root: SeededRng,
                epoch_log: list[EpochLogEntry]) -> TaskSnapshot:
    """Sparse-grow the seed backbone on the first task and freeze it."""
    if backbone.active_params(include_training=False) != 0:
        raise ContractViolation("task 1 requires an empty ownership ledger")
    trainer = TaskTrainer(backbone, spec, config, kernel_masks, root)
    trainer.train_phase("grow", config.epochs["task1"], grow=True,
                        epoch_log=epoch_log)
    return trainer.finalize()


def pick_and_reuse(backbone: BackboneState, spec: TaskSpec, config: RunConfig,
                   root: SeededRng,
                   epoch_log: list[EpochLogEntry]) -> tuple[TaskTrainer, float]:
    """Adapt frozen weights to a new task without growing.

    Learns the kernel-reuse mask over earlier tasks' weights, retrains
    released kernels, and trains the task head jointly; returns the trainer
    (for a possible expansion) plus the candidate validation accuracy, which
    is the one the last pick epoch logged.
    """
    if spec.task_id < 2:
        raise ContractViolation("pick_and_reuse applies to tasks 2..T")
    trainer = TaskTrainer(backbone, spec, config, True, root)
    trainer.train_phase("pick", config.epochs["pick"], grow=False,
                        epoch_log=epoch_log)
    return trainer, epoch_log[-1].val_accuracy


def expand_task(trainer: TaskTrainer,
                epoch_log: list[EpochLogEntry]) -> TaskSnapshot:
    """Grow the backbone for a task whose candidate accuracy missed target."""
    trainer.train_phase("expand", trainer.config.epochs["expand"], grow=True,
                        epoch_log=epoch_log)
    return trainer.finalize()


def _grow_seed_channels(backbone: BackboneState, rng: SeededRng) -> None:
    for layer in backbone.layers:
        bits = np.full(layer.spec.out_channels, 0.0)
        bits[: layer.spec.seed_channels] = 1.0
        query_and_transition(layer, bits, rng)


def baseline_scratch(config: RunConfig) -> RunResult:
    """Independent full-capacity model per task; size accumulates per model."""
    tasks = build_tasks(config)
    result = RunResult(mode="scratch", config=config)
    for i, task in enumerate(tasks, start=1):
        outcome = train_scratch_model(task, config, config.seed)
        result.epoch_log.extend(outcome.epoch_log)
        result.val_accuracies[task.task_id] = outcome.val_accuracy
        result.test_accuracies[task.task_id] = outcome.test_accuracy
        result.ratios[task.task_id] = float(i)   # i independent models so far
    return result


def run_pipeline(config: RunConfig, mode: str) -> RunResult:
    """Run ``scratch``, or learn the task sequence on one shared backbone.

    ``grown`` sparse-grows task 1, then gives each later task a pick-and-reuse
    phase and expands it only when the pick misses the task's target.
    ``grow_only`` grows every later task for the pick and expand budgets
    combined.  Both modes are gated by the same targets, so the paired
    comparison isolates the mask/claim/retrain machinery rather than the
    growth budget.
    """
    if mode == "scratch":
        return baseline_scratch(config)
    if mode not in ("grown", "grow_only"):
        raise ValueError(f"unknown mode {mode!r}")
    kernel_masks = mode == "grown"
    tasks = build_tasks(config)
    targets = resolve_targets(tasks, config)
    root = SeededRng(config.seed)
    backbone = BackboneState(config.arch)
    _grow_seed_channels(backbone, root.substream("growth"))
    ledger = GrowthLedger(full_params=config.arch.full_params)
    result = RunResult(mode=mode, config=config, backbone=backbone, ledger=ledger,
                       targets=targets)
    digests: dict = {}
    for task in tasks:
        t = task.task_id
        spec = TaskSpec(t, task, targets[t], config.growth_cap)
        if t == 1:
            snapshot = train_task1(backbone, spec, config, kernel_masks, root,
                                   result.epoch_log)
        elif mode == "grown":
            trainer, pick_acc = pick_and_reuse(backbone, spec, config, root,
                                               result.epoch_log)
            expanded = pick_acc < spec.target_accuracy
            result.gate_log.append(
                GateLogEntry(t, pick_acc, spec.target_accuracy, expanded)
            )
            snapshot = expand_task(trainer, result.epoch_log) if expanded else trainer.finalize()
        else:
            trainer = TaskTrainer(backbone, spec, config, False, root)
            trainer.train_phase("grow", config.epochs["pick"] + config.epochs["expand"],
                                grow=True, epoch_log=result.epoch_log)
            snapshot = trainer.finalize()
        result.snapshots[t] = snapshot
        row = ledger.record(t, backbone)
        result.ratios[t] = row.growth_ratio
        result.val_accuracies[t] = evaluate(t, backbone, snapshot, task.val)
        result.test_accuracies[t] = evaluate(t, backbone, snapshot, task.test)
        digests = _check_boundary(result, digests, t)
    return result
