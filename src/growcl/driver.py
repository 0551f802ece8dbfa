"""Task-sequence execution: one trainer, one sequence runner.

``TaskTrainer`` is the only training loop: ``train_phase`` runs epochs of
``train_step``.  One rule, ``backbone.task_view``, builds the view of the
task in training and of every finished task (reuse bits on frozen used
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

Finalization freezes everything the task's function depends on:
``growth.finalize_task``, the one place that hands out kernel ownership,
claims the released kernels the task retrained along with its own.  It
writes a snapshot whose probe fingerprint pins the task's logits
byte-for-byte, and the forgetting check re-verifies every earlier
fingerprint at every task boundary.  ``scratch`` trains an independent
full-capacity model per task with the same trainer: a fresh backbone whose
slots all train, with the keep-all reuse and claim masks of ``grow_only``
and no target, so it never grows.  Scratch outcomes are memoized on the parsed
config: ``grown`` and ``grow_only`` targets reuse the models a ``scratch``
run of the same config object trained.

A step runs only the layers it can change.  ``trainable_kernels`` are the
kernels a task in training may change: its growing rows and the RELEASED
ones.  ``train_step`` moves only those, and ``TaskTrainer.frozen_depth`` is
the lowest layer with one, or 0 when the trainer learns kernel masks or the
arch has norm layers; so only ``grow_only`` steps after task 1 start higher.
Such a step feeds the layers from there the trainer's cached outputs of the
layers below (``trunk_outputs``).  Its bytes are the full step's: an image's
outputs do not depend on its batch, a gate gradient is +0.0 off growing
rows, and ``sgd_step``'s ``keep`` discards every other gradient the layers
below get.  Validation, test, probe and forgetting passes run in full.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .backbone import (
    BackboneState,
    KernelState,
    LayerState,
    SlotState,
    TaskView,
    backward_pass,
    forward_pass,
    task_view,
)
from .config import ConfigError, RunConfig, check_target_count
from .data import Task, TaskSequence, load_group_file, load_idx, split_by_class, synth_tasks
from .growth import (
    ContractViolation,
    GrowthLedger,
    boundary_violation,
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

MODES = ("scratch", "grown", "grow_only")
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


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TaskSnapshot:
    """What one task adds to the shared backbone to reproduce its inference
    bit-exactly: its head, and per layer its reuse bits (``grown``) and norm
    parameters (group norm).  Its own kernels are the backbone's ``kernel_owner``
    entries; the probe images' logit fingerprint lets a cold load check it."""

    task_id: int
    n_classes: int
    reuse_bits: dict[str, np.ndarray] | None
    head_weight: np.ndarray
    head_bias: np.ndarray
    norm_scale: dict[str, np.ndarray] | None
    norm_shift: dict[str, np.ndarray] | None
    probe_images: np.ndarray
    probe_fingerprint: str


@dataclass
class GateLogEntry:
    """A ``grown`` task's gate: it expands when its pick misses its target."""
    task_id: int
    pick_accuracy: float
    target_accuracy: float
    expanded: bool = field(init=False)

    def __post_init__(self) -> None:
        self.expanded = self.pick_accuracy < self.target_accuracy


@dataclass(frozen=True)
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
    """The frozen sub-network of a finished task (``task_view``'s rule)."""
    return task_view(backbone, snapshot.task_id, snapshot.reuse_bits, None, snapshot.head_weight,
                     snapshot.head_bias, snapshot.norm_scale, snapshot.norm_shift)


# ---------------------------------------------------------------------------
# trainer
# ---------------------------------------------------------------------------

def trainable_kernels(layer: LayerState) -> np.ndarray:
    """bool [out, in]: the kernels a task in training may change, those of
    its growing rows and the RELEASED ones."""
    rows = layer.slot_state == SlotState.GROWN_TRAINING
    return rows[:, None] | (layer.kernel_state == KernelState.RELEASED)


class TaskTrainer:
    """Owns one task's trainable state across its phases (grow, or pick then
    expand); a scratch model is one more such task on its own backbone.

    Forward passes always see hard {0,1} bits derived from the current
    logits; gradients reach the logits through the straight-through
    estimator with fresh Gumbel noise on the relaxed path each step.

    ``kernel_masks`` chooses whether the reuse and claim logits learn and
    ride in the snapshot; without it (``grow_only`` and scratch models) they
    stay at their keep-all +1 start.  Gate logits learn only in a phase given
    a target accuracy (``train_phase``), which grows under ``config.growth_cap``.
    """

    def __init__(self, backbone: BackboneState, task: Task, config: RunConfig,
                 kernel_masks: bool, root_rng: SeededRng,
                 streams: dict[str, SeededRng] | None = None):
        """Random streams are ``task{t}/<name>`` under ``root_rng``;
        ``streams`` replaces some of them by name (a scratch model brings its
        own ``init``, which has already drawn its conv weights, and
        ``batches``)."""
        self.backbone = backbone
        self.task = task
        self.config = config
        self.kernel_masks = kernel_masks
        t = task.task_id
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
        for layer in backbone.layers:
            name = layer.spec.name
            grow_logits = np.full(layer.spec.out_channels, -1.0)
            grow_logits[layer.slot_state == SlotState.GROWN_TRAINING] = 1.0
            kernels = (layer.spec.out_channels, layer.spec.in_channels)
            self.grow_masks[name] = MaskParam(grow_logits)
            self.claim_masks[name] = MaskParam(np.full(kernels, CLAIM_INIT))
            self.reuse_masks[name] = MaskParam(np.full(kernels, CLAIM_INIT))

        d = backbone.arch.feature_dim
        k = self.task.n_classes
        self.head_weight = init.uniform(-np.sqrt(6.0 / d), np.sqrt(6.0 / d), size=(k, d))
        self.head_bias = np.zeros(k)

        self.norm_scale = self.norm_shift = None
        if backbone.arch.group_norm:
            self.norm_scale = {l.spec.name: np.ones(l.spec.out_channels) for l in backbone.layers}
            self.norm_shift = {l.spec.name: np.zeros(l.spec.out_channels) for l in backbone.layers}

        # every array this trainer updates, each with its own velocity; the
        # order is the one _check_finite reports a bad array in
        self.params = {"head weight": self.head_weight, "head bias": self.head_bias}
        for layer in backbone.layers:
            name = layer.spec.name
            self.params[f"{name} weights"] = layer.weights
            self.params[f"{name} bias"] = layer.bias
            for role, masks in (("grow", self.grow_masks), ("claim", self.claim_masks),
                                ("reuse", self.reuse_masks)):
                self.params[f"{name} {role} logits"] = masks[name].logits
            if self.norm_scale is not None:
                self.params[f"{name} norm scale"] = self.norm_scale[name]
                self.params[f"{name} norm shift"] = self.norm_shift[name]
        self.velocity = {label: np.zeros_like(p) for label, p in self.params.items()}

        self.lam_eff = config.lambda_l0
        self.gate_lr = config.learning_rate * GATE_LR_SCALE
        self.select_lr = config.learning_rate * SELECT_LR_SCALE
        self.target: float | None = None   # the running phase's; None: no growth
        self.trunk: tuple[tuple, np.ndarray] | None = None   # (key, outputs): see trunk_outputs

    # -- view -------------------------------------------------------------

    def build_train_view(self) -> TaskView:
        """The task's current sub-network, at the hard bits of its logits."""
        return task_view(
            self.backbone, self.task.task_id,
            {name: m.hard_bits() for name, m in self.reuse_masks.items()},
            {name: m.hard_bits() for name, m in self.claim_masks.items()},
            self.head_weight, self.head_bias, self.norm_scale, self.norm_shift,
        )

    # -- growth queries -----------------------------------------------------

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
                if action.action == "grow":
                    logits[action.index] = 1.0
        enforce_growth_cap(self.backbone, {name: m.logits for name, m in self.grow_masks.items()},
                           self.config.growth_cap)

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

    def _update(self, label: str, grad: np.ndarray, lr: float,
                keep: np.ndarray | None = None) -> None:
        sgd_step(self.params[label], grad, lr, self.config.momentum,
                 self.velocity[label], keep)

    def frozen_depth(self) -> int:
        """The lowest layer with a ``trainable_kernels`` entry (the layer
        count when none has one).  Nothing below it moves in a step.  0 when
        the trainer learns kernel masks, whose gradients need every layer's,
        or the arch has norm layers, which every task trains."""
        if self.kernel_masks or self.norm_scale is not None:
            return 0
        layers = self.backbone.layers
        return next((index for index, layer in enumerate(layers)
                     if trainable_kernels(layer).any()), len(layers))

    def trunk_outputs(self, view: TaskView, start: int) -> np.ndarray:
        """Layer ``start`` - 1's output on its on channels, for every training
        image.  Built in ``batch_size`` chunks and kept while the on channels
        and multipliers of the layers below ``start`` stay as they are; below
        ``frozen_depth`` no weight or bias moves (``trainable_kernels``)."""
        below = [layer.spec.name for layer in self.backbone.layers[:start]]
        key = (start, *(view.channel_on[name].tobytes() + view.multipliers[name].tobytes()
                        for name in below))
        if self.trunk is None or self.trunk[0] != key:
            self.trunk = None   # freed first, so the allocator may reuse its pages
            images, bs = self.task.train.images, self.config.batch_size
            size = self.backbone.arch.spatial_after(start - 1)
            outputs = np.empty((len(images), int(view.channel_on[below[-1]].sum()), size, size))
            for s in range(0, len(images), bs):
                outputs[s:s + bs] = forward_pass(self.backbone, view, images[s:s + bs],
                                                 stop=start)
            self.trunk = (key, outputs)
        return self.trunk[1]

    def train_step(self, idx: np.ndarray, temperature: float) -> float:
        """One step on the training rows ``idx``, run from ``frozen_depth``."""
        lr = self.config.learning_rate
        train = self.task.train
        view = self.build_train_view()
        start = self.frozen_depth()
        inputs = train.images if start == 0 else self.trunk_outputs(view, start)
        logits, cache = forward_pass(self.backbone, view, np.take(inputs, idx, axis=0),
                                     want_cache=True, start=start)
        loss, dlogits = cross_entropy(logits, train.labels[idx])
        grads = backward_pass(self.backbone, cache, dlogits)
        grows = self.target is not None
        learns_masks = self.kernel_masks or grows

        penalty_value = 0.0
        for layer in self.backbone.layers:
            name = layer.spec.name
            mult = view.multipliers[name]
            d_eff = grads.d_eff_weights[name]
            rows = layer.slot_state == SlotState.GROWN_TRAINING   # this task's growth
            if learns_masks:   # sensitivity to each kernel's bit, before weights move
                d_mult = (d_eff * layer.weights).sum(axis=(2, 3))

            keep = np.broadcast_to(trainable_kernels(layer)[:, :, None, None],
                                   layer.weights.shape)
            self._update(f"{name} weights", d_eff * mult[:, :, None, None], lr, keep)
            self._update(f"{name} bias", grads.d_bias[name], lr, rows)

            # per-task normalization affine
            if self.norm_scale is not None:
                self._update(f"{name} norm scale", grads.d_norm_scale[name], lr)
                self._update(f"{name} norm shift", grads.d_norm_shift[name], lr)

            if self.kernel_masks:
                used = layer.kernel_state == KernelState.USED
                row_grid = np.broadcast_to(rows[:, None], used.shape)
                # reuse-mask logits (frozen used kernels of earlier tasks)
                d_logits = self._relaxed_grad(self.reuse_masks[name],
                                              np.where(used, d_mult, 0.0), temperature)
                self._update(f"{name} reuse logits", d_logits, self.select_lr, used)

                # claim-mask logits (kernels of this task's growing channels)
                d_logits = self._relaxed_grad(self.claim_masks[name],
                                              np.where(row_grid, d_mult, 0.0), temperature)
                self._update(f"{name} claim logits", d_logits, self.select_lr, row_grid)

            # channel-gate logits: data sensitivity plus the sparsity surrogate
            if grows:
                grow = self.grow_masks[name]
                d_gate = np.where(rows, (d_mult * mult).sum(axis=1), 0.0)
                queryable = (layer.slot_state != SlotState.FIXED) & \
                            (layer.slot_state != SlotState.PRUNED)
                gate_bits = np.where(queryable, grow.hard_bits(), 0.0)
                value, d_l0 = l0_penalty(gate_bits, grow.logits, self.lam_eff)
                penalty_value += value
                d_logits = self._relaxed_grad(grow, d_gate, temperature) + d_l0
                self._update(f"{name} grow logits", d_logits, self.gate_lr, queryable)

        self._update("head weight", grads.d_head_weight, lr)
        self._update("head bias", grads.d_head_bias, lr)
        return loss + penalty_value

    # -- phases --------------------------------------------------------------

    def temperature(self, epoch: int, total: int) -> float:
        start, end = self.config.temperature["start"], self.config.temperature["end"]
        if total <= 1:
            return end
        return start + (end - start) * (epoch / (total - 1))

    def validation_accuracy(self) -> float:
        return _dataset_accuracy(self.backbone, self.build_train_view(), self.task.val)

    def train_phase(self, phase: str, n_epochs: int, epoch_log: list[EpochLogEntry],
                    target: float | None = None) -> None:
        """Train ``n_epochs`` epochs, logging each.  Given a ``target`` accuracy the
        phase grows: gate logits learn, and each epoch's ``query_epoch`` may try
        new channels while validation accuracy is below the target.  Without
        one, no slot changes state and no gate logit moves."""
        self.target = target
        n = len(self.task.train)
        bs = self.config.batch_size
        val_acc = None
        for epoch in range(n_epochs):
            temp = self.temperature(epoch, n_epochs)
            if target is not None:
                if val_acc is None:
                    val_acc = self.validation_accuracy()
                self.query_epoch(temp, need_growth=val_acc < target)
            order = self.batches.permutation(n)
            losses = []
            for start in range(0, n, bs):
                losses.append(self.train_step(order[start:start + bs], temp))
            loss = float(np.mean(losses))
            self._check_finite(loss, f"task {self.task.task_id}, {phase} epoch {epoch}")
            val_acc = self.validation_accuracy()
            epoch_log.append(EpochLogEntry(
                task_id=self.task.task_id,
                phase=phase,
                epoch=epoch,
                loss=loss,
                val_accuracy=val_acc,
                growth_ratio=self.backbone.growth_ratio(include_training=True),
            ))
        self.target = None

    def _check_finite(self, loss: float, where: str) -> None:
        """Raise FloatingPointError when the epoch loss or any array this
        trainer updates holds a NaN or infinity, before it can be snapshot."""
        # the loss goes last, so a bad parameter is named first
        for what, values in [*self.params.items(), ("loss", loss)]:
            if not np.all(np.isfinite(values)):
                raise FloatingPointError(f"non-finite {what} ({where})")

    # -- finalization ---------------------------------------------------------

    def finalize(self) -> TaskSnapshot:
        """Freeze exactly the network the task last trained with.

        No query runs here: the active set is the one the head has adapted
        to (and the last ``query_epoch`` held it to the growth cap), so fixing
        it cannot ablate features the task depends on."""
        t = self.task.task_id
        self.trunk = None
        for layer in self.backbone.layers:
            finalize_task(layer, self.claim_masks[layer.spec.name].hard_bits(), t)
        reuse_bits = None
        if self.kernel_masks:
            reuse_bits = {n: _frozen(m.hard_bits()) for n, m in self.reuse_masks.items()}
        probe = _frozen(self.task.val.images[:PROBE_SIZE])
        snapshot = TaskSnapshot(
            task_id=t,
            n_classes=self.task.n_classes,
            reuse_bits=reuse_bits,
            head_weight=_frozen(self.head_weight),
            head_bias=_frozen(self.head_bias),
            norm_scale=(None if self.norm_scale is None
                        else {n: _frozen(v) for n, v in self.norm_scale.items()}),
            norm_shift=(None if self.norm_shift is None
                        else {n: _frozen(v) for n, v in self.norm_shift.items()}),
            probe_images=probe,
            probe_fingerprint="",
        )
        return replace(snapshot, probe_fingerprint=probe_fingerprint(self.backbone, snapshot))


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

@dataclass(frozen=True)
class ScratchOutcome:
    val_accuracy: float
    test_accuracy: float
    epoch_log: tuple[EpochLogEntry, ...]


def _task_digest(task: Task) -> str:
    """sha256 over the dtype, shape and bytes of each split's images and labels."""
    h = hashlib.sha256()
    for split in (task.train, task.val, task.test):
        for arr in (split.images, split.labels):
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr))   # hashes the buffer, no bytes copy
    return h.hexdigest()


def train_scratch_model(task: Task, config: RunConfig) -> ScratchOutcome:
    """Train one full-capacity model on one task (keep-all masks, no growth).

    The model is a fresh backbone whose every slot trains, run by
    ``TaskTrainer`` without kernel masks and without a target.  All streams
    derive from the config's seed and the task id, so the outcome is
    independent of the task's position in any sequence.

    Outcomes are memoized on the parsed config (``config.scratch_outcomes``),
    keyed on the task id and class count and the task's data bytes:
    ``scratch``, ``grown`` and ``grow_only`` runs of one config train each
    scratch model once.  Each call returns the stored outcome, which is
    immutable: frozen, with its epoch log a tuple of frozen entries.
    """
    key = (task.task_id, task.n_classes, _task_digest(task))
    if key not in config.scratch_outcomes:
        rng = SeededRng(config.seed).substream(f"scratch/task{task.task_id}")
        init = rng.substream("init")
        backbone = BackboneState(config.arch)
        for layer in backbone.layers:
            query_and_transition(layer, np.ones(layer.spec.out_channels), init)
        trainer = TaskTrainer(backbone, task, config, False, rng,
                              streams={"init": init, "batches": rng.substream("batches")})
        epoch_log: list[EpochLogEntry] = []
        trainer.train_phase("scratch", config.epochs["scratch"], epoch_log)
        config.scratch_outcomes[key] = ScratchOutcome(
            val_accuracy=epoch_log[-1].val_accuracy,
            test_accuracy=_dataset_accuracy(backbone, trainer.build_train_view(), task.test),
            epoch_log=tuple(epoch_log),
        )
    return config.scratch_outcomes[key]


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


def run_id(mode: str, config: RunConfig) -> str:
    """The name of a run's directory under the output root."""
    return f"{mode}-seed{config.seed}-{config.digest[:8]}"


def build_tasks(config: RunConfig) -> TaskSequence:
    """The config's task sequence; ConfigError unless its images fit ``config.arch``."""
    rng = SeededRng(config.seed).substream("data")
    src = config.tasks
    if src["source"] == "synthetic":
        tasks = synth_tasks(rng, **{key: value for key, value in src.items() if key != "source"})
    else:
        tasks = split_by_class(load_idx(src["images"], src["labels"]),
                               load_group_file(src["groups"]), rng)
    want = (config.arch.in_channels, config.arch.image_size, config.arch.image_size)
    got = tasks[0].train.images.shape[1:]   # every task shares its source's shape
    if got != want:
        raise ConfigError(f"config.arch takes images of shape {want}, but the tasks' "
                          f"images have shape {got}")
    return tasks


def explicit_targets(config: RunConfig, task_ids: list[int]) -> dict[int, float]:
    """The config's ``target_accuracy`` per task id, in order; one value is
    every task's."""
    values = config.target_accuracy
    return dict(zip(task_ids, values * len(task_ids) if len(values) == 1 else values))


def resolve_targets(tasks: TaskSequence, config: RunConfig) -> dict[int, float]:
    """Explicit targets from config, else scratch accuracy minus the slack."""
    if config.target_accuracy is not None:   # run_pipeline checked their count
        return explicit_targets(config, [task.task_id for task in tasks])
    targets = {}
    for task in tasks:
        outcome = train_scratch_model(task, config)
        targets[task.task_id] = max(1e-6, outcome.val_accuracy - config.target_slack)
    return targets


def _check_boundary(result: RunResult, digests_before: dict, after_task: int) -> dict:
    violation = boundary_violation(result.backbone, after_task)
    if violation:
        raise ContractViolation(f"backbone after task {after_task}: {violation}")
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


def train_task1(backbone: BackboneState, task: Task, target: float, config: RunConfig,
                kernel_masks: bool, root: SeededRng,
                epoch_log: list[EpochLogEntry]) -> TaskSnapshot:
    """Sparse-grow the seed backbone on the first task and freeze it."""
    trainer = TaskTrainer(backbone, task, config, kernel_masks, root)
    trainer.train_phase("grow", config.epochs["task1"], epoch_log, target)
    return trainer.finalize()


def pick_and_reuse(backbone: BackboneState, task: Task, config: RunConfig,
                   root: SeededRng,
                   epoch_log: list[EpochLogEntry]) -> tuple[TaskTrainer, float]:
    """Adapt frozen weights to a new task without growing.

    Learns the kernel-reuse mask over earlier tasks' weights, retrains
    released kernels, and trains the task head jointly; returns the trainer
    (for a possible expansion) plus the candidate validation accuracy, which
    is the one the last pick epoch logged.
    """
    trainer = TaskTrainer(backbone, task, config, True, root)
    trainer.train_phase("pick", config.epochs["pick"], epoch_log)
    return trainer, epoch_log[-1].val_accuracy


def expand_task(trainer: TaskTrainer, target: float,
                epoch_log: list[EpochLogEntry]) -> TaskSnapshot:
    """Grow the backbone for a task whose candidate accuracy missed ``target``."""
    trainer.train_phase("expand", trainer.config.epochs["expand"], epoch_log, target)
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
        outcome = train_scratch_model(task, config)
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
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    check_target_count(config)
    if mode == "scratch":
        return baseline_scratch(config)
    kernel_masks = mode == "grown"
    tasks = build_tasks(config)
    targets = resolve_targets(tasks, config)
    root = SeededRng(config.seed)
    backbone = BackboneState(config.arch)
    _grow_seed_channels(backbone, root.substream("growth"))
    ledger = GrowthLedger()
    result = RunResult(mode=mode, config=config, backbone=backbone, ledger=ledger,
                       targets=targets)
    digests: dict = {}
    for task in tasks:
        t, target = task.task_id, targets[task.task_id]
        if t == 1:
            snapshot = train_task1(backbone, task, target, config, kernel_masks, root,
                                   result.epoch_log)
        elif mode == "grown":
            trainer, pick_acc = pick_and_reuse(backbone, task, config, root, result.epoch_log)
            gate = GateLogEntry(t, pick_acc, target)
            result.gate_log.append(gate)
            snapshot = (expand_task(trainer, target, result.epoch_log) if gate.expanded
                        else trainer.finalize())
        else:
            trainer = TaskTrainer(backbone, task, config, False, root)
            trainer.train_phase("grow", config.epochs["pick"] + config.epochs["expand"],
                                result.epoch_log, target)
            snapshot = trainer.finalize()
        result.snapshots[t] = snapshot
        result.ratios[t] = ledger.record(t, backbone).growth_ratio
        result.val_accuracies[t] = result.epoch_log[-1].val_accuracy
        result.test_accuracies[t] = evaluate(t, backbone, snapshot, task.test)
        digests = _check_boundary(result, digests, t)
    return result
