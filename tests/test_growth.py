import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcl.backbone import (
    ArchSpec,
    BackboneState,
    ConvLayerSpec,
    KernelState,
    SlotState,
)
from growcl.growth import (
    ContractViolation,
    GrowthCapError,
    GrowthLedger,
    claim_released_kernels,
    enforce_growth_cap,
    finalize_task,
    grow_filter,
    growth_ratio,
    query_and_transition,
    ratio_label,
)
from growcl.rng import SeededRng


def small_arch(out1=6, out2=8):
    return ArchSpec(
        image_size=8,
        in_channels=1,
        layers=(
            ConvLayerSpec("conv1", 1, out1, seed_channels=2),
            ConvLayerSpec("conv2", out1, out2, seed_channels=2),
        ),
    )


def single_layer_backbone(capacity=16):
    arch = ArchSpec(
        image_size=8,
        in_channels=1,
        layers=(ConvLayerSpec("conv1", 1, capacity, seed_channels=0),),
    )
    return BackboneState(arch)


def bits_for(layer, mapping):
    """Full-width bit vector: NaN for FIXED, given value elsewhere."""
    bits = np.full(layer.spec.out_channels, np.nan)
    for j, v in mapping.items():
        bits[j] = v
    return bits


class TestGrowFilter:
    def test_same_seed_same_filter(self):
        spec = ConvLayerSpec("c", 8, 4, seed_channels=0)
        a = grow_filter(spec, SeededRng(3).substream("growth"))
        b = grow_filter(spec, SeededRng(3).substream("growth"))
        assert np.array_equal(a, b)

    def test_values_within_fan_in_bound(self):
        spec = ConvLayerSpec("c", 8, 4, seed_channels=0)  # fan_in = 8*9 = 72
        f = grow_filter(spec, SeededRng(1))
        bound = np.sqrt(6.0 / 72.0)
        assert f.shape == (8, 3, 3)
        assert np.all(np.abs(f) <= bound)
        assert bound == pytest.approx(0.2887, abs=5e-4)

    def test_empirical_variance(self):
        spec = ConvLayerSpec("c", 4, 1, seed_channels=0, kernel=5)
        rng = SeededRng(7)
        draws = np.concatenate([grow_filter(spec, rng).ravel() for _ in range(100)])
        assert draws.size == 10**4
        bound = np.sqrt(6.0 / (4 * 25))
        expect = (2 * bound) ** 2 / 12.0
        assert abs(draws.var() - expect) / expect < 0.05


class TestQueryAndTransition:
    def test_ungrown_bit1_grows_fresh_filter(self):
        bb = single_layer_backbone(4)
        layer = bb.layers[0]
        actions = query_and_transition(layer, bits_for(layer, {0: 1.0}), SeededRng(0))
        assert [a.action for a in actions] == ["grow"]
        assert layer.slot_state[0] == SlotState.GROWN_TRAINING
        assert np.any(layer.weights[0] != 0.0)

    def test_grown_bit0_detaches_and_retains_weights(self):
        bb = single_layer_backbone(4)
        layer = bb.layers[0]
        query_and_transition(layer, bits_for(layer, {0: 1.0}), SeededRng(0))
        before = layer.weights[0].tobytes()
        actions = query_and_transition(layer, bits_for(layer, {0: 0.0}), SeededRng(1))
        assert [a.action for a in actions] == ["detach"]
        assert layer.slot_state[0] == SlotState.DETACHED
        assert layer.weights[0].tobytes() == before

    def test_detached_bit1_restores_original_weights(self):
        bb = single_layer_backbone(4)
        layer = bb.layers[0]
        query_and_transition(layer, bits_for(layer, {0: 1.0}), SeededRng(0))
        original = layer.weights[0].tobytes()
        query_and_transition(layer, bits_for(layer, {0: 0.0}), SeededRng(1))
        actions = query_and_transition(layer, bits_for(layer, {0: 1.0}), SeededRng(2))
        assert [a.action for a in actions] == ["regrow"]
        assert layer.slot_state[0] == SlotState.GROWN_TRAINING
        assert layer.weights[0].tobytes() == original

    def test_pruned_slot_never_reactivates(self):
        bb = single_layer_backbone(4)
        layer = bb.layers[0]
        query_and_transition(layer, bits_for(layer, {0: 1.0}), SeededRng(0))
        query_and_transition(layer, bits_for(layer, {0: 0.0}), SeededRng(1))
        finalize_task(layer, np.ones_like(layer.kernel_state, dtype=float), task_id=1)
        assert layer.slot_state[0] == SlotState.PRUNED
        actions = query_and_transition(layer, bits_for(layer, {0: 1.0}), SeededRng(2))
        assert actions == []
        assert layer.slot_state[0] == SlotState.PRUNED

    def test_bit_for_fixed_slot_is_contract_violation(self):
        bb = single_layer_backbone(4)
        layer = bb.layers[0]
        query_and_transition(layer, bits_for(layer, {0: 1.0}), SeededRng(0))
        finalize_task(layer, np.ones_like(layer.kernel_state, dtype=float), task_id=1)
        with pytest.raises(ContractViolation, match="FIXED slot 0"):
            query_and_transition(layer, bits_for(layer, {0: 1.0}), SeededRng(1))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_walks_respect_transition_graph(self, seed):
        reference = {
            (SlotState.UNGROWN, 1.0): SlotState.GROWN_TRAINING,
            (SlotState.UNGROWN, 0.0): SlotState.UNGROWN,
            (SlotState.GROWN_TRAINING, 1.0): SlotState.GROWN_TRAINING,
            (SlotState.GROWN_TRAINING, 0.0): SlotState.DETACHED,
            (SlotState.DETACHED, 1.0): SlotState.GROWN_TRAINING,
            (SlotState.DETACHED, 0.0): SlotState.DETACHED,
            (SlotState.PRUNED, 1.0): SlotState.PRUNED,
            (SlotState.PRUNED, 0.0): SlotState.PRUNED,
        }
        bb = single_layer_backbone(6)
        layer = bb.layers[0]
        rng = SeededRng(seed)
        walk = np.random.default_rng(seed)
        for _ in range(40):
            before = [SlotState(s) for s in layer.slot_state]
            bits = walk.integers(0, 2, size=6).astype(float)
            bits[layer.slot_state == SlotState.FIXED] = np.nan
            query_and_transition(layer, bits, rng)
            for j, prev in enumerate(before):
                if np.isnan(bits[j]):
                    continue
                assert SlotState(layer.slot_state[j]) == reference[(prev, bits[j])]


class TestFinalize:
    def test_partition_used_released(self):
        arch = ArchSpec(
            image_size=8, in_channels=3,
            layers=(ConvLayerSpec("c", 3, 2, seed_channels=0),),
        )
        bb = BackboneState(arch)
        layer = bb.layers[0]
        query_and_transition(layer, np.array([1.0, np.nan]), SeededRng(0))
        claim = np.ones((2, 3))
        claim[0] = [1.0, 0.0, 1.0]
        finalize_task(layer, claim, task_id=3)
        assert layer.slot_state[0] == SlotState.FIXED
        assert layer.slot_owner[0] == 3
        assert list(layer.kernel_state[0]) == [
            KernelState.USED, KernelState.RELEASED, KernelState.USED,
        ]
        assert list(layer.kernel_owner[0]) == [3, 0, 3]

    def test_no_training_or_detached_states_remain(self):
        bb = single_layer_backbone(8)
        layer = bb.layers[0]
        rng = SeededRng(1)
        query_and_transition(layer, np.ones(8), rng)
        query_and_transition(layer, np.array([0.0, 0.0, 1, 1, 1, 1, 1, 1]), rng)
        finalize_task(layer, np.ones_like(layer.kernel_state, dtype=float), task_id=1)
        states = set(SlotState(s) for s in layer.slot_state)
        assert states <= {SlotState.FIXED, SlotState.PRUNED, SlotState.UNGROWN}

    def test_claim_released_kernels(self):
        arch = ArchSpec(
            image_size=8, in_channels=2,
            layers=(ConvLayerSpec("c", 2, 2, seed_channels=0),),
        )
        bb = BackboneState(arch)
        layer = bb.layers[0]
        query_and_transition(layer, np.array([1.0, np.nan]), SeededRng(0))
        claim = np.ones((2, 2))
        claim[0, 1] = 0.0
        finalize_task(layer, claim, task_id=1)
        n = claim_released_kernels(layer, task_id=2)
        assert n == 1
        assert layer.kernel_state[0, 1] == KernelState.USED
        assert layer.kernel_owner[0, 1] == 2
        assert layer.kernel_owner[0, 0] == 1  # untouched


class TestGrowthCap:
    def grow_n(self, bb, n, rng):
        layer = bb.layers[0]
        bits = np.full(layer.spec.out_channels, np.nan)
        bits[:n] = 1.0
        bits[np.isnan(bits) & (layer.slot_state != SlotState.FIXED)] = 0.0
        query_and_transition(layer, bits, rng)

    def test_detaches_lowest_logits_first(self):
        bb = single_layer_backbone(16)
        self.grow_n(bb, 16, SeededRng(0))
        layer = bb.layers[0]
        # make 10 of them FIXED (earlier task), 6 current-task
        layer.slot_state[:10] = SlotState.FIXED
        layer.slot_owner[:10] = 1
        logits = {"conv1": np.arange(16, dtype=float)}  # slots 10..15 have logits 10..15
        cap = 12 / 16
        actions = enforce_growth_cap(bb, logits, cap_ratio=cap)
        detached = sorted(a.index for a in actions)
        assert detached == [10, 11, 12, 13]   # the 4 lowest current-task logits
        assert bb.active_params() == 12 * layer.spec.params_per_channel

    def test_under_cap_is_bitwise_noop(self):
        bb = single_layer_backbone(16)
        self.grow_n(bb, 4, SeededRng(0))
        layer = bb.layers[0]
        before = (layer.slot_state.tobytes(), layer.weights.tobytes())
        actions = enforce_growth_cap(bb, {"conv1": np.zeros(16)}, cap_ratio=0.5)
        assert actions == []
        assert (layer.slot_state.tobytes(), layer.weights.tobytes()) == before

    def test_fixed_over_cap_is_hard_error(self):
        bb = single_layer_backbone(16)
        self.grow_n(bb, 12, SeededRng(0))
        layer = bb.layers[0]
        layer.slot_state[:12] = SlotState.FIXED
        layer.slot_owner[:12] = 1
        with pytest.raises(GrowthCapError):
            enforce_growth_cap(bb, {"conv1": np.zeros(16)}, cap_ratio=0.5)

    def test_cap_range_validated(self):
        bb = single_layer_backbone(4)
        with pytest.raises(ValueError):
            enforce_growth_cap(bb, {"conv1": np.zeros(4)}, cap_ratio=0.0)


class TestAccounting:
    def test_ratio_arithmetic(self):
        assert growth_ratio(300, 1000) == pytest.approx(0.3)

    def test_ratio_label_formats(self):
        # first-task figure style: compact, trailing zeros trimmed
        assert ratio_label(0.3) == "0.3x"
        assert ratio_label(0.48) == "0.48x"
        assert ratio_label(1.0) == "1x"
        assert ratio_label(1.5) == "1.5x"
        assert ratio_label(5.0) == "5x"

    def test_ledger_rows_and_monotonicity(self):
        bb = BackboneState(small_arch())
        ledger = GrowthLedger(full_params=bb.arch.full_params)
        rng = SeededRng(0)
        for task in (1, 2):
            for layer in bb.layers:
                bits = np.full(layer.spec.out_channels, np.nan)
                bits[layer.slot_state != SlotState.FIXED] = 0.0
                free = np.flatnonzero(layer.slot_state == SlotState.UNGROWN)[:2]
                bits[free] = 1.0
                query_and_transition(layer, bits, rng)
                finalize_task(layer, np.ones_like(layer.kernel_state, dtype=float), task)
            ledger.record(task, bb)
        assert len(ledger.rows) == 2
        r = ledger.ratios()
        assert r[1] >= r[0]
        csv = ledger.to_csv()
        assert csv.splitlines()[0] == "task_id,layer,active_channels,active_params,growth_ratio"
        assert "1,conv1,2," in csv
        assert "2,total," in csv

    def test_ledger_rejects_regression(self):
        bb = BackboneState(small_arch())
        ledger = GrowthLedger(full_params=bb.arch.full_params)
        layer = bb.layers[0]
        query_and_transition(layer, bits_for(layer, {0: 1.0, 1: 1.0}), SeededRng(0))
        finalize_task(layer, np.ones_like(layer.kernel_state, dtype=float), 1)
        ledger.record(1, bb)
        layer.slot_state[:2] = SlotState.PRUNED  # corrupt the state machine
        with pytest.raises(ContractViolation):
            ledger.record(2, bb)
