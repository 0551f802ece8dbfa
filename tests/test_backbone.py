import dataclasses

import numpy as np
import pytest

from growcl.backbone import (
    ArchSpec,
    BackboneState,
    BackwardResult,
    ConvLayerSpec,
    SlotState,
    TaskView,
    backward_pass,
    forward_pass,
)
from growcl.config import parse_config_data
from growcl.ops import conv2d, cross_entropy, finite_diff_check

from oracles import (
    all_channel_filters,
    backward_pass_full,
    expand_mask_loops,
    forward_pass_full,
)


def tiny_arch(group_norm=False):
    return ArchSpec(
        image_size=8,
        in_channels=1,
        layers=(
            ConvLayerSpec("conv1", 1, 3, seed_channels=0, pool=2),
            ConvLayerSpec("conv2", 3, 4, seed_channels=0, pool=2),
        ),
        group_norm=group_norm,
    )


def full_view(bb, n_classes=2, rng=None, norm=False):
    r = rng or np.random.default_rng(0)
    d = bb.arch.feature_dim
    view = TaskView(
        multipliers={l.spec.name: np.ones((l.spec.out_channels, l.spec.in_channels))
                     for l in bb.layers},
        channel_on={l.spec.name: np.ones(l.spec.out_channels, dtype=bool)
                    for l in bb.layers},
        head_weight=r.normal(size=(n_classes, d)) * 0.1,
        head_bias=np.zeros(n_classes),
    )
    if norm:
        view.norm_scale = {l.spec.name: np.ones(l.spec.out_channels) for l in bb.layers}
        view.norm_shift = {l.spec.name: np.zeros(l.spec.out_channels) for l in bb.layers}
    return view


def populated_backbone(arch=None, seed=0):
    bb = BackboneState(arch or tiny_arch())
    r = np.random.default_rng(seed)
    for layer in bb.layers:
        layer.weights[:] = r.normal(size=layer.weights.shape) * 0.3
        layer.bias[:] = r.normal(size=layer.bias.shape) * 0.1
        layer.slot_state[:] = SlotState.GROWN_TRAINING
    return bb


class TestArchSpec:
    def test_feature_dim_tracks_pooling(self):
        arch = tiny_arch()
        assert arch.spatial_after(0) == 4
        assert arch.spatial_after(1) == 2
        assert arch.feature_dim == 4 * 2 * 2

    def test_full_params(self):
        arch = tiny_arch()
        assert arch.full_params == 3 * (1 * 9 + 1) + 4 * (3 * 9 + 1)


class TestEffectiveFilters:
    def test_all_ones_mask_is_bitwise_identity(self):
        bb = populated_backbone()
        layer = bb.layers[1]
        mult = np.ones((4, 3))
        eff = all_channel_filters(layer, mult)
        assert eff.tobytes() == layer.weights.tobytes()

    def test_masked_positions_are_positive_zero(self):
        bb = populated_backbone()
        layer = bb.layers[1]
        layer.weights[0, 0] = -2.0
        mult = np.ones((4, 3))
        mult[0, 0] = 0.0
        eff = all_channel_filters(layer, mult)
        assert np.all(eff[0, 0] == 0.0)
        assert not np.any(np.signbit(eff[0, 0]))

    def test_matches_apply_mask_for_binary_multipliers(self):
        # the loop oracle writes -0.0 where a negative weight is masked; the
        # +0.0 sign is pinned by test_masked_positions_are_positive_zero
        bb = populated_backbone()
        layer = bb.layers[1]
        bits = (np.random.default_rng(9).random((4, 3)) > 0.5).astype(np.float64)
        eff = all_channel_filters(layer, bits)
        assert np.array_equal(eff, expand_mask_loops(layer.weights, bits, "kernel"))

    def test_conv_with_ones_mask_equals_raw_conv_bitwise(self):
        bb = populated_backbone()
        layer = bb.layers[0]
        x = np.random.default_rng(3).normal(size=(2, 1, 8, 8))
        raw, _ = conv2d(x, layer.weights, layer.bias, pad=1)
        eff = all_channel_filters(layer, np.ones((3, 1)))
        masked, _ = conv2d(x, eff, layer.bias, pad=1)
        assert masked.tobytes() == raw.tobytes()


class TestForwardPass:
    def test_inactive_channels_produce_exact_zero_features(self):
        bb = populated_backbone()
        view = full_view(bb)
        view.channel_on["conv2"] = np.array([True, False, True, True])
        view.multipliers["conv2"][1, :] = 0.0
        x = np.random.default_rng(4).normal(size=(2, 1, 8, 8))
        logits, cache = forward_pass(bb, view, x, want_cache=True)
        assert logits.shape == (2, 2)
        # the pooled feature block of channel 1 must be exactly +0.0
        # regardless of stored weights there
        bb.layers[1].weights[1] += 123.0
        logits2 = forward_pass(bb, view, x)
        assert logits2.tobytes() == logits.tobytes()

    def test_group_norm_leak_blocked(self):
        bb = populated_backbone(tiny_arch(group_norm=True))
        view = full_view(bb, norm=True)
        view.norm_shift = {n: np.full_like(s, 0.7) for n, s in view.norm_shift.items()}
        view.channel_on["conv1"] = np.array([True, True, False])
        view.multipliers["conv1"][2, :] = 0.0
        x = np.random.default_rng(5).normal(size=(1, 1, 8, 8))
        before = forward_pass(bb, view, x)
        bb.layers[0].weights[2] += 9.0   # junk in the off channel
        bb.layers[0].bias[2] = 4.0
        after = forward_pass(bb, view, x)
        assert after.tobytes() == before.tobytes()

    def test_forward_is_deterministic(self):
        bb = populated_backbone()
        view = full_view(bb)
        x = np.random.default_rng(6).normal(size=(3, 1, 8, 8))
        a = forward_pass(bb, view, x)
        b = forward_pass(bb, view, x)
        assert a.tobytes() == b.tobytes()


class TestBackwardPass:
    @pytest.mark.parametrize("norm", [False, True])
    def test_head_and_effective_weight_gradients(self, norm):
        bb = populated_backbone(tiny_arch(group_norm=norm))
        view = full_view(bb, norm=norm)
        r = np.random.default_rng(7)
        x = r.normal(size=(2, 1, 8, 8))
        y = np.array([0, 1])

        def loss_with(view_override=None):
            v = view_override or view
            logits, cache = forward_pass(bb, v, x, want_cache=True)
            loss, dlogits = cross_entropy(logits, y)
            return loss, cache, dlogits

        loss, cache, dlogits = loss_with()
        grads = backward_pass(bb, cache, dlogits)

        def f_head(wflat):
            view.head_weight = wflat.reshape(view.head_weight.shape)
            l, _, _ = loss_with()
            return l, grads.d_head_weight.ravel()

        w0 = view.head_weight.copy()
        res = finite_diff_check(f_head, w0.ravel().copy(), eps=1e-5)
        view.head_weight = w0
        assert res < 1e-6

        # gradient w.r.t. conv1 raw weights; multiplier is all-ones so
        # d_raw == d_effective
        layer = bb.layers[0]

        def f_w(wflat):
            saved = layer.weights.copy()
            layer.weights[:] = wflat.reshape(layer.weights.shape)
            l, _, _ = loss_with()
            layer.weights[:] = saved
            return l, grads.d_eff_weights["conv1"].ravel()

        res = finite_diff_check(f_w, layer.weights.ravel().copy(), eps=1e-5)
        assert res < 1e-5

    def test_protected_digests_track_used_kernels(self):
        bb = populated_backbone()
        layer = bb.layers[0]
        layer.slot_state[:] = SlotState.FIXED
        layer.slot_owner[:] = 1
        layer.kernel_owner[:] = 1
        before = bb.protected_digests()
        assert len(before) == 3 + 3  # 3 kernels (cin=1) + 3 biases for conv1
        # releasing nothing, the digests are stable
        assert bb.protected_digests() == before
        layer.weights[0, 0, 0, 0] += 1e-9
        after = bb.protected_digests()
        assert after != before


def wide_arch(group_norm=False):
    return parse_config_data({"arch": {"group_norm": group_norm, "layers": [
        {"capacity": 48, "seed_channels": 16}, {"capacity": 64, "seed_channels": 16},
    ]}}).arch


def channel_view(bb, r, kinds, norm):
    """A view with one channel pattern per layer ("all", "part", "none" or
    "one" channel on) and random kernel bits on the on rows; off rows carry
    zero multipliers, as every train and eval view does."""
    multipliers, channel_on = {}, {}
    for layer, kind in zip(bb.layers, kinds):
        oc, ic = layer.spec.out_channels, layer.spec.in_channels
        on = np.zeros(oc, dtype=bool)
        count = {"all": oc, "none": 0, "one": 1, "part": r.integers(2, oc)}[kind]
        on[r.choice(oc, size=count, replace=False)] = True
        mult = (r.random((oc, ic)) < 0.7).astype(np.float64)
        mult[~on] = 0.0
        multipliers[layer.spec.name] = mult
        channel_on[layer.spec.name] = on
    view = TaskView(multipliers, channel_on, r.normal(size=(3, bb.arch.feature_dim)) * 0.1,
                    r.normal(size=3) * 0.1)
    if norm:
        view.norm_scale = {l.spec.name: 1.0 + 0.1 * r.normal(size=l.spec.out_channels)
                           for l in bb.layers}
        view.norm_shift = {l.spec.name: 0.1 * r.normal(size=l.spec.out_channels)
                           for l in bb.layers}
    return view


def compacted_and_full(arch, kinds, seed):
    """(backbone, view, compacted results, full-width oracle results) on one
    batch; results are (logits, gradients)."""
    bb = populated_backbone(arch, seed=seed)
    r = np.random.default_rng(seed + 100)
    view = channel_view(bb, r, kinds, arch.group_norm)
    size = arch.image_size
    x = r.normal(size=(8, arch.in_channels, size, size))
    y = r.integers(0, 3, size=8)
    logits, cache = forward_pass(bb, view, x, want_cache=True)
    ref_logits, ref_cache = forward_pass_full(bb, view, x, want_cache=True)
    _, dlogits = cross_entropy(ref_logits, y)
    grads = backward_pass(bb, cache, dlogits)
    ref = backward_pass_full(bb, ref_cache, dlogits)
    return bb, view, (logits, grads), (ref_logits, ref)


def on_block(bb, view, name):
    """bool [out, in, 1, 1]: kernels between on inputs and on outputs."""
    index = [l.spec.name for l in bb.layers].index(name)
    rows = view.channel_on[name]
    cols = (np.ones(bb.arch.in_channels, dtype=bool) if index == 0
            else view.channel_on[bb.layers[index - 1].spec.name])
    return (rows[:, None] & cols[None, :])[:, :, None, None]


def gradient_pairs(bb, view, grads, ref):
    """(label, compacted, oracle) per gradient array.  The oracle's filter
    gradients outside the on block are products with exact zeros or, under
    group norm, gradients of channels the task does not use, so they are
    compared as +0.0."""
    yield "head weight", grads.d_head_weight, ref.d_head_weight
    yield "head bias", grads.d_head_bias, ref.d_head_bias
    for layer in bb.layers:
        name = layer.spec.name
        expect = np.where(on_block(bb, view, name), ref.d_eff_weights[name], 0.0)
        yield f"{name} filters", grads.d_eff_weights[name], expect
        yield f"{name} bias", grads.d_bias[name], ref.d_bias[name]
        if view.norm_scale is not None:
            yield f"{name} norm scale", grads.d_norm_scale[name], ref.d_norm_scale[name]
            yield f"{name} norm shift", grads.d_norm_shift[name], ref.d_norm_shift[name]


LAYER_KINDS = [(a, b) for a in ("all", "part", "none", "one")
               for b in ("all", "part", "none", "one")]


class TestCompactedPasses:
    """Each layer runs on its view's on channels only; the results must be
    those of the full-width passes (``oracles.forward_pass_full``)."""

    @pytest.mark.parametrize("kinds", LAYER_KINDS)
    @pytest.mark.parametrize("norm", [False, True])
    @pytest.mark.parametrize("arch_name", ["tiny", "default"])
    def test_bitwise_equal_to_full_width(self, arch_name, norm, kinds):
        arch = (tiny_arch(norm) if arch_name == "tiny"
                else parse_config_data({"arch": {"group_norm": norm}}).arch)
        for seed in range(2):
            bb, view, (logits, grads), (ref_logits, ref) = compacted_and_full(arch, kinds, seed)
            assert logits.tobytes() == ref_logits.tobytes()
            for label, got, want in gradient_pairs(bb, view, grads, ref):
                assert got.shape == want.shape, label
                assert got.tobytes() == want.tobytes(), label

    @pytest.mark.parametrize("kinds", [("part", "part"), ("one", "part"), ("part", "none")])
    @pytest.mark.parametrize("norm", [False, True])
    def test_wide_arch_matches_within_1e_12(self, norm, kinds):
        # K = 48*9 exceeds one OpenBLAS K block, so dropping the zero
        # products regroups the sums: equal to rounding, not to the byte
        bb, view, (logits, grads), (ref_logits, ref) = compacted_and_full(wide_arch(norm), kinds, 3)
        pairs = [("logits", logits, ref_logits), *gradient_pairs(bb, view, grads, ref)]
        for label, got, want in pairs:
            scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
            assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale, label

    @pytest.mark.parametrize("norm", [False, True])
    def test_off_channel_gradients_are_positive_zero(self, norm):
        bb, view, (_, grads), _ = compacted_and_full(tiny_arch(norm), ("part", "part"), 5)
        for layer in bb.layers:
            name = layer.spec.name
            off = np.broadcast_to(~on_block(bb, view, name), layer.weights.shape)
            d_eff = grads.d_eff_weights[name]
            assert off.any()
            assert np.all(d_eff[off] == 0.0) and not np.any(np.signbit(d_eff[off]))
            d_b = grads.d_bias[name][~view.channel_on[name]]
            assert np.all(d_b == 0.0) and not np.any(np.signbit(d_b))

    def test_off_channel_storage_is_never_read(self):
        # NaN in the off rows' weights and biases leaves the results unchanged
        r = np.random.default_rng(6)
        bb = populated_backbone(tiny_arch(group_norm=True))
        bb2 = populated_backbone(tiny_arch(group_norm=True))
        view = channel_view(bb, r, ("part", "part"), norm=True)
        for layer in bb2.layers:
            on = view.channel_on[layer.spec.name]
            layer.weights[~on] = np.nan
            layer.bias[~on] = np.nan
        x = r.normal(size=(8, 1, 8, 8))
        a, cache = forward_pass(bb, view, x, want_cache=True)
        b, cache2 = forward_pass(bb2, view, x, want_cache=True)
        assert a.tobytes() == b.tobytes()
        d = np.ones_like(a)
        ga, gb = backward_pass(bb, cache, d), backward_pass(bb2, cache2, d)
        for name in view.channel_on:
            assert ga.d_eff_weights[name].tobytes() == gb.d_eff_weights[name].tobytes()
            assert ga.d_bias[name].tobytes() == gb.d_bias[name].tobytes()


class TestPartialPasses:
    """A pass stopped after layer k - 1 and one started at layer k from its
    output give the full pass's logits and, from layer k up, its gradients
    byte for byte; below k every gradient is +0.0.  Stopped outputs do not
    depend on the batch.  The full-width oracle takes the same arguments."""

    @pytest.mark.parametrize("kinds", [("part", "part"), ("one", "all"), ("none", "part")])
    @pytest.mark.parametrize("norm", [False, True])
    @pytest.mark.parametrize("arch_name", ["tiny", "default"])
    def test_started_pass_matches_full_pass(self, arch_name, norm, kinds):
        arch = (tiny_arch(norm) if arch_name == "tiny"
                else parse_config_data({"arch": {"group_norm": norm}}).arch)
        bb = populated_backbone(arch, seed=4)
        r = np.random.default_rng(104)
        view = channel_view(bb, r, kinds, norm)
        x = r.normal(size=(8, arch.in_channels, arch.image_size, arch.image_size))
        logits, cache = forward_pass(bb, view, x, want_cache=True)
        _, dlogits = cross_entropy(logits, r.integers(0, 3, size=8))
        full = dict(gradient_arrays(backward_pass(bb, cache, dlogits)))
        for start in range(1, len(bb.layers) + 1):
            below = {layer.spec.name for layer in bb.layers[:start]}
            h = forward_pass(bb, view, x, stop=start)
            chunks = [forward_pass(bb, view, x[s:s + 3], stop=start) for s in range(0, 8, 3)]
            assert np.concatenate(chunks).tobytes() == h.tobytes()
            assert forward_pass_full(bb, view, x, stop=start).tobytes() == h.tobytes()
            part_logits, part_cache = forward_pass(bb, view, h, want_cache=True, start=start)
            ref_logits, ref_cache = forward_pass_full(bb, view, h, want_cache=True, start=start)
            assert part_logits.tobytes() == logits.tobytes() == ref_logits.tobytes()
            grads = backward_pass(bb, part_cache, dlogits)
            got = dict(gradient_arrays(grads))
            assert got.keys() == full.keys()
            for label, arr in got.items():
                if isinstance(label, tuple) and label[1] in below:
                    assert np.all(arr == 0.0) and not np.any(np.signbit(arr)), label
                else:
                    assert arr.tobytes() == full[label].tobytes(), label
            ref = backward_pass_full(bb, ref_cache, dlogits)
            for label, got_arr, want in gradient_pairs(bb, view, grads, ref):
                assert got_arr.tobytes() == want.tobytes(), label


STEP_ARCHES = {
    "default": lambda: parse_config_data({}).arch,
    "wide": wide_arch,
    "group-norm": lambda: parse_config_data({"arch": {"group_norm": True}}).arch,
}


def gradient_arrays(grads: BackwardResult):
    """(label, array) for every gradient a backward pass returns."""
    for f in dataclasses.fields(BackwardResult):
        value = getattr(grads, f.name)
        if isinstance(value, dict):
            yield from (((f.name, key), arr) for key, arr in value.items())
        else:
            yield f.name, value


class TestStepWorkspaces:
    """Steps whose layers keep their buffers from pass to pass give the bytes
    of steps whose layers start every pass with no buffer, which allocate
    every array."""

    @pytest.mark.parametrize("arch_name", list(STEP_ARCHES))
    def test_three_steps_bitwise_equal(self, arch_name):
        arch = STEP_ARCHES[arch_name]()
        kept, fresh = populated_backbone(arch, seed=7), populated_backbone(arch, seed=7)

        def start_pass(bb):   # the fresh backbone's layers start each pass empty
            if bb is fresh:
                for layer in bb.layers:
                    layer.workspace.clear()

        r = np.random.default_rng(8)
        size = arch.image_size
        # the on channels change and the last batch is short, so buffers are
        # grown, reused whole and reused in part; "one" takes the lone-channel path
        for kinds, n in [(("part", "part"), 32), (("all", "all"), 32), (("part", "one"), 20)]:
            view = channel_view(kept, r, kinds, arch.group_norm)
            x = r.normal(size=(n, arch.in_channels, size, size))
            y = r.integers(0, 3, size=n)
            results = []
            for bb in (kept, fresh):
                start_pass(bb)
                logits, cache = forward_pass(bb, view, x, want_cache=True)
                _, dlogits = cross_entropy(logits, y)
                grads = backward_pass(bb, cache, dlogits)
                for layer in bb.layers:
                    layer.weights -= 0.1 * grads.d_eff_weights[layer.spec.name]
                    layer.bias -= 0.1 * grads.d_bias[layer.spec.name]
                # a validation pass between steps, in the same buffers
                start_pass(bb)
                val_logits = forward_pass(bb, view, x[:24])
                results.append([("logits", logits), ("validation", val_logits),
                                *gradient_arrays(grads)])
            for (label, got), (_, want) in zip(*results, strict=True):
                assert got.tobytes() == want.tobytes(), label
            for a, b in zip(kept.layers, fresh.layers):
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.bias.tobytes() == b.bias.tobytes()
        assert all(layer.workspace for layer in kept.layers)   # every layer's ops used it
