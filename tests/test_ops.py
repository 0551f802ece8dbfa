import math

import numpy as np
import pytest

from growcl.ops import (
    ShapeError,
    conv2d,
    conv2d_backward,
    cross_entropy,
    finite_diff_check,
    group_norm,
    group_norm_backward,
    linear,
    linear_backward,
    maxpool2d,
    maxpool2d_backward,
    relu,
    relu_backward,
    sgd_step,
)

from oracles import (
    conv2d_loops,
    cross_entropy_direct,
    linear_loops,
    maxpool2d_argmax,
    maxpool2d_argmax_backward,
    maxpool2d_loops,
    maxpool2d_strided,
    maxpool2d_strided_backward,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConv2d:
    def test_all_ones_3x3_sums_to_nine(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out, _ = conv2d(x, w, np.zeros(1))
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_identity_1x1_kernel(self):
        x = rng(1).normal(size=(2, 1, 5, 5))
        w = np.ones((1, 1, 1, 1))
        out, _ = conv2d(x, w, np.zeros(1))
        assert np.array_equal(out, x)

    def test_matches_nested_loop_oracle(self):
        r = rng(2)
        x = r.normal(size=(2, 3, 5, 5))
        w = r.normal(size=(4, 3, 3, 3))
        b = r.normal(size=4)
        out, _ = conv2d(x, w, b, stride=1, pad=1)
        ref = conv2d_loops(x, w, b, stride=1, pad=1)
        assert np.max(np.abs(out - ref)) < 1e-12

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (1, 2)])
    def test_strided_padded_against_oracle(self, stride, pad):
        r = rng(stride * 10 + pad)
        x = r.normal(size=(2, 2, 7, 7))
        w = r.normal(size=(3, 2, 3, 3))
        b = r.normal(size=3)
        out, _ = conv2d(x, w, b, stride=stride, pad=pad)
        ref = conv2d_loops(x, w, b, stride=stride, pad=pad)
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_channel_mismatch_reports_dims(self):
        with pytest.raises(ShapeError, match="2.*3|3.*2"):
            conv2d(np.zeros((1, 2, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    def test_non_integral_output_rejected(self):
        with pytest.raises(ShapeError):
            conv2d(np.zeros((1, 1, 5, 5)), np.zeros((1, 1, 2, 2)), np.zeros(1), stride=2)

    def test_forward_is_pure(self):
        r = rng(3)
        x = r.normal(size=(1, 2, 6, 6))
        w = r.normal(size=(2, 2, 3, 3))
        b = r.normal(size=2)
        a, _ = conv2d(x, w, b, pad=1)
        c, _ = conv2d(x, w, b, pad=1)
        assert a.tobytes() == c.tobytes()

    def test_zero_output_channels(self):
        x = rng(4).normal(size=(2, 3, 5, 5))
        out, cache = conv2d(x, np.zeros((0, 3, 3, 3)), np.zeros(0), pad=1)
        assert out.shape == (2, 0, 5, 5)
        dx, dw, db = conv2d_backward(np.zeros(out.shape), cache)
        assert dw.shape == (0, 3, 3, 3) and db.shape == (0,)
        assert dx.shape == x.shape and np.all(dx == 0.0)

    def test_zero_input_channels(self):
        b = np.array([0.5, -1.0])
        out, cache = conv2d(np.zeros((2, 0, 5, 5)), np.zeros((2, 0, 3, 3)), b, pad=1)
        assert out.shape == (2, 2, 5, 5)
        assert np.array_equal(out, np.broadcast_to(b[None, :, None, None], out.shape))
        dout = rng(5).normal(size=out.shape)
        dx, dw, db = conv2d_backward(dout, cache)
        assert dx.shape == (2, 0, 5, 5) and dw.shape == (2, 0, 3, 3)
        assert np.array_equal(db, dout.sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("rows", [[0], [2], [1, 3], [0, 2, 3]])
    def test_channel_bytes_independent_of_companions(self, rows):
        # compaction computes a subset of output channels; each must come out
        # byte-identical to the same channel of the full-width conv, and so
        # must its bias gradient
        r = rng(6)
        x = r.normal(size=(4, 5, 8, 8))
        w = r.normal(size=(4, 5, 3, 3))
        b = r.normal(size=4)
        full, full_cache = conv2d(x, w, b, pad=1)
        part, part_cache = conv2d(x, w[rows], b[rows], pad=1)
        assert part.tobytes() == np.ascontiguousarray(full[:, rows]).tobytes()
        dout = r.normal(size=full.shape)
        _, _, db_full = conv2d_backward(dout, full_cache)
        _, _, db_part = conv2d_backward(np.take(dout, rows, axis=1), part_cache)
        assert db_part.tobytes() == db_full[rows].tobytes()

    def test_backward_without_input_gradient(self):
        r = rng(7)
        x = r.normal(size=(2, 2, 6, 6))
        out, cache = conv2d(x, r.normal(size=(3, 2, 3, 3)), r.normal(size=3), pad=1)
        dout = r.normal(size=out.shape)
        _, dw, db = conv2d_backward(dout, cache)
        dx, dw_only, db_only = conv2d_backward(dout, cache, need_dx=False)
        assert dx is None
        assert dw_only.tobytes() == dw.tobytes() and db_only.tobytes() == db.tobytes()


class TestWorkspaces:
    def test_calls_without_a_workspace_share_no_memory(self):
        r = rng(11)
        x, w, b = r.normal(size=(2, 3, 6, 6)), r.normal(size=(4, 3, 3, 3)), r.normal(size=4)
        calls = []
        for _ in range(2):
            out, cache = conv2d(x, w, b, pad=1)
            dx, _, _ = conv2d_backward(np.ones(out.shape), cache)
            pool_dx = maxpool2d_backward(np.ones((2, 4, 3, 3)), maxpool2d(out, k=2)[1])
            calls.append((out, cache[0], dx, pool_dx))
        for first, second in zip(*calls):
            assert not np.shares_memory(first, second)
        # one workspace: the second call's output takes the first's buffer
        ws = {}
        a, _ = conv2d(x, w, b, pad=1, workspace=ws)
        c, _ = conv2d(x, w, b, pad=1, workspace=ws)
        assert np.shares_memory(a, c) and c.tobytes() == calls[0][0].tobytes()


class TestLinear:
    def test_identity_weight(self):
        x = rng(4).normal(size=(3, 5))
        out, _ = linear(x, np.eye(5), np.zeros(5))
        assert np.array_equal(out, x)

    def test_zero_weight_gives_bias_rows(self):
        b = np.array([1.0, -2.0])
        out, _ = linear(np.ones((4, 3)), np.zeros((2, 3)), b)
        assert np.array_equal(out, np.tile(b, (4, 1)))

    def test_matches_loop_oracle(self):
        r = rng(5)
        x = r.normal(size=(3, 4))
        w = r.normal(size=(6, 4))
        b = r.normal(size=6)
        out, _ = linear(x, w, b)
        assert np.max(np.abs(out - linear_loops(x, w, b))) < 1e-12

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            linear(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(4))


class TestRelu:
    def test_definition(self):
        out, _ = relu(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_all_negative_blocks_gradient(self):
        x = -np.abs(rng(6).normal(size=(3, 3))) - 0.1
        out, cache = relu(x)
        assert np.array_equal(out, np.zeros_like(x))
        assert np.array_equal(relu_backward(np.ones_like(x), cache), np.zeros_like(x))

    def test_negative_zero_maps_to_positive_zero(self):
        out, _ = relu(np.array([-0.0]))
        assert not np.signbit(out[0])

    def test_gradient_off_kink(self):
        r = rng(7)
        x0 = r.normal(size=(4, 4))
        x0[np.abs(x0) < 1e-3] += 0.1  # keep away from the kink

        def f(x):
            out, cache = relu(x)
            loss = float((out ** 2).sum())
            return loss, relu_backward(2.0 * out, cache)

        res = finite_diff_check(f, x0, eps=1e-6)
        assert res < 1e-6


class TestMaxpool:
    def test_two_by_two(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out, _ = maxpool2d(x, k=2)
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 4.0

    def test_tie_routes_to_first_row_major(self):
        x = np.full((1, 1, 2, 2), 5.0)
        out, cache = maxpool2d(x, k=2)
        assert out[0, 0, 0, 0] == 5.0
        dx = maxpool2d_backward(np.ones((1, 1, 1, 1)), cache)
        expect = np.zeros((1, 1, 2, 2))
        expect[0, 0, 0, 0] = 1.0
        assert np.array_equal(dx, expect)

    def test_matches_loop_oracle(self):
        r = rng(8)
        x = r.normal(size=(2, 3, 6, 6))
        out, _ = maxpool2d(x, k=2)
        assert np.array_equal(out, maxpool2d_loops(x, 2, 2))

    def test_window_exceeding_input_rejected(self):
        with pytest.raises(ShapeError):
            maxpool2d(np.zeros((1, 1, 2, 2)), k=3)

    def test_backward_gradcheck(self):
        r = rng(9)
        x0 = r.normal(size=(1, 2, 4, 4))
        # keep window maxima unique so the pooled argmax is stable under eps
        x0 += np.arange(x0.size).reshape(x0.shape) * 1e-3

        def f(x):
            out, cache = maxpool2d(x, k=2)
            loss = float((out ** 2).sum())
            return loss, maxpool2d_backward(2.0 * out, cache)

        res = finite_diff_check(f, x0, eps=1e-6)
        assert res < 1e-6


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])


def special_array(r, shape, frac=0.3):
    """Normals rounded half the time (ties), with a fraction replaced by
    +-0.0, +-inf, NaN and +-1."""
    x = r.normal(size=shape).round(int(r.integers(0, 2)))
    hit = r.random(shape) < frac
    x[hit] = r.choice(SPECIALS, size=int(hit.sum()))
    return x


class TestPoolBeforeRelu:
    """maxpool then relu gives the bytes of relu then the argmax maxpool,
    forward and backward: the order the backbone runs them in."""

    def check(self, x, k, dout):
        relu_out, relu_cache = relu(x)
        want, pool_cache = maxpool2d_argmax(relu_out, k)
        want_dx = relu_backward(maxpool2d_argmax_backward(dout, pool_cache), relu_cache)
        pooled, pool_cache = maxpool2d(x, k)
        got, relu_cache = relu(pooled)
        got_dx = maxpool2d_backward(relu_backward(dout, relu_cache), pool_cache)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got_dx.shape == want_dx.shape and got_dx.tobytes() == want_dx.tobytes()

    def test_random_inputs_with_ties_zeros_infs_and_nans(self):
        r = rng(20)
        for _ in range(300):
            k = int(r.integers(2, 4))
            shape = (int(r.integers(1, 3)), int(r.integers(0, 3)),
                     int(r.integers(k, 3 * k + 2)), int(r.integers(k, 3 * k + 2)))
            x = special_array(r, shape)
            ho, wo = shape[2] // k, shape[3] // k
            self.check(x, k, special_array(r, shape[:2] + (ho, wo)))

    @pytest.mark.parametrize("k", [2, 3])
    def test_windows_of_nan_and_numbers(self, k):
        # every window of k*k slots holding NaN in one slot and a number,
        # +-0.0 or +-inf in the others, in every slot order
        r = rng(21)
        for value in (-1.0, 2.0, 0.0, -0.0, np.inf, -np.inf):
            for nan_slot in range(k * k):
                window = np.full(k * k, value)
                window[nan_slot] = np.nan
                x = window.reshape(1, 1, k, k)
                self.check(x, k, r.normal(size=(1, 1, 1, 1)))

    def test_nan_loses_to_every_number(self):
        x = np.array([[[[np.nan, -np.inf], [np.nan, -1.0]]]])
        out, cache = maxpool2d(x, 2)
        assert out[0, 0, 0, 0] == -1.0
        dx = maxpool2d_backward(np.ones((1, 1, 1, 1)), cache)
        assert np.array_equal(dx, [[[[0.0, 0.0], [0.0, 1.0]]]])
        all_nan, _ = maxpool2d(np.full((1, 1, 2, 2), np.nan), 2)
        assert np.isnan(all_nan[0, 0, 0, 0])

    def test_negative_zero_gradient_lands_as_positive_zero(self):
        x = np.array([[[[1.0, 3.0], [2.0, 0.5]]]])
        _, cache = maxpool2d(x, 2)
        dx = maxpool2d_backward(np.array([[[[-0.0]]]]), cache)
        assert not np.signbit(dx).any()

    def test_zero_channels_and_ragged_extents(self):
        x = np.zeros((2, 0, 7, 5))
        out, cache = maxpool2d(x, 3)
        assert out.shape == (2, 0, 2, 1)
        assert maxpool2d_backward(out, cache).shape == x.shape
        r = rng(22)
        self.check(special_array(r, (2, 3, 7, 5)), 3, special_array(r, (2, 3, 2, 1)))


class TestStandaloneMaxpool:
    """maxpool2d and its backward, on their own, against the strided
    compare-and-copy kernel: relu(out) byte for byte, out up to the sign of
    a pooled zero, and dx byte for byte."""

    def check(self, x, k, dout):
        want, want_cache = maxpool2d_strided(x, k)
        got, cache = maxpool2d(x, k)
        assert got.shape == want.shape
        assert relu(got)[0].tobytes() == relu(want)[0].tobytes()
        assert np.array_equal(got, want, equal_nan=True)
        want_dx = maxpool2d_strided_backward(dout, want_cache)
        got_dx = maxpool2d_backward(dout, cache)
        assert got_dx.shape == want_dx.shape and got_dx.tobytes() == want_dx.tobytes()

    @pytest.mark.parametrize("k", [2, 3])
    def test_special_values_ragged_extents_and_zero_channels(self, k):
        r = rng(30 + k)
        for _ in range(200):
            shape = (int(r.integers(1, 3)), int(r.integers(0, 3)),
                     int(r.integers(k, 3 * k + 2)), int(r.integers(k, 3 * k + 2)))
            x = special_array(r, shape, frac=float(r.choice([0.3, 0.9])))
            dout = special_array(r, shape[:2] + (shape[2] // k, shape[3] // k))
            self.check(x, k, dout)

    @pytest.mark.parametrize("k", [2, 3])
    def test_windows_of_nan_and_signed_zeros(self, k):
        # all-NaN windows and +-0.0 ties in every mix, with -0.0 gradients
        r = rng(40 + k)
        x = r.choice([np.nan, 0.0, -0.0], p=[0.7, 0.15, 0.15], size=(2, 3, 4 * k + 1, 5 * k))
        dout = r.choice([-0.0, 0.0, 1.0, -2.0, np.nan], size=(2, 3, 4, 5))
        self.check(x, k, dout)

    @pytest.mark.parametrize("k", [2, 3])
    def test_backward_in_the_buffer_of_its_conv_output(self, k):
        # as in the backbone, dx takes the workspace buffer that holds x, the
        # conv output; with one output channel the two are laid out apart.
        # One workspace serves every case, so its buffers keep stale bytes.
        r = rng(50 + k)
        ws = {}
        for _ in range(80):
            n, cin, cout = int(r.integers(1, 4)), int(r.integers(1, 3)), int(r.choice([1, 1, 2, 3]))
            h, w = int(r.integers(k, 3 * k + 2)), int(r.integers(k, 3 * k + 2))
            x = special_array(r, (n, cin, h, w), frac=0.5)
            filters = r.choice([1.0, -1.0, 0.0], size=(cout, cin, 1, 1))
            bias = r.choice([0.0, -0.0, 1.0], size=cout)
            dout = special_array(r, (n, cout, h // k, w // k))
            with np.errstate(invalid="ignore"):   # inf times 0.0
                want_pooled, want_cache = maxpool2d(conv2d(x, filters, bias)[0], k)
                out, _ = conv2d(x, filters, bias, workspace=ws)
            want = maxpool2d_backward(dout, want_cache)
            pooled, cache = maxpool2d(out, k)
            got = maxpool2d_backward(dout, cache, workspace=ws)
            assert np.shares_memory(got, out)
            assert pooled.tobytes() == want_pooled.tobytes()
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_all_nan_window_routes_to_slot_zero(self):
        out, cache = maxpool2d(np.full((1, 1, 3, 3), np.nan), 3)
        assert np.isnan(out[0, 0, 0, 0])
        dx = maxpool2d_backward(np.full((1, 1, 1, 1), 2.0), cache)
        expect = np.zeros((1, 1, 3, 3))
        expect[0, 0, 0, 0] = 2.0
        assert dx.tobytes() == expect.tobytes()

    def test_signed_zero_tie_routes_to_first_zero(self):
        x = np.array([[[[-1.0, 0.0], [-0.0, 0.0]]]])
        out, cache = maxpool2d(x, 2)
        assert out[0, 0, 0, 0] == 0.0
        dx = maxpool2d_backward(np.ones((1, 1, 1, 1)), cache)
        assert dx.tobytes() == np.array([[[[0.0, 1.0], [0.0, 0.0]]]]).tobytes()


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        loss, _ = cross_entropy(np.zeros((3, 4)), np.array([0, 1, 3]))
        assert abs(loss - math.log(4)) < 1e-12

    def test_saturated_correct_class(self):
        z = np.zeros((1, 5))
        z[0, 2] = 50.0
        loss, _ = cross_entropy(z, np.array([2]))
        assert loss < 1e-9

    def test_matches_direct_formula(self):
        r = rng(10)
        z = r.normal(size=(6, 5)) * 3.0
        y = r.integers(0, 5, size=6)
        loss, _ = cross_entropy(z, y)
        assert abs(loss - cross_entropy_direct(z, y)) < 1e-12

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="7"):
            cross_entropy(np.zeros((2, 4)), np.array([1, 7]))

    def test_gradient(self):
        r = rng(11)
        z0 = r.normal(size=(4, 3))
        y = np.array([0, 2, 1, 1])

        def f(z):
            return cross_entropy(z, y)

        res = finite_diff_check(f, z0, eps=1e-6)
        assert res < 1e-8


class TestSgdStep:
    def test_plain_step(self):
        p = np.array([1.0])
        v = np.zeros(1)
        sgd_step(p, np.array([0.5]), lr=0.1, momentum=0.0, velocity=v)
        assert p[0] == pytest.approx(0.95, abs=1e-15)

    def test_zero_gradient_no_move(self):
        p = np.array([2.0, -3.0])
        v = np.zeros(2)
        sgd_step(p, np.zeros(2), lr=0.1, momentum=0.9, velocity=v)
        assert np.array_equal(p, [2.0, -3.0])

    def test_two_momentum_steps(self):
        p = np.array([1.0])
        v = np.zeros(1)
        g = np.array([0.5])
        sgd_step(p, g, lr=0.1, momentum=0.9, velocity=v)
        sgd_step(p, g, lr=0.1, momentum=0.9, velocity=v)
        assert v[0] == pytest.approx(0.95, abs=1e-15)
        assert p[0] == pytest.approx(1.0 - 0.1 * (0.5 + 0.95), abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_step(np.zeros(2), np.zeros(3), 0.1, 0.0, np.zeros(2))

    def test_keep_freezes_entries_with_momentum_behind_them(self):
        r = rng(18)
        p = r.normal(size=(3, 4))
        p[0, 0] = -0.0
        v = r.normal(size=(3, 4))    # nonzero everywhere, as after trainable steps
        g = r.normal(size=(3, 4))
        keep = np.zeros((3, 4), dtype=bool)
        keep[1] = True
        before, v0 = p.copy(), v.copy()
        sgd_step(p, g, lr=0.1, momentum=0.9, velocity=v, keep=keep)
        assert p[~keep].tobytes() == before[~keep].tobytes()
        assert np.all(v[~keep] == 0.0)
        v_kept = 0.9 * v0[keep] + g[keep]
        assert v[keep].tobytes() == v_kept.tobytes()
        assert p[keep].tobytes() == (before[keep] - 0.1 * v_kept).tobytes()

    def test_keep_all_matches_plain_step(self):
        r = rng(19)
        p, v, g = (r.normal(size=5) for _ in range(3))
        p2, v2 = p.copy(), v.copy()
        sgd_step(p, g, 0.1, 0.9, v)
        sgd_step(p2, g, 0.1, 0.9, v2, keep=np.ones(5, dtype=bool))
        assert p.tobytes() == p2.tobytes() and v.tobytes() == v2.tobytes()

    @pytest.mark.parametrize("keep", [np.ones(3, dtype=bool), np.ones(2)])
    def test_keep_must_be_bool_of_param_shape(self, keep):
        with pytest.raises(ShapeError):
            sgd_step(np.zeros(2), np.zeros(2), 0.1, 0.0, np.zeros(2), keep=keep)


class TestFiniteDiffCheck:
    def test_quadratic_is_exact(self):
        x0 = rng(12).normal(size=7)

        def f(x):
            return 0.5 * float(x @ x), x.copy()

        res = finite_diff_check(f, x0, eps=1e-5)
        assert res < 1e-8

    def test_planted_scale_fault_is_flagged(self):
        x0 = rng(13).normal(size=5) + 2.0

        def f(x):
            return 0.5 * float(x @ x), 2.0 * x  # analytic gradient doubled

        res = finite_diff_check(f, x0, eps=1e-5)
        assert res == pytest.approx(1.0, abs=1e-3)

    def test_composite_conv_relu_ce(self):
        r = rng(14)
        x = r.normal(size=(2, 1, 5, 5))
        w0 = r.normal(size=(2, 1, 3, 3)) * 0.5
        b = r.normal(size=2) * 0.1
        y = np.array([0, 1])

        def f(wflat):
            w = wflat.reshape(2, 1, 3, 3)
            h1, c1 = conv2d(x, w, b, pad=1)
            h2, c2 = relu(h1)
            h3, c3 = maxpool2d(h2, k=5)
            loss, dz = cross_entropy(h3.reshape(2, 2), y)
            dh3 = dz.reshape(h3.shape)
            dh2 = maxpool2d_backward(dh3, c3)
            dh1 = relu_backward(dh2, c2)
            _, dw, _ = conv2d_backward(dh1, c1)
            return loss, dw.ravel()

        res = finite_diff_check(f, w0.ravel(), eps=1e-5)
        assert res < 1e-5


class TestBackwardPasses:
    """Analytic gradients of every layer against central differences."""

    def test_conv_all_inputs(self):
        r = rng(15)
        x = r.normal(size=(2, 2, 4, 4))
        w = r.normal(size=(3, 2, 3, 3))
        b = r.normal(size=3)
        dout = r.normal(size=(2, 3, 4, 4))

        def loss_of(xv, wv, bv):
            out, _ = conv2d(xv, wv, bv, pad=1)
            return float((out * dout).sum())

        out, cache = conv2d(x, w, b, pad=1)
        dx, dw, db = conv2d_backward(dout, cache)

        res = finite_diff_check(lambda v: (loss_of(v.reshape(x.shape), w, b), dx.ravel()), x.ravel())
        assert res < 1e-6
        res = finite_diff_check(lambda v: (loss_of(x, v.reshape(w.shape), b), dw.ravel()), w.ravel())
        assert res < 1e-6
        res = finite_diff_check(lambda v: (loss_of(x, w, v), db), b.copy())
        assert res < 1e-6

    def test_linear_all_inputs(self):
        r = rng(16)
        x = r.normal(size=(3, 4))
        w = r.normal(size=(2, 4))
        b = r.normal(size=2)
        dout = r.normal(size=(3, 2))

        out, cache = linear(x, w, b)
        dx, dw, db = linear_backward(dout, cache)

        def loss_of(xv, wv, bv):
            o, _ = linear(xv, wv, bv)
            return float((o * dout).sum())

        assert finite_diff_check(lambda v: (loss_of(v.reshape(x.shape), w, b), dx.ravel()), x.ravel()) < 1e-7
        assert finite_diff_check(lambda v: (loss_of(x, v.reshape(w.shape), b), dw.ravel()), w.ravel()) < 1e-7
        assert finite_diff_check(lambda v: (loss_of(x, w, v), db), b.copy()) < 1e-7

    def test_group_norm(self):
        r = rng(17)
        x = r.normal(size=(2, 4, 3, 3))
        g = r.normal(size=4) + 1.5
        sh = r.normal(size=4)
        dout = r.normal(size=x.shape)

        out, cache = group_norm(x, g, sh)
        dx, dg, dsh = group_norm_backward(dout, cache)

        def loss_of(xv, gv, sv):
            o, _ = group_norm(xv, gv, sv)
            return float((o * dout).sum())

        assert finite_diff_check(lambda v: (loss_of(v.reshape(x.shape), g, sh), dx.ravel()), x.ravel()) < 1e-5
        assert finite_diff_check(lambda v: (loss_of(x, v, sh), dg), g.copy()) < 1e-6
        assert finite_diff_check(lambda v: (loss_of(x, g, v), dsh), sh.copy()) < 1e-6
