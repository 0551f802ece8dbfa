import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcl.masks import (
    MaskParam,
    binarize_ste,
    gumbel_from_uniform,
    gumbel_noise,
    gumbel_sigmoid,
    gumbel_sigmoid_grad,
    l0_penalty,
    sigmoid,
    ste_logit_grad,
)
from growcl.ops import finite_diff_check
from growcl.rng import SeededRng

EULER_MASCHERONI = 0.5772156649015329


class TestGumbelNoise:
    def test_fixed_point_at_one_over_e(self):
        assert gumbel_from_uniform(1.0 / math.e) == 0.0

    def test_empirical_mean_is_euler_mascheroni(self):
        g = gumbel_noise(SeededRng(0).substream("gumbel"), shape=10**6)
        assert abs(g.mean() - EULER_MASCHERONI) < 0.01

    def test_same_seed_same_sequence(self):
        a = gumbel_noise(SeededRng(5).substream("gumbel"), shape=1000)
        b = gumbel_noise(SeededRng(5).substream("gumbel"), shape=1000)
        assert np.array_equal(a, b)

    def test_all_finite(self):
        g = gumbel_noise(SeededRng(1), shape=10**5)
        assert np.all(np.isfinite(g))


class TestGumbelSigmoid:
    def test_zero_noise_unit_temperature_is_one_third(self):
        p = gumbel_sigmoid(0.0, 0.0, 0.0, temperature=1.0)
        assert float(p) == 1.0 / 3.0

    def test_small_temperature_collapses_toward_zero(self):
        p = gumbel_sigmoid(0.0, 0.0, 0.0, temperature=0.01)
        assert float(p) < 1e-10

    @pytest.mark.parametrize("m_r", [-2.0, 0.0, 2.0])
    def test_threshold_crossing_frequency(self, m_r):
        # P(p > 0.5) = sigmoid(m_r) / (1 + sigmoid(m_r)), independent of T
        rng = SeededRng(99).substream("gumbel")
        n = 10**5
        g0 = gumbel_noise(rng, n)
        g1 = gumbel_noise(rng, n)
        p = gumbel_sigmoid(np.full(n, m_r), g0, g1, temperature=0.05)
        s = sigmoid(np.array(m_r))
        assert abs((p > 0.5).mean() - s / (1.0 + s)) < 0.02

    @given(
        m_r=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        g0=st.floats(min_value=-30, max_value=30, allow_nan=False),
        g1=st.floats(min_value=-30, max_value=30, allow_nan=False),
        t=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_output_strictly_inside_unit_interval(self, m_r, g0, g1, t):
        p = float(gumbel_sigmoid(m_r, g0, g1, t))
        assert 0.0 < p < 1.0


class TestBinarize:
    def test_threshold_with_tie_rounding_up(self):
        bits = binarize_ste(np.array([0.2, 0.5, 0.9]))
        assert np.array_equal(bits, [0.0, 1.0, 1.0])

    def test_surrogate_matches_finite_differences_of_relaxed_path(self):
        rng = SeededRng(3).substream("gumbel")
        logits0 = np.array([-1.5, -0.2, 0.4, 2.0])
        g0 = gumbel_noise(rng, logits0.shape)
        g1 = gumbel_noise(rng, logits0.shape)
        upstream = np.array([0.7, -1.2, 0.5, 2.0])
        t = 0.8

        def f(logits):
            p = gumbel_sigmoid(logits, g0, g1, t)
            value = float((upstream * p).sum())
            grad = ste_logit_grad(upstream, logits, g0, g1, t)
            return value, grad

        res = finite_diff_check(f, logits0.copy(), eps=1e-6)
        assert res < 1e-5

    def test_grad_formula_matches_direct_derivative(self):
        m = np.linspace(-3, 3, 13)
        g0 = np.zeros_like(m)
        g1 = np.zeros_like(m)
        eps = 1e-7
        num = (gumbel_sigmoid(m + eps, g0, g1, 0.7) - gumbel_sigmoid(m - eps, g0, g1, 0.7)) / (2 * eps)
        ana = gumbel_sigmoid_grad(m, g0, g1, 0.7)
        assert np.max(np.abs(num - ana)) < 1e-8


class TestL0Penalty:
    def test_counts_one_bits(self):
        m = np.array([[1.0, 0.0], [1.0, 1.0]])
        value, _ = l0_penalty(m, np.zeros((2, 2)), lam=1.0)
        assert value == 3.0

    def test_zero_mask_keeps_nonzero_surrogate(self):
        m = np.zeros((2, 2))
        value, grad = l0_penalty(m, np.full((2, 2), -2.0), lam=0.5)
        assert value == 0.0
        assert np.all(grad > 0.0)

    def test_surrogate_matches_relaxed_count_derivative(self):
        logits0 = np.linspace(-2, 2, 6)
        lam = 0.37
        m = binarize_ste(sigmoid(logits0))

        def f(logits):
            value = lam * float(sigmoid(logits).sum())
            _, grad = l0_penalty(m, logits, lam)
            return value, grad

        res = finite_diff_check(f, logits0.copy(), eps=1e-6)
        assert res < 1e-6


    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            l0_penalty(np.zeros(3), np.zeros((3, 2)), lam=1.0)
        with pytest.raises(ValueError, match="shape"):
            l0_penalty(np.zeros((2, 3)), np.zeros((3, 2)), lam=1.0)


class TestMaskParam:
    def test_hard_bits_threshold_at_zero_logit(self):
        p = MaskParam(np.array([-0.1, 0.0, 0.3]))
        assert np.array_equal(p.hard_bits(), [0.0, 1.0, 1.0])
