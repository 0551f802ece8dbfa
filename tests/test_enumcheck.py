import hashlib

import numpy as np
import pytest

from growcl.enumcheck import (
    MicroInstance,
    _grid_tables,
    random_instance,
    run_sweep,
    verify_mask_freedom,
)
from growcl.rng import SeededRng

from oracles import (
    cross_entropy_direct,
    enumerate_min_loss,
    evaluate_configuration,
)


def make_instance(grid=(-1.0, -0.5, 0.0, 0.5, 1.0), ci=2, lam=0.1, seed=0):
    r = np.random.default_rng(seed)
    inputs = r.uniform(-1, 1, size=(6, ci))
    labels = r.integers(0, 2, size=6).astype(np.int64)
    return MicroInstance(1, 2, ci, grid, inputs, labels, lam)


class TestEnumerateMinLoss:
    def test_zero_lambda_with_interpolating_grid(self):
        # one input channel, x>0 -> class 1; weights (w0,w1)=(-1,+1) with
        # gates on separates perfectly, so the minimum is the data loss of
        # that solution
        inputs = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        labels = np.array([1, 0, 1, 0])
        inst = MicroInstance(1, 2, 1, (-1.0, 0.0, 1.0), inputs, labels, lam=0.0)
        res = enumerate_min_loss(inst, attentive_free=False)
        eff = res.argmin_weights * res.argmin_gate[:, None]
        direct = cross_entropy_direct(inputs @ eff.T, labels)
        assert res.min_loss == pytest.approx(direct, abs=1e-12)

    def test_argmin_reevaluates_to_reported_min(self):
        inst = make_instance()
        for free in (False, True):
            res = enumerate_min_loss(inst, attentive_free=free)
            again = evaluate_configuration(
                inst, res.argmin_weights, res.argmin_gate, res.argmin_kernel_mask
            )
            assert again == pytest.approx(res.min_loss, abs=1e-12)

    def test_constrained_branch_pins_identity_mask(self):
        inst = make_instance()
        res = enumerate_min_loss(inst, attentive_free=False)
        assert np.all(res.argmin_kernel_mask == 1.0)

    def test_equality_when_all_ones_mask_is_optimal(self):
        # grid contains 0, so any mask effect is reachable by weights alone
        inst = make_instance(grid=(-1.0, -0.5, 0.0, 0.5, 1.0))
        free = enumerate_min_loss(inst, attentive_free=True)
        constrained = enumerate_min_loss(inst, attentive_free=False)
        assert free.min_loss == constrained.min_loss


class TestVerify:
    def test_any_valid_instance_passes(self):
        for seed in range(10):
            inst = make_instance(seed=seed)
            res = verify_mask_freedom(inst)
            assert res.passed
            assert res.min_free <= res.min_constrained

    def test_shared_enumeration_matches_per_branch_calls(self):
        inst = make_instance(grid=(-1.0, 1.0), seed=3)
        res = verify_mask_freedom(inst)
        assert res.min_free == enumerate_min_loss(inst, True).min_loss
        assert res.min_constrained == enumerate_min_loss(inst, False).min_loss

    def test_strict_gap_exists_without_zero_in_grid(self):
        # feature 2 is only partially label-correlated and the grid excludes
        # 0, so zeroing one kernel realizes a slope no weight pair can
        inputs = np.array([
            [-0.754, -0.697], [0.482, 0.823], [-0.965, 0.600],
            [-0.551, 0.570], [-0.492, -0.633], [0.482, 0.684],
        ])
        labels = np.array([0, 1, 0, 0, 0, 1])
        inst = MicroInstance(1, 2, 2, (-1.0, 1.0), inputs, labels, lam=0.0)
        res = verify_mask_freedom(inst)
        assert res.passed and res.strict
        assert res.min_constrained - res.min_free > 0.01
        free = enumerate_min_loss(inst, attentive_free=True)
        assert np.any(free.argmin_kernel_mask == 0.0)

    @pytest.mark.parametrize("force", [False, True], ids=["free", "identity-mask"])
    def test_minima_equal_the_full_triple_table(self, force):
        # the sweep's own instances at 3 seeds, plus one- and two-input
        # instances on grids with and without 0
        instances = [
            random_instance(SeededRng(seed).substream("enumcheck").substream(f"instance{i}"), i)
            for seed in range(3) for i in range(1, 101)
        ]
        instances += [
            make_instance(grid=grid, ci=ci, seed=seed)
            for grid in ((-1.0, -0.5, 0.0, 0.5, 1.0), (-1.0, 0.0, 1.0), (-1.0, 1.0), (-1.0, 0.5))
            for ci in (1, 2) for seed in range(3)
        ]
        for inst in instances:
            res = verify_mask_freedom(inst, force_identity_mask=force)
            assert res.min_free == enumerate_min_loss(inst, attentive_free=not force).min_loss
            assert res.min_constrained == enumerate_min_loss(inst, attentive_free=False).min_loss

    def test_cached_tables_serve_interleaved_calls(self):
        # one process, one cache: the planted fault on and off, grids with
        # and without 0 and one or two inputs, each key met twice in a
        # shuffled order, and every minimum still the oracle's
        _grid_tables.cache_clear()
        keys = [(force, grid, ci, seed)
                for force in (False, True)
                for grid in ((-1.0, 0.0, 1.0), (-1.0, 0.5), (-1.0, 1.0))
                for ci in (1, 2) for seed in (0, 1)]
        order = np.random.default_rng(4).permutation(len(keys))
        for force, grid, ci, seed in (keys[k] for k in order):
            inst = make_instance(grid=grid, ci=ci, seed=seed, lam=0.05 * seed)
            res = verify_mask_freedom(inst, force_identity_mask=force)
            assert res.min_free == enumerate_min_loss(inst, attentive_free=not force).min_loss
            assert res.min_constrained == enumerate_min_loss(inst, attentive_free=False).min_loss
        info = _grid_tables.cache_info()
        assert (info.misses, info.hits) == (len(keys) // 2, len(keys) // 2)

    def test_cached_tables_are_read_only(self):
        for table in _grid_tables(2, 2, (-1.0, 0.5), False):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = table[(0,) * table.ndim]

    def test_planted_identity_fault_removes_strict_gaps(self):
        report = run_sweep(40, seed=11, force_identity_mask=True)
        assert report.all_passed            # equality still satisfies <=
        assert report.suspicious_equality   # but the diagnostic flags it


class TestSweep:
    @pytest.mark.parametrize("n, seed, force, digest", [
        (300, 0, False, "9cffc7bb5ec5b0494e4c04d0c83a67480a99631cd2b60d92105b203d820a41b7"),
        (300, 1, False, "45070bcf0c58e7c6473ace54e239213e0676b37cbff09e1e6b931c9a732b9a26"),
        (300, 2, False, "96518f91d4eba97fcd37a9fffde36a52ec4958966cd056151de8bbfa752a5b02"),
        (40, 11, True, "81fddd4e503cfc904176bc24b22155e54ea728c2706d53b25452f83169140d7e"),
    ], ids=["seed0", "seed1", "seed2", "seed11-identity-mask"])
    def test_sweep_csv_bytes_are_pinned(self, n, seed, force, digest):
        # digests of the sweep as the full (weights, gate, kernel mask) table
        # computed it; any faster enumeration must reproduce these bytes
        csv = run_sweep(n, seed=seed, force_identity_mask=force).to_csv()
        assert hashlib.sha256(csv.encode()).hexdigest() == digest

    def test_sweep_is_deterministic(self):
        a = run_sweep(25, seed=7)
        b = run_sweep(25, seed=7)
        assert a.to_csv() == b.to_csv()

    def test_default_sweep_healthy(self):
        report = run_sweep(60, seed=0)
        assert report.all_passed
        assert report.strict_count >= 6     # >= 10% strict
        csv = report.to_csv()
        assert csv.splitlines()[0] == "instance_id,min_free,min_constrained,pass"
        assert len(csv.splitlines()) == 61

    def test_instance_generator_within_budget(self):
        rng = SeededRng(5)
        for i in range(30):
            inst = random_instance(rng.substream(str(i)), i)
            assert (inst.out_channels, inst.in_channels) == (2, 2)
            assert 5 <= len(inst.inputs) == len(inst.labels) <= 8
            assert set(inst.labels) <= {0, 1}
            # weights x channel gates x kernel masks
            n_weights = inst.out_channels * inst.in_channels
            size = len(inst.weight_grid) ** n_weights * 2**2 * 2**n_weights
            assert size <= 10**7
