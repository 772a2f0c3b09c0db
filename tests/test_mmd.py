import math

import numpy as np
import pytest

from mmdseg import (
    FAMILIES,
    KernelSpec,
    finite_diff_grad,
    kernel_matrix,
    make_batch_plan,
    make_rng,
    mmd2,
    mmd2_grad_y,
)
from mmdseg.errors import ShapeError
from mmdseg.mmd import simplex_weights

from oracles import mmd2_triple_loop, simplex_qp_by_supports


def spec_for(family):
    return KernelSpec(family=family, lengthscale=2.0, alpha=1.3)


class TestMmd2:
    def test_identical_samples(self):
        x = make_rng(50).normal(size=(6, 3))
        for family in FAMILIES:
            assert abs(mmd2(x, x.copy(), spec_for(family))) <= 1e-10

    def test_two_point_closed_form(self):
        spec = KernelSpec(family="gauss", lengthscale=1.0)
        val = mmd2(np.array([[0.0]]), np.array([[1.0]]), spec)
        assert val == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), abs=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_triple_loop(self, family):
        rng = make_rng(51)
        x, y = rng.normal(size=(7, 3)), rng.normal(size=(4, 3))
        spec = spec_for(family)
        assert mmd2(x, y, spec) == pytest.approx(mmd2_triple_loop(x, y, spec), abs=1e-10)

    def test_symmetry(self):
        rng = make_rng(52)
        x, y = rng.normal(size=(5, 4)), rng.normal(size=(6, 4))
        for family in FAMILIES:
            spec = spec_for(family)
            assert mmd2(x, y, spec) == pytest.approx(mmd2(y, x, spec), abs=1e-12)

    def test_nonnegativity(self):
        rng = make_rng(53)
        for family in FAMILIES:
            spec = spec_for(family)
            for _ in range(100):
                x = rng.normal(size=(int(rng.integers(1, 8)), 3))
                y = rng.normal(size=(int(rng.integers(1, 8)), 3))
                assert mmd2(x, y, spec) >= -1e-10, family

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mmd2(np.zeros((2, 3)), np.zeros((2, 4)), spec_for("gauss"))


class TestMmd2GradY:
    def test_stationary_at_identical_samples_gauss(self):
        x = make_rng(54).normal(size=(5, 3))
        grad = mmd2_grad_y(x, x.copy(), spec_for("gauss"))
        assert np.max(np.abs(grad)) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences(self, family):
        rng = make_rng(55)
        spec = spec_for(family)
        x, y = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (3, 2))
        grad = mmd2_grad_y(x, y, spec)
        fd = finite_diff_grad(lambda m: mmd2(x, m, spec), y, 1e-4)
        assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-4

    def test_duplicating_x_rows_leaves_gradient_unchanged(self):
        rng = make_rng(56)
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        for family in FAMILIES:
            spec = spec_for(family)
            g1 = mmd2_grad_y(x, y, spec)
            g2 = mmd2_grad_y(np.repeat(x, 2, axis=0), y, spec)
            assert np.allclose(g1, g2, atol=1e-10), family

    def test_descent_direction(self):
        rng = make_rng(57)
        for family in FAMILIES:
            spec = spec_for(family)
            x, y = rng.normal(size=(6, 3)), rng.normal(size=(3, 3))
            base = mmd2(x, y, spec)
            grad = mmd2_grad_y(x, y, spec)
            if np.max(np.abs(grad)) < 1e-12:
                continue
            for step in (1e-4, 1e-3):
                assert mmd2(x, y - step * grad, spec) < base, family


def simplex_point(rng, m):
    w = rng.uniform(0.05, 1.0, m)
    return w / w.sum()


class TestWeightedMmd2:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_triple_loop(self, family):
        rng = make_rng(62)
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(4, 3))
        w = simplex_point(rng, 4)
        spec = spec_for(family)
        assert mmd2(x, y, spec, w) == pytest.approx(mmd2_triple_loop(x, y, spec, w), abs=1e-10)

    def test_uniform_weights_are_the_default(self):
        rng = make_rng(63)
        x, y = rng.normal(size=(5, 3)), rng.normal(size=(3, 3))
        spec = spec_for("gauss_ntk")
        assert mmd2(x, y, spec, np.full(3, 1 / 3)) == pytest.approx(mmd2(x, y, spec), abs=1e-14)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gradient_matches_finite_differences(self, family):
        rng = make_rng(64)
        spec = spec_for(family)
        x, y = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (3, 2))
        w = simplex_point(rng, 3)
        grad = mmd2_grad_y(x, y, spec, w)
        fd = finite_diff_grad(lambda m: mmd2(x, m, spec, w), y, 1e-4)
        assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-4

    def test_zero_weight_row_gets_zero_gradient(self):
        rng = make_rng(65)
        x, y = rng.normal(size=(5, 3)), rng.normal(size=(3, 3))
        grad = mmd2_grad_y(x, y, spec_for("gauss_ntk"), np.array([0.5, 0.0, 0.5]))
        assert np.array_equal(grad[1], np.zeros(3))

    def test_weight_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mmd2(np.zeros((2, 3)), np.zeros((2, 3)), spec_for("gauss"), np.ones(3) / 3)


class TestSimplexWeights:
    def test_matches_support_enumeration(self):
        rng = make_rng(66)
        for trial in range(40):
            family = FAMILIES[trial % len(FAMILIES)]
            spec = spec_for(family)
            m = int(rng.integers(1, 6))
            x, y = rng.normal(size=(int(rng.integers(2, 9)), 3)), rng.normal(size=(m, 3))
            kyy = kernel_matrix(y, y, spec)
            b = kernel_matrix(x, y, spec).mean(axis=0)
            w = simplex_weights(kyy, b)
            assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
            best, _ = simplex_qp_by_supports(kyy, b)
            assert w @ kyy @ w - 2.0 * b @ w == pytest.approx(best, abs=1e-9), family

    def test_matches_support_enumeration_with_repeated_rows(self):
        # Exact and near-exact copies make Kyy singular or ill-conditioned.
        rng = make_rng(70)
        spec = spec_for("gauss_ntk")
        for _ in range(40):
            base = rng.normal(size=(int(rng.integers(1, 4)), 3))
            copies = base[rng.integers(0, base.shape[0], size=int(rng.integers(1, 4)))]
            y = np.vstack([base, copies + rng.choice([0.0, 1e-9]) * rng.normal(size=copies.shape)])
            x = rng.normal(size=(6, 3))
            kyy = kernel_matrix(y, y, spec)
            b = kernel_matrix(x, y, spec).mean(axis=0)
            w = simplex_weights(kyy, b)
            assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
            best, _ = simplex_qp_by_supports(kyy, b)
            assert w @ kyy @ w - 2.0 * b @ w == pytest.approx(best, abs=1e-9)

    def test_duplicate_rows_keep_their_total_mass(self):
        # Two copies of one row: Kyy is singular, only the copies' sum is fixed.
        rng = make_rng(67)
        x, y = rng.normal(size=(6, 2)), rng.normal(size=(2, 2))
        y = np.vstack([y, y[:1]])
        spec = spec_for("gauss")
        kyy = kernel_matrix(y, y, spec)
        b = kernel_matrix(x, y, spec).mean(axis=0)
        w = simplex_weights(kyy, b)
        best, w_ref = simplex_qp_by_supports(kyy, b)
        assert w @ kyy @ w - 2.0 * b @ w == pytest.approx(best, abs=1e-9)
        assert w[0] + w[2] == pytest.approx(w_ref[0] + w_ref[2], abs=1e-6)

    def test_never_worse_than_uniform(self):
        rng = make_rng(68)
        spec = spec_for("gauss_ntk")
        for _ in range(20):
            x, y = rng.normal(size=(8, 3)), rng.normal(size=(4, 3))
            w = simplex_weights(kernel_matrix(y, y, spec),
                                kernel_matrix(x, y, spec).mean(axis=0))
            assert mmd2(x, y, spec, w) <= mmd2(x, y, spec) + 1e-12

    def test_two_orthogonal_rows_closed_form(self):
        # Kyy = I: minimizing w0^2 + w1^2 - 2 b.w on w0 + w1 = 1 gives
        # w0 = (1 + b0 - b1) / 2, clipped to [0, 1].
        x = make_rng(69).normal(size=(10, 2)) * 0.3
        y = np.array([[0.0, 0.0], [50.0, 50.0]])
        spec = KernelSpec(family="gauss", lengthscale=1.0)
        b = kernel_matrix(x, y, spec).mean(axis=0)
        w = simplex_weights(kernel_matrix(y, y, spec), b)
        assert w[0] == pytest.approx((1.0 + b[0] - b[1]) / 2.0, abs=1e-12)
        far = simplex_weights(np.eye(2), np.array([2.0, 0.0]))
        assert np.array_equal(far, [1.0, 0.0])

    def test_single_row(self):
        assert np.array_equal(simplex_weights(np.array([[2.0]]), np.array([0.3])), [1.0])


class TestBatchPlan:
    def test_batch_sizes(self):
        plan = make_batch_plan(10, 3, make_rng(58))
        sizes = [b.size for b in plan.batches()]
        assert plan.batch_size == 3 and sizes == [3, 3, 3, 1]

    def test_floor_guard(self):
        assert make_batch_plan(4, 9, make_rng(59)).batch_size == 1

    def test_permutation_is_bijection(self):
        plan = make_batch_plan(100, 7, make_rng(60))
        assert np.array_equal(np.sort(plan.epoch_permutation), np.arange(100))
        seen = np.concatenate(list(plan.batches()))
        assert np.array_equal(np.sort(seen), np.arange(100))


class TestConvergence:
    def test_two_blobs_recovered(self):
        # Prototypes started between the blobs must migrate onto them.
        rng = make_rng(61)
        mean_a, mean_b = np.array([2.0, 0.0]), np.array([-2.0, 0.0])
        x = np.concatenate([
            mean_a + 0.05 * rng.normal(size=(30, 2)),
            mean_b + 0.05 * rng.normal(size=(30, 2)),
        ])
        spec = KernelSpec(family="gauss", lengthscale=1.5)
        y = np.array([[0.5, 0.5], [-0.5, -0.5]])
        for _ in range(200):
            y = y - 1.0 * mmd2_grad_y(x, y, spec)
        dists = np.linalg.norm(y[:, None, :] - np.stack([mean_a, mean_b])[None, :, :], axis=2)
        closest = dists.min(axis=1)
        assert np.all(closest < 0.1)
        assert set(dists.argmin(axis=1)) == {0, 1}  # one prototype per blob
