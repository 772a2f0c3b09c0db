import math

import numpy as np
import pytest

from mmdseg import (
    FAMILIES,
    KernelSpec,
    TrainConfig,
    VideoFeatures,
    kernel_matrix,
    make_rng,
    mmd2_grad_y,
    row_stats,
    train_approximation,
)
from mmdseg import learner
from mmdseg.errors import NumericError, ShapeError
from mmdseg.kernels import SPHERE_FAMILIES, _stacked_pass
from mmdseg.mmd import mmd2_from_terms, mmd2_terms, simplex_weights
from mmdseg.synthgen import SynthConfig, generate_video

from oracles import finite_diff_grad, mmd2_triple_loop, scalar_kernel_value, simplex_qp_by_supports


def spec_for(family):
    return KernelSpec(family=family, lengthscale=2.0, alpha=1.3)


def mmd2(x, y, spec, weights=None):
    """Squared MMD as the trainer builds its loss: ``mmd2_from_terms`` over
    ``kernel_matrix`` terms, uniform weights unless given."""
    weights = np.full(len(y), 1.0 / len(y)) if weights is None else weights
    return mmd2_from_terms(kernel_matrix(x, x, spec).mean(), kernel_matrix(y, y, spec),
                           kernel_matrix(x, y, spec).mean(axis=0), weights)


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
            x, spec = np.zeros((2, 3)), spec_for("gauss")
            mmd2_grad_y(x, np.zeros((2, 4)), spec, np.full(2, 1 / 2), row_stats(x, spec))


class TestMmd2GradY:
    def test_stationary_at_identical_samples_gauss(self):
        x = make_rng(54).normal(size=(5, 3))
        spec = spec_for("gauss")
        grad = mmd2_grad_y(x, x.copy(), spec, np.full(5, 1 / 5), row_stats(x, spec))
        assert np.max(np.abs(grad)) < 1e-12

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences(self, family):
        rng = make_rng(55)
        spec = spec_for(family)
        x, y = rng.uniform(-1, 1, (5, 2)), rng.uniform(-1, 1, (3, 2))
        grad = mmd2_grad_y(x, y, spec, np.full(3, 1 / 3), row_stats(x, spec))
        fd = finite_diff_grad(lambda m: mmd2(x, m, spec), y, 1e-4)
        assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-4

    def test_duplicating_x_rows_leaves_gradient_unchanged(self):
        rng = make_rng(56)
        x, y = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
        for family in FAMILIES:
            spec = spec_for(family)
            g1 = mmd2_grad_y(x, y, spec, np.full(3, 1 / 3), row_stats(x, spec))
            x2 = np.repeat(x, 2, axis=0)
            g2 = mmd2_grad_y(x2, y, spec, np.full(3, 1 / 3), row_stats(x2, spec))
            assert np.allclose(g1, g2, atol=1e-10), family

    def test_descent_direction(self):
        rng = make_rng(57)
        for family in FAMILIES:
            spec = spec_for(family)
            x, y = rng.normal(size=(6, 3)), rng.normal(size=(3, 3))
            base = mmd2(x, y, spec)
            grad = mmd2_grad_y(x, y, spec, np.full(3, 1 / 3), row_stats(x, spec))
            if np.max(np.abs(grad)) < 1e-12:
                continue
            for step in (1e-4, 1e-3):
                assert mmd2(x, y - step * grad, spec) < base, family


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("family", FAMILIES)
def test_kernel_mmd_and_gradient_match_the_oracles_at_any_row_norm(family, n, c):
    # n frames and m = n prototypes in d = 3, every row of norm c, with the
    # spec scaled along as resolve_spec would scale it: a lengthscale of 2c,
    # an input scale of 1/c for the raw NTK families and sqrt(d) for the
    # _sphere ones, which see unit rows.
    d = 3
    rows = make_rng(73, n).normal(size=(2 * n, d))
    rows *= c / np.linalg.norm(rows, axis=1, keepdims=True)
    x, y = rows[:n], rows[n:]
    r = math.sqrt(d) if family in SPHERE_FAMILIES else 1.0 if family == "gauss" else 1.0 / c
    spec = KernelSpec(family=family, lengthscale=2.0 * c, alpha=1.3, input_scale=r)
    expected = [[scalar_kernel_value(a, b, spec) for b in rows] for a in rows]
    np.testing.assert_allclose(kernel_matrix(rows, rows, spec), expected, rtol=1e-9, atol=1e-12)
    assert mmd2(x, y, spec) == pytest.approx(mmd2_triple_loop(x, y, spec), rel=1e-8, abs=1e-10)
    grad = mmd2_grad_y(x, y, spec, np.full(n, 1.0 / n), row_stats(x, spec))
    fd = finite_diff_grad(lambda m: mmd2(x, m, spec), y, 1e-5 * c)
    assert np.max(np.abs(grad - fd)) <= 1e-4 * np.max(np.abs(fd))


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
        grad = mmd2_grad_y(x, y, spec, w, row_stats(x, spec))
        fd = finite_diff_grad(lambda m: mmd2(x, m, spec, w), y, 1e-4)
        assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12) < 1e-4

    def test_zero_weight_row_gets_zero_gradient(self):
        rng = make_rng(65)
        x, y = rng.normal(size=(5, 3)), rng.normal(size=(3, 3))
        spec = spec_for("gauss_ntk")
        grad = mmd2_grad_y(x, y, spec, np.array([0.5, 0.0, 0.5]), row_stats(x, spec))
        assert np.array_equal(grad[1], np.zeros(3))

    def test_weight_shape_mismatch(self):
        with pytest.raises(ShapeError):
            x, spec = np.zeros((2, 3)), spec_for("gauss")
            mmd2_grad_y(x, x.copy(), spec, np.ones(3) / 3, row_stats(x, spec))


@pytest.mark.parametrize("x_rows, y_rows", [(0, 2), (3, 0)])
def test_row_sets_without_rows_are_rejected(x_rows, y_rows):
    rng = make_rng(70)
    x, y = rng.normal(size=(x_rows, 3)), rng.normal(size=(y_rows, 3))
    spec = spec_for("gauss_ntk")
    calls = (lambda: kernel_matrix(x, y, spec),
             lambda: mmd2_terms(x, y, spec, row_stats(x, spec)),
             lambda: mmd2_grad_y(x, y, spec, np.full(y_rows, 1 / max(y_rows, 1)), row_stats(x, spec)))
    for call in calls:
        with pytest.raises(ShapeError, match="nonempty"):
            call()


class TestStackedPass:
    """The trainer's kernel pass: ``[Kyy; Kxy]`` from one pass over the
    stacked Gram products, bit-equal to two separate ``kernel_matrix`` calls.
    ``kernel_matrix`` returns the cross block of this same pass, so the Kxy
    half holds by construction; the Kyy half checks that the self block
    equals the cross block of ``y`` against itself."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bit_equal_to_separate_calls(self, family):
        rng = make_rng(67)
        spec = spec_for(family)
        y = rng.normal(size=(5, 9))  # two diagonal distances of 1e-15 unless zeroed
        # n > m, a cross block equal to y (m = n, the untrained case), and n = m unequal.
        for x in (y.copy(), rng.normal(size=(7, 9)), rng.normal(size=(5, 9))):
            stacked = _stacked_pass(x, y, spec, row_stats(x, spec))
            assert np.array_equal(stacked[:5], kernel_matrix(y, y, spec)), family
            assert np.array_equal(stacked[5:], kernel_matrix(x, y, spec)), family

    def test_diagonal_distances_are_zero(self):
        # Kyy's diagonal always, Kxy's only when x equals y. On these rows the
        # Gram expansion leaves distances of 1e-15 on two diagonal entries.
        spec = spec_for("gauss")
        y = make_rng(67).normal(size=(5, 9))
        x = y.copy()
        k = _stacked_pass(x, y, spec, row_stats(x, spec))
        assert np.all(np.diag(k[:5]) == 1.0) and np.all(np.diag(k[5:]) == 1.0)
        x[2, 0] += 1e-3
        k = _stacked_pass(x, y, spec, row_stats(x, spec))
        assert np.all(np.diag(k[:5]) == 1.0) and k[7, 2] < 1.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_terms_equal_kernel_matrix(self, family):
        rng = make_rng(68)
        spec = spec_for(family)
        x, y = rng.normal(size=(9, 4)), rng.normal(size=(3, 4))
        kyy, kxy_mean = mmd2_terms(x, y, spec, row_stats(x, spec))
        assert np.array_equal(kyy, kernel_matrix(y, y, spec))
        assert np.array_equal(kxy_mean, kernel_matrix(x, y, spec).mean(axis=0))

    def test_non_finite_terms_raise(self):
        x, y = np.array([[np.inf, 0.0], [1.0, 0.0]]), np.array([[0.0, 1.0]])
        spec = spec_for("gauss")
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite"):
            mmd2_terms(x, y, spec, row_stats(x, spec))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_row_stats_shape_checked(self, family):
        rng = make_rng(69)
        spec = spec_for(family)
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(2, 3))
        rows = row_stats(x, spec)
        assert rows.shape == (2 if family in SPHERE_FAMILIES else 1, 6)
        for bad in (rows[:, :5], np.vstack((rows, rows)), rows[0]):
            with pytest.raises(ShapeError, match="row stats"):
                mmd2_grad_y(x, y, spec, np.full(2, 1 / 2), bad)


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

    @pytest.mark.parametrize("excess", [1e-12, 1.5e-12, 3e-12])
    def test_prototype_entering_with_a_tiny_weight_keeps_the_optimum(self, excess):
        # Kyy = I: prototype 1 undercuts prototype 0 by 2 * excess, just past
        # the entry tolerance (1e-12), and its face weight is excess / 2. A
        # positive face weight, however small, is inside the simplex: a walk
        # toward the face minimizer as if it had left passes the minimizer
        # and ends at w = [0, 1], 2.0 above the minimum.
        kyy, b = np.eye(2), np.array([0.5, -0.5 + excess])
        w = simplex_weights(kyy, b)
        best, _ = simplex_qp_by_supports(kyy, b)
        assert w @ kyy @ w - 2.0 * b @ w == pytest.approx(best, abs=1e-12)
        assert w[0] == pytest.approx(1.0, abs=1e-11)

    @pytest.mark.parametrize("points, target", [
        # Supports [1], [1, 3], [0, 1, 3], then 1 drops; [0, 3], [0, 2, 3], then 3 drops.
        ([[4, -1], [3, -3], [-2, -2], [-4, -3]], [1.0, -1.0]),
        # Supports up to [0, 1, 2, 3], then 0 and 2 reach zero in the same step.
        ([[-1, -2, 4], [1, -3, 0], [2, 1, -1], [1, 3, -2]], [1.0, 0.0, -1.0]),
        # Three step-backs: 2, then 0, then 3 drop, leaving [1, 5, 6].
        ([[-1, 4, -3], [1, -4, 3], [-3, -4, -2], [2, 1, 2], [-2, 4, -2], [3, 2, 1], [-2, -3, -3]],
         [1.0, -0.5, -0.5]),
    ])
    def test_step_back_drops_prototypes(self, points, target):
        # Linear kernel: the weights give the point of the points' convex hull
        # closest to ``target``. The active set must drop prototypes it added.
        y, mu = np.array(points, dtype=float), np.array(target)
        kyy, b = y @ y.T, y @ mu
        w = simplex_weights(kyy, b)
        best, w_ref = simplex_qp_by_supports(kyy, b)
        assert w @ kyy @ w - 2.0 * b @ w == pytest.approx(best, abs=1e-12)
        assert np.allclose(w, w_ref, rtol=0.0, atol=1e-12)

    def test_huge_self_kernel_keeps_the_support(self):
        # The first step-back case plus a point far out: its self-kernel of
        # 2e14 dwarfs every other term. The optimum (the target lies in the
        # hull) puts a weight of ~1e-7 on it.
        y = np.array([[4, -1], [3, -3], [-2, -2], [-4, -3], [1e7, 1e7]], dtype=float)
        kyy, b = y @ y.T, y @ np.array([1.0, -1.0])
        with np.errstate(all="raise"):
            w = simplex_weights(kyy, b)
        best, _ = simplex_qp_by_supports(kyy, b)
        assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w @ kyy @ w - 2.0 * b @ w == pytest.approx(best, abs=1e-9)

    def test_trained_prototype_with_a_huge_self_kernel(self):
        # Two ntk epochs on a 60-D projection of a synthetic video send one
        # prototype far out (self-kernel ~4e13). The refit weights must
        # reach the oracle's minimum, which keeps a weight of ~1.4e-7 on it.
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames
        frames = frames @ make_rng(5).normal(size=(2352, 60)) / 50
        approx = train_approximation(VideoFeatures(frames=frames),
                                     TrainConfig(m=5, epochs=2, kernel="ntk"))
        kyy, b = mmd2_terms(frames, approx.prototypes, approx.spec, row_stats(frames, approx.spec))
        assert np.max(np.diag(kyy)) > 1e12
        best, _ = simplex_qp_by_supports(kyy, b)
        w = approx.weights
        assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
        assert w @ kyy @ w - 2.0 * b @ w == pytest.approx(best, abs=1e-9)

    @pytest.mark.parametrize("start, error", [
        (np.full(4, 0.25), ShapeError),
        (np.full((1, 3), 1.0 / 3.0), ShapeError),
        ([0.6, 0.5, -0.1], ValueError),
        ([0.5, np.nan, 0.5], ValueError),
        ([np.inf, 0.0, 0.0], ValueError),
        ([0.0, 0.0, 0.0], ValueError),
        ([1e308, 1e308, 0.0], ValueError),  # finite weights whose sum overflows
    ])
    def test_start_is_checked(self, start, error):
        with pytest.raises(ValueError, match="start") as raised:
            simplex_weights(np.eye(3), np.array([0.2, 0.3, 0.1]), start=start)
        assert type(raised.value) is error

    def test_start_is_taken_divided_by_its_sum(self):
        kyy, b = np.eye(3), np.array([0.2, 0.3, 0.1])
        cold = simplex_weights(kyy, b)
        assert np.all(cold > 0.0)
        assert simplex_weights(kyy, b, start=[2.0, 0.0, 0.0]).tobytes() == cold.tobytes()
        assert simplex_weights(kyy, b, start=7.0 * cold).tobytes() == cold.tobytes()

    @staticmethod
    def nearby_start(x, y, spec, rng):
        # The answer to the problem with every prototype moved by 0.05 N(0, 1),
        # as the previous epoch's weights are to the next refit.
        moved = y + 0.05 * rng.normal(size=y.shape)
        return simplex_weights(kernel_matrix(moved, moved, spec),
                               kernel_matrix(x, moved, spec).mean(axis=0))

    def test_warm_start_returns_the_cold_bytes(self, face_solves):
        # Well-conditioned problems, many with a partial-support optimum: a
        # run ends on the optimal face whatever its start, so the warm start
        # must return the cold bytes, in fewer face solves.
        rng = make_rng(71)
        trials, cold_solves, warm_solves, partial, moved_support = 300, 0, 0, 0, 0
        for trial in range(trials):
            spec = spec_for(FAMILIES[trial % len(FAMILIES)])
            x = 0.5 * rng.normal(size=(int(rng.integers(2, 9)), 3))
            y = rng.choice([1.0, 3.0]) * rng.normal(size=(int(rng.integers(2, 7)), 3))
            start = self.nearby_start(x, y, spec, rng)
            kyy, b = kernel_matrix(y, y, spec), kernel_matrix(x, y, spec).mean(axis=0)
            assert np.linalg.cond(kyy) < 1e8
            before = len(face_solves)
            cold = simplex_weights(kyy, b)
            cold_solves += len(face_solves) - before
            before = len(face_solves)
            warm = simplex_weights(kyy, b, start=start)
            warm_solves += len(face_solves) - before
            assert warm.tobytes() == cold.tobytes(), (trial, spec.family)
            partial += bool(np.any(cold == 0.0))
            moved_support += bool(np.any((start > 0.0) != (cold > 0.0)))
        assert partial >= trials // 4 and moved_support >= 5  # measured: 40% and 15
        assert warm_solves < cold_solves / 2

    def test_warm_start_on_near_duplicates_keeps_the_stated_bound(self, face_solves):
        # Exact and near-exact copies: a warm start may end on another support
        # than the cold one, within the docstring's 1e-7 of the largest
        # kernel term (measured: 3.6e-9 at worst), and in fewer face solves.
        rng = make_rng(72)
        spec = spec_for("gauss_ntk")
        cold_solves = warm_solves = 0
        for _ in range(100):
            base = rng.normal(size=(int(rng.integers(1, 4)), 3))
            copies = base[rng.integers(0, base.shape[0], size=int(rng.integers(1, 4)))]
            y = np.vstack([base, copies + rng.choice([0.0, 1e-9]) * rng.normal(size=copies.shape)])
            x = rng.normal(size=(6, 3))
            start = self.nearby_start(x, y, spec, rng)
            kyy, b = kernel_matrix(y, y, spec), kernel_matrix(x, y, spec).mean(axis=0)
            before = len(face_solves)
            simplex_weights(kyy, b)
            cold_solves += len(face_solves) - before
            before = len(face_solves)
            w = simplex_weights(kyy, b, start=start)
            warm_solves += len(face_solves) - before
            best, _ = simplex_qp_by_supports(kyy, b)
            assert np.all(w >= 0.0) and w.sum() == pytest.approx(1.0, abs=1e-12)
            assert w @ kyy @ w - 2.0 * b @ w <= best + 1e-7 * np.max(np.abs(kyy))
        assert warm_solves < cold_solves  # measured: 132 against 215


class TestBatchPlan:
    """The trainer's minibatches: shuffled batches of floor(N/M) frames."""

    @staticmethod
    def record_batches(monkeypatch, n, m, epochs, seed):
        # Frame indices of each batch the trainer takes a gradient step on.
        frames = make_rng(seed).normal(size=(n, 3))
        batches = []
        grad = learner.mmd2_grad_y

        def spy(x, y, spec, weights, x_rows, span):
            assert span is None  # n >= d: the row path, so x holds the batch's rows
            batches.append([int(np.flatnonzero((frames == row).all(axis=1))[0]) for row in x])
            return grad(x, y, spec, weights, x_rows, span)

        monkeypatch.setattr(learner, "mmd2_grad_y", spy)
        train_approximation(VideoFeatures(frames=frames), TrainConfig(m=m, epochs=epochs, seed=4))
        return batches

    def test_batch_sizes(self, monkeypatch):
        # n = 10, m = 3: batches of 3 frames, the short last batch kept.
        batches = self.record_batches(monkeypatch, 10, 3, epochs=2, seed=58)
        assert [len(b) for b in batches] == [3, 3, 3, 1] * 2

    def test_permutation_is_bijection(self, monkeypatch):
        # Each epoch's batches cover every frame exactly once, in a new order.
        batches = self.record_batches(monkeypatch, 100, 7, epochs=2, seed=60)
        per_epoch = -(-100 // (100 // 7))
        assert len(batches) == 2 * per_epoch
        epochs = [sum(batches[:per_epoch], []), sum(batches[per_epoch:], [])]
        for order in epochs:
            assert sorted(order) == list(range(100))
        assert epochs[0] != epochs[1]


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
            y = y - 1.0 * mmd2_grad_y(x, y, spec, np.full(2, 1 / 2), row_stats(x, spec))
        dists = np.linalg.norm(y[:, None, :] - np.stack([mean_a, mean_b])[None, :, :], axis=2)
        closest = dists.min(axis=1)
        assert np.all(closest < 0.1)
        assert set(dists.argmin(axis=1)) == {0, 1}  # one prototype per blob
