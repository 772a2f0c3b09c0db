import numpy as np
import pytest

from mmdseg import finite_diff_grad, make_rng, median, pairwise_sqdist
from mmdseg.errors import NumericError, ShapeError

from oracles import naive_pairwise_sqdist


class TestPairwiseSqdist:
    def test_zero_distance_to_self(self):
        assert pairwise_sqdist(np.array([[0.0, 0.0]]), np.array([[0.0, 0.0]])) == np.array([[0.0]])

    def test_unit_axis_points(self):
        d = pairwise_sqdist(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert d[0, 0] == pytest.approx(2.0, abs=1e-15)

    def test_matches_triple_loop(self):
        rng = make_rng(11)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        assert np.allclose(pairwise_sqdist(a, b), naive_pairwise_sqdist(a, b), atol=1e-12)

    def test_symmetry(self):
        rng = make_rng(12)
        for _ in range(5):
            a, b = rng.normal(size=(6, 4)), rng.normal(size=(3, 4))
            assert np.allclose(pairwise_sqdist(a, b), pairwise_sqdist(b, a).T, atol=0)

    def test_identical_input_diagonal_is_exactly_zero(self):
        x = make_rng(13).normal(size=(8, 5))
        assert np.all(np.diag(pairwise_sqdist(x, x.copy())) == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pairwise_sqdist(np.zeros((2, 3)), np.zeros((2, 4)))


class TestMedian:
    def test_singleton(self):
        assert median([3.0]) == 3.0

    def test_lower_median_convention(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.0

    def test_matches_sort_oracle(self):
        vals = make_rng(14).normal(size=101)
        assert median(vals) == sorted(vals)[50]

    def test_is_element_of_input(self):
        vals = make_rng(15).normal(size=40)
        assert median(vals) in set(vals)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            median([])


class TestFiniteDiff:
    def test_linear_function(self):
        x = make_rng(16).normal(size=(3, 2))
        g = finite_diff_grad(lambda m: float(m.sum()), x)
        assert np.allclose(g, np.ones_like(x), atol=1e-9)

    def test_quadratic(self):
        x = make_rng(17).normal(size=(4, 3))
        g = finite_diff_grad(lambda m: 0.5 * float((m * m).sum()), x)
        assert np.allclose(g, x, atol=1e-8)

    def test_self_consistency_h_and_half_h(self):
        # An oracle should agree with itself as the step shrinks.
        x = make_rng(18).normal(size=(4, 2))
        f = lambda m: float(np.exp(-((m - 0.3) ** 2)).sum())
        g1 = finite_diff_grad(f, x, h=1e-4)
        g2 = finite_diff_grad(f, x, h=5e-5)
        assert np.max(np.abs(g1 - g2)) / np.max(np.abs(g1)) < 1e-6

    def test_non_finite_evaluation(self):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            finite_diff_grad(lambda m: float(np.log(m).sum()), np.array([[1e-9]]), h=1e-4)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(99).normal(size=1000)
        b = make_rng(99).normal(size=1000)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = make_rng(99, 0).normal(size=100)
        b = make_rng(99, 1).normal(size=100)
        assert not np.array_equal(a, b)
