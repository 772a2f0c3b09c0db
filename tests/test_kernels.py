import math
from dataclasses import replace

import numpy as np
import pytest

from mmdseg import (
    FAMILIES,
    KernelSpec,
    alpha_rescale,
    finite_diff_grad,
    kernel_grad_b,
    kernel_matrix,
    make_rng,
    median_lengthscale,
    ntk_base,
    pairwise_sqdist,
    sphere_project,
)
from mmdseg.kernels import ntk_input_scale, resolve_spec
from mmdseg.learner import init_uniform_means
from mmdseg.synthgen import SynthConfig, generate_video
from mmdseg.errors import DegenerateInputError, DegenerateScaleError, KernelSpecError, ShapeError

from oracles import empirical_nngp, empirical_ntk, scalar_kernel_value


def spec_for(family, lengthscale=2.0, alpha=1.3, **kw):
    return KernelSpec(family=family, lengthscale=lengthscale, alpha=alpha, **kw)


class TestKernelSpec:
    def test_bad_lengthscale(self):
        with pytest.raises(KernelSpecError):
            KernelSpec(lengthscale=0.0)

    def test_bad_family(self):
        with pytest.raises(KernelSpecError):
            KernelSpec(family="laplace")

    def test_bad_clamp(self):
        with pytest.raises(KernelSpecError):
            KernelSpec(clamp_eps=0.1)

    @pytest.mark.parametrize("scale", [0.0, -1.0, math.inf])
    def test_bad_input_scale(self, scale):
        with pytest.raises(KernelSpecError):
            KernelSpec(input_scale=scale)


class TestGaussKernel:
    def test_self_similarity_is_one(self):
        x = np.array([[0.3, -1.2]])
        assert kernel_matrix(x, x, spec_for("gauss"))[0, 0] == 1.0

    def test_unit_distance(self):
        k = kernel_matrix(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), spec_for("gauss", lengthscale=1.0))
        assert k[0, 0] == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_matches_scalar_loop(self):
        rng = make_rng(21)
        a, b = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
        spec = spec_for("gauss")
        expected = [[scalar_kernel_value(a[i], b[j], spec) for j in range(6)] for i in range(6)]
        assert np.allclose(kernel_matrix(a, b, spec), expected, atol=1e-12)


class TestMedianLengthscale:
    def test_tiny_exact_case(self):
        x = np.array([[0.0], [1.0], [2.0]])
        assert median_lengthscale(x) == 1.0  # squared distances {1, 1, 4}

    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateScaleError):
            median_lengthscale(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_static_shot_uses_nonzero_distances(self):
        # Six copies of one row: 15 of the 28 squared distances are zero, so
        # the median runs over the 13 nonzero ones {1 x 6, 4, 9 x 6}.
        x = np.array([[0.0]] * 6 + [[1.0], [3.0]])
        assert median_lengthscale(x) == 4.0

    def test_rounding_noise_is_not_a_distance(self):
        # Near-duplicate unit rows: most distances round to exactly zero and
        # the rest are rounding noise of the Gram expansion.
        rng = make_rng(49)
        x = np.repeat(sphere_project(rng.normal(size=(1, 64))), 20, axis=0) + 1e-9 * rng.normal(size=(20, 64))
        with pytest.raises(DegenerateScaleError, match="rounding noise"):
            median_lengthscale(x)

    def test_matches_full_enumeration(self):
        x = make_rng(22).normal(size=(50, 8))
        sq = [float(np.sum((x[i] - x[j]) ** 2)) for i in range(50) for j in range(i + 1, 50)]
        expected = sorted(sq)[(len(sq) - 1) // 2]
        assert median_lengthscale(x, max_pairs=10**9) == pytest.approx(expected, rel=1e-12)

    def test_subsampled_is_deterministic_and_close(self):
        x = make_rng(23).normal(size=(60, 3))
        a = median_lengthscale(x, max_pairs=200, rng=make_rng(5))
        b = median_lengthscale(x, max_pairs=200, rng=make_rng(5))
        assert a == b
        full = median_lengthscale(x, max_pairs=10**9)
        assert abs(a - full) / full < 0.5


class TestNtkBase:
    def test_self_kernel_closed_form(self):
        # theta = 0 forces sin = 0, cos = 1; clamping perturbs only at ~1e-7.
        spec = KernelSpec(family="ntk")
        x = make_rng(24).normal(size=4)
        k0, nngp, ntk = ntk_base(x, x, spec)
        k0aa = spec.sigma_w_sq * float(x @ x) / 4 + spec.sigma_b_sq
        assert k0 == pytest.approx(k0aa, rel=1e-12)
        assert nngp == pytest.approx(spec.sigma_w_sq * k0aa / 2 + spec.sigma_b_sq, rel=1e-6)
        assert ntk == pytest.approx(nngp + k0aa * spec.sigma_w_sq / 2, rel=1e-3)

    def test_orthogonal_unit_inputs_no_bias(self):
        spec = KernelSpec(family="ntk", sigma_b_sq=0.0)
        a = np.array([1.0, 0.0]); b = np.array([0.0, 1.0])
        k0, nngp, ntk = ntk_base(a, b, spec)
        k0aa = spec.sigma_w_sq / 2
        assert k0 == pytest.approx(0.0, abs=1e-12)
        assert nngp == pytest.approx(spec.sigma_w_sq * k0aa / (2 * math.pi), rel=1e-6)
        assert ntk == pytest.approx(nngp, rel=1e-6)  # K0(a,b) = 0 kills the dot term

    def test_matches_finite_width_network(self):
        # Desk-size version; the full-width run lives in the acceptance suite.
        spec = KernelSpec(family="ntk")
        rng = make_rng(25)
        for trial in range(5):
            a = rng.uniform(-1, 1, 8); b = rng.uniform(-1, 1, 8)
            _, _, ntk = ntk_base(a, b, spec)
            emp = empirical_ntk(a, b, spec.sigma_w_sq, spec.sigma_b_sq, 8192, 24, make_rng(40, trial))
            assert abs(emp - ntk) / abs(ntk) < 0.03

    def test_nngp_matches_finite_width_network(self):
        spec = KernelSpec(family="nngp")
        rng = make_rng(26)
        for trial in range(3):
            a = rng.uniform(-1, 1, 8); b = rng.uniform(-1, 1, 8)
            _, nngp, _ = ntk_base(a, b, spec)
            emp = empirical_nngp(a, b, spec.sigma_w_sq, spec.sigma_b_sq, 8192, 24, make_rng(41, trial))
            assert abs(emp - nngp) / abs(nngp) < 0.03

    def test_zero_dimension(self):
        with pytest.raises(ShapeError):
            ntk_base(np.zeros(0), np.zeros(0), KernelSpec(family="ntk"))


class TestNtkInputScale:
    def test_unit_rows_give_sqrt_d(self):
        x = sphere_project(make_rng(42).normal(size=(9, 16)))
        assert ntk_input_scale(x, KernelSpec(family="ntk")) == pytest.approx(4.0, rel=1e-12)

    def test_median_of_squared_norms(self):
        # squared norms {1, 4, 9}: lower median 4, so r = sqrt(2 / 4)
        x = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        assert ntk_input_scale(x, KernelSpec(family="gauss_ntk")) == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_sphere_families_see_projected_rows(self):
        x = 3.0 * sphere_project(make_rng(43).normal(size=(7, 9)))
        assert ntk_input_scale(x, KernelSpec(family="gauss_ntk")) == pytest.approx(1.0, rel=1e-12)
        assert ntk_input_scale(x, KernelSpec(family="gauss_ntk_sphere")) == pytest.approx(3.0, rel=1e-12)

    def test_mostly_zero_rows_degenerate(self):
        x = np.zeros((5, 3))
        x[0, 0] = 1.0
        with pytest.raises(DegenerateScaleError):
            ntk_input_scale(x, KernelSpec(family="ntk"))

    def test_closed_form_is_the_network_on_scaled_inputs(self):
        # The unscaled closed form is checked against the finite-width network
        # above; a scaled spec must equal it on the scaled inputs.
        rng = make_rng(44)
        for _ in range(5):
            a, b = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
            r = float(rng.uniform(0.2, 5.0))
            scaled = ntk_base(a, b, KernelSpec(family="ntk", input_scale=r))
            plain = ntk_base(r * a, r * b, KernelSpec(family="ntk"))
            assert np.allclose(scaled, plain, rtol=1e-12, atol=0.0)

    def test_resolve_spec_freezes_scale_for_ntk_families(self):
        x = sphere_project(make_rng(45).normal(size=(12, 25)))
        for family in FAMILIES:
            resolved = resolve_spec(x, KernelSpec(family=family))
            expected = 1.0 if family == "gauss" else 5.0
            assert resolved.input_scale == pytest.approx(expected, rel=1e-12), family

    def test_ntk_factor_informative_on_synthetic_frames(self):
        # Unit-norm 2352-D frames: without the input scale the bias term
        # dominates K0 and the NTK factor varies by ~1% across centres, so the
        # product-kernel argmax collapses to the Euclidean argmin.
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames
        spec = resolve_spec(frames, KernelSpec(family="gauss_ntk"), make_rng(0, 0))
        centres = init_uniform_means(frames, 5)
        ntk = kernel_matrix(frames, centres, replace(spec, family="ntk"))
        spread = (ntk.max(axis=1) - ntk.min(axis=1)) / ntk.max(axis=1)
        assert np.median(spread) > 0.2
        kernel_labels = np.argmax(kernel_matrix(frames, centres, spec), axis=1)
        l2_labels = np.argmin(pairwise_sqdist(frames, centres), axis=1)
        assert np.any(kernel_labels != l2_labels)


class TestSphereProject:
    def test_three_four_five(self):
        assert np.allclose(sphere_project(np.array([[3.0, 4.0]])), [[0.6, 0.8]], atol=1e-15)

    def test_idempotent_on_unit_rows(self):
        x = sphere_project(make_rng(27).normal(size=(5, 3)))
        assert np.allclose(sphere_project(x), x, atol=1e-15)

    def test_output_norms(self):
        out = sphere_project(make_rng(28).normal(size=(20, 6)))
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_row(self):
        with pytest.raises(DegenerateInputError):
            sphere_project(np.array([[0.0, 0.0]]))


class TestAlphaRescale:
    def test_ratio_of_equal_medians_is_one(self):
        # Two rows -> a single pair; pick the lengthscale that makes the
        # Gaussian value equal the NTK value on it.
        a, b = np.array([0.4, -0.2, 0.9]), np.array([-0.3, 0.5, 0.1])
        x = np.stack([a, b])
        base = KernelSpec(family="gauss_ntk")
        _, _, ntk_val = ntk_base(a, b, base)
        sq = float(np.sum((a - b) ** 2))
        lam = math.sqrt(-sq / math.log(ntk_val))
        spec = KernelSpec(family="gauss_ntk", lengthscale=lam)
        assert alpha_rescale(x, spec) == pytest.approx(1.0, rel=1e-12)

    def test_positive_and_finite(self):
        x = make_rng(29).normal(size=(12, 5))
        spec = spec_for("gauss_ntk", lengthscale=float(median_lengthscale(x)))
        alpha = alpha_rescale(x, spec)
        assert alpha > 0 and math.isfinite(alpha)

    def test_matches_full_enumeration(self):
        x = make_rng(30).normal(size=(30, 5))
        spec = spec_for("gauss_ntk", lengthscale=3.0)
        g_spec = spec_for("gauss", lengthscale=3.0)
        n_spec = spec_for("ntk")
        pairs = [(i, j) for i in range(30) for j in range(i + 1, 30)]
        g_vals = sorted(scalar_kernel_value(x[i], x[j], g_spec) for i, j in pairs)
        n_vals = sorted(scalar_kernel_value(x[i], x[j], n_spec) for i, j in pairs)
        expected = g_vals[(len(pairs) - 1) // 2] / n_vals[(len(pairs) - 1) // 2]
        assert alpha_rescale(x, spec, max_pairs=10**9) == pytest.approx(expected, rel=1e-12)

    def test_matches_full_enumeration_with_input_scale(self):
        x = make_rng(46).normal(size=(20, 5))
        spec = spec_for("gauss_ntk", lengthscale=3.0, input_scale=1.7)
        g_spec = spec_for("gauss", lengthscale=3.0)
        n_spec = spec_for("ntk", input_scale=1.7)
        pairs = [(i, j) for i in range(20) for j in range(i + 1, 20)]
        g_vals = sorted(scalar_kernel_value(x[i], x[j], g_spec) for i, j in pairs)
        n_vals = sorted(scalar_kernel_value(x[i], x[j], n_spec) for i, j in pairs)
        expected = g_vals[(len(pairs) - 1) // 2] / n_vals[(len(pairs) - 1) // 2]
        assert alpha_rescale(x, spec, max_pairs=10**9) == pytest.approx(expected, rel=1e-12)

    def test_sphere_family_uses_projected_ntk(self):
        x = make_rng(31).normal(size=(10, 4)) * 3.0
        raw = alpha_rescale(x, spec_for("gauss_ntk", lengthscale=5.0))
        sph = alpha_rescale(x, spec_for("gauss_ntk_sphere", lengthscale=5.0))
        assert raw != sph

    def test_underflowing_gauss_median_degenerate(self):
        # Near-duplicate rows: the squared distances are rounding noise, and
        # exp(-d / lengthscale^2) underflows to zero on most pairs.
        rng = make_rng(48)
        x = np.repeat(sphere_project(rng.normal(size=(1, 256))), 20, axis=0) + 1e-9 * rng.normal(size=(20, 256))
        spec = spec_for("gauss_ntk", lengthscale=median_lengthscale(x))
        with pytest.raises(DegenerateScaleError, match="underflows"):
            alpha_rescale(x, spec)


class TestKernelMatrix:
    def test_product_family_single_row(self):
        spec = spec_for("gauss_ntk")
        x = np.array([[0.5, -0.7, 0.2]])
        _, _, ntk = ntk_base(x[0], x[0], spec)
        got = kernel_matrix(x, x, spec)[0, 0]
        assert got == pytest.approx(spec.alpha * ntk * 1.0, rel=1e-12)

    def test_product_equals_factor_product(self):
        rng = make_rng(33)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        spec = spec_for("gauss_ntk")
        prod = kernel_matrix(a, b, spec)
        gauss = kernel_matrix(a, b, spec_for("gauss"))
        ntk = kernel_matrix(a, b, spec_for("ntk"))
        assert np.allclose(prod, spec.alpha * ntk * gauss, atol=1e-12)

    def test_matches_scalar_oracle_all_families(self):
        rng = make_rng(34)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
        for family in FAMILIES:
            spec = spec_for(family)
            got = kernel_matrix(a, b, spec)
            expected = [[scalar_kernel_value(a[i], b[j], spec) for j in range(3)] for i in range(4)]
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-13), family

    def test_matches_scalar_oracle_with_input_scale(self):
        rng = make_rng(47)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
        for family in FAMILIES:
            spec = spec_for(family, input_scale=2.3)
            got = kernel_matrix(a, b, spec)
            expected = [[scalar_kernel_value(a[i], b[j], spec) for j in range(3)] for i in range(4)]
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-13), family

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            kernel_matrix(np.zeros((2, 3)), np.zeros((2, 4)), spec_for("gauss"))


class TestKernelGradB:
    def test_gauss_gradient_zero_at_coincidence(self):
        x = np.array([0.3, -0.4, 1.0])
        assert np.array_equal(kernel_grad_b(x, x.copy(), spec_for("gauss")), np.zeros(3))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences(self, family):
        rng = make_rng(35)
        spec = spec_for(family)
        for _ in range(10):
            a, b = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
            grad = kernel_grad_b(a, b, spec)
            fd = finite_diff_grad(lambda m: kernel_matrix(a, m, spec)[0, 0], b[None, :], 1e-4)[0]
            denom = max(float(np.max(np.abs(fd))), 1e-12)
            assert np.max(np.abs(grad - fd)) / denom < 1e-4, family

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences_with_input_scale(self, family):
        rng = make_rng(48)
        spec = spec_for(family, input_scale=3.1)
        for _ in range(10):
            a, b = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
            grad = kernel_grad_b(a, b, spec)
            fd = finite_diff_grad(lambda m: kernel_matrix(a, m, spec)[0, 0], b[None, :], 1e-5)[0]
            denom = max(float(np.max(np.abs(fd))), 1e-12)
            assert np.max(np.abs(grad - fd)) / denom < 1e-4, family

    def test_product_rule_recomposition(self):
        rng = make_rng(36)
        spec = spec_for("gauss_ntk")
        for _ in range(5):
            a, b = rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 6)
            grad = kernel_grad_b(a, b, spec)
            g_val = kernel_matrix(a[None], b[None], spec_for("gauss"))[0, 0]
            n_val = kernel_matrix(a[None], b[None], spec_for("ntk"))[0, 0]
            g_grad = kernel_grad_b(a, b, spec_for("gauss"))
            n_grad = kernel_grad_b(a, b, spec_for("ntk"))
            recomposed = spec.alpha * (n_grad * g_val + n_val * g_grad)
            assert np.allclose(grad, recomposed, atol=1e-10)


class TestKernelProperties:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_symmetry(self, family):
        rng = make_rng(37)
        spec = spec_for(family)
        x, y = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
        kxy = kernel_matrix(x, y, spec)
        kyx = kernel_matrix(y, x, spec)
        assert np.allclose(kxy, kyx.T, atol=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_positive_semidefinite(self, family):
        rng = make_rng(38)
        spec = spec_for(family)
        for _ in range(20):
            pts = rng.normal(size=(int(rng.integers(2, 13)), 4))
            gram = kernel_matrix(pts, pts, spec)
            eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
            assert eig.min() >= -1e-8 * max(eig.max(), 1.0), family

    def test_gauss_range(self):
        rng = make_rng(39)
        x = rng.normal(size=(10, 3))
        vals = kernel_matrix(x, x, spec_for("gauss"))
        assert np.all(vals > 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diag(vals) == 1.0)

    def test_ntk_monotone_in_alignment(self):
        # Unit inputs, no bias: NTK nondecreasing in <a, b> on the aligned-to-
        # obtuse range; the closed form genuinely dips for near-antipodal
        # inputs (cos < ~ -0.75), which the companion test documents.
        spec = KernelSpec(family="ntk", sigma_b_sq=0.0)
        a = np.array([1.0, 0.0])
        angles = np.linspace(0.0, 2.40, 41)
        vals = [ntk_base(a, np.array([math.cos(t), math.sin(t)]), spec)[2] for t in angles]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_ntk_dips_for_near_antipodal_inputs(self):
        # The minimum sits near cos = -0.79; left of it the value climbs back
        # toward zero at exact antipodes, so global monotonicity fails there.
        spec = KernelSpec(family="ntk", sigma_b_sq=0.0)
        a = np.array([1.0, 0.0])
        def at(c):
            return ntk_base(a, np.array([c, math.sqrt(1 - c * c)]), spec)[2]
        assert at(-0.995) > at(-0.9) > at(-0.82)
        assert at(-0.82) < at(-0.5) < at(0.0)
