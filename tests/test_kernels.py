import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mmdseg import (
    FAMILIES,
    KernelSpec,
    kernel_matrix,
    make_rng,
    pairwise_sqdist,
    sphere_project,
)
from mmdseg import kernels
from mmdseg.kernels import SPHERE_FAMILIES, _stacked_pass, resolve_spec
from mmdseg.mmd import mmd2_grad_y
from mmdseg.learner import init_uniform_means
from mmdseg.synthgen import SynthConfig, generate_video
from mmdseg.errors import DegenerateInputError, DegenerateScaleError, KernelSpecError, ShapeError

from oracles import (
    empirical_nngp,
    empirical_ntk,
    finite_diff_grad,
    naive_pairwise_sqdist,
    scalar_kernel_value,
    whole_matrix_scales,
)


def spec_for(family, lengthscale=2.0, alpha=1.3, **kw):
    return KernelSpec(family=family, lengthscale=lengthscale, alpha=alpha, **kw)


def nngp_ntk(a, b, spec):
    """(NNGP, NTK) of one pair of rows, through ``kernel_matrix``."""
    return tuple(float(kernel_matrix(a, b, replace(spec, family=f))[0, 0]) for f in ("nngp", "ntk"))


def grad_b(a, b, spec):
    """grad_b k(a_i, b_j) for every pair, shape (len(a), len(b), d), from the
    coefficient matrices of the trainer's own pass, the cross block of
    ``kernels._stacked_pass`` over rows: U[i, j] a_i + W[i, j] b_j."""
    u, w = (c[len(b):] for c in _stacked_pass(a, b, spec, kernels.row_stats(a, spec), grad=True))
    return u[:, :, None] * a[:, None, :] + w[:, :, None] * b[None, :, :]


class TestKernelSpec:
    def test_bad_lengthscale(self):
        with pytest.raises(KernelSpecError):
            KernelSpec(lengthscale=0.0)

    def test_bad_family(self):
        with pytest.raises(KernelSpecError):
            KernelSpec(family="laplace")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["lengthscale", "alpha", "sigma_w_sq", "sigma_b_sq"])
    def test_non_finite_parameter(self, field, value):
        with pytest.raises(KernelSpecError, match=field):
            KernelSpec(**{field: value})

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


def lengthscale(x):
    return resolve_spec(x, KernelSpec(family="gauss"))[0].lengthscale


def sample_rows(frames, sample):
    """Indices of the frames that ``sample`` holds, matched in order."""
    rows, start = [], 0
    for row in sample:
        start += int(np.flatnonzero((frames[start:] == row).all(axis=1))[0])
        rows.append(start)
        start += 1
    return np.array(rows)


def brute_force_scales(x, family):
    """(lengthscale, input_scale, alpha) of ``resolve_spec`` on unsampled rows,
    by enumeration over every distinct pair; alpha is the error message
    expected when a median leaves no rescaling."""
    n, d = x.shape
    lower = (n * (n - 1) // 2 - 1) // 2
    sq = naive_pairwise_sqdist(x, x)[np.triu_indices(n, k=1)]
    noise = d * np.finfo(np.float64).eps * max(float(r @ r) for r in x)
    lam = sorted(sq)[lower]
    if lam <= noise:
        moving = sorted(v for v in sq if v > noise)
        lam = moving[(len(moving) - 1) // 2]
    if family == "gauss":
        return lam, 1.0, 1.0
    rows = [r / math.sqrt(float(r @ r)) for r in x] if "sphere" in family else list(x)
    r = math.sqrt(d / sorted(float(v @ v) for v in rows)[(n - 1) // 2])
    if family not in kernels.PRODUCT_FAMILIES:
        return lam, r, 1.0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g_spec = KernelSpec(family="gauss", lengthscale=lam)
    n_spec = KernelSpec(family=family.replace("gauss_", ""), input_scale=r)
    med_g = sorted(scalar_kernel_value(x[i], x[j], g_spec) for i, j in pairs)[lower]
    med_n = sorted(scalar_kernel_value(x[i], x[j], n_spec) for i, j in pairs)[lower]
    if med_n <= 0.0:
        return lam, r, "median NTK value is not positive"
    return lam, r, (med_g / med_n if med_g > 0.0 else "Gaussian value underflows")


class TestMedianLengthscale:
    def test_tiny_exact_case(self):
        x = np.array([[0.0], [1.0], [2.0]])
        assert lengthscale(x) == 1.0  # squared distances {1, 1, 4}

    def test_identical_rows_degenerate(self):
        with pytest.raises(DegenerateScaleError):
            lengthscale(np.array([[1.0, 2.0], [1.0, 2.0]]))

    def test_static_shot_uses_nonzero_distances(self):
        # Six copies of one row: 15 of the 28 squared distances are zero, so
        # the median runs over the 13 nonzero ones {1 x 6, 4, 9 x 6}.
        x = np.array([[0.0]] * 6 + [[1.0], [3.0]])
        assert lengthscale(x) == 4.0

    def test_rounding_noise_is_not_a_distance(self):
        # Near-duplicate unit rows: most distances round to exactly zero and
        # the rest are rounding noise of the Gram expansion.
        rng = make_rng(49)
        x = np.repeat(sphere_project(rng.normal(size=(1, 64))), 20, axis=0) + 1e-9 * rng.normal(size=(20, 64))
        with pytest.raises(DegenerateScaleError, match="rounding noise"):
            lengthscale(x)

    def test_matches_full_enumeration(self):
        x = make_rng(22).normal(size=(50, 8))
        sq = [float(np.sum((x[i] - x[j]) ** 2)) for i in range(50) for j in range(i + 1, 50)]
        expected = sorted(sq)[(len(sq) - 1) // 2]
        assert lengthscale(x) == pytest.approx(expected, rel=1e-12)

    def test_subsampled_is_deterministic_and_close(self, monkeypatch):
        # Above the frame cap one seeded sample of rows serves every scale:
        # lengthscale and alpha equal their brute-force values on the sampled
        # rows, while the input scale still runs over all frames.
        monkeypatch.setattr(kernels, "MAX_SCALE_FRAMES", 30)
        x = make_rng(23).normal(size=(60, 3)) * make_rng(24).uniform(0.5, 2.0, size=(60, 1))
        keep = np.sort(make_rng(5).choice(60, size=30, replace=False))
        for family in FAMILIES:
            a = resolve_spec(x, KernelSpec(family=family), make_rng(5))[0]
            assert a == resolve_spec(x, KernelSpec(family=family), make_rng(5))[0], family
            lam, _, alpha = brute_force_scales(x[keep], family)
            _, r, _ = brute_force_scales(x, family)
            assert a.lengthscale == pytest.approx(lam, rel=1e-12), family
            assert a.input_scale == pytest.approx(r, rel=1e-12), family
            assert a.alpha == pytest.approx(alpha, rel=1e-12), family
        full = lengthscale(x)
        assert a.lengthscale != full
        assert abs(a.lengthscale - full) / full < 0.5


class TestResolveSpec:
    def test_pinned_scales_on_synthetic_video(self):
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames
        r, alpha = 48.49742261192856, 0.3300532723673634
        expected = {"gauss": (1.0, 1.0), "nngp": (r, 1.0), "ntk": (r, 1.0), "ntk_sphere": (r, 1.0),
                    "gauss_ntk": (r, alpha), "gauss_ntk_sphere": (r, 0.33005327236736337)}
        for family in FAMILIES:
            spec = resolve_spec(frames, KernelSpec(family=family), make_rng(0, 0))[0]
            got = (spec.lengthscale, spec.input_scale, spec.alpha)
            assert got == (1.4478496238737182, *expected[family]), family

    def test_one_row_rejected(self):
        with pytest.raises(DegenerateScaleError, match="one frame has no pairwise distance"):
            resolve_spec(np.ones((1, 3)), KernelSpec())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_brute_force_across_shapes_and_norms(self, family):
        # Seeded property test: a constant dimension, 2 to 40 rows, row norms
        # from 1e-6 to 1e6. The Gaussian median underflows on small-norm
        # rows, and the NTK of a single obtuse pair can be negative; the
        # product families report both as a degenerate scale.
        rng = make_rng(51)
        for n in (2, 3, 40):
            for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                x = rng.normal(size=(n, 6))
                x[:, 2] = 0.7
                x *= scale / np.median(np.linalg.norm(x, axis=1))
                lam, r, alpha = brute_force_scales(x, family)
                if isinstance(alpha, str):
                    with pytest.raises(DegenerateScaleError, match=alpha):
                        resolve_spec(x, KernelSpec(family=family))
                    continue
                spec = resolve_spec(x, KernelSpec(family=family))[0]
                assert spec.lengthscale == pytest.approx(lam, rel=1e-9), (n, scale)
                assert spec.input_scale == pytest.approx(r, rel=1e-12), (n, scale)
                assert spec.alpha == pytest.approx(alpha, rel=1e-9), (n, scale)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kxx_mean_is_the_mean_kernel_value_of_the_sample(self, family, monkeypatch):
        # Unsampled (40 frames) and sampled (80 frames, cap 30): the mean over
        # every ordered pair of the returned sample, diagonal included.
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames
        samples = []
        for f, cap in ((frames[:40], kernels.MAX_SCALE_FRAMES), (frames[:80], 30)):
            monkeypatch.setattr(kernels, "MAX_SCALE_FRAMES", cap)
            spec, sample, kxx_mean, *_ = resolve_spec(f, KernelSpec(family=family), make_rng(3, 0))
            assert kxx_mean == kernel_matrix(sample, sample, spec).mean(), len(f)
            samples.append(sample)
        assert np.shares_memory(samples[0], frames) and np.array_equal(samples[0], frames[:40])
        assert len(sample_rows(frames[:80], samples[1])) == 30

    @pytest.mark.parametrize("family", FAMILIES)
    def test_gram_of_the_frames_only_when_the_sample_is_every_frame(self, family, monkeypatch):
        # The trainer's frame span reads this product, so the NTK factor
        # must not have written over it. With N >= d there is no span and
        # no product is returned.
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames
        square = frames[:40] @ make_rng(5).normal(size=(frames.shape[1], 40))  # N = d
        for f, cap in ((frames[:40], kernels.MAX_SCALE_FRAMES), (frames[:80], 30),
                       (square, kernels.MAX_SCALE_FRAMES)):
            monkeypatch.setattr(kernels, "MAX_SCALE_FRAMES", cap)
            gram = resolve_spec(f, KernelSpec(family=family), make_rng(3, 0))[5]
            if len(f) <= cap and len(f) < f.shape[1]:
                assert np.array_equal(gram, f @ f.T)
            else:
                assert gram is None


    @pytest.mark.parametrize("block", [kernels.RESOLVE_BLOCK, 1000])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_scales_equal_the_whole_matrix_reference_bit_for_bit(self, family, block, monkeypatch):
        # Unsampled (the frame span, and 6-D rows), sampled (cap 40), and a
        # still frame held for 70 of 90 frames, whose lengthscale median runs
        # over the nonzero distances. At 1000 pairs a block, a 90-frame
        # sample takes its distances and NTK factor 11 rows at a time.
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames
        still = np.vstack([np.repeat(frames[:1], 70, axis=0), frames[:20]])
        every = kernels.MAX_SCALE_FRAMES
        monkeypatch.setattr(kernels, "RESOLVE_BLOCK", block)
        for f, cap in ((frames, every), (make_rng(52).normal(size=(70, 6)), every), (frames, 40), (still, every)):
            monkeypatch.setattr(kernels, "MAX_SCALE_FRAMES", cap)
            keep = slice(None) if len(f) <= cap else np.sort(make_rng(3, 0).choice(len(f), size=cap, replace=False))
            spec, _, kxx_mean, *_ = resolve_spec(f, KernelSpec(family=family), make_rng(3, 0))
            got = (spec.lengthscale, spec.input_scale, spec.alpha, kxx_mean)
            assert got == whole_matrix_scales(f, KernelSpec(family=family), keep), (len(f), cap)

    @pytest.mark.parametrize("shape, cap", [((800, 3000), 600), ((1000, 8), 2000)])
    def test_the_pass_holds_the_gram_and_distance_matrices_only(self, shape, cap, monkeypatch):
        # A drawn sample that outweighs its Gram product (600 of 800 frames,
        # 3000-D), and 1000 narrow frames whose pair matrices outweigh the
        # block temporaries. The bound is what the pass must hold: the sample
        # beside the product, or the product, the distances and one copy of
        # the distinct pairs, whichever is more, plus twelve arrays of one
        # block's pairs, for the ten that the ``_sphere`` value chain holds
        # at once, the pair mask and the per-row arrays.
        monkeypatch.setattr(kernels, "MAX_SCALE_FRAMES", cap)
        frames = make_rng(53).normal(size=shape)
        m, d = min(shape[0], cap), shape[1]
        sample, matrix, pairs = 8 * m * d, 8 * m * m, 8 * (m * (m - 1) // 2)
        bound = max(sample + matrix, 2 * matrix + pairs) + 12 * 8 * kernels.RESOLVE_BLOCK
        for family in FAMILIES:
            tracemalloc.start()
            try:
                resolve_spec(frames, KernelSpec(family=family))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (family, peak, bound)


class TestSpanRowStats:
    """``row_stats`` of the rows ``c @ frames`` read from ``c @ frames @ frames.T``."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_the_rows(self, family):
        rng = make_rng(30)
        frames, c = rng.normal(size=(7, 20)), rng.uniform(0.0, 1.0, size=(3, 7))
        spec = spec_for(family)
        got = kernels._span_row_stats(c, c @ (frames @ frames.T), frames, spec)
        assert np.allclose(got, kernels.row_stats(c @ frames, spec), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_a_zero_combination_is_measured_on_its_row(self, family):
        # Two equal frames, weighted +1 and -1: the row is exactly zero, and
        # the span's squared norm is zero too, so the row itself is measured.
        frames = make_rng(31).normal(size=(4, 6))
        frames[1] = frames[0]
        c = np.array([[0.5, 0.5, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]])
        spec = spec_for(family)
        if family in SPHERE_FAMILIES:
            with pytest.raises(DegenerateInputError, match="all-zero row 1$"):
                kernels._span_row_stats(c, c @ (frames @ frames.T), frames, spec)
        else:
            got = kernels._span_row_stats(c, c @ (frames @ frames.T), frames, spec)
            assert got[0, 1] == 0.0 and got[0, 0] > 0.0


class TestNtkBase:
    def test_self_kernel_closed_form(self):
        # theta = 0 forces sin = 0, cos = 1; clamping perturbs only at ~1e-7.
        spec = KernelSpec(family="ntk")
        x = make_rng(24).normal(size=4)
        nngp, ntk = nngp_ntk(x, x, spec)
        k0aa = spec.sigma_w_sq * float(x @ x) / 4 + spec.sigma_b_sq
        assert nngp == pytest.approx(spec.sigma_w_sq * k0aa / 2 + spec.sigma_b_sq, rel=1e-6)
        assert ntk == pytest.approx(nngp + k0aa * spec.sigma_w_sq / 2, rel=1e-3)

    def test_orthogonal_unit_inputs_no_bias(self):
        spec = KernelSpec(family="ntk", sigma_b_sq=0.0)
        a = np.array([1.0, 0.0]); b = np.array([0.0, 1.0])
        nngp, ntk = nngp_ntk(a, b, spec)
        k0aa = spec.sigma_w_sq / 2
        assert nngp == pytest.approx(spec.sigma_w_sq * k0aa / (2 * math.pi), rel=1e-6)
        assert ntk == pytest.approx(nngp, rel=1e-6)  # K0(a,b) = 0 kills the dot term

    def test_zero_row_without_bias_is_named(self):
        # K0(a, a) = 0, so the cosine K0(a, b) / sqrt(K0(a, a) K0(b, b)) is undefined.
        with pytest.raises(DegenerateInputError, match="zero-variance input"):
            kernel_matrix([[0.0, 0.0]], [[1.0, 0.0]], KernelSpec(family="ntk", sigma_b_sq=0.0))

    def test_matches_finite_width_network(self):
        # Desk-size version; the full-width run lives in the acceptance suite.
        spec = KernelSpec(family="ntk")
        rng = make_rng(25)
        for trial in range(5):
            a = rng.uniform(-1, 1, 8); b = rng.uniform(-1, 1, 8)
            ntk = kernel_matrix(a, b, spec)[0, 0]
            emp = empirical_ntk(a, b, spec.sigma_w_sq, spec.sigma_b_sq, 8192, 24, make_rng(40, trial))
            assert abs(emp - ntk) / abs(ntk) < 0.03

    def test_nngp_matches_finite_width_network(self):
        spec = KernelSpec(family="nngp")
        rng = make_rng(26)
        for trial in range(3):
            a = rng.uniform(-1, 1, 8); b = rng.uniform(-1, 1, 8)
            nngp = kernel_matrix(a, b, spec)[0, 0]
            emp = empirical_nngp(a, b, spec.sigma_w_sq, spec.sigma_b_sq, 8192, 24, make_rng(41, trial))
            assert abs(emp - nngp) / abs(nngp) < 0.03

    def test_zero_dimension(self):
        with pytest.raises(ShapeError):
            kernel_matrix(np.zeros(0), np.zeros(0), KernelSpec(family="ntk"))


def input_scale(x, family):
    return resolve_spec(x, KernelSpec(family=family))[0].input_scale


class TestNtkInputScale:
    def test_unit_rows_give_sqrt_d(self):
        x = sphere_project(make_rng(42).normal(size=(9, 16)))
        assert input_scale(x, "ntk") == pytest.approx(4.0, rel=1e-12)

    def test_median_of_squared_norms(self):
        # squared norms {1, 4, 9}: lower median 4, so r = sqrt(2 / 4)
        x = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        assert input_scale(x, "gauss_ntk") == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_sphere_families_see_projected_rows(self):
        x = 3.0 * sphere_project(make_rng(43).normal(size=(7, 9)))
        assert input_scale(x, "gauss_ntk") == pytest.approx(1.0, rel=1e-12)
        assert input_scale(x, "gauss_ntk_sphere") == pytest.approx(3.0, rel=1e-12)

    def test_mostly_zero_rows_degenerate(self):
        x = np.zeros((5, 3))
        x[0, 0] = 1.0
        with pytest.raises(DegenerateScaleError, match="row norm"):
            input_scale(x, "ntk")

    def test_closed_form_is_the_network_on_scaled_inputs(self):
        # The unscaled closed form is checked against the finite-width network
        # above; a scaled spec must equal it on the scaled inputs.
        rng = make_rng(44)
        for _ in range(5):
            a, b = rng.uniform(-1, 1, 8), rng.uniform(-1, 1, 8)
            r = float(rng.uniform(0.2, 5.0))
            scaled = nngp_ntk(a, b, KernelSpec(family="ntk", input_scale=r))
            plain = nngp_ntk(r * a, r * b, KernelSpec(family="ntk"))
            assert np.allclose(scaled, plain, rtol=1e-12, atol=0.0)

    def test_resolve_spec_freezes_scale_for_ntk_families(self):
        x = sphere_project(make_rng(45).normal(size=(12, 25)))
        for family in FAMILIES:
            resolved = resolve_spec(x, KernelSpec(family=family))[0]
            expected = 1.0 if family == "gauss" else 5.0
            assert resolved.input_scale == pytest.approx(expected, rel=1e-12), family

    def test_ntk_factor_informative_on_synthetic_frames(self):
        # Unit-norm 2352-D frames: without the input scale the bias term
        # dominates K0 and the NTK factor varies by ~1% across centres, so the
        # product-kernel argmax collapses to the Euclidean argmin.
        frames = generate_video(make_rng(0), SynthConfig(seed=0)).frames
        spec = resolve_spec(frames, KernelSpec(family="gauss_ntk"), make_rng(0, 0))[0]
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

    @pytest.mark.parametrize("row, expected", [
        ([1e200, 1e200], [np.sqrt(0.5), np.sqrt(0.5)]),  # sum(x*x) overflows to inf
        ([1e-170, 0.0], [1.0, 0.0]),  # underflows to 0
        ([1e-160, 1e-160], [np.sqrt(0.5), np.sqrt(0.5)]),  # subnormal
    ])
    def test_rows_whose_squared_norm_leaves_the_normal_range(self, row, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sphere_project(np.array([row]))
        assert np.allclose(out, [expected], rtol=1e-15, atol=0.0)

    # The squares are summed in row blocks; each row's sum does not depend
    # on how many rows share its block, or on the memory order.
    @pytest.mark.parametrize("shape", [(40, 7), (87, 2352), (2 * kernels.PROJECT_BLOCK + 1, 9)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rows_with_a_normal_squared_norm_keep_their_bits(self, shape, order):
        x = make_rng(30).normal(size=shape) * np.logspace(-150, 150, shape[0])[:, None]
        x = np.asarray(x, order=order)
        assert np.array_equal(sphere_project(x), x / np.sqrt(np.sum(x * x, axis=1))[:, None])

    @pytest.mark.parametrize("row, unit", [
        ([1e200, 1e200], [1.0, 1.0]),  # sum(x*x) overflows to inf
        ([1e-160, 1e-160], [1.0, 1.0]),  # subnormal
        ([1e-170, 0.0], [1.0, 0.0]),  # underflows to 0
    ])
    def test_sphere_ntk_measures_rows_whose_squared_norm_leaves_the_normal_range(self, row, unit):
        spec = KernelSpec(family="ntk_sphere")
        other = np.array([[1.0, 1.0]])
        expected = kernel_matrix([unit], other, spec)
        with np.errstate(over="ignore"):  # the squared norm of the huge row overflows
            got = kernel_matrix([row], other, spec), kernel_matrix(other, [row], spec).T
        for values in got:
            assert np.allclose(values, expected, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("family", SPHERE_FAMILIES)
    def test_sphere_families_accept_a_row_whose_squared_norm_underflows(self, family):
        frames = make_rng(31).normal(size=(12, 2))
        frames[4] = [1e-170, 0.0]
        spec = resolve_spec(frames, KernelSpec(family=family))[0]
        others = np.delete(frames, 4, axis=0)
        assert np.all(np.isfinite(kernel_matrix(frames[4], others, spec)))
        assert np.all(np.isfinite(kernel_matrix(others, frames[4], spec)))
        # Against itself its Gram entry and norm product both underflow to 0;
        # the self cosine is still exactly 1, as for the unit row [1, 0].
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self_value = kernel_matrix([[1e-170, 0.0]], [[1e-170, 0.0]], spec)
        assert np.all(np.isfinite(self_value))
        assert np.array_equal(self_value, kernel_matrix([[1.0, 0.0]], [[1.0, 0.0]], spec))

    @pytest.mark.parametrize("family", SPHERE_FAMILIES)
    def test_sphere_families_name_the_zero_row(self, family, monkeypatch):
        rng = make_rng(29)
        x, zero = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))
        zero[3] = 0.0
        spec = spec_for(family)
        for a, b in ((zero, x), (x, zero)):
            with pytest.raises(DegenerateInputError, match="all-zero row 3$"):
                kernel_matrix(a, b, spec)
        with pytest.raises(DegenerateInputError, match="all-zero row 3$"):
            mmd2_grad_y(x, zero, spec, np.full(5, 1 / 5), kernels.row_stats(x, spec))
        # A zero frame outside the scale sample still has no direction.
        monkeypatch.setattr(kernels, "MAX_SCALE_FRAMES", 8)
        frames = rng.normal(size=(30, 4))
        sample = resolve_spec(frames, KernelSpec(family=family))[1]
        k = int(np.setdiff1d(np.arange(30), sample_rows(frames, sample))[0])
        frames[k] = 0.0
        with pytest.raises(DegenerateInputError, match=f"all-zero row {k}$"):
            resolve_spec(frames, KernelSpec(family=family))


def alpha(x, family="gauss_ntk", **kw):
    return resolve_spec(x, KernelSpec(family=family, **kw))[0].alpha


class TestAlphaRescale:
    def test_ratio_of_equal_medians_is_one(self):
        # Two rows -> a single pair. Without bias the NTK is sigma_w_sq^2
        # times its value at sigma_w_sq = 1, so pick the sigma_w_sq that
        # makes it equal the Gaussian value on the pair.
        a, b = np.array([0.4, -0.2, 0.9]), np.array([-0.3, 0.5, 0.1])
        x = np.stack([a, b])
        sq = float(np.sum((a - b) ** 2))
        r = math.sqrt(3 / min(float(a @ a), float(b @ b)))
        ntk_val = kernel_matrix(a, b, KernelSpec(family="ntk", sigma_w_sq=1.0, sigma_b_sq=0.0,
                                                 input_scale=r))[0, 0]
        sw2 = math.sqrt(math.exp(-1.0 / sq) / ntk_val)
        assert alpha(x, sigma_w_sq=sw2, sigma_b_sq=0.0) == pytest.approx(1.0, rel=1e-12)

    def test_positive_and_finite(self):
        value = alpha(make_rng(29).normal(size=(12, 5)))
        assert value > 0 and math.isfinite(value)

    def test_matches_full_enumeration(self):
        x = make_rng(30).normal(size=(30, 5))
        _, _, expected = brute_force_scales(x, "gauss_ntk")
        assert alpha(x) == pytest.approx(expected, rel=1e-12)

    def test_matches_full_enumeration_with_input_scale(self):
        # Rows of norm ~90 put the resolved input scale far from 1.
        x = 40.0 * make_rng(46).normal(size=(20, 5))
        spec = resolve_spec(x, KernelSpec(family="gauss_ntk"))[0]
        assert spec.input_scale < 0.05
        _, _, expected = brute_force_scales(x, "gauss_ntk")
        assert spec.alpha == pytest.approx(expected, rel=1e-12)

    def test_sphere_family_uses_projected_ntk(self):
        x = make_rng(31).normal(size=(10, 4)) * 3.0
        assert alpha(x, "gauss_ntk") != alpha(x, "gauss_ntk_sphere")
        _, _, expected = brute_force_scales(x, "gauss_ntk_sphere")
        assert alpha(x, "gauss_ntk_sphere") == pytest.approx(expected, rel=1e-12)

    def test_underflowing_gauss_median_degenerate(self):
        # Rows of norm ~1e-4: the lengthscale is the median squared distance,
        # so the median Gaussian value exp(-1 / lengthscale) underflows to zero.
        x = 1e-4 * make_rng(48).normal(size=(20, 8))
        for family in kernels.PRODUCT_FAMILIES:
            with pytest.raises(DegenerateScaleError, match="underflows"):
                alpha(x, family)


class TestKernelMatrix:
    def test_product_family_single_row(self):
        spec = spec_for("gauss_ntk")
        x = np.array([[0.5, -0.7, 0.2]])
        ntk = kernel_matrix(x, x, replace(spec, family="ntk"))[0, 0]
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

    @pytest.mark.parametrize("family, value", [("ntk", 1.9056761951668375e+150),
                                               ("nngp", 1.0031673096879057e+150)])
    def test_only_the_cross_block_is_checked(self, family, value):
        # k(b, b) overflows in the self block the pass also forms; the cross
        # value k(a, b) is finite and is returned, not a NumericError, and
        # the dropped block warns about nothing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_matrix([[1.0, 0.0]], [[1e150, 0.0]], KernelSpec(family=family))
        assert got.tolist() == [[value]]


class TestKernelGradB:
    """The coefficient matrices of the cross block of ``kernels._stacked_pass``
    over every pair of several rows, as ``mmd2_grad_y`` consumes them."""

    @staticmethod
    def assert_matches_finite_differences(a, b, spec, h):
        grad = grad_b(a, b, spec)
        for i, j in itertools.product(range(len(a)), range(len(b))):
            fd = finite_diff_grad(lambda m: kernel_matrix(a[i], m, spec)[0, 0], b[j][None], h)[0]
            denom = max(float(np.max(np.abs(fd))), 1e-12)
            assert np.max(np.abs(grad[i, j] - fd)) / denom < 1e-4, (spec.family, i, j)

    def test_gauss_gradient_zero_at_coincidence(self):
        x = np.array([[0.3, -0.4, 1.0], [2.0, 0.1, -0.5], [-1.2, 0.7, 0.0]])
        grad = grad_b(x, x.copy(), spec_for("gauss"))
        assert np.array_equal(grad[np.arange(3), np.arange(3)], np.zeros((3, 3)))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences(self, family):
        rng = make_rng(35)
        for _ in range(3):
            a, b = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (3, 6))
            self.assert_matches_finite_differences(a, b, spec_for(family), 1e-4)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_finite_differences_with_input_scale(self, family):
        rng = make_rng(48)
        for _ in range(3):
            a, b = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (3, 6))
            self.assert_matches_finite_differences(a, b, spec_for(family, input_scale=3.1), 1e-5)

    def test_product_rule_recomposition(self):
        rng = make_rng(36)
        spec = spec_for("gauss_ntk")
        for _ in range(5):
            a, b = rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (3, 6))
            g_val = kernel_matrix(a, b, spec_for("gauss"))[:, :, None]
            n_val = kernel_matrix(a, b, spec_for("ntk"))[:, :, None]
            g_grad = grad_b(a, b, spec_for("gauss"))
            n_grad = grad_b(a, b, spec_for("ntk"))
            recomposed = spec.alpha * (n_grad * g_val + n_val * g_grad)
            assert np.allclose(grad_b(a, b, spec), recomposed, atol=1e-10)


class TestKernelProperties:
    @pytest.mark.parametrize("c", [1e-6, 1e-3, 1e3, 1e6])
    def test_sphere_ntk_is_scale_invariant(self, c):
        rng = make_rng(37)
        spec = spec_for("ntk_sphere", input_scale=2.3)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
        k = kernel_matrix(a, b, spec)
        assert kernel_matrix(c * a, b, spec) == pytest.approx(k, rel=1e-12)
        assert kernel_matrix(a, c * b, spec) == pytest.approx(k, rel=1e-12)
        assert grad_b(a, c * b, spec) == pytest.approx(grad_b(a, b, spec) / c, rel=1e-10)

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
        b = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        vals = kernel_matrix(a, b, spec)[0]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_ntk_dips_for_near_antipodal_inputs(self):
        # The minimum sits near cos = -0.79; left of it the value climbs back
        # toward zero at exact antipodes, so global monotonicity fails there.
        spec = KernelSpec(family="ntk", sigma_b_sq=0.0)
        a = np.array([1.0, 0.0])
        def at(c):
            return kernel_matrix(a, np.array([c, math.sqrt(1 - c * c)]), spec)[0, 0]
        assert at(-0.995) > at(-0.9) > at(-0.82)
        assert at(-0.82) < at(-0.5) < at(0.0)
