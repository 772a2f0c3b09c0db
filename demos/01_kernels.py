"""A tour of the kernel families.

Evaluates each closed-form kernel on a toy point set, checks the properties
the segmentation pipeline relies on (symmetry, positive semidefiniteness,
Gaussian range), and shows the data-derived scales that ``resolve_spec``
fixes in one pass: the median-heuristic lengthscale, the NTK input scale and
the product-kernel rescaling.
"""

import numpy as np

from mmdseg import FAMILIES, KernelSpec, kernel_matrix, make_rng, resolve_spec

rng = make_rng(0)
x = rng.normal(size=(8, 5))

print("Toy data: 8 points in 5-D\n")

# The scales come from the data itself, in one pass over its pairs: the
# Gaussian lengthscale is the median of the squared pairwise distances, and
# the product kernel's alpha brings its two factors into the same range.
# They are frozen before training, so the objective stays stationary (a
# Gaussian alone, learned jointly, would grow into a constant kernel with
# zero MMD).
spec = resolve_spec(x, KernelSpec(family="gauss_ntk"))[0]
print(f"median-heuristic lengthscale: {spec.lengthscale:.4f}")
print(f"NTK input scale: {spec.input_scale:.4f}")
print(f"product-kernel rescaling alpha = med(gauss)/med(ntk): {spec.alpha:.4f}\n")

for family in FAMILIES:
    fam_spec = resolve_spec(x, KernelSpec(family=family))[0]
    gram = kernel_matrix(x, x, fam_spec)
    eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    sym = np.max(np.abs(gram - gram.T))
    print(f"{family:18s} value range [{gram.min():+.4f}, {gram.max():+.4f}]  "
          f"min eig {eig.min():+.2e}  max |K - K^T| {sym:.1e}")

print("\nAll families are symmetric and PSD; gauss stays in (0, 1].")

# The NTK closed form describes an infinitely wide Dense->ReLU->Dense network.
# For two aligned inputs it reduces to simple expressions of
# K0(a, a) = sw2 * <a, a> / d + sb2:
a = np.array([1.0, 0.0, 0.0])
b = np.array([0.0, 1.0, 0.0])
spec_ntk = KernelSpec(family="ntk")
k0 = spec_ntk.sigma_w_sq * float(a @ a) / a.size + spec_ntk.sigma_b_sq
nngp = kernel_matrix(a, np.stack([a, b]), KernelSpec(family="nngp"))[0]
ntk = kernel_matrix(a, np.stack([a, b]), spec_ntk)[0]
print(f"\nself-kernel of a unit vector: K0 {k0:.4f}, NNGP {nngp[0]:.4f}, NTK {ntk[0]:.4f}")
print(f"  (NNGP = sw2*K0/2 + sb2 = {spec_ntk.sigma_w_sq * k0 / 2 + spec_ntk.sigma_b_sq:.4f})")
print(f"orthogonal pair:              NNGP {nngp[1]:.4f}, NTK {ntk[1]:.4f}")

# K0 divides <a, b> by the dimension d, which assumes inputs with
# ||x||^2 / d ~ 1. Unit-norm rows in high dimension would leave the bias
# term in charge and the NTK nearly constant, so each video fixes an input
# scale r = sqrt(d / med ||x||^2) for the network.
rows = make_rng(1).normal(size=(6, 2000))
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
for r in (1.0, resolve_spec(rows, spec_ntk)[0].input_scale):
    gram = kernel_matrix(rows, rows, KernelSpec(family="ntk", input_scale=r))
    off = gram[~np.eye(6, dtype=bool)]
    print(f"unit rows in 2000-D, input scale {r:6.2f}: off-diagonal NTK "
          f"{off.min():.4f}..{off.max():.4f}, diagonal {gram[0, 0]:.4f}")
