"""A tour of the kernel families.

Evaluates each closed-form kernel on a toy point set, checks the properties
the segmentation pipeline relies on (symmetry, positive semidefiniteness,
Gaussian range), and shows the two data-derived scales: the median-heuristic
lengthscale and the product-kernel rescaling.
"""

import numpy as np

from mmdseg import (
    FAMILIES,
    KernelSpec,
    alpha_rescale,
    kernel_matrix,
    make_rng,
    median_lengthscale,
    ntk_base,
)
from mmdseg.kernels import ntk_input_scale

rng = make_rng(0)
x = rng.normal(size=(8, 5))

print("Toy data: 8 points in 5-D\n")

# The Gaussian lengthscale comes from the data itself: the median of the
# squared pairwise distances. It is frozen before training, so the objective
# stays stationary (a Gaussian alone, learned jointly, would grow into a
# constant kernel with zero MMD).
lam = median_lengthscale(x)
print(f"median-heuristic lengthscale: {lam:.4f}")

spec = KernelSpec(family="gauss_ntk", lengthscale=lam)
alpha = alpha_rescale(x, spec)
print(f"product-kernel rescaling alpha = med(gauss)/med(ntk): {alpha:.4f}\n")

for family in FAMILIES:
    fam_spec = KernelSpec(family=family, lengthscale=lam, alpha=alpha)
    gram = kernel_matrix(x, x, fam_spec)
    eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    sym = np.max(np.abs(gram - gram.T))
    print(f"{family:18s} value range [{gram.min():+.4f}, {gram.max():+.4f}]  "
          f"min eig {eig.min():+.2e}  max |K - K^T| {sym:.1e}")

print("\nAll families are symmetric and PSD; gauss stays in (0, 1].")

# The NTK closed form describes an infinitely wide Dense->ReLU->Dense network.
# For two aligned inputs it reduces to simple expressions:
a = np.array([1.0, 0.0, 0.0])
spec_ntk = KernelSpec(family="ntk")
k0, nngp, ntk = ntk_base(a, a, spec_ntk)
print(f"\nself-kernel of a unit vector: K0 {k0:.4f}, NNGP {nngp:.4f}, NTK {ntk:.4f}")
print(f"  (NNGP = sw2*K0/2 + sb2 = {spec_ntk.sigma_w_sq * k0 / 2 + spec_ntk.sigma_b_sq:.4f})")

b = np.array([0.0, 1.0, 0.0])
_, nngp_orth, ntk_orth = ntk_base(a, b, spec_ntk)
print(f"orthogonal pair:              NNGP {nngp_orth:.4f}, NTK {ntk_orth:.4f}")

# K0 divides <a, b> by the dimension d, which assumes inputs with
# ||x||^2 / d ~ 1. Unit-norm rows in high dimension would leave the bias
# term in charge and the NTK nearly constant, so each video fixes an input
# scale r = sqrt(d / med ||x||^2) for the network.
rows = make_rng(1).normal(size=(6, 2000))
rows /= np.linalg.norm(rows, axis=1, keepdims=True)
for r in (1.0, ntk_input_scale(rows, spec_ntk)):
    gram = kernel_matrix(rows, rows, KernelSpec(family="ntk", input_scale=r))
    off = gram[~np.eye(6, dtype=bool)]
    print(f"unit rows in 2000-D, input scale {r:6.2f}: off-diagonal NTK "
          f"{off.min():.4f}..{off.max():.4f}, diagonal {gram[0, 0]:.4f}")
