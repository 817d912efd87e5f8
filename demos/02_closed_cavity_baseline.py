"""Closed elliptic cavity: the Hermitian baseline.

Two checks that anchor everything downstream. First, on the disc the lowest
Dirichlet eigenvalues are known in closed form (Bessel zeros), which
calibrates the finite-difference solver. Second, a deformation sweep of the
closed ellipse shows what rigid modes look like: a real operator solved in
real arithmetic gives exactly real k and psi, so R2 and K are exactly 1 and
the folded phase entropy exactly 0, and a mode with a nodal line has an
unfolded entropy of ln 2 from the two phase atoms at 0 and pi.

    python3 demos/02_closed_cavity_baseline.py
"""
import numpy as np

from epmodes.models import CavitySpec, build_ellipse_grid, solve_cavity_modes
from epmodes.sweep import SweepConfig, mode_diagnostics, run_sweep

# disc calibration against the first two Bessel zeros
J0_1 = 2.404825557695773
J1_1 = 3.8317059702075125

spec = CavitySpec(0.0, h=0.02)
print(f"disc at h = {spec.h}: {build_ellipse_grid(spec).npts} interior points")
modes = solve_cavity_modes(spec, 2.9, 2)
ks = sorted(m.eigen_k.real for m in modes)
for k, ref in zip(ks, (J0_1, J1_1)):
    print(f"  k = {k:.6f}  exact {ref:.6f}  rel err {abs(k - ref) / ref:.2e}")

# closed-ellipse sweep: rigidity and entropy of Hermitian modes
cfg = SweepConfig("cavity", np.linspace(0.10, 0.22, 5), m=2, h=0.02,
                  k_target=2.5)
records = run_sweep(cfg)
print()
print("eps     k0          R2 (mode 0)       S_unf(0)  S_unf(1)  S_fold(1)")
for r in records:
    d0, d1 = r.modes
    print(f"{r.parameter:.2f}  {d0.re_eigenvalue:10.6f}  "
          f"{d0.R2:.12f}  {d0.S_unfolded:8.4f}  {d1.S_unfolded:8.4f}"
          f"  {d1.S_folded:8.4f}")
print()
print("mode 0 is nodeless: all weight on one phase atom, every entropy 0.")
print("mode 1 has a nodal line: half the weight at phase 0, half at pi,")
print(f"so its unfolded entropy is ln 2 = {np.log(2.0):.4f} and folding")
print("merges the two atoms back to a single bin (S_folded = 0).")

# the same numbers are available one mode at a time
single = mode_diagnostics(modes[0])
print()
print(f"disc ground mode: R2 = {single.R2!r}, K = {single.K!r}, "
      f"Im k = {single.im_eigenvalue!r}, "
      f"max |Im psi| = {float(np.abs(modes[0].psi.imag).max())!r}")
