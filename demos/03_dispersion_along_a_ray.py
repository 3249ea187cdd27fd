"""Evaluate the double-dispersion operator along a frequency ray.

B_theta(q, q) at frequency eta combines an Ewald-sphere average (the
imaginary part, up to a factor pi) with a principal-value integral over
sphere radii (the real part).  The production evaluator reaches both from
the bipolar identity, at a rule level.  For a Gaussian potential everything
is analytic, so a brute-force polar-coordinates oracle can cross-check it.
"""

import numpy as np

from borndisp import Direction, gaussian_potential, make_grid, sphere_rule
from borndisp.dispersion import CutoffSpec, b_theta2, q_full2_hat
from borndisp.oracle import brute_b_theta2

grid = make_grid(2, 256, 16.0)
q = gaussian_potential(0.5, grid)
theta = Direction(np.array([-1.0, 0.0]))
level = 4

print("B_theta(q, q) along eta = t * e1 (Gaussian potential, n = 2)")
print("-" * 64)
print(f"{'t':>4} {'Re B':>14} {'Im B':>14} {'rel err vs oracle':>20}")
for t in (3.0, 5.0, 8.0):
    eta = np.array([t, 0.0])
    val = b_theta2(q, theta, eta, level)
    ref = brute_b_theta2(q, theta, eta)
    rel = abs(val - ref) / abs(ref)
    print(f"{t:4.0f} {val.real:14.6e} {val.imag:14.6e} {rel:20.2e}")

# The angle-averaged operator Q_{F,2} of a radial potential is itself radial:
# its magnitude depends on |eta| only.
theta_rule = sphere_rule(2, 5)
cut = CutoffSpec()
print("\n|Q_{F,2}| at |eta| = 4 for several polar angles")
for ang in (0.0, 30.0, 73.0):
    rad = np.deg2rad(ang)
    eta = 4.0 * np.array([np.cos(rad), np.sin(rad)])
    val = q_full2_hat(q, eta, theta_rule, level, cut)
    print(f"  angle {ang:5.1f} deg: |Q| = {abs(val):.8f}")
