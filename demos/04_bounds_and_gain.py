"""Recovery-of-singularities bounds and the weighted-norm gain scan.

The closed-form calculators tabulate how much Sobolev regularity each term
of the Born series gains for a potential of smoothness beta in dimension n.
The gain scan probes the same phenomenon numerically: weighted frequency
norms of the quadratic term saturate for weights below the critical exponent
and keep growing above it.
"""

import numpy as np

from borndisp import Direction, bounds, gaussian_potential, make_grid
from borndisp.analysis import gain_scan
from borndisp.dispersion import CutoffSpec

print("bound calculators, n = 3")
print("-" * 56)
print(f"{'beta':>6} {'m':>6} {'alpha0':>8} {'thm11':>8} {'thm13':>8}")
for beta in (0.5, 1.0, 1.5, 2.0):
    print(f"{beta:6.2f} {bounds.m_threshold(3):6.3f} {bounds.alpha0(3, beta):8.3f} "
          f"{bounds.thm11_max(3, beta):8.3f} {bounds.thm13_sup(3, beta):8.3f}")

print("\nm threshold by dimension:",
      ", ".join(f"n={n}: {bounds.m_threshold(n):.3f}" for n in (3, 4, 5, 6)))

# A small gain scan on a Gaussian (fast; the acceptance suite runs the full
# g_beta version).  Growth ratios near 1 mean the weighted norm converged.
q = gaussian_potential(0.5, make_grid(2, 128, 16.0))
theta = Direction(np.array([-1.0, 0.0]))
scans = gain_scan(q, theta, [0.0, 2.0], [6.0, 12.0, 24.0], CutoffSpec(),
                  rule_level=3)
print("\ngain scan (Gaussian, weights <eta>^alpha, extents 6/12/24)")
for s in scans:
    ratios = ", ".join(f"{r:.4f}" for r in s.growth_ratios)
    print(f"  alpha = {s.alpha}: growth ratios {ratios}")
