"""How the source-smallness threshold is built and what it protects.

The clean two-branch structure requires that no ray direction has its source
pairing B reach the peak psi_max of its fibering map.  A sufficient condition
is a bound on the L^{4/3} norms of the sources in terms of the discrete
Sobolev constant s4.  This script estimates s4, assembles the threshold, and
then demonstrates both sides of it: random directions stay safely below the
peak under the threshold, and a deliberately oversized source produces a
direction whose fibering map has no roots at all.
"""

import math

import numpy as np

from nehari.fibering import analyze_direction
from nehari.functional import Params
from nehari.grid import Field, Grid, Pair, first_eigenvector, l43_norm, zero_field
from nehari.threshold import compute_threshold, estimate_s4

grid = Grid(1, (1.0,), (199,))
lam = 1.0
s4 = estimate_s4(grid, lam, seed=0)
print(f"grid: 1D, {grid.points[0]} interior nodes on (0, {grid.extents[0]})")
print(f"discrete Sobolev constant estimate: s4 = {s4:.6f}")

from nehari.grid import l4_norm4, weighted_norm_sq

e = first_eigenvector(grid)
trial = l4_norm4(e) ** 0.25 / math.sqrt(weighted_norm_sq(grid, e.values, lam))
print(f"(first-eigenvector trial ratio: {trial:.6f}; the ascent beats it)")
print()

zero = zero_field(grid)
for beta in (0.5, 1.0, -0.5):
    params = Params(1.0, 1.0, 1.0, 1.0, beta, zero, zero)
    rep = compute_threshold(params, grid, s4)
    print(
        f"beta = {beta:+.1f}: sup-A bound = {rep.sup_A_bound:.6f}, "
        f"alpha = {rep.alpha:.4f}, threshold Lambda = {rep.lambda_threshold:.4f}"
    )
print()

# build sources at half the threshold and look at random ray directions
beta = 0.5
params0 = Params(1.0, 1.0, 1.0, 1.0, beta, zero, zero)
lam_threshold = compute_threshold(params0, grid, s4).lambda_threshold
eps = 0.5 * lam_threshold / l43_norm(e)
f = e.scaled(eps)
params = Params(1.0, 1.0, 1.0, 1.0, beta, f, f)
rep = compute_threshold(params, grid, s4)
print(f"sources scaled to half the threshold: |f|_4/3 = {rep.f_norm:.4f} "
      f"< Lambda = {rep.lambda_threshold:.4f}, satisfied = {rep.satisfied}")

rng = np.random.default_rng(0)
worst = 0.0
for _ in range(2000):
    p = Pair(Field(grid, rng.standard_normal(grid.size)),
             Field(grid, rng.standard_normal(grid.size)))
    ana = analyze_direction(p, params)
    worst = max(worst, ana.source / ana.psi_max)
print(f"2000 random directions: max B/psi_max = {worst:.3e} (must stay < 1)")
print()

# push past the threshold with a tight coupling and watch a ray go empty
beta = 1.0
params0 = Params(1.0, 1.0, 1.0, 1.0, beta, zero, zero)
lam_threshold = compute_threshold(params0, grid, s4).lambda_threshold
eps = 1.2 * lam_threshold / l43_norm(e)
big = Params(1.0, 1.0, 1.0, 1.0, beta, e.scaled(eps), e.scaled(eps))
rep = compute_threshold(big, grid, s4)
aligned = Pair(big.f, big.g)
ana = analyze_direction(aligned, big)
print(f"beta = 1.0 at 1.2x the threshold: satisfied = {rep.satisfied}")
print(f"source-aligned direction: B = {ana.source:.4f} vs psi_max = {ana.psi_max:.4f}")
print(f"roots on that ray: {len(ana.roots)} (the ground branch is gone)")
