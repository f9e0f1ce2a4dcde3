"""Find both solutions of the reference 1D problem and verify everything.

The ground state minimizes the energy over the branch where rays cross the
constraint set at a local minimum of the fibering map; its energy is
negative.  The bound state minimizes over the other branch and sits strictly
above.  Both are positive in each component once the absolute-value rescale
is applied.  The converged states are dumped as plot-ready CSV.
"""

import math
import os

import numpy as np

from nehari.fibering import N_MINUS, N_PLUS
from nehari.functional import Params, evaluate
from nehari.grid import Grid, first_eigenvector, l43_norm, pair_to_csv, zero_field
from nehari.solver import minimize, positivity_rescale, verify_solution
from nehari.threshold import compute_threshold, estimate_s4

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

grid = Grid(1, (1.0,), (199,))
s4 = estimate_s4(grid, 1.0, seed=0)
e = first_eigenvector(grid)
zero = zero_field(grid)
probe = Params(1.0, 1.0, 1.0, 1.0, 0.5, zero, zero)
lam_threshold = compute_threshold(probe, grid, s4).lambda_threshold
eps = 0.5 * lam_threshold / l43_norm(e)
f = e.scaled(eps)
params = Params(1.0, 1.0, 1.0, 1.0, 0.5, f, f)
print(f"sources: f = g = {eps:.4f} * sin(pi x), half the threshold {lam_threshold:.4f}")
print()

names = {N_PLUS: "ground state", N_MINUS: "bound state"}
for branch in (N_PLUS, N_MINUS):
    rep = minimize(branch, params, grid)
    rep = positivity_rescale(rep, params)
    checks = verify_solution(rep, params, s4=s4)
    failed = [c.name for c in checks if not c.passed]
    amp_u = rep.state.u.values.max()
    print(f"{names[branch]} ({branch}):")
    print(f"  energy          {rep.theta:+.8f}")
    print(f"  iterations      {rep.iterations}")
    print(f"  gradient norm   {rep.grad_norm:.2e}")
    print(f"  pde residual    {rep.pde_residual:.2e} (scale {rep.pde_scale:.1f})")
    rd = evaluate(params, rep.state.u.values, rep.state.v.values)
    print(f"  state norm      {math.sqrt(rd.norm_sq):.4f}")
    print(f"  peak amplitude  {amp_u:.4f}")
    print(f"  positive        {rep.positive}")
    print(f"  checks          {'all pass' if not failed else 'FAILED: ' + str(failed)}")
    stem = names[branch].replace(" ", "_")
    path = os.path.join(OUT, f"{stem}.csv")
    pair_to_csv(rep.state, path)
    print(f"  written         {path}")
    print()

print("The ground state rides the sources (small, negative energy); the")
print("bound state is a large positive pair, a perturbation of the unforced")
print("system's state, with strictly larger energy.")
