"""Two-branch variational solver for a perturbed coupled cubic system.

Finds a ground state and a bound state of

    -lap u + lam1*u = mu1*u^3 + beta*u*v^2 + f
    -lap v + lam2*v = mu2*v^3 + beta*u^2*v + g

with zero Dirichlet data on a box, by splitting the natural constraint set
into two branches via fibering-map root analysis and minimizing the energy
on each branch with retracted gradient descent.  A source-smallness
threshold guarantees the branch structure is clean before solving.
"""

from .fibering import (
    FiberingAnalysis,
    N_MINUS,
    N_PLUS,
    N_ZERO,
    NoSuchBranch,
    Root,
    analyze,
    analyze_direction,
    retract,
)
from .functional import (
    EnergyBreakdown,
    Params,
    RayData,
    energy,
    evaluate,
    gradient,
)
from .grid import (
    Field,
    Grid,
    Pair,
    field_from_csv,
    field_from_function,
    field_to_csv,
    integrate,
    l4_norm4,
    l43_norm,
    laplacian_apply,
    pair_from_csv,
    pair_to_csv,
    zero_field,
)
from .solver import (
    BranchVanished,
    SemiTrivialCollapse,
    SolveReport,
    SolverConfig,
    auto_init,
    minimize,
    positivity_rescale,
    verify_solution,
)
from .threshold import (
    ThresholdReport,
    check_source_bound,
    compute_threshold,
    estimate_s4,
)

__version__ = "0.1.0"
