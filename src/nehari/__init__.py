"""Two-branch variational solver for a perturbed coupled cubic system.

Finds a ground state and a bound state of

    -lap u + lam1*u = mu1*u^3 + beta*u*v^2 + f
    -lap v + lam2*v = mu2*v^3 + beta*u^2*v + g

with zero Dirichlet data on a box, by splitting the natural constraint set
into two branches via fibering-map root analysis and minimizing the energy
on each branch with retracted gradient descent.  A source-smallness
threshold guarantees the branch structure is clean before solving.

The package root exports nothing: import each name from the module that
defines it.
"""

__version__ = "0.1.0"
