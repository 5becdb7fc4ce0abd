"""Generic LP/LFP solver substrate -- the paper's Fig. 5 baselines.

Four independent solvers for the linear-fractional program of problem
(18)-(20), all agreeing on the optimum (cross-checked in the tests):

* :func:`solve_lfp_scipy` -- Charnes-Cooper + scipy's HiGHS (the "Gurobi"
  stand-in).
* :func:`solve_lfp_simplex` -- Charnes-Cooper + our own two-phase tableau
  simplex (the "lp_solve" stand-in).
* :func:`solve_lfp_dinkelbach` -- Dinkelbach iteration with the Lemma-3
  closed-form inner step.
* :func:`solve_lfp_bruteforce` -- 2^n vertex enumeration, the ground-truth
  oracle for small instances.

Algorithm 1 itself lives in :mod:`repro.core.algorithm1`.
"""

from .charnes_cooper import LinearProgram, lfp_to_lp, lp_solution_to_lfp_value
from .scipy_backend import solve_lfp_scipy
from .simplex import SimplexResult, simplex_solve, solve_lfp_simplex
from .dinkelbach import DinkelbachResult, solve_lfp_dinkelbach
from .bruteforce import MAX_BRUTEFORCE_N, solve_lfp_bruteforce

__all__ = [
    "LinearProgram",
    "lfp_to_lp",
    "lp_solution_to_lfp_value",
    "solve_lfp_scipy",
    "SimplexResult",
    "simplex_solve",
    "solve_lfp_simplex",
    "DinkelbachResult",
    "solve_lfp_dinkelbach",
    "MAX_BRUTEFORCE_N",
    "solve_lfp_bruteforce",
]
