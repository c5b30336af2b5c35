"""Exact cell-decomposition solver for two-sided max-plus linear systems.

The top level holds what a caller of the solver needs; everything else is
imported from its module (tropsolve.core, .preprocess, .winseq, .bivariate,
.cells, .reductions, .oracle, .cli).
"""

from .core import NEG_INF, Matrix, matvec_maxplus
from .winseq import max_pairs_per_row
from .bivariate import solve_equations, sub_specialize, substitute
from .cells import cell_membership, sample_cell, solve, verify_solution
from .reductions import leq_to_eq, principal_solution
from .oracle import GridSpec, cross_validate, grid_solutions
from .cli import emit

__version__ = "0.1.0"
