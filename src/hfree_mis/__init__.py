"""Maximum Independent Set in H-free graphs: exact oracle, constructive
Ramsey machinery, FPT solvers, kernelizations, hardness-instance generators
and a fixed-pattern complexity classifier.

Vertices are integers 0..n-1 and vertex sets are plain int bitmasks
throughout; public results use sorted tuples of vertices.
"""

from .graph import Graph, complement, join, disjoint_union, random_graph
from .patterns import HPattern, pattern
from .induced import find_induced
from .oracle import alpha_exact, alpha_reaches, AlphaResult
from .errors import (
    BudgetExceededError,
    InputFormatError,
    InternalCheckError,
    PatternViolationError,
    UnsupportedPatternError,
)
from .ramsey import ramsey_bound, ramsey_multicolor_bound, ramsey_extract, eh_extract, RamseyOutcome
from .cluster import solve_cluster_free
from .solver import solve_hfree, solve_paper, SolveConfig, SolveOutcome
from .kernelize import kernel_krfree, kernel_paw_like, turing_kernel_star, solve_via_turing, KernelResult
from .hardness import GridTiling, gen_grid_tiling, build_construction, lift_solution, project_solution, verify_exclusions, or_compose
from .classify import verdict, Verdict, find_clique_decomposition, join_factors, np_hard_connected

__all__ = [
    "Graph", "complement", "join", "disjoint_union", "random_graph",
    "HPattern", "pattern", "find_induced",
    "alpha_exact", "alpha_reaches", "AlphaResult",
    "BudgetExceededError", "InputFormatError", "InternalCheckError", "PatternViolationError", "UnsupportedPatternError",
    "ramsey_bound", "ramsey_multicolor_bound", "ramsey_extract", "eh_extract", "RamseyOutcome",
    "solve_cluster_free", "solve_hfree", "solve_paper", "SolveConfig", "SolveOutcome",
    "kernel_krfree", "kernel_paw_like", "turing_kernel_star", "solve_via_turing", "KernelResult",
    "GridTiling", "gen_grid_tiling", "build_construction", "lift_solution", "project_solution",
    "verify_exclusions", "or_compose",
    "verdict", "Verdict", "find_clique_decomposition", "join_factors", "np_hard_connected",
]
