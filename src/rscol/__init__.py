"""Restricted star colouring toolkit.

Polynomial-time 3-rs-colourability testers for trees and chordal graphs,
exact desk-scale solvers and verifiers for rs/star/ordered colourings, the
constructive reductions with their colouring schemes, and a sparse symmetric
matrix compression application built on rs colourings.
"""

from .chordal3rs import (
    ChordalTestResult,
    NotChordalError,
    eliminate_triangles,
    test_3rs_chordal,
)
from .colouring import (
    Colouring,
    ColouringError,
    PartialColouring,
    check_properties_P,
    find_rs_violation,
    is_distance_two,
    is_ordered,
    is_proper,
    is_rs,
    is_star,
)
from .constructions import (
    BlowupGraph,
    CoBipartitePartition,
    GadgetGraph,
    PositiveCnf,
    SplitPartition,
    assignment_to_3rs_colouring,
    colouring_lift,
    colouring_to_assignment,
    decide_2_rs,
    edge_blowup,
    g_plus,
    rs_to_proper_extraction,
    sat_to_graph,
    split_rs_chromatic,
    star_to_ordered_cobipartite,
    upper_bound_colouring,
)
from .graph import (
    Graph,
    GraphError,
    RootedTree,
    attach_pendants,
    girth,
    is_bipartite,
    is_chordal,
    is_tree,
    list_triangles,
    root_at_3plus,
    subdivide_all_edges,
)
from .hessian import (
    CooMatrix,
    SeedGrouping,
    SparsityPattern,
    compress,
    greedy_rs_colouring,
    pattern_to_graph,
    recover,
    recover_entries,
)
from .solver import (
    BudgetExceededError,
    SolveBudget,
    SolveResult,
    SolveStatus,
    decide_k_rs,
    enumerate_k_rs,
    max_independent_set,
    ordered_chromatic_number,
    rs_chromatic_number,
    star_chromatic_number,
)
from .tree3rs import (
    BranchClass,
    SubtreeClass,
    TreeTestResult,
    branch_class_lookup,
    path_3rs_feasible,
    subtree_class_from_state,
    test_3rs_tree,
)

__version__ = "0.1.0"
