"""Exhaustive small-scale toolkit for expansions of trees and cycles:
constructions, containment search, shadow-pair removal, and certified
extremal computations."""

from .builders import (
    Coloring,
    balanced_bipartite,
    expansion,
    join,
    lower_bound_coloring,
    s_construction,
    s_graph,
    s_size,
    sbi_construction,
    sbi_size,
    triangle_blowup,
    triangle_system,
)
from .cleaning import (
    CleaningTrace,
    cleaning_algorithm,
    extract_d_full,
    extract_linear_subgraph,
    fullness_embedding_check,
)
from .config import RunConfig, SearchBudget
from .embed import (
    AlternatingWitness,
    Embedding,
    RainbowCertificate,
    complete_partial_expansion,
    embed_tree_two_sets,
    find_blowup,
    find_expansion,
    find_rainbow_expansion,
    vary_cycle_length,
)
from .errors import BudgetExceededError, HypothesisError, InputError, UsageError
from .lab import (
    AntiRamseyResult,
    ClosenessReport,
    TuranResult,
    anti_ramsey_bounds,
    bipartization_distance,
    exact_generalized_turan,
    exact_turan_hypergraph,
    graph_closeness,
    hypergraph_closeness,
    verify_theorem_suite,
)
from .structures import (
    EdgeCodegreeProfile,
    Graph,
    TripleSystem,
    edge_codegree_profile,
    is_d_full,
    is_superfull,
    matching_le1_structure,
    two_intersecting_structure,
)
from .trees import (
    CrosscutPair,
    CrosscutWitness,
    TreeProfile,
    all_crosscut_pairs,
    analyze_tree,
    complete_graph,
    covering_number,
    critical_edges,
    crosscut_number,
    crosscut_value,
    cycle_graph,
    decomposition_witness,
    enumerate_trees,
    independent_covering_number,
    path_graph,
    pendant_critical_edge,
    star_graph,
)

__version__ = "0.1.0"
