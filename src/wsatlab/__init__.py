"""Weak-saturation (graph bootstrap percolation) laboratory."""

from .graphs import (
    Graph,
    InputError,
    canon_edge,
    enumerate_labeled_graphs,
    is_connected,
    make_clique,
    make_complete,
    make_complete_bipartite,
    make_double_barbell,
    parse_edge_list,
    parse_graph6,
    serialize_edge_list,
    serialize_graph6,
)
from .patterns import (
    PatternStats,
    analyze,
    compute_lambda_prime,
    densest_subgraph_profile,
    is_2_balanced,
    verify_appendix_lemmas,
)
from .closure import ClosureTrace, Embedding, close, find_completion, percolates
from .witness import (
    REATrace,
    WitnessRecord,
    check_aizenman_lebowitz,
    check_case2_bound,
    check_component_bound,
    check_edge_lower_bound,
    check_witness_closures,
    close_with_witnesses,
    rea_replay,
)
from .ladders import (
    Ladder,
    build_ladder,
    count_induced_ladders_at,
    ladder_closure_check,
    verify_ladder_lemma,
)
from .experiments import (
    PcEstimate,
    bisect_pc,
    expected_ladder_count,
    fit_exponent,
    ladder_base_experiment,
    mix_seed,
    percolation_curve,
    sample_gnp,
    theory_markers,
)
from .oracle import CensusResult, naive_close, percolation_census

__version__ = "0.1.0"
