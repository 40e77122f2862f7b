"""Exact-arithmetic engine for fat Hoffman graphs and edge-signed graphs
at the golden-ratio eigenvalue thresholds."""

from .algebra import (
    NEG_ONE_MINUS_TAU,
    NEG_TAU,
    IntPolynomial,
    Threshold,
    char_poly,
    compare_smallest_roots,
    count_roots_below,
    deflate,
    lambda_min_approx,
    lambda_min_at_least,
    lambda_min_equals,
    parse_threshold,
)
from .censusio import TOOL_VERSION
from .decomp import (
    Decomposition,
    HLineWitness,
    find_hline_witness,
    find_reducibility_witness,
    lambda_min_of_sum_check,
    reduce_by_degree,
    reduce_q_realization,
    split_by_special_components,
    validate_decomposition,
    verify_hline_witness,
)
from .enumeration import (
    ClassificationResult,
    HoffmanCensus,
    SignedCensus,
    brute_force_signed_keys,
    classify_irreducible,
    derive_two_slim,
    enumerate_signed,
    exceptional_members,
    fat_classes,
    is_q_graph,
    lambda_min_table_check,
    maximal_members,
    realize_hoffman,
    verify_extension_step,
    verify_three_vertex_diagonal_lemma,
)
from .iso import CanonicalKey, canonical_key, contains_induced, is_isomorphic
from .model import (
    EdgeSignedGraph,
    HoffmanGraph,
    catalog,
    from_text,
    hoffman,
    induced_hoffman_subgraph,
    induced_signed_subgraph,
    is_connected_signed,
    is_fat,
    make_q,
    parse_graph,
    recognize_q,
    signed,
    to_json_obj,
    to_text,
    validate_hoffman,
    validate_signed,
)
from .spectral import (
    b_matrix,
    b_matrix_by_product,
    check_msbd,
    d_matrix,
    signed_adjacency,
    special_graph,
)

__version__ = TOOL_VERSION
