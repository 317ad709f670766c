"""Clique search in the Hadamard graph G_t.

Vertices of G_t are the 4t-bit rows that can extend the three canonical
rows of a 4t-column partial Hadamard matrix, edges join orthogonal rows,
and a clique of size m therefore certifies an (m+3) x 4t partial Hadamard
matrix. The package provides the graph combinatorics, three searches
(greedy exact, genetic, and a quarter-by-quarter constructive heuristic),
Paley-block seeds, and file formats plus a CLI around them.
"""

from .errors import (
    BadCharacter,
    BadShape,
    BothEmpty,
    HadcliqueError,
    InvalidClique,
    InvalidSeed,
    KOutOfRange,
    NoDecomposition,
    NotOrthogonal,
    PatternError,
    PoolTooLarge,
    RaggedRows,
    RangeError,
    TooLarge,
    WeightError,
)
from .graph import (
    Clique,
    VertexCode,
    adjacency,
    adjacency_profile,
    class_size,
    clique_from_codes,
    coincidence_range,
    complement,
    count_orthogonal,
    decode,
    degree,
    distinct_orderings,
    edge_count,
    full_mask,
    generator_set,
    join_quarters,
    orthogonal_codes,
    quarters_of,
    random_vertex,
    s_range,
    solve_distributions,
    vertex_count,
)
from .oracle import (
    SignMatrix,
    brute_adjacency_codes,
    clique_to_matrix,
    enumerate_vertices,
    verify_clique,
    verify_ph,
    vertex_codes,
)
from .exact import ExactSearchConfig, extend_exact, run_exact
from .fast import FastConfig, buildgrapas, completions, feasible_targets, run_fast
from .files import (
    format_clique_text,
    format_report,
    parse_clique_text,
    read_clique,
    read_report,
    report_best_clique,
    write_clique,
    write_report,
)
from .ga import Chromosome, GaConfig, crossover, mutate, repair, run_ga
from .report import EssayResult, SearchReport
from .seeds import (
    format_sign_matrix,
    ingest_sign_matrix,
    matrix_to_clique,
    normalize,
    paley_seed,
)

__version__ = "0.1.0"
