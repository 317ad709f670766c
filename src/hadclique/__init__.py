"""Clique search in the Hadamard graph G_t.

Vertices of G_t are the 4t-bit rows that can extend the three canonical
rows of a 4t-column partial Hadamard matrix, edges join orthogonal rows,
and a clique of size m therefore certifies an (m+3) x 4t partial Hadamard
matrix. The package provides the graph combinatorics, three searches
(greedy exact, genetic, and a quarter-by-quarter constructive heuristic),
Paley-block seeds, and file formats plus a CLI around them.
"""

from .errors import HadcliqueError, NoDecomposition
from .graph import (
    Clique,
    VertexCode,
    adjacency,
    class_size,
    clique_from_codes,
    coincidence_range,
    count_orthogonal,
    decode,
    degree,
    distinct_orderings,
    edge_count,
    generator_set,
    join_quarters,
    orthogonal_codes,
    quarters_of,
    random_vertex,
    solve_distributions,
    vertex_count,
)
from .oracle import (
    brute_adjacency_codes,
    clique_to_matrix,
    enumerate_vertices,
    verify_clique,
    verify_ph,
    vertex_codes,
)
from .exact import ExactSearchConfig, extend_exact, run_exact
from .fast import FastConfig, buildgrapas, run_fast
from .files import format_clique_text, parse_clique_text, read_clique, write_report
from .ga import GaConfig, crossover, mutate, repair, run_ga
from .seeds import (
    format_sign_matrix,
    ingest_sign_matrix,
    matrix_to_clique,
    normalize,
    paley_seed,
)

__version__ = "0.1.0"
