"""Clique search in the Hadamard graph G_t.

Vertices of G_t are the 4t-bit rows that can extend the three canonical
rows of a 4t-column partial Hadamard matrix, edges join orthogonal rows,
and a clique of size m therefore certifies an (m+3) x 4t partial Hadamard
matrix. The package provides the graph combinatorics, three searches
(greedy exact, genetic, and a quarter-by-quarter constructive heuristic),
Paley-block seeds, and file formats plus a CLI around them.

The root holds the calls README's Library section shows; helpers are
imported from their modules, such as hadclique.files.read_clique.
"""

from .errors import HadcliqueError, NoDecomposition
from .graph import (
    Clique,
    VertexCode,
    adjacency,
    class_size,
    coincidence_range,
    count_orthogonal,
    decode,
    degree,
    distinct_orderings,
    edge_count,
    generator_set,
    solve_distributions,
    vertex_count,
)
from .oracle import clique_to_matrix, verify_clique, verify_ph
from .exact import ExactSearchConfig, extend_exact, run_exact
from .fast import FastConfig, run_fast
from .files import write_report
from .ga import GaConfig, run_ga
from .seeds import (
    format_sign_matrix,
    ingest_sign_matrix,
    matrix_to_clique,
    normalize,
    paley_seed,
)

__version__ = "0.1.0"
