"""Symmetry-breaking vertex colourings of bounded-degree graphs.

The construction colours a connected graph sphere by sphere from a root
so that the stabilizer of the colouring only has orbits of size at most
ceil(sqrt(max_degree)) inside each coloured ball, using
O(sqrt(max_degree) * log(max_degree)) colours. Exhaustive oracles verify
asymmetry, distinguishing numbers, motion, and boundary rigidity of
truncated families at desk scale.
"""

from .colouring import (
    Colour,
    ColourBudget,
    Colouring,
    FAR,
    ROOT,
    RefinementTrace,
    StepTrace,
    barred,
    ceil_sqrt,
    colour_bound,
    extend_colouring,
    initial_colouring,
    neighbourhood_refinement,
    numeric,
    parse_colouring,
    run,
    serialize_colouring,
    serialize_trace,
)
from .audit import induced_colouring
from .graphs import (
    FamilySpec,
    Graph,
    ball,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distances,
    eccentricity,
    generate_family,
    grid_graph,
    parse_graph,
    path_graph,
    serialize_graph,
    sphere,
    truncated_tree,
)
from .oracle import (
    OracleReport,
    distinguishing_number,
    interior_support_check,
    is_asymmetric,
    motion,
    motion_lemma_check,
)
from .symmetry import (
    DEFAULT_CAP,
    PermGroup,
    SGSGroup,
    automorphism_group,
    automorphism_sgs,
    block_stabilizer,
    chain_length_bound,
    coloured_automorphisms,
    compose,
    format_permutation,
    identity_perm,
    invert,
    longest_chain_bruteforce,
    minimal_fixing_set,
    orbits,
)

__version__ = "0.1.0"
