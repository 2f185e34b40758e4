"""Dual-route checks beyond the exhaustive 7-vertex corpus.

Automorphism groups of well-known mid-size graphs are cross-checked
against networkx's VF2 isomorphism machinery (a fully independent
implementation), and the construction plus audit is exercised at the
scale the default cap is meant for.
"""

import networkx as nx
import pytest

from asymcolour import (
    automorphism_group,
    build_graph,
    complete_bipartite_graph,
    cycle_graph,
    grid_graph,
    is_asymmetric,
    run,
    truncated_tree,
)
from asymcolour import audit
from asymcolour.symmetry import coloured_automorphisms

from .conftest import vf2_automorphisms


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def cube():
    edges = [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
    return build_graph(8, edges)


@pytest.mark.parametrize(
    "graph_factory,name",
    [
        (petersen, "petersen"),
        (cube, "cube"),
        (lambda: complete_bipartite_graph(4, 4), "K44"),
        (lambda: grid_graph(3, 3), "grid3x3"),
        (lambda: cycle_graph(12), "C12"),
    ],
)
def test_group_order_matches_vf2(graph_factory, name):
    graph = graph_factory()
    group = automorphism_group(graph)
    assert group.order == len(vf2_automorphisms(graph))


# Rigid regular graphs on which some leaf of the search has the first
# leaf's refinement splits at every level without being an automorphic
# image of it: accepting leaves on splits alone gives orders 2 and 4.
RIGID_QUINTIC_10 = [
    (0, 2), (0, 4), (0, 6), (0, 7), (0, 8), (1, 2), (1, 3), (1, 6), (1, 7), (1, 9), (2, 3), (2, 7), (2, 9),
    (3, 4), (3, 6), (3, 8), (4, 5), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8), (5, 9), (6, 9), (8, 9),
]
RIGID_QUARTIC_12 = [
    (0, 3), (0, 9), (0, 10), (0, 11), (1, 3), (1, 5), (1, 9), (1, 11), (2, 5), (2, 6), (2, 8), (2, 11),
    (3, 6), (3, 9), (4, 5), (4, 6), (4, 7), (4, 8), (5, 8), (6, 7), (7, 8), (7, 10), (9, 10), (10, 11),
]


def from_networkx(g):
    mapping = {u: i for i, u in enumerate(sorted(g.nodes()))}
    return build_graph(g.number_of_nodes(), [(mapping[u], mapping[v]) for u, v in g.edges()])


@pytest.mark.parametrize(
    "graph_factory,name",
    [
        (petersen, "petersen"),
        (cube, "cube"),
        (lambda: grid_graph(4, 3), "grid4x3"),
        # regular graphs: refinement alone splits nothing, so the search
        # must tell automorphic leaves from leaves that only look alike
        (lambda: from_networkx(nx.frucht_graph()), "frucht"),
        (lambda: from_networkx(nx.chvatal_graph()), "chvatal"),
        (lambda: from_networkx(nx.heawood_graph()), "heawood"),
        (lambda: from_networkx(nx.circulant_graph(10, [1, 4])), "circulant10"),
        (lambda: build_graph(10, RIGID_QUINTIC_10), "rigid-quintic10"),
        (lambda: build_graph(12, RIGID_QUARTIC_12), "rigid-quartic12"),
    ],
)
def test_coloured_search_order_matches_vf2(graph_factory, name):
    graph = graph_factory()
    assert coloured_automorphisms(graph).order == len(vf2_automorphisms(graph))


def test_known_orders():
    # cross-checked against VF2 above; kept explicit so regressions in
    # both routes at once would still be caught
    assert automorphism_group(petersen()).order == 120
    assert automorphism_group(cube()).order == 48
    assert automorphism_group(complete_bipartite_graph(4, 4)).order == 1152
    assert automorphism_group(grid_graph(3, 3)).order == 8


@pytest.mark.parametrize(
    "graph_factory",
    [
        petersen,
        cube,
        lambda: complete_bipartite_graph(4, 4),
        lambda: grid_graph(4, 4),
        lambda: cycle_graph(12),
        lambda: truncated_tree(3, 3),
    ],
)
@pytest.mark.parametrize("bound_mode", ["csg", "elementary"])
def test_run_audits_clean_on_midsize_graphs(graph_factory, bound_mode):
    graph = graph_factory()
    colouring, trace = run(graph, 0, bound_mode=bound_mode)
    checks = audit.audit_run(graph, trace, colouring)
    failures = [c for c in checks if not c.passed]
    assert not failures, failures


def test_midsize_asymmetry_outcomes():
    """The small-orbit guarantee holds everywhere; full asymmetry is
    graph-dependent on finite instances, so pin the observed verdicts."""
    outcomes = {}
    for name, factory in [
        ("petersen", petersen),
        ("cube", cube),
        ("grid3x3", lambda: grid_graph(3, 3)),
        ("C12", lambda: cycle_graph(12)),
        ("tree33", lambda: truncated_tree(3, 3)),
    ]:
        graph = factory()
        colouring, _ = run(graph, 0)
        outcomes[name] = is_asymmetric(graph, colouring)
    assert outcomes == {
        "petersen": True,
        "cube": True,
        "grid3x3": True,
        "C12": True,
        "tree33": True,
    }
