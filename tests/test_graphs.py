import tracemalloc

import pytest
from hypothesis import given, settings

from asymcolour import (
    FamilySpec,
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
from asymcolour.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphFormatError,
    GraphStructureError,
    SelfLoopError,
    VertexRangeError,
)

from .conftest import connected_graphs


class TestBuildGraph:
    def test_k2(self):
        g = build_graph(2, [(0, 1)])
        assert g.adjacency == ((1,), (0,))
        assert g.max_degree == 1

    def test_c5(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert g.n == 5
        assert g.max_degree == 2
        assert g.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]

    def test_disconnected(self):
        with pytest.raises(DisconnectedError):
            build_graph(3, [(0, 1)])

    # 4 edges could connect 5 vertices but never 6
    @pytest.mark.parametrize("n", [5, 6])
    def test_disconnected_names_the_smallest_unreached_vertex(self, n):
        with pytest.raises(DisconnectedError, match=r"\(vertex 2 unreachable from 0\)"):
            build_graph(n, [(0, 1), (2, 3), (3, 4), (2, 4)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, [(0, 0), (0, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(2, [(0, 1), (1, 0)])

    def test_out_of_range(self):
        with pytest.raises(VertexRangeError):
            build_graph(2, [(0, 2)])

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphStructureError):
            build_graph(0, [])

    def test_adjacency_sorted(self):
        g = build_graph(4, [(0, 3), (0, 1), (0, 2), (1, 2), (2, 3)])
        assert all(list(a) == sorted(a) for a in g.adjacency)

    def test_immutable(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(AttributeError):
            g.n = 3


class TestFamilies:
    def test_tree_3_2_vertex_count(self):
        assert truncated_tree(3, 2).n == 10  # 1 + 3 + 6

    @pytest.mark.parametrize("d,radius", [(3, 2), (3, 3), (4, 2), (5, 3)])
    def test_tree_sphere_sizes(self, d, radius):
        g = truncated_tree(d, radius)
        for k in range(1, radius + 1):
            assert len(sphere(g, 0, k)) == d * (d - 1) ** (k - 1)
        assert eccentricity(g, 0) == radius

    def test_cycle5(self):
        assert cycle_graph(5) == build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])

    def test_complete4(self):
        g = complete_graph(4)
        assert g.max_degree == 3
        assert g.edge_count == 6

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(2, 3)
        assert g.n == 5
        assert g.edge_count == 6
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 2)

    def test_grid(self):
        g = grid_graph(3, 2)
        assert g.n == 6
        assert g.edge_count == 7

    def test_generate_family_dispatch(self):
        assert generate_family(FamilySpec("cycle", n=5)) == cycle_graph(5)
        assert generate_family(FamilySpec("tree", degree=3, radius=2)) == truncated_tree(3, 2)

    @pytest.mark.parametrize(
        "spec_kwargs",
        [
            dict(family="tree", degree=1, radius=2),
            dict(family="tree", degree=3, radius=0),
            dict(family="cycle", n=2),
            dict(family="complete", n=0),
            dict(family="grid", w=0, h=2),
            dict(family="nonesuch", n=3),
        ],
    )
    def test_invalid_family_params(self, spec_kwargs):
        with pytest.raises(GraphStructureError):
            FamilySpec(**spec_kwargs)


class TestMetric:
    def test_sphere_tree(self):
        assert len(sphere(truncated_tree(3, 3), 0, 2)) == 6

    def test_sphere_cycle(self):
        assert sphere(cycle_graph(6), 0, 3) == (3,)

    def test_sphere_zero(self):
        for g, root in [(cycle_graph(5), 2), (complete_graph(4), 1)]:
            assert sphere(g, root, 0) == (root,)

    def test_sphere_beyond_eccentricity_empty(self):
        assert sphere(cycle_graph(6), 0, 4) == ()

    def test_ball(self):
        g = cycle_graph(6)
        assert ball(g, 0, 1) == (0, 1, 5)

    def test_eccentricity_values(self):
        assert all(eccentricity(cycle_graph(6), r) == 3 for r in range(6))
        assert eccentricity(path_graph(5), 0) == 4
        assert eccentricity(complete_graph(4), 2) == 1

    def test_root_out_of_range(self):
        with pytest.raises(VertexRangeError):
            distances(cycle_graph(5), 5)

    @settings(max_examples=60)
    @given(connected_graphs())
    def test_spheres_partition_vertices(self, g):
        seen = []
        for k in range(eccentricity(g, 0) + 1):
            layer = sphere(g, 0, k)
            assert layer
            seen.extend(layer)
        assert sorted(seen) == list(range(g.n))


class TestTextFormat:
    def test_parse_k2(self):
        assert parse_graph("2\n0 1\n") == build_graph(2, [(0, 1)])

    def test_serialize_c5(self):
        assert serialize_graph(cycle_graph(5)) == "5\n0 1\n0 4\n1 2\n2 3\n3 4\n"

    def test_parse_out_of_range(self):
        with pytest.raises(VertexRangeError):
            parse_graph("2\n0 2\n")

    def test_parse_comments_and_blanks(self):
        g = parse_graph("# a triangle\n3\n\n0 1\n0 2\n# middle\n1 2\n")
        assert g == complete_graph(3)

    def test_parse_reports_line_numbers(self):
        with pytest.raises(GraphFormatError) as excinfo:
            parse_graph("3\n0 1\nnot an edge here\n")
        assert excinfo.value.line == 3

    def test_parse_requires_ordered_endpoints(self):
        with pytest.raises(GraphFormatError):
            parse_graph("2\n1 0\n")

    def test_parse_empty(self):
        with pytest.raises(GraphFormatError):
            parse_graph("# nothing\n")

    def test_vertex_count_beyond_the_edges_allocates_nothing(self):
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedError, match=r"\(vertex 2 unreachable from 0\)"):
                parse_graph("1000000000000\n0 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(max_examples=60)
    @given(connected_graphs())
    def test_round_trip(self, g):
        assert parse_graph(serialize_graph(g)) == g
