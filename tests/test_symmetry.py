import itertools
import math
import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymcolour import (
    automorphism_group,
    block_stabilizer,
    build_graph,
    chain_length_bound,
    complete_bipartite_graph,
    complete_graph,
    compose,
    cycle_graph,
    distances,
    format_permutation,
    grid_graph,
    identity_perm,
    initial_colouring,
    invert,
    longest_chain_bruteforce,
    minimal_fixing_set,
    orbits,
    path_graph,
    truncated_tree,
)
from asymcolour.errors import DomainNotInvariantError, GroupCapError, InternalInvariantError, NotAPartitionActionError
from asymcolour import symmetry
from asymcolour.symmetry import (
    PermGroup,
    SGSGroup,
    coloured_automorphisms,
    coset_search,
    moved_block,
    permutes_blocks,
    preserves,
)

from .conftest import (
    CountedRows,
    brute_automorphisms,
    colour_classes,
    connected_graphs,
    count_coset_nodes,
    count_subtree_searches,
    deadline,
    equitable_classes,
    group_of_elements,
    kneser,
    paley,
    permutations_of,
    reference_fixing_set,
    reference_refine,
    symmetric_group,
    trivial_group,
    validate_group,
    vf2_automorphisms,
)

perm5 = st.permutations(list(range(5))).map(tuple)


def relabelled(g):
    return permutations_of(g.n).map(lambda p: build_graph(g.n, [(p[u], p[v]) for u, v in g.edges()]))


# random labellings of graphs with large groups, whose searches go deep
SYMMETRIC_GRAPHS = st.sampled_from(
    [truncated_tree(3, 2), truncated_tree(2, 3), cycle_graph(8), complete_bipartite_graph(3, 4), grid_graph(3, 3)]
).flatmap(relabelled)


# K(2,2,2): each vertex is adjacent to all others but its antipode v + 3
OCTAHEDRON = build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3])

# graphs whose groups are rich in twins, so in sparse generators
TWIN_GRAPHS = st.sampled_from(
    [
        complete_bipartite_graph(1, 6),
        complete_bipartite_graph(2, 4),
        complete_bipartite_graph(3, 3),
        complete_graph(6),
        truncated_tree(3, 2),
        truncated_tree(4, 2),
        truncated_tree(2, 3),
    ]
).flatmap(relabelled)


def assert_strong_generating_set(group):
    """The supports are the points each generator moves, and the
    generators that fix ``base[:j]`` reach exactly ``orbit_lengths[j]``
    points from ``base[j]``, by a closure written here."""
    n = group.degree
    assert group.supports == tuple(tuple(v for v in range(n) if p[v] != v) for p in group.generators)
    for j, point in enumerate(group.base):
        level = [p for p in group.generators if all(p[b] == b for b in group.base[:j])]
        reached = {point}
        frontier = [point]
        while frontier:
            u = frontier.pop()
            for p in level:
                if p[u] not in reached:
                    reached.add(p[u])
                    frontier.append(p[u])
        assert len(reached) == group.orbit_lengths[j]


class TestPermOps:
    @given(perm5, perm5)
    def test_compose_associative_with_apply(self, p, q):
        r = compose(p, q)
        assert all(r[i] == p[q[i]] for i in range(5))

    @given(perm5)
    def test_inverse(self, p):
        assert compose(p, invert(p)) == identity_perm(5)
        assert compose(invert(p), p) == identity_perm(5)

    def test_compose_matches_the_definition_at_small_degrees(self):
        # every pair at degrees 1..5: degree 1 is where an itemgetter
        # over q would return a bare int in place of a tuple
        for n in range(1, 6):
            perms = list(itertools.permutations(range(n)))
            for p in perms:
                assert compose(p, invert(p)) == identity_perm(n)
                for q in perms:
                    r = compose(p, q)
                    assert type(r) is tuple and r == tuple(p[q[i]] for i in range(n)), (p, q)

    def test_format(self):
        assert format_permutation((2, 0, 1)) == "2 0 1"


class TestPermGroup:
    def test_from_generators_closure(self):
        g = PermGroup.from_generators(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
        assert g.order == 24
        validate_group(g)

    def test_from_generators_cap(self):
        with pytest.raises(GroupCapError):
            PermGroup.from_generators(5, [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)], cap=30)

    def test_from_elements_adds_identity(self):
        g = group_of_elements(3, [(1, 0, 2)])
        assert identity_perm(3) in g
        assert g.order == 2
        validate_group(g)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            group_of_elements(3, [(0, 0, 1)])

    def test_validate_catches_non_closure(self):
        broken = PermGroup(3, (identity_perm(3), (1, 2, 0)))
        with pytest.raises(ValueError):
            validate_group(broken)


class TestAutomorphismGroup:
    def test_c5_order(self):
        group = automorphism_group(cycle_graph(5))
        assert group.order == 10
        assert list(group.elements) == brute_automorphisms(cycle_graph(5))
        validate_group(group)

    def test_k4_full_symmetric(self):
        assert automorphism_group(complete_graph(4)).order == 24

    def test_c5_coloured(self):
        g = cycle_graph(5)
        colours = (1, 1, 2, 2, 2)
        group = automorphism_group(g, colours)
        assert group.order == 2
        assert list(group.elements) == brute_automorphisms(g, colours)
        reflection = next(p for p in group.elements if p != identity_perm(5))
        assert reflection == (1, 0, 4, 3, 2)

    def test_single_vertex(self):
        from asymcolour import build_graph

        g = build_graph(1, [])
        assert automorphism_group(g).order == 1

    def test_cap_exceeded(self):
        with pytest.raises(GroupCapError):
            automorphism_group(complete_graph(7), cap=100)

    def test_cap_via_twins(self):
        # a star's leaves are twins; the exact order is known before listing
        from asymcolour import complete_bipartite_graph

        with pytest.raises(GroupCapError) as raised:
            automorphism_group(complete_bipartite_graph(1, 9), cap=1000)
        assert raised.value.cap == 1000
        assert str(math.factorial(9)) == "362880" in str(raised.value)

    def test_cap_is_exact(self):
        assert automorphism_group(complete_graph(7), cap=5040).order == 5040
        with pytest.raises(GroupCapError):
            automorphism_group(complete_graph(7), cap=5039)

    def test_cap_fails_fast_on_a_deep_tree(self):
        # keyed by degree alone the coset search takes minutes here
        start = time.perf_counter()
        with pytest.raises(GroupCapError):
            automorphism_group(truncated_tree(3, 6))
        assert time.perf_counter() - start < 1.0

    def test_path_longer_than_the_recursion_limit(self):
        n = 1500
        assert n > sys.getrecursionlimit()
        group = automorphism_group(path_graph(n))
        assert group.order == 2
        assert group.elements[1] == tuple(reversed(range(n)))

    def test_cycle_longer_than_the_recursion_limit(self):
        g = cycle_graph(1200)
        assert g.n > sys.getrecursionlimit()
        assert automorphism_group(g).order == coloured_automorphisms(g).order == 2400

    def test_element_set_is_built_on_first_membership_test(self):
        group = automorphism_group(cycle_graph(5))
        assert group._element_set is None
        assert (1, 2, 3, 4, 0) in group
        assert (1, 0, 2, 3, 4) not in group
        assert group._element_set == frozenset(group.elements)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=6))
    def test_matches_bruteforce(self, g):
        assert list(automorphism_group(g).elements) == brute_automorphisms(g)

    @settings(max_examples=25, deadline=None)
    @given(connected_graphs(max_n=5), st.integers(0, 2))
    def test_coloured_search_equals_filtered_stabilizer(self, g, seed):
        colours = [(v * (seed + 2)) % 3 for v in range(g.n)]
        direct = automorphism_group(g, colours)
        filtered = automorphism_group(g).stabilizer(colours)
        assert direct == filtered


def naive_colour_refinement(g, colours):
    """Round-based 1-WL: recompute every vertex's key until no class splits."""
    ids = list(colours)
    while True:
        keys = [(ids[v], tuple(sorted(ids[u] for u in g.adjacency[v]))) for v in range(g.n)]
        renumber = {key: i for i, key in enumerate(sorted(set(keys)))}
        new_ids = [renumber[key] for key in keys]
        if len(set(new_ids)) == len(set(ids)):
            return new_ids
        ids = new_ids


def same_partition(a, b):
    return {frozenset(v for v in range(len(a)) if a[v] == x) for x in a} == {
        frozenset(v for v in range(len(b)) if b[v] == x) for x in b
    }


def ahu_tree_order(g, root):
    """|Aut| of a tree that every automorphism roots at ``root``: the product
    over vertices of m! for each multiplicity m of isomorphic child subtrees,
    the subtrees told apart by their AHU canonical strings."""
    order = 1

    def canonical(v, parent):
        nonlocal order
        children = sorted(canonical(u, v) for u in g.adjacency[v] if u != parent)
        for form in set(children):
            order *= math.factorial(children.count(form))
        return "(" + "".join(children) + ")"

    canonical(root, None)
    return order


class TestColouredAutomorphisms:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=6), st.data())
    def test_matches_filtered_list_and_bruteforce(self, g, data):
        colours = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        searched = coloured_automorphisms(g, colours)
        filtered = automorphism_group(g).stabilizer(colours)
        brute = brute_automorphisms(g, colours)
        assert searched.order == filtered.order == len(brute) == len(vf2_automorphisms(g, colours))
        assert searched.enumerate().elements == filtered.elements == tuple(brute)
        assert orbits(searched, range(g.n)) == orbits(filtered, range(g.n))
        assert searched.is_trivial() == (len(brute) == 1)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=8), st.data())
    def test_refinement_is_colour_refinement(self, g, data):
        colours = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        assert same_partition(equitable_classes(g, colours), naive_colour_refinement(g, colours))

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(connected_graphs(max_n=10), SYMMETRIC_GRAPHS).filter(lambda g: len(set(map(len, g.adjacency))) > 1), st.data())
    def test_equitable_leaves_a_largest_class_unqueued(self, g, data):
        # the searches' own refinement from scratch splits the unit
        # partition into the classes of (key, degree) and queues all of
        # them but a largest one; two keys on a graph that is not regular
        # give key classes of mixed degrees
        keys = data.draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n))
        lab, cell, end, cells = symmetry._equitable(g, keys)
        assert same_partition(cell, naive_colour_refinement(g, keys))
        assert same_partition(cell, equitable_classes(g, keys))
        assert sorted(lab) == list(range(g.n)) and cells == len(set(cell))
        assert all(cell[v] == s for s in set(cell) for v in lab[s:end[s]])

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(connected_graphs(max_n=8), SYMMETRIC_GRAPHS), st.data())
    def test_refinement_that_stops_when_discrete_matches_the_full_queue(self, g, data):
        # on the colour classes, and for the child of the equitable result
        # that individualises each vertex of a non-singleton cell, as the
        # searches take every child
        colours = data.draw(st.lists(st.integers(0, g.n), min_size=g.n, max_size=g.n))
        lab, cell, end, starts = colour_classes(colours)
        full = lab[:], cell[:], end[:]
        found = symmetry._refine(g.adjacency, lab, cell, end, starts, len(starts))
        assert found == reference_refine(g.adjacency, *full, starts)
        assert (lab, cell, end) == full
        parent = (lab, cell, end, len(starts) + found[0])
        before = (lab[:], cell[:], end[:], parent[3])
        for v in range(g.n):
            if end[cell[v]] - cell[v] > 1:
                child, splits = symmetry._child(g.adjacency, parent, v)
                # every search keeps its nodes, so the child is a copy
                assert parent == before
                clab, ccell, cend = lab[:], cell[:], end[:]
                s = symmetry._individualise(clab, ccell, cend, v)
                added, made = reference_refine(g.adjacency, clab, ccell, cend, [s])
                assert child == (clab, ccell, cend, parent[3] + 1 + added)
                assert splits == made

    @pytest.mark.parametrize(
        "g,v,queue_rest,discrete",
        [
            # 0 splits {1, 3} into two equal fragments, and the partition
            # is discrete with a splitter still queued
            (path_graph(5), 0, False, True),
            # 4 splits its parent 1 off the middle vertices, then 1 splits
            # 4's sibling off the other leaves: the neighbours are queued
            (truncated_tree(3, 2), 4, False, False),
            # 0 is adjacent to all of its former cell but its antipode 3,
            # the smaller fragment, so {3} is queued; when the cell was
            # queued already, it stays queued as {3} and the rest joins it
            (OCTAHEDRON, 0, False, False),
            (OCTAHEDRON, 0, True, False),
            # 2 is adjacent to all of {0, 1}: no split
            (complete_bipartite_graph(2, 3), 2, False, False),
        ],
    )
    def test_a_single_vertex_splitter_matches_the_counting_code(self, g, v, queue_rest, discrete):
        lab, cell, end, cells = symmetry._equitable(g, [0] * g.n)
        rest = cell[v]
        splitters = [symmetry._individualise(lab, cell, end, v)] + [rest] * queue_rest
        full = lab[:], cell[:], end[:]
        rows, all_rows = CountedRows(g.adjacency), CountedRows(g.adjacency)
        found = symmetry._refine(rows, lab, cell, end, splitters, cells + 1)
        assert found == reference_refine(all_rows, *full, splitters)
        assert (lab, cell, end) == full
        assert (cells + 1 + found[0] == g.n) == discrete
        # the stop at a discrete partition reads fewer rows, and no more
        assert (rows.reads < all_rows.reads) == discrete and rows.reads <= all_rows.reads

    def test_orders_match_enumeration_on_relabelled_corpus(self, corpus):
        # a refinement whose splits depend on vertex labels loses
        # automorphisms only under some labellings, so relabel each graph
        rng = random.Random(0)
        for g in corpus:
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
                assert coloured_automorphisms(h).order == automorphism_group(h).order, h.edges()

    def test_refinement_is_colour_refinement_on_corpus(self, corpus):
        for g in corpus:
            for colours in ([0] * g.n, [v % 2 for v in range(g.n)]):
                assert same_partition(equitable_classes(g, colours), naive_colour_refinement(g, colours)), g.edges()

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(max_n=6), st.data())
    def test_stabilizer_of_a_further_colouring(self, g, data):
        first = data.draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n))
        second = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        nested = coloured_automorphisms(g, first).stabilizer(second)
        both = brute_automorphisms(g, list(zip(first, second)))
        assert nested.enumerate().elements == tuple(both)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(connected_graphs(max_n=8), SYMMETRIC_GRAPHS), st.data())
    def test_target_cell_resumed_from_the_parent_is_the_first_from_cell_0(self, g, data):
        # every node the search visits scans for its target cell, so the
        # resumed scan is compared with a scan from cell 0 at each of them
        colours = data.draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n))
        further = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        scan = symmetry._target_cell
        scans = []

        def checked(lab, end, start):
            found = scan(lab, end, start)
            scans.append((found, scan(lab, end, 0)))
            return found

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(symmetry, "_target_cell", checked)
            coloured_automorphisms(g)
            coloured_automorphisms(g, colours).stabilizer(further)
        assert all(found == first for found, first in scans)

    TREE_ORDERS = [(3, 2, 48), (4, 2, 31104), (5, 2, 955_514_880), (4, 3, 67_706_637_778_944)]

    @pytest.mark.parametrize("degree,radius,expected", TREE_ORDERS)
    def test_tree_orders(self, degree, radius, expected):
        g = truncated_tree(degree, radius)
        assert coloured_automorphisms(g).order == expected == ahu_tree_order(g, 0)

    @pytest.mark.parametrize("degree,radius,expected", TREE_ORDERS)
    def test_tree_orders_match_sympy(self, degree, radius, expected):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        generators = coloured_automorphisms(truncated_tree(degree, radius)).generators
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(p)) for p in generators])
        assert group.order() == expected

    def test_tree53_order_and_orbits(self):
        g = truncated_tree(5, 3)
        group = coloured_automorphisms(g)
        assert group.order == ahu_tree_order(g, 0)
        assert orbits(group, range(g.n)) == ((0,), tuple(range(1, 6)), tuple(range(6, 26)), tuple(range(26, 106)))

    def test_enumerate_respects_cap(self):
        with pytest.raises(GroupCapError):
            coloured_automorphisms(complete_graph(7)).enumerate(cap=100)

    def test_leaf_test_rejects_one_edge_mapped_to_a_non_edge(self):
        g = path_graph(4)
        # the test reads only the edges at the points the map moves
        assert symmetry._maps_edges_to_edges(g, (3, 2, 1, 0), (0, 1, 2, 3))
        # swapping 0 and 1 keeps the edges 0-1 and 2-3 but maps 1-2 onto 0-2
        assert not symmetry._maps_edges_to_edges(g, (1, 0, 2, 3), (0, 1))
        # swapping 1 and 2 of path(5) keeps every degree, not the edge 0-1
        assert not symmetry._maps_edges_to_edges(path_graph(5), (0, 2, 1, 3, 4), (1, 2))


class TestSeededSearch:
    """``SGSGroup.stabilizer`` seeds its search with the parent's
    generators that preserve the keys, and starts it, as the audit's
    seeded coset search does, from the parent's partition split by the
    keys; the subgroup must be the one that searches from nothing find."""

    @staticmethod
    def draw_keys(g, data):
        """A parent colouring and further keys."""
        first = data.draw(st.one_of(st.just([0] * g.n), st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n)))
        # individualising a few vertices keeps most parent generators
        marked = data.draw(st.lists(st.integers(0, g.n - 1), max_size=3))
        second = data.draw(
            st.one_of(
                st.just([marked.index(v) + 1 if v in marked else 0 for v in range(g.n)]),
                st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n),
            )
        )
        return first, second

    @settings(max_examples=80, deadline=None)
    @given(TWIN_GRAPHS, st.data())
    def test_matches_a_fresh_search_and_coset_search(self, g, data):
        first, second = self.draw_keys(g, data)
        keys = list(zip(first, second))
        seeded = coloured_automorphisms(g, first).stabilizer(second)
        fresh = coloured_automorphisms(g, keys)
        coset = coset_search(g, keys)
        seeded_coset = coset_search(g, keys, coset_search(g, first))
        groups = (seeded, fresh, coset, seeded_coset)
        assert len({group.order for group in groups}) == 1
        assert len({orbits(group, range(g.n)) for group in groups}) == 1
        for group in groups:
            assert_strong_generating_set(group)

    @settings(max_examples=80, deadline=None)
    @given(TWIN_GRAPHS, st.data())
    def test_the_split_partition_has_the_cells_of_a_fresh_refinement(self, g, data):
        first, second = self.draw_keys(g, data)
        parent = coloured_automorphisms(g, first)
        before = tuple(map(list, parent.partition[:3]))
        lab, cell, end, cells = symmetry._split(g, parent.partition, second)
        assert tuple(parent.partition[:3]) == before
        assert same_partition(cell, equitable_classes(g, list(zip(first, second))))
        # an ordered partition: each cell is the range of lab its start names
        assert sorted(lab) == list(range(g.n)) and cells == len(set(cell))
        assert sum(end[s] - s for s in set(cell)) == g.n
        assert all(cell[v] == s for s in set(cell) for v in lab[s:end[s]])

    def test_the_parent_generators_that_keep_the_keys_seed_the_search(self, monkeypatch):
        g = truncated_tree(4, 2)
        parent = coloured_automorphisms(g)
        keys = [v == 5 for v in range(g.n)]
        search = symmetry._search
        given_seeds = []

        def recorded(graph, partition, seeds):
            given_seeds.append(seeds)
            return search(graph, partition, seeds)

        monkeypatch.setattr(symmetry, "_search", recorded)
        child = parent.stabilizer(keys)
        kept = [(p, support) for p, support in zip(parent.generators, parent.supports) if p[5] == 5]
        assert given_seeds == [kept] and kept
        # leaf 5 is one of 12 leaves
        assert child.order == parent.order // 12 == 2592


class TestCosetSearch:
    """The audit's search, against brute force, against networkx's VF2,
    against filtering the enumerated group, and against the AHU tree
    orders."""

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=6), st.data())
    def test_matches_bruteforce_and_filtered_list(self, g, data):
        keys = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        searched = coset_search(g, keys)
        filtered = automorphism_group(g).stabilizer(keys)
        brute = brute_automorphisms(g, keys)
        # the filtered list comes from coset_search itself; VF2 is independent
        assert searched.order == filtered.order == len(brute) == len(vf2_automorphisms(g, keys))
        assert orbits(searched, range(g.n)) == orbits(filtered, range(g.n))
        assert PermGroup.from_generators(g.n, searched.generators).elements == tuple(brute)
        assert searched.enumerate().elements == tuple(brute)

    @pytest.mark.parametrize("degree,radius,expected", [(5, 2, 955_514_880), (4, 3, 67_706_637_778_944)])
    def test_tree_orders(self, degree, radius, expected):
        g = truncated_tree(degree, radius)
        assert coset_search(g, distances(g, 0)).order == expected == ahu_tree_order(g, 0)

    def test_path_longer_than_the_recursion_limit(self):
        n = 1200
        assert n > sys.getrecursionlimit()
        # keyed by the distance to the nearer end: only the reflection is left
        group = coset_search(path_graph(n), [min(v, n - 1 - v) for v in range(n)])
        assert group.order == 2
        assert group.generators == (tuple(reversed(range(n))),)

    def test_all_equal_keys_on_a_deep_tree(self):
        # refining the keys to 1-WL classes separates the levels and the
        # subtrees, so no level enumerates permutations of later children
        g = truncated_tree(4, 3)
        with deadline(5):
            assert coset_search(g, [0] * g.n).order == ahu_tree_order(g, 0)

    def test_distinct_keys_give_the_trivial_group(self):
        group = coset_search(complete_graph(5), range(5))
        assert group.is_trivial() and group.order == 1

    def test_representatives_are_completed_toward_the_identity(self):
        # completed toward the identity, every generator swaps two sibling
        # subtrees: 240 generators swap two leaves, 60 two subtrees of 5
        # points, 15 of 21 and 4 of 85: 2 * (240 + 60*5 + 15*21 + 4*85)
        g = truncated_tree(5, 4)
        group = coset_search(g, distances(g, 0))
        assert (g.n, len(group.generators), sum(map(len, group.supports))) == (426, 319, 2390)

    @pytest.mark.parametrize(
        "build,args,expected",
        [pytest.param(paley, (q,), q * (q - 1) // 2, id=f"paley{q}") for q in (13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101)]
        + [
            pytest.param(kneser, (7, 2), math.factorial(7), id="kneser7-2"),
            pytest.param(kneser, (9, 3), math.factorial(9), id="kneser9-3"),
        ],
    )
    def test_graphs_that_1wl_does_not_split(self, build, args, expected):
        # strongly regular and Kneser graphs: 1-WL splits nothing, so only
        # refining after each individualisation keeps the search small;
        # sympy closes the generators, the closed form names the group
        combinatorics = pytest.importorskip("sympy.combinatorics")
        g = build(*args)
        with deadline(5):
            group = coset_search(g, [0] * g.n)
        closed = combinatorics.PermutationGroup([combinatorics.Permutation(list(p)) for p in group.generators])
        assert group.order == closed.order() == expected


def audit_keys(g):
    """``c_0`` from the root 0, and the audit's keys of it: the colour and
    the distance from the root."""
    c0 = list(initial_colouring(g, 0).colours)
    return {"c_0": c0, "audit": list(zip(c0, distances(g, 0)))}


Q3 = build_graph(8, [(v, v | 1 << i) for v in range(8) for i in range(3) if not v & 1 << i])


class TestTwinLevels:
    """Both searches first try the transposition of a level's point and
    the image: it is an automorphism exactly when the two are twins, and
    only an image it does not settle is searched."""

    @pytest.mark.parametrize("g", [complete_graph(7), complete_bipartite_graph(4, 4), complete_bipartite_graph(1, 6)])
    @pytest.mark.parametrize("kind", ["c_0", "audit"])
    def test_twin_levels_search_nothing(self, monkeypatch, g, kind):
        keys = audit_keys(g)[kind]
        subtrees = count_subtree_searches(monkeypatch)
        nodes = count_coset_nodes(monkeypatch)
        groups = coloured_automorphisms(g, keys), coset_search(g, keys)
        assert subtrees == nodes == []
        for group in groups:
            assert group.order == len(vf2_automorphisms(g, keys))
            assert group.generators and all(len(support) == 2 for support in group.supports)

    @pytest.mark.parametrize("kind", ["c_0", "audit"])
    def test_only_the_root_branches_are_searched(self, monkeypatch, kind):
        # the root's 4 branches are not twins, so 3 images are searched at
        # that level; below it every level holds sibling leaves, twins
        g = truncated_tree(4, 2)
        keys = audit_keys(g)[kind]
        dist = distances(g, 0)
        subtrees = count_subtree_searches(monkeypatch)
        nodes = count_coset_nodes(monkeypatch)
        groups = coloured_automorphisms(g, keys), coset_search(g, keys)
        for searched in (subtrees, nodes):
            assert len(searched) == 3 and all(dist[w] == 1 for _, w in searched)
        for group in groups:
            assert group.order == ahu_tree_order(g, 0)
            # a branch swap moves 8 points, a transposition 2
            assert sorted(map(len, group.supports)) == [2] * 8 + [8] * 3

    @pytest.mark.parametrize("g", [kneser(5, 2), cycle_graph(7), Q3], ids=["petersen", "cycle(7)", "Q3"])
    @pytest.mark.parametrize("kind", ["c_0", "audit", "none"])
    def test_twin_free_graphs_fall_back_to_the_search(self, monkeypatch, g, kind):
        keys = audit_keys(g).get(kind, [0] * g.n)
        subtrees = count_subtree_searches(monkeypatch)
        nodes = count_coset_nodes(monkeypatch)
        groups = coloured_automorphisms(g, keys), coset_search(g, keys)
        assert subtrees and nodes
        for group in groups:
            assert group.order == len(vf2_automorphisms(g, keys))
            assert all(len(support) > 2 for support in group.supports)

    @settings(max_examples=40, deadline=None)
    @given(TWIN_GRAPHS, st.data())
    def test_match_bruteforce_and_vf2(self, g, data):
        keys = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
        found = vf2_automorphisms(g, keys)
        if g.n <= 7:
            assert found == brute_automorphisms(g, keys)
        closed = group_of_elements(g.n, found)
        for group in (coloured_automorphisms(g, keys), coset_search(g, keys)):
            assert group.order == len(found)
            assert orbits(group, range(g.n)) == orbits(closed, range(g.n))
            assert_strong_generating_set(group)

    @settings(max_examples=60, deadline=None)
    @given(TWIN_GRAPHS, st.data())
    def test_the_transposition_is_a_fast_path_of_the_coset_search(self, g, data):
        # for twins the map the coset search completes toward the identity
        # is their transposition, so without the first guess it finds the
        # same group, held by the same base and generators
        first, second = TestSeededSearch.draw_keys(g, data)
        keys = list(zip(first, second))

        def held(group):
            return group.base, group.generators, group.supports, group.orbit_lengths

        fast = [held(coset_search(g, first)), held(coset_search(g, keys, coset_search(g, first)))]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(symmetry, "_twin_swap", lambda *args: None)
            slow = [held(coset_search(g, first)), held(coset_search(g, keys, coset_search(g, first)))]
        assert fast == slow


class TestOrbitsAndStabilizers:
    def test_orbits_p3(self):
        group = automorphism_group(path_graph(3))
        assert orbits(group, range(3)) == ((0, 2), (1,))

    def test_orbits_trivial_group(self):
        group = trivial_group(4)
        assert orbits(group, range(4)) == ((0,), (1,), (2,), (3,))

    def test_orbits_c5_transitive(self):
        group = automorphism_group(cycle_graph(5))
        assert orbits(group, range(5)) == ((0, 1, 2, 3, 4),)

    def test_orbits_domain_not_invariant(self):
        group = automorphism_group(path_graph(3))
        with pytest.raises(DomainNotInvariantError):
            orbits(group, [0, 1])

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs(max_n=6))
    def test_orbit_blocks_invariant_and_minimal(self, g):
        group = automorphism_group(g)
        blocks = orbits(group, range(g.n))
        flat = sorted(v for b in blocks for v in b)
        assert flat == list(range(g.n))
        for block in blocks:
            for v in block:
                # reachability from any member covers the whole block, so no
                # proper nonempty subset is invariant
                assert {p[v] for p in group.elements} == set(block)

    def test_stabilizer_results_are_groups(self):
        group = automorphism_group(cycle_graph(5))
        validate_group(group.stabilizer((1, 1, 2, 2, 2)))
        validate_group(block_stabilizer(group, [(0,)]))

    def test_pointwise_c4(self):
        group = automorphism_group(cycle_graph(4))
        assert group.order == 8
        stab = block_stabilizer(group, [(0,)])
        assert stab.order == 2
        assert (0, 3, 2, 1) in stab

    def test_pointwise_empty_targets(self):
        group = automorphism_group(cycle_graph(4))
        assert block_stabilizer(group, []) == group

    def test_pointwise_c5_two_points(self):
        group = automorphism_group(cycle_graph(5))
        assert block_stabilizer(group, [(0,), (1,)]).is_trivial()

    def test_pointwise_composes(self):
        group = automorphism_group(cycle_graph(6))
        both = block_stabilizer(group, [(0,), (2,)])
        nested = block_stabilizer(block_stabilizer(group, [(0,)]), [(2,)])
        assert both == nested

    def test_block_stabilizer_c4_diagonals(self):
        group = automorphism_group(cycle_graph(4))
        assert block_stabilizer(group, [(0, 2), (1, 3)]).order == 4

    def test_block_stabilizer_singletons(self):
        group = automorphism_group(cycle_graph(4))
        assert block_stabilizer(group, [(0,), (1,)]) == group.stabilizer((0, 1, -1, -1))

    def test_block_stabilizer_whole_domain(self):
        group = automorphism_group(cycle_graph(4))
        assert block_stabilizer(group, [tuple(range(4))]) == group

    def test_colouring_stabilizer_extremes(self):
        group = automorphism_group(cycle_graph(5))
        assert group.stabilizer([7] * 5) == group
        assert group.stabilizer(list(range(5))).is_trivial()


class TestGeneratorQuestions:
    """``preserves`` and ``permutes_blocks`` read only generators; each
    answer must be that of a test over every element of the group."""

    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(max_n=6), st.data())
    def test_match_a_test_over_every_element(self, g, data):
        group = coloured_automorphisms(g)
        elements = group.enumerate()
        # keys and blocks read off the orbits are always kept; random ones
        # mostly are not
        orbit_of = {v: i for i, orbit in enumerate(orbits(group, range(g.n))) for v in orbit}
        if data.draw(st.booleans()):
            key_of = data.draw(st.lists(st.integers(0, 2), min_size=len(orbit_of), max_size=len(orbit_of)))
            label_of = data.draw(st.lists(st.integers(-1, 2), min_size=len(orbit_of), max_size=len(orbit_of)))
            keys = [key_of[orbit_of[v]] for v in range(g.n)]
            labels = [label_of[orbit_of[v]] for v in range(g.n)]
        else:
            keys = data.draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
            labels = data.draw(st.lists(st.integers(-1, g.n - 1), min_size=g.n, max_size=g.n))
        # label -1 leaves the vertex outside the partition
        blocks = [tuple(v for v in range(g.n) if labels[v] == b) for b in sorted(set(labels) - {-1})]
        block_sets = {frozenset(block) for block in blocks}
        keeps_keys = all(keys[p[v]] == keys[v] for p in elements for v in range(g.n))
        keeps_blocks = all(frozenset(p[v] for v in block) in block_sets for p in elements for block in blocks)
        for kind in (group, coset_search(g, [0] * g.n), elements):
            assert preserves(kind, keys) == keeps_keys
            assert permutes_blocks(kind, blocks) == keeps_blocks

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(max_n=6), st.data())
    def test_a_group_without_generators_answers_as_its_element_list(self, g, data):
        labels = data.draw(st.lists(st.integers(-1, g.n - 1), min_size=g.n, max_size=g.n))
        # label -1 leaves the vertex outside the partition
        blocks = [tuple(v for v in range(g.n) if labels[v] == b) for b in sorted(set(labels) - {-1})]
        block_sets = {frozenset(block) for block in blocks}
        domain = [v for v in range(g.n) if labels[v] != -1]
        found = coset_search(g, range(g.n))
        assert isinstance(found, SGSGroup) and not found.generators
        for group, elements in ((found, found.enumerate()), (trivial_group(g.n), trivial_group(g.n))):
            assert orbits(group, domain) == tuple(sorted({tuple(sorted({p[v] for p in elements})) for v in domain}))
            assert orbits(group, domain) == tuple((v,) for v in domain)
            for block in blocks:
                assert (moved_block(group, [block]) is None) == all(frozenset(p[v] for v in block) == frozenset(block) for p in elements)
                assert moved_block(group, [block]) is None
            keeps_blocks = all(frozenset(p[v] for v in block) in block_sets for p in elements for block in blocks)
            assert permutes_blocks(group, blocks) == keeps_blocks
            assert permutes_blocks(group, blocks)
            assert minimal_fixing_set(group, blocks) == reference_fixing_set(elements, blocks) == ()

    def test_a_block_split_across_two_blocks(self):
        swap = PermGroup.from_generators(4, [(1, 0, 2, 3)])
        assert not permutes_blocks(swap, [(0, 2), (1, 3)])
        assert permutes_blocks(swap, [(0, 1), (2, 3)])

    def test_moved_block_is_the_first_moved(self):
        group = PermGroup.from_generators(5, [(1, 0, 2, 3, 4), (0, 1, 2, 4, 3)])
        assert moved_block(group, [(2,), (3,), (0,), (1,)]) == 1
        assert moved_block(group, [(2,), (0, 1), (4,)]) == 2
        assert moved_block(group, [(0, 1), (2,), (3, 4)]) is None

    def test_a_block_mapped_into_a_block_of_another_size(self):
        swap = PermGroup.from_generators(3, [(1, 0, 2)])
        assert not permutes_blocks(swap, [(0,), (1, 2)])
        assert permutes_blocks(swap, [(0,), (1,), (2,)])

    def test_a_block_mapped_outside_the_partition(self):
        swap = PermGroup.from_generators(3, [(1, 0, 2)])
        assert not permutes_blocks(swap, [(0,), (2,)])
        assert permutes_blocks(swap, [(2,)])


class TestChainLength:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (3, 2), (4, 4), (5, 5), (8, 10)])
    def test_closed_form(self, n, expected):
        assert chain_length_bound(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chain_length_bound(0)

    @pytest.mark.parametrize("n,expected", [(1, 0), (3, 2), (4, 4)])
    def test_bruteforce_small(self, n, expected):
        assert longest_chain_bruteforce(n) == expected

    def test_bruteforce_range(self):
        with pytest.raises(ValueError):
            longest_chain_bruteforce(6)


class TestMinimalFixingSet:
    def test_trivial_group(self):
        assert minimal_fixing_set(trivial_group(4), [(0, 1), (2, 3)]) == ()

    def test_symmetric_on_singletons(self):
        picks = minimal_fixing_set(symmetric_group(3), [(0,), (1,), (2,)])
        assert len(picks) == 2

    def test_block_swap(self):
        swap = group_of_elements(5, [(2, 3, 0, 1, 4)])
        picks = minimal_fixing_set(swap, [(0, 1), (2, 3), (4,)])
        assert picks == ((0, 1),)

    def test_rejects_non_action(self):
        with pytest.raises(NotAPartitionActionError):
            minimal_fixing_set(symmetric_group(3), [(0, 1), (2,)])

    def test_promised_bound_is_enforced(self):
        with pytest.raises(InternalInvariantError, match="exceeds promised bound"):
            minimal_fixing_set(symmetric_group(3), [(0,), (1,), (2,)], size_bound=1)

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(min_n=2, max_n=6))
    def test_properties_on_vertex_partitions(self, g):
        """Stabilizer equality, inclusion-minimality, and the chain bound,
        on singleton partitions under the full automorphism group."""
        group = automorphism_group(g)
        blocks = [(v,) for v in range(g.n)]
        picks = minimal_fixing_set(group, blocks)
        target = block_stabilizer(group, blocks)
        chosen = [b for b in picks]
        assert block_stabilizer(group, chosen).order == target.order
        for dropped in range(len(picks)):
            rest = [b for i, b in enumerate(chosen) if i != dropped]
            assert block_stabilizer(group, rest).order > target.order
        assert len(picks) <= chain_length_bound(g.n)

    def test_tree_sibling_blocks(self):
        g = truncated_tree(3, 2)
        group = automorphism_group(g)
        blocks = [(1, 4, 5), (2, 6, 7), (3, 8, 9)]  # branches of the root
        picks = minimal_fixing_set(group, blocks)
        assert block_stabilizer(group, picks).order == block_stabilizer(group, blocks).order
        assert len(picks) == 2
