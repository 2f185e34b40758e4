import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from asymcolour import (
    DEFAULT_CAP,
    Colouring,
    automorphism_group,
    automorphism_sgs,
    build_graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    distinguishing_number,
    eccentricity,
    grid_graph,
    interior_support_check,
    is_asymmetric,
    motion,
    motion_lemma_check,
    numeric,
    parse_graph,
    path_graph,
    run,
    truncated_tree,
)
from asymcolour import oracle
from asymcolour.symmetry import coset_search
from asymcolour.errors import (
    AsymmetricGraphError,
    NoAsymmetricColouringError,
    SearchGuardError,
)

from .conftest import (
    break_construction_search,
    brute_automorphisms,
    connected_graphs,
    deadline,
    first_asymmetric_mask,
    partitions_with_classes,
    vf2_automorphisms,
)
from .test_cli import count_listings
from .test_colouring import hypercube
from .test_larger_graphs import cube, petersen


def rigid_graph():
    """A triangle with tails of different lengths; no nontrivial
    automorphism (verified against the brute-force filter below)."""
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (4, 5)])


def twin_interior_graph():
    """Two pendant twins hanging off vertex 1, plus a longer tail, so the
    twins sit strictly inside the radius-3 ball around vertex 0."""
    return build_graph(6, [(0, 1), (1, 2), (1, 3), (1, 4), (4, 5)])


def relabelled_copy(graph):
    """The graph under a fixed random relabelling, seeded by its order."""
    relabelled = random.Random(graph.n).sample(range(graph.n), graph.n)
    return build_graph(graph.n, [(relabelled[u], relabelled[v]) for u, v in graph.edges()])


def test_rigid_graph_is_rigid():
    assert len(brute_automorphisms(rigid_graph())) == 1


class TestIsAsymmetric:
    def test_k2_rooted(self):
        g = complete_graph(2)
        assert is_asymmetric(g, Colouring((numeric(2), numeric(1))))

    def test_c5_constant(self):
        assert not is_asymmetric(cycle_graph(5), [1, 1, 1, 1, 1])

    def test_c5_two_two_three(self):
        g = cycle_graph(5)
        colours = (1, 1, 2, 2, 2)
        assert not is_asymmetric(g, colours)
        assert len(brute_automorphisms(g, colours)) == 2

    def test_agrees_with_bruteforce(self, corpus):
        sample = [g for g in corpus if g.n == 5]
        for g in sample:
            colours = [v % 2 for v in range(g.n)]
            expected = len(brute_automorphisms(g, colours)) == 1
            assert is_asymmetric(g, colours) == expected


class TestDistinguishingNumber:
    @pytest.mark.parametrize(
        "graph,expected",
        [
            (cycle_graph(5), 3),
            (complete_graph(4), 4),
            (complete_bipartite_graph(3, 3), 4),
            (cycle_graph(6), 2),
            (complete_bipartite_graph(4, 4), 5),
            (complete_graph(7), 7),
            # the complete tripartite K(3,3,3)
            (build_graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if u // 3 != v // 3]), 4),
            (complete_bipartite_graph(5, 5), 6),
            (petersen(), 3),
            (complete_bipartite_graph(6, 6), 7),
            (complete_graph(12), 12),
        ],
    )
    def test_extremal_values(self, graph, expected):
        assert distinguishing_number(graph) == expected

    def test_rigid_graph_needs_one_colour(self):
        assert distinguishing_number(rigid_graph()) == 1

    def test_witness_is_asymmetric_and_previous_count_fails(self):
        g = cycle_graph(5)
        d = distinguishing_number(g)
        witness = oracle.distinguishing_witness(g, d)
        assert witness is not None
        assert is_asymmetric(g, witness)
        assert oracle.distinguishing_witness(g, d - 1) is None

    def test_palette_exhausted(self):
        with pytest.raises(NoAsymmetricColouringError):
            distinguishing_number(complete_graph(4), max_colours=3)

    # D(Q_d) = 2 for d >= 4 (Bogstad & Cowen 2004), past the 12-vertex
    # guard of distinguishing_number: one class is refuted in 12, 24 and
    # 48 prefixes, and two classes find a witness in 331, 41 and 87
    @pytest.mark.parametrize("d,refuted,found", [(4, 12, 331), (5, 24, 41), (6, 48, 87)])
    def test_hypercubes_need_two_colours(self, d, refuted, found):
        g = hypercube(d)
        assert oracle.distinguishing_witness(g, 1) is None
        witness = oracle.distinguishing_witness(g, 2)
        assert witness is not None and max(witness) == 1
        assert is_asymmetric(g, witness)
        assert oracle._asymmetric_partition(g, (1,)) == (None, refuted)
        assert oracle._asymmetric_partition(g, (2,)) == (witness, found)

    def test_vertex_guard(self):
        with pytest.raises(SearchGuardError):
            distinguishing_number(path_graph(13))

    def test_truncated_tree_has_no_asymmetric_two_colouring(self):
        # twin leaves refute most of the prefixes by a transposition
        g = truncated_tree(4, 2)
        assert oracle.distinguishing_witness(g, 2) is None
        assert oracle._asymmetric_partition(g, (2,)) == (None, 191)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=6))
    def test_witness_is_the_first_asymmetric_reference_partition(self, g):
        for classes in range(1, g.n + 1):
            first = next(
                (p for p in partitions_with_classes(g.n, classes) if len(brute_automorphisms(g, p)) == 1),
                None,
            )
            assert oracle.distinguishing_witness(g, classes) == first, classes

    def test_partition_counts_match_stirling(self):
        counts = {
            (4, 2): 7,
            (5, 3): 25,
            (6, 3): 90,
        }
        for (n, c), expected in counts.items():
            assert sum(1 for _ in partitions_with_classes(n, c)) == expected

    def test_partitions_match_filtered_product(self):
        # restricted growth strings: the labels first appear in the order 0, 1, 2, ...
        for n in range(1, 8):
            for c in range(n + 1):
                brute = [p for p in itertools.product(range(c), repeat=n) if list(dict.fromkeys(p)) == list(range(c))]
                assert list(partitions_with_classes(n, c)) == brute, (n, c)
            assert list(partitions_with_classes(n, n + 1)) == []


def chain(graph, order):
    """The stabilizer chain of a labelling order, as the oracles build it:
    from the coset search of ``Aut(G)`` with the reversed order."""
    return oracle._chain(coset_search(graph, [0] * graph.n, order=order[::-1]), order)


# the labelling orders of dnumber and of the motion lemma's 2-colourings
LABELLING_ORDERS = {"dnumber": lambda n: range(n), "motion-lemma": lambda n: range(n - 1, -1, -1)}


class TestStabilizerChain:
    @pytest.mark.parametrize(
        "graph", [petersen(), cube(), complete_bipartite_graph(4, 4), cycle_graph(12), path_graph(6)]
    )
    def test_transversals_multiply_to_the_order(self, graph):
        for labelling, order_of in sorted(LABELLING_ORDERS.items()):
            order = order_of(graph.n)
            transversals = chain(graph, order)
            assert math.prod(len(level) + 1 for level in transversals) == automorphism_sgs(graph).order, labelling
            for k, level in enumerate(transversals):
                for u, t in level:
                    assert sorted(t) == list(range(graph.n))
                    assert t[order[k]] == u
                    assert all(t[v] == v for v in order[k + 1:])
                    assert all(graph.has_edge(t[a], t[b]) for a in range(graph.n) for b in graph.adjacency[a])

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=6))
    def test_prefix_test_matches_bruteforce(self, g):
        # in each labelling order, every prefix over labels 0..2 whose
        # shorter prefix survives, as the walk tests them; labels are
        # indexed by vertex
        nontrivial = [p for p in brute_automorphisms(g) if p != tuple(range(g.n))]
        for labelling, order_of in sorted(LABELLING_ORDERS.items()):
            order = order_of(g.n)
            transversals = chain(g, order)
            surviving = [()]
            while surviving:
                prefix = surviving.pop()
                if len(prefix) == g.n:
                    continue
                for label in range(3):
                    k = len(prefix)
                    by_vertex = dict(zip(order, prefix + (label,)))
                    labels = [by_vertex.get(v) for v in range(g.n)]
                    expected = any(
                        all(p[v] == v for v in order[k + 1:])
                        and all(labels[p[v]] == labels[v] for v in order[:k + 1])
                        for p in nontrivial
                    )
                    assert oracle._preserved(transversals, order, labels, k) == expected, (labelling, prefix, label)
                    if not expected:
                        surviving.append(prefix + (label,))


def twin_transpositions(graph, order):
    """For each position k of ``order``, the vertices before it whose
    transposition with ``order[k]`` is an automorphism, by brute force."""
    table = []
    for k, v in enumerate(order):
        found = []
        for u in order[:k]:
            swap = list(range(graph.n))
            swap[u], swap[v] = v, u
            if all(graph.has_edge(swap[a], swap[b]) for a, b in graph.edges()):
                found.append(u)
        table.append(tuple(found))
    return table


class TestTwinTable:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=7))
    def test_matches_bruteforce(self, g):
        for labelling, order_of in sorted(LABELLING_ORDERS.items()):
            order = order_of(g.n)
            assert oracle._twin_table(g, order) == twin_transpositions(g, order), labelling

    @pytest.mark.parametrize(
        "graph,has_twins",
        [
            (complete_bipartite_graph(2, 3), True),
            (complete_graph(4), True),
            (complete_bipartite_graph(1, 4), True),
            (cycle_graph(4), True),
            (path_graph(3), True),
            (petersen(), False),
        ],
        ids=["K(2,3)", "K4", "K(1,4)", "C4", "P3", "petersen"],
    )
    def test_named_graphs_match_bruteforce(self, graph, has_twins):
        for labelling, order_of in sorted(LABELLING_ORDERS.items()):
            order = order_of(graph.n)
            table = oracle._twin_table(graph, order)
            assert table == twin_transpositions(graph, order), labelling
            assert any(table) == has_twins, labelling

    def test_twin_refutation_is_a_pure_fast_path(self, corpus, monkeypatch):
        # with an empty table every prefix goes to the chain search, which
        # must preserve each prefix the twin test would have dropped
        unpatched = oracle._preserved
        table = []
        dropped = 0

        def checked(chain, order, labels, k):
            nonlocal dropped
            preserved = unpatched(chain, order, labels, k)
            if labels[order[k]] in [labels[u] for u in table[k]]:
                assert preserved, (order, labels, k)
                dropped += 1
            return preserved

        with deadline(10):
            for canonical in corpus:
                for g in (canonical, relabelled_copy(canonical)):
                    counts = range(1, g.n + 1)
                    fast = [oracle._asymmetric_partition(g, (classes,)) for classes in counts]
                    table = oracle._twin_table(g, range(g.n))
                    with monkeypatch.context() as patched:
                        patched.setattr(oracle, "_twin_table", lambda graph, order: [()] * graph.n)
                        patched.setattr(oracle, "_preserved", checked)
                        assert [oracle._asymmetric_partition(g, (classes,)) for classes in counts] == fast
        assert dropped > 0

    # the walk's chain searches with the twin test (without it: 16, 77,
    # 197, 1,089, 1,169 and 23); C5 has no twins, so it keeps every search
    @pytest.mark.parametrize(
        "graph,value,searches",
        [
            (complete_graph(4), 4, 6),
            (complete_graph(7), 7, 21),
            (complete_bipartite_graph(4, 4), 5, 72),
            (complete_bipartite_graph(5, 5), 6, 338),
            (complete_bipartite_graph(3, 6), 6, 252),
            (cycle_graph(5), 3, 23),
        ],
        ids=["K4", "K7", "K(4,4)", "K(5,5)", "K(3,6)", "C5"],
    )
    def test_chain_searches(self, monkeypatch, graph, value, searches):
        calls = []
        unpatched = oracle._preserved

        def counted(*args):
            calls.append(args[-1])
            return unpatched(*args)

        monkeypatch.setattr(oracle, "_preserved", counted)
        assert distinguishing_number(graph) == value
        assert len(calls) == searches


class TestMotionLemmaSearch:
    """The motion lemma's 2-colouring is the first mask that a scan of whole
    2-colourings against every brute-force automorphism accepts, and its
    search space is that mask's rank."""

    def test_matches_the_whole_mask_scan_on_the_atlas(self, corpus):
        checked = 0
        for canonical in corpus:
            for g in (canonical, relabelled_copy(canonical)):
                try:
                    report = motion_lemma_check(g)
                except AsymmetricGraphError:
                    continue
                if report.value != "colouring-found":
                    continue
                mask = first_asymmetric_mask(g)
                labels = [0] + [(mask >> i) & 1 for i in range(g.n - 1)]
                assert report.details["colouring"] == " ".join(str(label + 1) for label in labels)
                assert report.search_space == mask + 1
                checked += 1
        # the graphs, of the 1,992, whose motion hypothesis holds
        assert checked == 758

    @pytest.mark.parametrize(
        "graph,examined,motion_value,order,colouring",
        [
            (path_graph(20), 2, 20, 2, "1 2" + " 1" * 18),
            (cycle_graph(20), 12, 18, 40, "1 2 2 1 2 1" + " 1" * 14),
            (grid_graph(4, 5), 2, 16, 4, "1 2" + " 1" * 18),
        ],
        ids=["path20", "cycle20", "grid4x5"],
    )
    def test_twenty_vertex_graphs(self, graph, examined, motion_value, order, colouring):
        report = motion_lemma_check(graph)
        assert (report.value, report.search_space) == ("colouring-found", examined)
        assert report.details == {"motion": motion_value, "aut-order": order, "colouring": colouring}


class TestMotion:
    def test_c5(self):
        assert motion(cycle_graph(5)) == 4

    def test_k4(self):
        assert motion(complete_graph(4)) == 2

    def test_path5(self):
        assert motion(path_graph(5)) == 4

    def test_c6_vertex_reflection(self):
        # verified by enumeration: the vertex reflections fix two opposite
        # vertices and move the other four
        assert motion(cycle_graph(6)) == 4

    def test_motion_le_vertices(self, corpus):
        for g in corpus:
            if g.n != 4:
                continue
            try:
                assert motion(g) <= g.n
            except AsymmetricGraphError:
                assert len(brute_automorphisms(g)) == 1

    def test_undefined_for_rigid(self):
        with pytest.raises(AsymmetricGraphError):
            motion(rigid_graph())

    def test_matches_naive_minimum_on_corpus(self, corpus):
        for g in corpus:
            elements = automorphism_group(g).elements
            nontrivial = [p for p in elements if p != tuple(range(g.n))]
            if not nontrivial:
                with pytest.raises(AsymmetricGraphError):
                    motion(g)
                continue
            assert motion(g) == min(sum(1 for v in range(g.n) if p[v] != v) for p in nontrivial)


def moved_counts(elements, n):
    """The number of points each nontrivial element moves."""
    return [sum(1 for v in range(n) if p[v] != v) for p in elements if p != tuple(range(n))]


class TestMotionFromGenerators:
    """``motion`` and ``autorder`` read the strong generating set, and list
    the group only when no generator moves exactly two points."""

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(max_n=6))
    def test_motion_and_order_match_bruteforce(self, g):
        elements = brute_automorphisms(g)
        assert oracle.automorphism_order(g) == len(elements)
        moved = moved_counts(elements, g.n)
        if not moved:
            with pytest.raises(AsymmetricGraphError):
                motion(g)
        else:
            assert motion(g) == min(moved)

    @pytest.mark.parametrize(
        "graph", [cycle_graph(n) for n in range(5, 10)] + [path_graph(5)], ids=lambda g: g.family_tag
    )
    def test_twin_free_graphs_list_the_group(self, graph):
        assert min(moved_counts(automorphism_sgs(graph).generators, graph.n)) > 2
        elements = vf2_automorphisms(graph)
        report = oracle.motion_report(graph)
        assert report.value == min(moved_counts(elements, graph.n))
        assert report.search_space == len(elements) == oracle.automorphism_order(graph)


def corpus_workload_graphs(monkeypatch):
    """The graphs of the benchmark corpus at seed 0: three relabelled
    copies of every connected graph on at most 7 vertices."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return [parse_graph(i.text) for i in workloads.build_workload("corpus", 0).inputs]


def test_sparse_generators_settle_the_motion_without_a_listing(monkeypatch):
    # A generator moving 2 points settles the motion; only the other
    # nontrivial groups are listed.
    groups = [automorphism_sgs(g) for g in corpus_workload_graphs(monkeypatch)]
    listed = [oracle._motion(group, DEFAULT_CAP)[1] is not None for group in groups if not group.is_trivial()]
    assert (len(groups), len(listed), sum(listed)) == (2988, 2529, 534)


def test_motion_lemma_lists_only_for_the_motion(monkeypatch):
    # the 2-colouring search walks a stabilizer chain, so the only
    # listings are the motion's own, one for each of the 534 groups above
    graphs = corpus_workload_graphs(monkeypatch)
    calls = count_listings(monkeypatch)
    for g in graphs:
        try:
            motion_lemma_check(g)
        except AsymmetricGraphError:
            pass
    assert len(calls) == 534


class TestMotionLemma:
    def test_path5_colouring_found(self):
        from asymcolour import Colour

        report = motion_lemma_check(path_graph(5))
        assert report.value == "colouring-found"
        assert report.details["motion"] == 4
        assert report.details["aut-order"] == 2
        parsed = [Colour.from_token(t) for t in report.details["colouring"].split()]
        assert is_asymmetric(path_graph(5), parsed)
        assert len(set(parsed)) <= 2

    def test_c5_hypothesis_fails(self):
        report = motion_lemma_check(cycle_graph(5))
        assert report.value == "hypothesis-not-satisfied"
        assert report.details == {"motion": 4, "aut-order": 10}

    def test_k2(self):
        report = motion_lemma_check(complete_graph(2))
        assert report.value == "colouring-found"
        assert report.details["colouring"] == "1 2"

    def test_rigid_rejected(self):
        with pytest.raises(AsymmetricGraphError):
            motion_lemma_check(rigid_graph())

    @pytest.mark.parametrize(
        "m,order,holds",
        [(4, 4, True), (3, 3, False), (3, 2, True), (5000, 2**2500, True), (5000, 2**2500 + 1, False)],
        ids=["m4-order4", "m3-order3", "m3-order2", "m5000-order2^2500", "m5000-order2^2500+1"],
    )
    def test_hypothesis_is_exact(self, m, order, holds):
        assert oracle._motion_hypothesis(m, order) is holds

    def test_large_motion_reaches_the_vertex_guard(self):
        # motion 2100 and order 2: a float 2.0 ** (m / 2) overflows here
        with pytest.raises(SearchGuardError, match="up to 20 vertices"):
            motion_lemma_check(path_graph(2100))

    def test_kv_lines(self):
        report = motion_lemma_check(complete_graph(2))
        lines = report.kv_lines()
        assert lines[0] == "oracle.quantity motion-lemma"
        assert any(line.startswith("oracle.value ") for line in lines)


class TestInteriorSupport:
    def test_tree33_boundary_rigid(self):
        g = truncated_tree(3, 3)
        assert interior_support_check(g, 0, 3) is True

    def test_twin_leaves_inside_ball(self):
        g = twin_interior_graph()
        assert eccentricity(g, 0) == 3
        # swapping the twin leaves 2 and 3 moves only interior vertices
        assert interior_support_check(g, 0, 3) is False

    def test_vacuous_for_rigid_graph(self):
        g = rigid_graph()
        assert interior_support_check(g, 0, eccentricity(g, 0)) is True

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            interior_support_check(cycle_graph(5), 0, 7)

    def test_radius_zero_vacuous(self):
        assert interior_support_check(cycle_graph(5), 0, 0) is True


class TestInteriorSupportReport:
    def test_radius_defaults_to_the_eccentricity(self):
        report = oracle.interior_support_report(truncated_tree(3, 2), 0)
        assert (report.quantity, report.value, report.search_space) == ("interior-support", "true", 1)
        assert report.details == {"root": 0, "radius": 2}

    def test_search_space_is_the_searched_order(self):
        # the leaves 0, 2 and 3 of vertex 1 are permuted inside the ball
        report = oracle.interior_support_report(twin_interior_graph(), 0, 3)
        assert (report.value, report.search_space) == ("false", 6)
        assert report.details == {"root": 0, "radius": 3}

    def test_root_is_checked_first(self):
        with pytest.raises(ValueError, match="root 9 outside 0..4"):
            oracle.interior_support_report(cycle_graph(5), 9, -3)


class TestOneSearchRoute:
    """Every oracle reads the coset search, never the construction's
    individualisation-refinement search, so each still answers when that
    search is broken."""

    def test_answers_without_the_construction_search(self, monkeypatch):
        break_construction_search(monkeypatch)
        assert is_asymmetric(cycle_graph(5), [0, 1, 2, 2, 2])
        assert oracle.stabilizer_order(cycle_graph(5), [1, 1, 1, 1, 1]) == 10
        assert oracle.stabilizer_order(truncated_tree(3, 2), [0] + [1] * 9) == 48
        assert interior_support_check(truncated_tree(3, 3), 0, 3) is True
        assert interior_support_check(twin_interior_graph(), 0, 3) is False

    def test_checks_a_construction_colouring(self, monkeypatch):
        g = truncated_tree(4, 2)
        colouring, trace = run(g, 0)
        assert trace.stabilizer_orders[-1] == 1
        break_construction_search(monkeypatch)
        assert is_asymmetric(g, colouring)
        assert oracle.stabilizer_order(g, colouring) == 1


class TestRunVerification:
    def test_run_results_oracle_checked(self):
        for g in (cycle_graph(5), truncated_tree(3, 2), complete_graph(4)):
            colouring, _ = run(g, 0)
            assert is_asymmetric(g, colouring)
