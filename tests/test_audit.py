"""The audit must reject tampered runs, not just accept honest ones."""

import tracemalloc

import pytest

from asymcolour import (
    Colouring,
    ROOT,
    barred,
    cycle_graph,
    distances,
    initial_colouring,
    numeric,
    orbits,
    path_graph,
    run,
    truncated_tree,
)
from asymcolour import audit
from asymcolour.oracle import is_asymmetric
from asymcolour.symmetry import coset_search

from .conftest import break_construction_search, deadline, induced_keys, kneser, paley, replace


@pytest.fixture()
def tree_run():
    graph = truncated_tree(3, 2)
    colouring, trace = run(graph, 0)
    return graph, colouring, trace


def failing_names(graph, trace, colouring):
    return {c.name for c in audit.audit_run(graph, trace, colouring) if not c.passed}


def test_honest_run_is_clean(tree_run):
    graph, colouring, trace = tree_run
    assert failing_names(graph, trace, colouring) == set()


@pytest.mark.parametrize("graph", [truncated_tree(4, 2), cycle_graph(7)], ids=lambda g: g.family_tag)
def test_each_check_name_comes_in_step_order(graph):
    colouring, trace = run(graph, 0)
    steps: dict[str, list] = {}
    for check in audit.audit_run(graph, trace, colouring):
        steps.setdefault(check.name, []).append(check.step)
    assert len(steps["stabilizer-order-recorded"]) == len(trace.steps) + 1
    for name, seen in steps.items():
        if seen != [None]:
            assert seen == sorted(seen), name


def test_audit_holds_one_colouring_at_a_time():
    # c_0..c_K of a path are K+1 colourings of n vertices each; streaming
    # them keeps the peak linear in n
    graph = path_graph(600)
    colouring, trace = run(graph, 0)
    tracemalloc.start()
    try:
        checks = audit.audit_run(graph, trace, colouring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert audit.all_passed(checks)
    assert peak < 6 * 2**20


def test_wide_tree_audit_finishes():
    # searched by the (colour, distance) keys alone, the audit refuted each
    # child-to-child candidate by trying permutations of the later
    # children, and ran far past this deadline
    graph = truncated_tree(8, 2)
    colouring, trace = run(graph, 0)
    with deadline(10):
        checks = audit.audit_run(graph, trace, colouring)
    assert audit.all_passed(checks)


@pytest.mark.parametrize("graph", [paley(101), kneser(9, 3)], ids=["paley101", "kneser9-3"])
def test_audit_of_graphs_that_1wl_does_not_split_finishes(graph):
    # 1-WL splits nothing on them, so a coset search that does not refine
    # after fixing each point runs for minutes
    colouring, trace = run(graph, 0)
    with deadline(10):
        checks = audit.audit_run(graph, trace, colouring)
    assert audit.all_passed(checks)


def test_audit_answers_without_the_construction_search(corpus, monkeypatch):
    # the audit and the oracle search by their own route, so they still
    # answer when every part of the construction's search raises
    runs = [(graph, *run(graph, 0)) for graph in corpus]
    break_construction_search(monkeypatch)
    for graph, colouring, trace in runs:
        assert audit.all_passed(audit.audit_run(graph, trace, colouring))
        assert is_asymmetric(graph, colouring) == (trace.stabilizer_orders[-1] == 1)


@pytest.mark.parametrize(
    "graph,searches",
    [
        # every group of a path rooted at an end is trivial, so only c_0's
        # is searched (searched once per k, it was 200)
        (path_graph(200), 1),
        # only step 0 shrinks the group: 2, 1, 1, ...
        (cycle_graph(12), 2),
        # every step shrinks the group (31104, 2592, 1), so each c_k's is
        # searched, and so is step 1's running stabilizer at inner index 1;
        # the one at index 2 equals it (order 1,296) and is kept
        (truncated_tree(4, 2), 4),
    ],
    ids=lambda x: getattr(x, "family_tag", x),
)
def test_audit_searches_only_the_groups_a_step_changed(monkeypatch, graph, searches):
    colouring, trace = run(graph, 0)
    calls = []

    def counting(graph, keys, parent=None):
        calls.append(keys)
        return coset_search(graph, keys, parent)

    monkeypatch.setattr(audit, "coset_search", counting)
    assert audit.all_passed(audit.audit_run(graph, trace, colouring))
    assert len(calls) == searches


def test_each_kept_group_is_the_searched_group(monkeypatch, corpus):
    # every group the audit takes, kept or searched, has the order and the
    # orbits of a fresh search of its keys: c_k's at every k, and each
    # running stabilizer of a step whose c_k group is not trivial
    graphs = [g for g in corpus if g.n <= 6]
    assert len(graphs) == 143
    stabilizer = audit._stabilizer
    compared = []

    def checked(graph, keys, previous, group):
        found = stabilizer(graph, keys, previous, group)
        fresh = coset_search(graph, keys)
        assert found.order == fresh.order
        assert orbits(found, range(graph.n)) == orbits(fresh, range(graph.n))
        compared.append(found is group)
        return found

    monkeypatch.setattr(audit, "_stabilizer", checked)
    for graph in graphs:
        for root in range(graph.n):
            colouring, trace = run(graph, root)
            before = len(compared)
            assert audit.all_passed(audit.audit_run(graph, trace, colouring))
            running = sum(len(step.inner) for step, order in zip(trace.steps, trace.stabilizer_orders) if order > 1)
            assert len(compared) - before == len(trace.steps) + 1 + running
    assert any(compared) and not all(compared)


def test_a_step_that_merges_colour_classes_is_searched_again():
    # path 0-1-2-3-4 from its middle: c_1 tells 1 from 3, so the group of
    # c_1 is trivial; a step that recolours 3 like 1 gives a c_2 that the
    # reflection preserves. The trivial group's generators preserve any
    # keys, so only the refinement test sends c_2 to a new search.
    graph = path_graph(5)
    colouring, trace = run(graph, 2)
    assert trace.stabilizer_orders == (2, 1, 1)
    step = trace.steps[1]
    bad_step = replace(step, final_sphere_colours=step.final_sphere_colours + ((3, numeric(1)),))
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    (order,) = [
        c for c in audit.audit_run(graph, tampered, colouring) if c.name == "stabilizer-order-recorded" and c.step == 2
    ]
    assert not order.passed
    assert order.detail == "recomputed order 2, trace says 1"


def test_a_recolouring_that_changes_an_earlier_block_colour_is_searched_again(monkeypatch):
    # tree(4,2) from its centre, step 1: inner index 0 recolours (5,6,7),
    # the children of 1, so partition 1 tells them from (8,9,10), the
    # children of 2, and the running group halves to 1,296. Recolouring
    # (8,9,10) at index 1 as well changes that block's induced colour in
    # partition 1 and undoes the distinction. The running keys at index 2
    # then merge two classes of index 1's keys, yet the generators of index
    # 1's running group preserve them: only the refinement test in
    # _stabilizer sends index 2's group to a new search.
    graph = truncated_tree(4, 2)
    colouring, trace = run(graph, 0)
    step = trace.steps[1]
    assert [rec.fixing_blocks for rec in step.inner] == [((5, 6, 7),), (), ()]
    bad_rec = replace(step.inner[1], fixing_blocks=((8, 9, 10),))
    bad_step = replace(step, inner=(step.inner[0], bad_rec, step.inner[2]))
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    stabilizer = audit._stabilizer
    taken = []

    def recorded(graph, keys, previous, group):
        found = stabilizer(graph, keys, previous, group)
        taken.append((keys, found))
        return found

    monkeypatch.setattr(audit, "_stabilizer", recorded)
    checks = audit.audit_run(graph, tampered, colouring)
    unstable = [(c.step, c.detail) for c in checks if c.name == "induced-colours-stable" and not c.passed]
    assert unstable == [(1, "inner 1")]

    # the running keys at index 2, built from scratch: c_1's colour, the
    # distance from the root, and the least colour of each block that holds
    # the vertex in partitions 0..2, where 5..10 now have colour 2
    c_1, _ = run(graph, 0, 1)
    dist = distances(graph, 0)
    state = {v: numeric(2 if v <= 10 else 1) for v in step.next_sphere}
    keys = [(c_1[v], dist[v]) for v in range(graph.n)]
    for blocks in step.partitions[:3]:
        for block in blocks:
            for v in block:
                keys[v] += (min(state[u] for u in block),)
    (found,) = [group for running_keys, group in taken if running_keys == keys]
    fresh = coset_search(graph, keys)
    assert fresh.order == trace.stabilizer_orders[1] == 2592
    assert found.order == fresh.order
    assert orbits(found, range(graph.n)) == orbits(fresh, range(graph.n))


def one_fixing_block_swapped(trace):
    """Every copy of the trace in which the fixing set of one inner index
    is swapped for another single block of the partition it fixes."""
    for s, step in enumerate(trace.steps):
        for r, rec in enumerate(step.inner):
            for block in step.partitions[rec.index + 1]:
                if rec.fixing_blocks == (block,):
                    continue
                swapped = replace(rec, fixing_blocks=(block,))
                bad_step = replace(step, inner=step.inner[:r] + (swapped,) + step.inner[r + 1 :])
                yield replace(trace, steps=trace.steps[:s] + (bad_step,) + trace.steps[s + 1 :])


def defined_keys(graph, trace):
    """In audit order, the keys of every group the audit takes: c_k's,
    (colour, distance from the root), and, at each inner index of a step
    whose recorded c_k group is not trivial, c_k's keys extended by
    ``induced_keys`` under the state replayed from the fixing blocks."""
    dist = distances(graph, trace.root)
    colours = list(initial_colouring(graph, trace.root).colours)
    for k in range(len(trace.steps) + 1):
        if k > 0:
            for v, colour in trace.steps[k - 1].final_sphere_colours:
                colours[v] = colour
        keys = [(colours[v], dist[v]) for v in range(graph.n)]
        yield keys
        if k == len(trace.steps) or trace.stabilizer_orders[k] == 1:
            continue
        step = trace.steps[k]
        state = {v: numeric(1) for v in step.next_sphere}
        for rec in step.inner:
            induced = induced_keys(graph.n, step.partitions[: rec.index + 1], state)
            yield [key + block_colours for key, block_colours in zip(keys, induced)]
            for offset, block in enumerate(rec.fixing_blocks, start=1):
                for v in block:
                    state[v] = numeric(state[v].value + offset)


def one_step_reversed(trace):
    """Every copy of the trace in which the inner records of one step whose
    recorded c_k group is not trivial come in reverse order, so that each
    record after the first takes an earlier inner index than the one
    before it."""
    for s, step in enumerate(trace.steps):
        if len(step.inner) > 1 and trace.stabilizer_orders[s] > 1:
            bad_step = replace(step, inner=step.inner[::-1])
            yield replace(trace, steps=trace.steps[:s] + (bad_step,) + trace.steps[s + 1 :])


def test_running_keys_are_the_defined_keys(monkeypatch, corpus):
    # the audit extends its running keys index by index; at every inner
    # index they must be the keys built from scratch, also when a swapped
    # fixing block changes an earlier partition's least colours, and when
    # reordered records take an earlier index again
    graphs = [g for g in corpus if g.n <= 6]
    stabilizer = audit._stabilizer
    taken = []

    def recorded(graph, keys, previous, group):
        taken.append(list(keys))
        return stabilizer(graph, keys, previous, group)

    def unstable_after_keys_checked(graph, colouring, checked):
        taken.clear()
        checks = audit.audit_run(graph, checked, colouring)
        assert taken == list(defined_keys(graph, checked))
        return any(c.name == "induced-colours-stable" and not c.passed for c in checks)

    monkeypatch.setattr(audit, "_stabilizer", recorded)
    swapped = unstable = reordered = 0
    for graph in graphs:
        for root in range(graph.n):
            colouring, trace = run(graph, root)
            unstable_after_keys_checked(graph, colouring, trace)
            for checked in one_fixing_block_swapped(trace):
                swapped += 1
                unstable += unstable_after_keys_checked(graph, colouring, checked)
            for checked in one_step_reversed(trace):
                reordered += 1
                unstable_after_keys_checked(graph, colouring, checked)
    assert swapped > unstable > 0
    assert reordered == 198


def test_detects_result_tampering(tree_run):
    graph, colouring, trace = tree_run
    colours = list(colouring.colours)
    colours[4], colours[5] = colours[5], colours[4]
    tampered = Colouring(tuple(colours), root=colouring.root, radius=colouring.radius)
    assert "replay-matches-result" in failing_names(graph, trace, tampered)


def test_detects_wrong_stabilizer_order(tree_run):
    graph, colouring, trace = tree_run
    orders = list(trace.stabilizer_orders)
    orders[1] += 1
    tampered = replace(trace, stabilizer_orders=tuple(orders))
    assert "stabilizer-order-recorded" in failing_names(graph, trace=tampered, colouring=colouring)


def test_detects_sphere_colour_tampering(tree_run):
    graph, colouring, trace = tree_run
    step = trace.steps[1]
    sphere_colours = [
        (v, numeric(7) if c == numeric(1) else c) for v, c in step.final_sphere_colours
    ]
    bad_step = replace(step, final_sphere_colours=tuple(sphere_colours))
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    names = failing_names(graph, tampered, colouring)
    assert names, "tampered sphere colours went unnoticed"
    assert "replay-matches-result" in names or "sphere-colours-match" in names


def test_detects_recolouring_of_the_inner_ball(tree_run):
    graph, colouring, trace = tree_run
    step = trace.steps[1]
    # vertex 1 lies in sphere 1, which step 1 must leave as it is
    bad_step = replace(step, final_sphere_colours=step.final_sphere_colours + ((1, numeric(5)),))
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    assert "inner-ball-preserved" in failing_names(graph, tampered, colouring)


def test_detects_a_stabilizer_that_moves_an_earlier_colour():
    graph = truncated_tree(6, 2)
    colouring, trace = run(graph, 0)
    assert trace.stabilizer_orders[-1] == 64
    # c_1 now marks leaf 7, which the final stabilizer swaps with a twin,
    # so that group is no subgroup of the stabilizer of c_1
    step = trace.steps[0]
    bad_step = replace(step, final_sphere_colours=step.final_sphere_colours + ((7, numeric(9)),))
    tampered = replace(trace, steps=(bad_step,) + trace.steps[1:])
    assert "stabilizer-monotone" in failing_names(graph, tampered, colouring)


def test_detects_a_sphere_vertex_left_far(tree_run):
    graph, colouring, trace = tree_run
    step = trace.steps[1]
    # the step leaves vertex 4 of sphere 2 far-coloured, and nothing later
    # colours it, so every radius from 2 on is wrong about it
    bad_step = replace(
        step, final_sphere_colours=tuple((v, c) for v, c in step.final_sphere_colours if v != 4)
    )
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    checks = audit.audit_run(graph, tampered, colouring)
    assert [c.step for c in checks if c.name == "far-matches-distance" and not c.passed] == [2]


def test_detects_a_second_root_colour(tree_run):
    graph, colouring, trace = tree_run
    # step 1 also recolours vertex 2, of sphere 1, with the root colour
    step = trace.steps[1]
    bad_step = replace(step, final_sphere_colours=step.final_sphere_colours + ((2, ROOT),))
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    checks = audit.audit_run(graph, tampered, colouring)
    assert [c.step for c in checks if c.name == "root-colour-unique" and not c.passed] == [2]


def test_detects_forged_fixing_set(tree_run):
    graph, colouring, trace = tree_run
    step = trace.steps[1]
    rec = step.inner[0]
    forged = replace(rec, fixing_blocks=rec.fixing_blocks + ((4, 5),))
    bad_step = replace(step, inner=(forged,) + step.inner[1:])
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    names = failing_names(graph, tampered, colouring)
    assert "recolour-deltas-match" in names or "sphere-colours-match" in names


def tree_4_2_with_first_fixing_set(fixing_blocks):
    """tree(4,2) from its centre, with the fixing set of step 1's inner
    index 0, honestly the sibling leaves (5, 6, 7), replaced; the failed
    checks, as (name, step, detail)."""
    graph = truncated_tree(4, 2)
    colouring, trace = run(graph, 0)
    step = trace.steps[1]
    assert step.inner[0].fixing_blocks == ((5, 6, 7),)
    forged = replace(step.inner[0], fixing_blocks=fixing_blocks)
    bad_step = replace(step, inner=(forged,) + step.inner[1:])
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    return [(c.name, c.step, c.detail) for c in audit.audit_run(graph, tampered, colouring) if not c.passed]


def test_detects_a_block_left_in_two_colours():
    # recolouring leaf 8 without its siblings leaves their block (8, 9, 10)
    # of partitions 1..3 in two colours at every later index, while the
    # block (5, 6, 7) recoloured whole keeps one colour
    failed = tree_4_2_with_first_fixing_set(((5, 6, 7), (8,)))
    assert [(step, detail) for name, step, detail in failed if name == "blocks-monochromatic"] == [
        (1, "inner 1"),
        (1, "inner 2"),
        (1, "finest partition"),
    ]
    assert "fixing-halves-parent" not in {name for name, _, _ in failed}


def test_detects_a_fixing_block_over_half_its_parent():
    # 7 of the 12 vertices of sphere 2, the one block of partition 0
    failed = tree_4_2_with_first_fixing_set((tuple(range(5, 12)),))
    assert [(step, detail) for name, step, detail in failed if name == "fixing-halves-parent"] == [(1, "inner 0")]


def test_detects_a_block_straddling_two_blocks_of_the_partition_before():
    # partition 2 of step 1 merges the children of 1 and of 2, two blocks
    # of partition 1, into one block; partition 3 still refines it
    graph = truncated_tree(4, 2)
    colouring, trace = run(graph, 0)
    step = trace.steps[1]
    assert step.partitions[1] == ((5, 6, 7), (8, 9, 10), (11, 12, 13, 14, 15, 16))
    forged = step.partitions[:2] + (((5, 6, 7, 8, 9, 10), (11, 12, 13), (14, 15, 16)),) + step.partitions[3:]
    bad_step = replace(step, partitions=forged)
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    checks = audit.audit_run(graph, tampered, colouring)
    assert [(c.step, c.detail) for c in checks if c.name == "partitions-nested" and not c.passed] == [(1, "")]


def test_detects_a_vertex_recoloured_more_often_than_the_cap():
    # path(5) from its middle has max degree 2, so a vertex may be
    # recoloured 1 + log2(2) = 2 times in a step; listing the block (1, 3)
    # three times in one fixing set recolours both of its vertices 3 times
    graph = path_graph(5)
    colouring, trace = run(graph, 2)
    step = trace.steps[0]
    assert step.partitions[1] == ((1, 3),)
    forged = replace(step.inner[0], fixing_blocks=((1, 3),) * 3)
    bad_step = replace(step, inner=(forged,) + step.inner[1:])
    tampered = replace(trace, steps=(bad_step,) + trace.steps[1:])
    checks = audit.audit_run(graph, tampered, colouring)
    assert [(c.step, c.detail) for c in checks if c.name == "recolour-count-cap" and not c.passed] == [
        (0, "max recolour count 3, cap 2")
    ]


def test_detects_unsplit_class():
    graph = cycle_graph(5)
    colouring, trace = run(graph, 0)
    step = trace.steps[0]
    (split,) = step.splits
    merged = replace(
        split, chunks=(split.block,), chunk_colours=(numeric(1),)
    )
    bad_step = replace(step, splits=(merged,))
    tampered = replace(trace, steps=(bad_step,) + trace.steps[1:])
    names = failing_names(graph, tampered, colouring)
    assert names, "a merged split chunk went unnoticed"


def test_detects_forged_final_stabilizer(tree_run):
    graph, colouring, trace = tree_run
    tampered = replace(trace, final_stabilizer=((0, 1, 2, 3, 4, 5, 6, 7, 8, 9), (1, 0, 2, 3, 4, 5, 6, 7, 8, 9)))
    assert "final-stabilizer-elements" in failing_names(graph, tampered, colouring)


def test_detects_oversized_barred_value(tree_run):
    graph, _, trace = tree_run
    colours = list(run(graph, 0)[0].colours)
    colours[9] = barred(5)  # palette for max degree 3 stops at barred(2)
    tampered = Colouring(tuple(colours), root=0, radius=2)
    names = failing_names(graph, trace, tampered)
    assert "barred-palette" in names


def test_detects_partition_the_stabilizer_does_not_permute(tree_run):
    graph, colouring, trace = tree_run
    step = trace.steps[1]
    # the stabilizer of c_1 swaps 4 and 5 (order 8), which maps {4,6} to
    # {5,6}, not a block of the forged finest partition
    forged = step.partitions[:-1] + (((4, 6), (5, 7), (8, 9)),)
    bad_step = replace(step, partitions=forged)
    tampered = replace(trace, steps=(trace.steps[0], bad_step))
    names = failing_names(graph, tampered, colouring)
    assert "stabilizer-permutes-partitions" in names
