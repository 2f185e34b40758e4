"""The audit must reject tampered runs, not just accept honest ones."""

import dataclasses

import pytest

from asymcolour import (
    Colouring,
    barred,
    cycle_graph,
    numeric,
    run,
    truncated_tree,
)
from asymcolour import audit


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
    tampered = dataclasses.replace(trace, stabilizer_orders=tuple(orders))
    assert "stabilizer-order-recorded" in failing_names(graph, trace=tampered, colouring=colouring)


def test_detects_sphere_colour_tampering(tree_run):
    graph, colouring, trace = tree_run
    step = trace.steps[1]
    sphere_colours = [
        (v, numeric(7) if c == numeric(1) else c) for v, c in step.final_sphere_colours
    ]
    bad_step = dataclasses.replace(step, final_sphere_colours=tuple(sphere_colours))
    tampered = dataclasses.replace(trace, steps=(trace.steps[0], bad_step))
    names = failing_names(graph, tampered, colouring)
    assert names, "tampered sphere colours went unnoticed"
    assert "replay-matches-result" in names or "sphere-colours-match" in names


def test_detects_forged_fixing_set(tree_run):
    graph, colouring, trace = tree_run
    step = trace.steps[1]
    rec = step.inner[0]
    forged = dataclasses.replace(rec, fixing_blocks=rec.fixing_blocks + ((4, 5),))
    bad_step = dataclasses.replace(step, inner=(forged,) + step.inner[1:])
    tampered = dataclasses.replace(trace, steps=(trace.steps[0], bad_step))
    names = failing_names(graph, tampered, colouring)
    assert "recolour-deltas-match" in names or "sphere-colours-match" in names


def test_detects_unsplit_class():
    graph = cycle_graph(5)
    colouring, trace = run(graph, 0)
    step = trace.steps[0]
    (split,) = step.splits
    merged = dataclasses.replace(
        split, chunks=(split.block,), chunk_colours=(numeric(1),)
    )
    bad_step = dataclasses.replace(step, splits=(merged,))
    tampered = dataclasses.replace(trace, steps=(bad_step,) + trace.steps[1:])
    names = failing_names(graph, tampered, colouring)
    assert names, "a merged split chunk went unnoticed"


def test_detects_forged_final_stabilizer(tree_run):
    graph, colouring, trace = tree_run
    tampered = dataclasses.replace(trace, final_stabilizer=((0, 1, 2, 3, 4, 5, 6, 7, 8, 9), (1, 0, 2, 3, 4, 5, 6, 7, 8, 9)))
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
    bad_step = dataclasses.replace(step, partitions=forged)
    tampered = dataclasses.replace(trace, steps=(trace.steps[0], bad_step))
    names = failing_names(graph, tampered, colouring)
    assert "stabilizer-permutes-partitions" in names
