"""Tests of the benchmark itself: its inputs, its output check and its
tracing. Run with ``python -m pytest bench`` from the root of a checkout."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import harness
import ops
import tracing
import workloads
from asymcolour import cli, graphs as graphs_module, symmetry
from asymcolour.graphs import eccentricity, parse_graph


def small_workload(name: str, seed: int, count: int) -> workloads.Workload:
    """The first ``count`` graphs of a workload, with their ops."""
    full = workloads.build_workload(name, seed)
    return workloads.Workload(
        name,
        full.inputs[:count],
        full.colour[:count],
        tuple(o for o in full.oracle if o.graph < count),
    )


@pytest.mark.parametrize("n, edges", [workloads.tree_edges(4, 2), workloads.grid_edges(3, 4), workloads.cycle_edges(7)])
def test_relabelling_is_an_isomorphism(n, edges):
    text, perm = workloads.relabel(n, edges, random.Random(11))
    assert sorted(perm) == list(range(n))
    graph = parse_graph(text)
    mapped = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    assert graph.edges() == mapped


@pytest.mark.parametrize("name", ["dense", "sparse"])
@pytest.mark.parametrize("seed", [0, 5])
def test_workload_root_follows_the_relabelling(name, seed):
    canonical = [workloads.graph_text(n, edges) for _, n, edges in workloads._graphs(name)]
    workload = workloads.build_workload(name, seed)
    assert len(workload.inputs) == workloads.COPIES[name] * len(canonical)
    texts = [inp.text for inp in workload.inputs]
    # seed 0 keeps the canonical labels in the first copy only
    assert (texts[: len(canonical)] == canonical) == (seed == 0)
    # every further copy is relabelled, at seed 0 too
    assert all(texts[k : k + len(canonical)] != canonical for k in range(len(canonical), len(texts), len(canonical)))
    for k, inp in enumerate(workload.inputs):
        g0, g1 = parse_graph(canonical[k % len(canonical)]), parse_graph(inp.text)
        assert eccentricity(g1, inp.root) == eccentricity(g0, 0)
        assert sorted(map(len, g1.adjacency)) == sorted(map(len, g0.adjacency))


def test_seed_zero_is_the_canonical_labelling():
    dense = workloads.build_workload("dense", 0)
    assert parse_graph(dense.inputs[0].text) == graphs_module.truncated_tree(4, 2)
    assert parse_graph(dense.inputs[3].text) == graphs_module.complete_graph(7)


def cli_digest(tmp_path: Path, args: list[str]) -> str:
    out, trace = tmp_path / "colouring.txt", tmp_path / "trace.txt"
    assert cli.main(["colour", *args, "--out", str(out), "--trace", str(trace)]) == 0
    return ops.digest(out.read_bytes(), trace.read_bytes())


def test_seed_zero_colour_ops_match_the_cli(tmp_path):
    graph_file = tmp_path / "c5.adj"
    graph_file.write_text(workloads.graph_text(*workloads.cycle_edges(5)), encoding="utf-8")
    c5 = parse_graph(graph_file.read_text(encoding="utf-8"))
    assert ops.colour_op(c5, 0)[0] == cli_digest(tmp_path, ["--input", str(graph_file), "--root", "0"])

    dense = workloads.build_workload("dense", 0)
    tree = parse_graph(dense.inputs[0].text)
    expected = cli_digest(tmp_path, ["--family", "tree", "--degree", "4", "--radius", "2"])
    assert ops.colour_op(tree, 0)[0] == expected
    assert harness.load_expected("dense")["colour"][0][0] == expected


def run_passes(workload, checker, tracer=None):
    graphs = harness.parse(workload)
    colour_op = tracer.wrap(tracing.COLOUR_OP, ops.colour_op) if tracer else None
    oracle_op = tracer.wrap("op.oracle", ops.oracle_op) if tracer else None
    harness.colour_pass(workload, graphs, checker, colour_op)
    harness.oracle_pass(workload, graphs, checker, oracle_op)


@pytest.mark.parametrize("seed", [0, 3])
def test_tracing_changes_no_result(seed):
    workload = small_workload("corpus", seed, 120)
    expected = harness.load_expected("corpus")
    plain = ops.Checker(seed, expected)
    run_passes(workload, plain)
    traced = ops.Checker(seed, expected)
    with tracing.Tracer() as tracer:
        run_passes(workload, traced, tracer)
    assert plain.failed == traced.failed == 0
    assert plain.first == traced.first
    assert tracer.spans


def test_tracer_restores_the_library():
    before = (symmetry.PermGroup.subgroup, symmetry.automorphism_group, graphs_module.distances)
    with tracing.Tracer():
        assert symmetry.automorphism_group is not before[1]
    assert (symmetry.PermGroup.subgroup, symmetry.automorphism_group, graphs_module.distances) == before


def traced_round(workload):
    checker = ops.Checker(1, harness.load_expected(workload.name))
    with tracing.Tracer() as tracer:
        run_passes(workload, checker, tracer)
    assert checker.failed == 0
    return tracing.summarize(tracer.spans)


def test_traced_counts_repeat_exactly():
    workload = small_workload("corpus", 1, 150)
    first, second = traced_round(workload), traced_round(workload)
    assert tracing.exact_counts(first) == tracing.exact_counts(second)
    metrics = tracing.layer_metrics([first, second], 1.0, 0.01)
    assert metrics["symmetry.automorphism_group.builds_per_op"] == (3.0, "count/op")
    assert metrics["symmetry.subgroup.scanned"][0] >= metrics["symmetry.subgroup.kept"][0] > 0
    assert metrics["oracle.motion_lemma_check.calls"][0] == 150
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER}


TRACED_ROUND_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import test_bench, tracing
summary = test_bench.traced_round(test_bench.small_workload("dense", 1, 4))
print(json.dumps(tracing.exact_counts(summary), sort_keys=True))
"""


def test_traced_counts_repeat_across_processes():
    # separate interpreters with different string hashing, as two traced runs
    bench = Path(__file__).resolve().parent
    counts = []
    for hash_seed in ("1", "2"):
        child = subprocess.run(
            [sys.executable, "-c", TRACED_ROUND_CHILD, str(bench), str(bench.parent / "src")],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, timeout=170, check=True,
        )
        counts.append(json.loads(child.stdout))
    assert counts[0] == counts[1]
    assert counts[0]["symmetry.subgroup"]["scanned"] > 0


def test_self_time_excludes_child_spans():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None], ["c", 2.0, 3.0, 1, None], ["b", 5.0, 6.0, 0, None]]
    table = tracing.summarize(spans)
    assert table["a"]["self_s"] == pytest.approx(6.0)
    assert table["b"]["calls"] == 2
    assert table["b"]["self_s"] == pytest.approx(3.0)
    assert table["b"]["total_s"] == pytest.approx(4.0)


def test_per_op_median_drops_a_stall_of_one_round():
    assert harness.per_op_median([[1.0, 5.0, 2.0], [1.5, 4.0, 90.0], [3.0, 4.5, 2.5]]) == [1.5, 4.5, 2.5]


def test_timed_scales_latencies_by_the_sampled_speed(monkeypatch):
    # a machine at half the nominal speed: every reference loop takes twice as long
    monkeypatch.setattr(harness.reference, "reference", lambda: 2 * harness.reference.NOMINAL_S)
    slept = []

    def slow():
        start = time.perf_counter()
        time.sleep(0.06)
        slept.append(time.perf_counter() - start)
        return "a"

    results, latencies = harness.timed([slow, lambda: "b"])
    assert results == ["a", "b"]
    assert latencies[0] == pytest.approx(slept[0] / 2, rel=0.1)
    assert 0 <= latencies[1] < latencies[0]


def test_checker_counts_wrong_outcomes():
    expected = {"colour": [["d", True, True, True]], "oracle": [{"value": 2}]}
    seed0 = ops.Checker(0, expected)
    seed0.check("colour", 0, "g", ["other", True, True, True])
    seed0.check("oracle", 0, "g", {"value": 2})
    assert (seed0.attempted, seed0.failed) == (2, 1)

    other = ops.Checker(4, expected)
    other.check("colour", 0, "g", ["x", True, False, False])
    other.check("colour", 0, "g", ["y", True, False, False])  # passes disagree
    other.check("colour", 0, "g", ["x", False, False, False])  # audit failed
    other.check("colour", 0, "g", ["x", True, True, False])  # verdicts disagree
    other.check("oracle", 0, "g", {"error": "RecursionError"})
    assert (other.attempted, other.failed) == (5, 4)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["corpus", "dense"]
    assert set(workloads.WORKLOADS) == {"corpus", "dense", "sparse"}
