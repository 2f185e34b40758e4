"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines while they execute.
"""

import math
import time

from asymcolour import (
    Colour,
    build_graph,
    chain_length_bound,
    ceil_sqrt,
    colour_bound,
    cycle_graph,
    complete_bipartite_graph,
    complete_graph,
    distinguishing_number,
    interior_support_check,
    is_asymmetric,
    longest_chain_bruteforce,
    motion_lemma_check,
    run,
    serialize_graph,
    truncated_tree,
)
from asymcolour import audit, oracle
from asymcolour.cli import main as cli_main
from asymcolour.errors import GroupCapError

from .conftest import brute_automorphisms


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def test_criterion_1_chain_formula_equivalence():
    start = time.perf_counter()
    values = {n: longest_chain_bruteforce(n) for n in range(1, 6)}
    elapsed = time.perf_counter() - start
    expected = {1: 0, 2: 1, 3: 2, 4: 4, 5: 5}
    ok = values == expected and all(values[n] == chain_length_bound(n) for n in values)
    report(1, "chain-formula-equivalence", ok, f"values {values}, {elapsed:.1f}s")
    assert values == expected
    assert all(values[n] == chain_length_bound(n) for n in values)
    assert elapsed < 60


def test_criterion_2_extremal_distinguishing_numbers():
    start = time.perf_counter()
    cases = [
        (cycle_graph(5), 3),
        (complete_graph(4), 4),
        (complete_bipartite_graph(3, 3), 4),
        (cycle_graph(6), 2),
    ]
    results = []
    for graph, expected in cases:
        value = distinguishing_number(graph)
        witness = oracle.distinguishing_witness(graph, value)
        below = oracle.distinguishing_witness(graph, value - 1) if value > 1 else None
        results.append(
            value == expected and witness is not None and is_asymmetric(graph, witness) and below is None
        )
    elapsed = time.perf_counter() - start
    ok = all(results)
    report(2, "extremal-distinguishing-numbers", ok, f"{elapsed:.1f}s")
    assert ok
    assert elapsed < 60


REQUIRED_AUDIT_CHECKS = {
    "root-colour-unique",        # colour 0 exactly at the root
    "far-matches-distance",      # far colour exactly past the current radius
    "inner-ball-preserved",      # step k+1 restricted to ball k equals step k
    "ball-orbits-small",         # stabilizer orbits within each ball <= ceil(sqrt(max degree))
    "partitions-nested",         # refinement partitions are nested
    "fixing-set-size",           # fixing sets within ceil(3*ceil(sqrt(d))/2) and the promised cap
    "fixing-halves-parent",      # each fixing class at most half its parent class
    "recolour-count-cap",        # per-vertex recolourings per step <= 1 + log2(d)
    "class-sizes",               # finest classes <= d; at most one oversized class per partition
    "colour-count",              # distinct colours within the closed-form budget
    "max-numeric",               # numeric values within the closed-form budget
}


def test_criterion_3_construction_invariant_suite(corpus):
    start = time.perf_counter()
    violations = []
    names_seen = set()
    for graph in corpus:
        colouring, trace = run(graph, 0)
        checks = audit.audit_run(graph, trace, colouring)
        names_seen.update(c.name for c in checks)
        for check in checks:
            if not check.passed:
                violations.append((graph, check))
    elapsed = time.perf_counter() - start
    missing = REQUIRED_AUDIT_CHECKS - names_seen
    ok = not violations and not missing
    report(
        3,
        "construction-invariant-suite",
        ok,
        f"{len(corpus)} graphs, {len(violations)} violations, {elapsed:.0f}s",
    )
    assert not missing, f"audit never exercised: {missing}"
    assert not violations, violations[:5]
    assert elapsed < 1800


def test_criterion_4_truncated_tree_asymmetry():
    start = time.perf_counter()
    cap = 10**6
    completed = []
    skipped = []
    failures = []
    for degree in (3, 4, 5):
        for radius in (2, 3):
            tag = f"tree({degree},{radius})"
            graph = truncated_tree(degree, radius)
            try:
                rigid = interior_support_check(graph, 0, radius)
                colouring, _ = run(graph, 0, cap=cap)
                asymmetric = is_asymmetric(graph, colouring)
            except GroupCapError as exc:
                skipped.append(tag)
                print(f"  {tag}: skipped, {exc}")
                continue
            numeric_cap = 1 + (1 + math.log2(degree)) * math.ceil(3 * ceil_sqrt(degree) / 2)
            good = rigid and asymmetric and colouring.max_numeric() <= numeric_cap
            print(
                f"  {tag}: rigid={rigid} asymmetric={asymmetric} "
                f"max-numeric={colouring.max_numeric()} (cap {numeric_cap:g})"
            )
            completed.append(tag)
            if not good:
                failures.append(tag)
    elapsed = time.perf_counter() - start
    ok = not failures and len(completed) >= 4
    report(
        4,
        "truncated-tree-asymmetry",
        ok,
        f"completed {completed}, skipped {skipped}, {elapsed:.0f}s",
    )
    assert not failures, failures
    assert elapsed < 600
    # tree(5,2), tree(4,3) and tree(5,3) have automorphism groups of
    # orders 5!*(4!)^5 ~ 9.6e8, 4!*1296^4 ~ 6.8e13 and ~3.8e36: no
    # explicit element list of them fits under a 10^6 cap. They complete
    # because run, is_asymmetric and interior_support_check hold groups
    # by strong generating sets and list no elements, so a skip here
    # means one of them lists Aut(G) again.
    assert len(completed) >= 4, (
        f"only {len(completed)} instances complete under cap {cap}: {completed}; "
        f"skipped {skipped} whose automorphism groups exceed the cap "
        "(smallest offender tree(5,2) already has order 955,514,880)"
    )


def test_criterion_5_motion_lemma_property(corpus):
    start = time.perf_counter()
    applicable = 0
    failures = []
    for graph in corpus:
        group = oracle.automorphism_group(graph)
        if group.is_trivial():
            continue
        m = min(
            sum(1 for v in range(graph.n) if p[v] != v)
            for p in group.elements
            if any(p[v] != v for v in range(graph.n))
        )
        if 2 ** (m / 2) < group.order:
            continue
        applicable += 1
        result = motion_lemma_check(graph)
        if result.value != "colouring-found":
            failures.append(graph)
            continue
        parsed = [Colour.from_token(t) for t in result.details["colouring"].split()]
        if not is_asymmetric(graph, parsed):
            failures.append(graph)
    elapsed = time.perf_counter() - start
    ok = not failures and applicable > 0
    report(5, "motion-lemma-property", ok, f"{applicable} applicable graphs, {elapsed:.0f}s")
    assert applicable > 0
    assert not failures, failures[:5]


def test_criterion_6_oracle_cross_check(corpus):
    start = time.perf_counter()
    mismatches = []
    for graph in corpus:
        brute = brute_automorphisms(graph)
        searched = oracle.automorphism_group(graph)
        if searched.order != len(brute) or list(searched.elements) != brute:
            mismatches.append(graph)
    elapsed = time.perf_counter() - start
    ok = not mismatches
    report(6, "oracle-cross-check", ok, f"{len(corpus)} graphs, {elapsed:.0f}s")
    assert not mismatches, mismatches[:5]


def test_criterion_7_determinism(tmp_path):
    start = time.perf_counter()
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / f"colouring-{tag}.txt"
        trace = tmp_path / f"trace-{tag}.txt"
        graph_file = tmp_path / f"c5-{tag}.adj"
        graph_file.write_text(serialize_graph(cycle_graph(5)), encoding="utf-8")
        code = cli_main(
            [
                "colour",
                "--input", str(graph_file),
                "--root", "0",
                "--out", str(out),
                "--trace", str(trace),
                "--format", "kv",
            ]
        )
        assert code == 0
        outputs.append((out.read_bytes(), trace.read_bytes()))
        code = cli_main(
            [
                "colour",
                "--family", "tree", "--degree", "4", "--radius", "2",
                "--out", str(out), "--trace", str(trace),
            ]
        )
        assert code == 0
        outputs[-1] = outputs[-1] + (out.read_bytes(), trace.read_bytes())
    ok = outputs[0] == outputs[1]
    elapsed = time.perf_counter() - start
    report(7, "determinism", ok, f"{elapsed:.1f}s")
    assert ok
