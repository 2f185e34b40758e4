"""One digest of the outputs that must stay byte-identical across
refactors: the colouring and trace files, every audit result and the
asymmetry verdict of each run, and what each oracle report found.

A change that alters any of them on purpose records the new digest here
and says why in CHANGES.md. The digest must not depend on
``PYTHONHASHSEED``; ``test_the_digest_ignores_the_hash_seed`` checks that.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import asymcolour
from asymcolour import (
    audit,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    oracle,
    path_graph,
    run,
    serialize_colouring,
    serialize_trace,
    truncated_tree,
)

from .conftest import atlas_corpus

GOLDEN = "66e1924a061d3f5cf91fee2c18365992d173660f5872e86905b71a1ac288e708"


def outcome(call, *args):
    """The call's result, or the class name of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # an expected refusal is part of the output
        return type(exc).__name__


def colour_record(graph, root):
    colouring, trace = run(graph, root)
    checks = audit.audit_run(graph, trace, colouring)
    return (
        serialize_colouring(colouring),
        serialize_trace(trace),
        [(c.name, c.step, c.passed, c.detail) for c in checks],
        oracle.is_asymmetric(graph, colouring),
    )


REPORTS = {
    "dnumber": oracle.distinguishing_report,
    "motion": oracle.motion_report,
    "motion-lemma": oracle.motion_lemma_check,
    "autorder": oracle.autorder_report,
    "interior-support": lambda graph: oracle.interior_support_report(graph, 0),
}


def report_record(call, graph):
    report = outcome(call, graph)
    if isinstance(report, str):
        return report
    return (report.quantity, report.value, report.search_space, sorted(report.details.items()))


def golden_digest() -> str:
    corpus = atlas_corpus()
    named = [
        truncated_tree(3, 2),
        truncated_tree(4, 2),
        truncated_tree(3, 3),
        complete_bipartite_graph(4, 4),
        complete_graph(7),
        grid_graph(4, 5),
        cycle_graph(12),
        path_graph(30),
    ]
    digest = hashlib.sha256()
    for graph in corpus + named:
        for root in (0, graph.n - 1):
            digest.update(repr(outcome(colour_record, graph, root)).encode())
    for graph in corpus:
        if graph.n <= 6:
            for quantity, call in REPORTS.items():
                digest.update(repr((quantity, report_record(call, graph))).encode())
    return digest.hexdigest()


def test_the_outputs_match_the_golden_digest():
    assert golden_digest() == GOLDEN


def test_the_digest_ignores_the_hash_seed():
    src = str(Path(asymcolour.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parents[1])
    code = "import sys; sys.path[:0] = sys.argv[1:]; from tests.test_golden import golden_digest; print(golden_digest())"
    digests = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", code, src, tests], capture_output=True, text=True, env=env, timeout=600, check=True
        )
        digests.add(done.stdout.strip())
    assert digests == {GOLDEN}
