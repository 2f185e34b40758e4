"""The two kinds of op, and the check of their outputs.

A colour op does what ``asym colour`` does, minus argument parsing and
file writes: run the construction, audit it, check asymmetry with the
oracle and serialize the colouring and trace. An oracle op is one library
oracle call. Library functions are looked up on their modules at call
time, so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import hashlib

from asymcolour import audit, colouring, oracle


def digest(colouring_bytes: bytes, trace_bytes: bytes) -> str:
    """Short hash of the colouring file and the trace file, as written."""
    return hashlib.sha256(colouring_bytes + b"\0" + trace_bytes).hexdigest()[:24]


def colour_op(graph, root: int) -> list:
    """``[digest, audit passed, is_asymmetric, final stabilizer order is 1]``."""
    result, trace = colouring.run(graph, root)
    checks = audit.audit_run(graph, trace, result)
    asymmetric = oracle.is_asymmetric(graph, result)
    files = digest(colouring.serialize_colouring(result).encode(), colouring.serialize_trace(trace).encode())
    return [files, audit.all_passed(checks), asymmetric, trace.stabilizer_orders[-1] == 1]


def oracle_op(kind: str, graph, root: int, radius: int | None) -> dict:
    """The answer of one oracle call: its value, plus the witness colouring
    where one is returned. Report details such as ``search_space`` and
    ``elapsed`` are left out on purpose: they are not answers."""
    if kind == "motion_lemma_check":
        report = oracle.motion_lemma_check(graph)
        answer = {"value": report.value}
        if "colouring" in report.details:
            answer["colouring"] = report.details["colouring"]
        return answer
    if kind == "interior_support_check":
        return {"value": oracle.interior_support_check(graph, root, radius)}
    if kind == "motion":
        return {"value": oracle.motion(graph)}
    if kind == "distinguishing_number":
        return {"value": oracle.distinguishing_number(graph)}
    raise ValueError(f"unknown oracle op {kind!r}")


def guarded(op, *args):
    """Run an op; an exception becomes its outcome, so a crash is counted
    as a failed op instead of ending the run."""
    try:
        return op(*args)
    except Exception as exc:  # every crash of the program under test is a result
        return {"error": type(exc).__name__}


class Checker:
    """Judges every op outcome of one workload run.

    At seed 0 each outcome must equal the stored expected outcome. At any
    other seed the labels differ, so a colour op passes when its audit
    passes, ``is_asymmetric`` agrees with the trace's final stabilizer
    order being 1, and every pass gives the same outcome; an oracle op must
    give the seed-0 value (every oracle value is a graph invariant) and the
    same answer on every pass. An expected exception counts as success.
    """

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected
        self.first: dict[tuple[str, int], object] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, kind: str, index: int, label: str, outcome) -> None:
        self.attempted += 1
        key = (kind, index)
        first = self.first.setdefault(key, outcome)
        if kind == "colour":
            ok = self._colour_ok(index, outcome)
        else:
            ok = self._oracle_ok(index, outcome)
        if not ok or outcome != first:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{kind} op {index} {label}: got {outcome}")

    def _colour_ok(self, index: int, outcome) -> bool:
        if self.seed == 0:
            return outcome == self.expected["colour"][index]
        return isinstance(outcome, list) and outcome[1] and outcome[2] == outcome[3]

    def _oracle_ok(self, index: int, answer) -> bool:
        expected = self.expected["oracle"][index]
        if self.seed == 0:
            return answer == expected
        return all(answer.get(key) == expected.get(key) for key in ("value", "error"))
