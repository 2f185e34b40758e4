"""Measurement: set-up and memory in fresh interpreters, timed passes over
the ops, the traced run, and the stored seed-0 outcomes."""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import asymcolour.graphs
import ops
import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
EXPECTED = BENCH / "expected.json"

# set-up interpreters per untraced run, spread evenly over its measured time
SETUPS = 24
MIN_ROUNDS = 3
# reference samples behind the scale factor of a stretch of ops
SAMPLES_PER_FACTOR = 5
# a traced round costs about two untraced ones; two rounds still let the
# exact counts be compared
MIN_TRACED_ROUNDS = 2

# the CPUs this process may run on; a run pins itself to one of them
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

# metric -> unit, for --trace 0
END_TO_END = {
    "setup_s": "s",
    "colour_s": "s",
    "oracle_s": "s",
    "colour_p50_ms": "ms",
    "colour_p99_ms": "ms",
    "peak_mem_mib": "MiB",
}

# timed in a fresh interpreter, with the machine's speed sampled meanwhile:
# reading the texts is not part of set-up
SETUP_CHILD = """
import json, sys, time
texts = json.loads(sys.stdin.read())
sys.path[:0] = sys.argv[1:3]
import reference
with reference.Sampler() as sampler:
    start = time.perf_counter()
    import asymcolour
    graphs = [asymcolour.parse_graph(text) for text in texts]
    seconds = time.perf_counter() - start - sampler.stolen
print(seconds * sampler.take())
"""

MEMORY_CHILD = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import harness
print(json.dumps(harness.pass_memory(sys.stdin.read(), int(sys.argv[3]))))
"""


def setup_once(payload: str) -> float:
    """Nominal seconds for ``import asymcolour`` plus parsing every input
    text, in a fresh interpreter that inherits this process's CPU."""
    child = subprocess.run(
        [sys.executable, "-E", "-s", "-c", SETUP_CHILD, str(SRC), str(BENCH)],
        input=payload, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout)


def child_memory(workload, seed: int, checker) -> float:
    """Peak resident set, in MiB, of a fresh interpreter that parses the
    inputs and runs one pass over all ops; the child's op outcomes are
    checked and counted like the parent's."""
    child = subprocess.run(
        [sys.executable, "-E", "-s", "-c", MEMORY_CHILD, str(BENCH), str(SRC), str(seed)],
        input=workload.to_json(), capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(child.stdout)
    checker.attempted += result["attempted"]
    checker.failed += result["failed"]
    checker.failures.extend(result["failures"])
    return result["peak_mem_mib"]


def pass_memory(spec: str, seed: int) -> dict:
    """The child's side of ``child_memory``. It never imports networkx, so
    the peak is the library's and the benchmark's own."""
    workload = workloads.Workload.from_json(spec)
    graphs = parse(workload)
    checker = ops.Checker(seed, load_expected(workload.name))
    colour_pass(workload, graphs, checker)
    oracle_pass(workload, graphs, checker)
    return {
        "peak_mem_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
    }


def parse(workload) -> list:
    """The workload's graphs, parsed from their texts by the library. The
    lookup on the module lets a traced round see the calls."""
    return [asymcolour.graphs.parse_graph(text) for text in workload.texts()]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: machine speed, recorded only."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return time.perf_counter() - start


def settle() -> float:
    """Pin this process to the CPU on which the reference loop runs fastest
    now, and return that loop time.

    On a shared VM other tenants slow each vCPU on and off for seconds at a
    time, each vCPU independently of the others. Choosing before every pass
    keeps the pass off a CPU that is slowed at that moment; a single client
    uses one CPU either way.
    """
    if len(CPUS) < 2:
        return calibrate()
    best = None
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        loop = min(calibrate(), calibrate())
        if best is None or loop < best[0]:
            best = (loop, cpu)
    os.sched_setaffinity(0, {best[1]})
    return best[0]


def release() -> None:
    """Undo ``settle``: allow every CPU again."""
    if CPUS:
        os.sched_setaffinity(0, CPUS)


def timed(calls) -> tuple[list, list[float]]:
    """Run the calls in order; their results, and each call's latency in
    nominal seconds (see ``reference``).

    The shared machine runs this process at full speed or about 1.5x
    slower, switching within a second and now and then staying slow for
    minutes. A ``reference.Sampler`` times the reference loop every 10 ms
    while the calls run; the calls of each stretch that holds
    ``SAMPLES_PER_FACTOR`` samples (one call, if it is long) are scaled by
    the mean speed of those samples, so a latency moves with the work of
    the call, not with the machine.
    """
    results, latencies, pending = [], [], []
    with reference.Sampler() as sampler:
        for call in calls:
            stolen = sampler.stolen
            begin = time.perf_counter()
            results.append(call())
            pending.append(time.perf_counter() - begin - (sampler.stolen - stolen))
            if len(sampler.samples) >= SAMPLES_PER_FACTOR:
                factor = sampler.take()
                latencies.extend(x * factor for x in pending)
                pending = []
        if pending:
            factor = sampler.take()
            latencies.extend(x * factor for x in pending)
    return results, latencies


def colour_pass(workload, graphs, checker, op=None) -> list[float]:
    """One pass over the colour ops: each op's latency in nominal seconds."""
    op = op or ops.colour_op
    gc.collect()
    outcomes, latencies = timed(
        functools.partial(ops.guarded, op, graphs[i], workload.inputs[i].root) for i in workload.colour
    )
    for i, outcome in zip(workload.colour, outcomes):
        checker.check("colour", i, workload.inputs[i].label, outcome)
    return latencies


def oracle_pass(workload, graphs, checker, op=None) -> list[float]:
    """One pass over the oracle ops: each op's latency in nominal seconds."""
    op = op or ops.oracle_op
    gc.collect()
    outcomes, latencies = timed(
        functools.partial(ops.guarded, op, o.kind, graphs[o.graph], workload.inputs[o.graph].root, o.radius)
        for o in workload.oracle
    )
    for i, (o, outcome) in enumerate(zip(workload.oracle, outcomes)):
        checker.check("oracle", i, o.label, outcome)
    return latencies


def per_op_median(rounds) -> list[float]:
    """Each op's median latency over the rounds: a stall of the machine
    that hits one op in one round does not move it."""
    return [statistics.median(op) for op in zip(*rounds)]


def end_to_end(workload, graphs, checker, seconds: float) -> tuple[dict, dict]:
    """The untraced run: timed rounds of a colour pass and an oracle pass
    until the time is up, with the set-up interpreters spread between the
    passes."""
    colour_rounds, oracle_rounds, calib, setup = [], [], [], []
    payload = json.dumps(workload.texts())
    start = time.perf_counter()
    deadline = start + seconds

    def set_up_due() -> None:
        # a share of SETUPS in step with the elapsed share of the run, so a
        # stretch in which the shared machine is slow holds only its share
        due = math.ceil(SETUPS * min(1.0, (time.perf_counter() - start) / seconds))
        while len(setup) < due:
            setup.append(setup_once(payload))

    # a round starts only if it should end by the deadline, like the last one
    round_s = 0.0
    while len(colour_rounds) < MIN_ROUNDS or time.perf_counter() + round_s <= deadline:
        began = time.perf_counter()
        # an oracle pass on each side of the colour pass: it takes a tenth
        # to a quarter as long, so its per-op medians get twice the samples
        # for little time
        calib.append(settle())
        set_up_due()
        oracle_rounds.append(oracle_pass(workload, graphs, checker))
        colour_rounds.append(colour_pass(workload, graphs, checker))
        settle()
        set_up_due()
        oracle_rounds.append(oracle_pass(workload, graphs, checker))
        round_s = time.perf_counter() - began
    settle()
    while len(setup) < SETUPS:
        setup.append(setup_once(payload))
    release()

    colour = per_op_median(colour_rounds)
    metrics = {
        "setup_s": statistics.median(setup),
        "colour_s": math.fsum(colour),
        "oracle_s": math.fsum(per_op_median(oracle_rounds)),
        "colour_p50_ms": 1e3 * statistics.median(colour),
        "colour_p99_ms": 1e3 * statistics.quantiles(colour, n=100, method="inclusive")[98],
    }
    info = {
        "rounds": len(colour_rounds),
        "calib_s": statistics.median(calib),
        # per round, to tell machine drift within a run from drift between runs
        "colour_round_s": [math.fsum(r) for r in colour_rounds],
        "oracle_round_s": [math.fsum(r) for r in oracle_rounds],
        "calib_round_s": calib,
        "setup_samples_s": setup,
    }
    return metrics, info


def traced(workload, graphs, checker, seconds: float) -> tuple[dict, dict]:
    """The traced run: rounds of an untraced colour pass and a traced round
    (parse every text, then a colour pass and an oracle pass, all wrapped)."""
    plain, wrapped, summaries, calib = [], [], [], []
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    while len(summaries) < MIN_TRACED_ROUNDS or time.perf_counter() + round_s <= deadline:
        began = time.perf_counter()
        calib.append(settle())
        plain.append(math.fsum(colour_pass(workload, graphs, checker)))
        settle()
        with tracing.Tracer() as tracer:
            parse(workload)
            wrapped.append(math.fsum(colour_pass(workload, graphs, checker, tracer.wrap(tracing.COLOUR_OP, ops.colour_op))))
            oracle_pass(workload, graphs, checker, tracer.wrap("op.oracle", ops.oracle_op))
        summaries.append(tracing.summarize(tracer.spans))
        round_s = time.perf_counter() - began
    release()

    counts = [tracing.exact_counts(s) for s in summaries]
    if any(c != counts[0] for c in counts):
        checker.failed += 1
        checker.failures.append("traced rounds gave different exact counts")
    calib_s = statistics.median(calib)
    overhead = statistics.median(wrapped) / statistics.median(plain)
    metrics = {name: value for name, (value, _) in tracing.layer_metrics(summaries, overhead, calib_s).items()}
    return metrics, {"rounds": len(summaries), "calib_s": calib_s}


def load_expected(name: str) -> dict:
    """The stored seed-0 outcomes of one workload's colour and oracle ops."""
    table = json.loads(EXPECTED.read_text())
    return {kind: table[f"{name}.{kind}"] for kind in ("colour", "oracle")}


def write_expected() -> None:
    """Store the seed-0 outcome of every op of every workload.

    Run only in a change that redefines the benchmark: the file is what
    later changes are checked against.
    """
    table = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build_workload(name, 0)
        graphs = parse(workload)
        table[name] = {
            "colour": [ops.guarded(ops.colour_op, graphs[i], workload.inputs[i].root) for i in workload.colour],
            "oracle": [
                ops.guarded(ops.oracle_op, o.kind, graphs[o.graph], workload.inputs[o.graph].root, o.radius)
                for o in workload.oracle
            ],
        }
    # one op per line, so a diff of the file names the ops that changed
    lines = []
    for name, kinds in table.items():
        for kind, outcomes in kinds.items():
            rows = ",\n".join(json.dumps(outcome) for outcome in outcomes)
            lines.append(f'"{name}.{kind}": [\n{rows}\n]')
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n")


