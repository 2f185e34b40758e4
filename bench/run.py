"""Benchmark of the colour and oracle paths of asymcolour.

Usage, from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 1 --seconds 50 --trace 0

One client in a closed loop: a single process runs one op at a time. A run
repeats a pass over the workload's colour ops and a pass over its oracle
ops until ``--seconds`` have gone by, checking every op's output; an
untraced run also sets the program up in fresh interpreters between the
passes. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps
the library's layers and prints the per-layer metrics. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the run
record. The exit code is 1 when any op failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_revision() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the run record (JSON) to this file")
    parser.add_argument("--write-expected", action="store_true", help="store the seed-0 outcomes and exit")
    args = parser.parse_args(argv)
    if not args.write_expected and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "asymcolour" / "__init__.py").is_file():
        print(f"bench: no asymcolour sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.write_expected:
        harness.write_expected()
        return 0

    workload = workloads.build_workload(args.workload, args.seed)
    graphs = harness.parse(workload)
    checker = harness.ops.Checker(args.seed, harness.load_expected(args.workload))

    if args.trace:
        metrics, info = harness.traced(workload, graphs, checker, args.seconds)
        units = {name: unit for name, unit, _ in harness.tracing.PER_LAYER}
    else:
        peak_mem_mib = harness.child_memory(workload, args.seed, checker)
        metrics, info = harness.end_to_end(workload, graphs, checker, args.seconds)
        metrics = {**metrics, "peak_mem_mib": peak_mem_mib}
        units = harness.END_TO_END

    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    print(f"failed_ratio {checker.failed / checker.attempted!r} 1")
    for failure in checker.failures:
        print(f"failed: {failure}", file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "colour_ops": len(workload.colour),
        "oracle_ops": len(workload.oracle),
        **info,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps({"record": record}))
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
