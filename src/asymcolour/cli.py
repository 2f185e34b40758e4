"""Command-line entry point.

Subcommands: ``colour`` runs the construction and self-audits, ``verify``
checks a colouring file for asymmetry, ``oracle`` computes exhaustive
quantities, ``bound`` prints the closed-form bounds. One table,
``ORACLE_TABLE``, maps each oracle quantity to its report call and marks
the two that read the cap; ``oracle`` times that one call, and its
``oracle.elapsed`` line is the only timing any output holds. Graph and
colouring files are read by one reader, so an unreadable file of either
kind is reported as ``cannot read PATH``.

Exit codes: 0 success (all checks pass), 1 invalid input, a malformed
command line or a guard violation, 2 group cap exceeded, 3 a bug
surface, not an input problem: an internal invariant violated, a group
that does not act as the construction promised, or the interpreter's
recursion limit reached.
``verify`` uses 4 for a well-formed colouring that is not asymmetric, so
failure kinds stay distinguishable. Subcommands raise, and :func:`main`
maps each exception to its exit code in one place, with one ``asym:``
line on stderr.

The group cap bounds only element lists: the final stabilizer ``colour``
embeds, and ``Aut(G)`` where ``motion`` or ``motion-lemma`` needs every
element for the motion, as no strong generator moving two points settles
it. ``motion-lemma`` searches its 2-colourings over a stabilizer chain,
so ``--cap 1`` on K2 answers ``colouring-found`` with exit 0. ``autorder``
and ``dnumber`` list nothing, and ``verify`` takes no cap. On ``colour``,
``motion`` and ``motion-lemma`` the ASYM_CAP environment variable
overrides the default cap, an explicit --cap flag wins over both, and a
cap below 1 from either is invalid input. The other oracles and
``verify`` never read ASYM_CAP, so an invalid value there is no error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import audit, oracle
from .colouring import (
    BOUND_MODES,
    ORBIT_DOMAIN,
    colour_bound,
    parse_colouring,
    run,
    serialize_colouring,
    serialize_trace,
)
from .errors import (
    DomainNotInvariantError,
    GroupCapError,
    InternalInvariantError,
    NotAPartitionActionError,
)
from .graphs import FAMILIES, generate_family, parse_graph
from .symmetry import DEFAULT_CAP, chain_length_bound

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_INVARIANT = 3
EXIT_NOT_ASYMMETRIC = 4

# exceptions that signal a bug, never bad input; each exits 3
BUG_SURFACE = (InternalInvariantError, NotAPartitionActionError, DomainNotInvariantError, RecursionError)

# quantity: (its report from the graph g, the parsed arguments and the
# cap, whether it reads the cap). Only the two scans that may list
# elements read the cap
ORACLE_TABLE = {
    "motion": (lambda g, args, cap: oracle.motion_report(g, cap), True),
    "dnumber": (lambda g, args, cap: oracle.distinguishing_report(g, args.max_colours), False),
    "autorder": (lambda g, args, cap: oracle.autorder_report(g), False),
    "motion-lemma": (lambda g, args, cap: oracle.motion_lemma_check(g, cap), True),
    "interior-support": (lambda g, args, cap: oracle.interior_support_report(g, args.root, args.horizon), False),
}
ORACLE_QUANTITIES = tuple(ORACLE_TABLE)


def _cap(args) -> int:
    if args.cap is not None:
        cap, source = args.cap, "--cap"
    else:
        env = os.environ.get("ASYM_CAP")
        if env is None:
            return DEFAULT_CAP
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"invalid ASYM_CAP value {env!r}") from None
        source = "ASYM_CAP"
    if cap < 1:
        raise ValueError(f"{source} must be >= 1, got {cap}")
    return cap


class _Parser(argparse.ArgumentParser):
    """Usage errors are invalid input; subparsers share the class."""

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="asym", description="Symmetry-breaking colourings with exhaustive verification")
    sub = parser.add_subparsers(dest="command", required=True)

    colour = sub.add_parser("colour", help="run the construction and audit the result")
    source = colour.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="graph file in adjacency-list format")
    source.add_argument("--family", choices=FAMILIES, help="built-in graph family")
    colour.add_argument("--degree", type=int, help="tree family: degree")
    colour.add_argument("--radius", type=int, help="tree family: truncation radius")
    colour.add_argument("--n", type=int, help="family size parameter")
    colour.add_argument("--m", type=int, help="complete_bipartite: left side size")
    colour.add_argument("--w", type=int, help="grid: width")
    colour.add_argument("--h", type=int, help="grid: height")
    colour.add_argument("--root", type=int, default=0)
    colour.add_argument("--horizon", type=int, default=None, help="number of spheres to colour (default: eccentricity)")
    colour.add_argument("--bound-mode", choices=BOUND_MODES, default="csg")
    colour.add_argument("--cap", type=int, default=None, help="group element cap (default ASYM_CAP or 10^6)")
    colour.add_argument("--out", help="write the colouring here")
    colour.add_argument("--trace", help="write the construction trace here")
    colour.add_argument("--format", choices=("text", "kv"), default="text")

    verify = sub.add_parser("verify", help="check a colouring file for asymmetry")
    verify.add_argument("graph")
    verify.add_argument("colouring")

    orc = sub.add_parser("oracle", help="exhaustive oracle quantities")
    orc.add_argument("graph")
    orc.add_argument("quantity", choices=ORACLE_QUANTITIES)
    orc.add_argument("--root", type=int, default=0, help="root for interior-support")
    orc.add_argument("--horizon", type=int, default=None, help="truncation radius for interior-support")
    orc.add_argument("--max-colours", type=int, default=None, help="palette limit for dnumber")
    orc.add_argument("--cap", type=int, default=None)

    bound = sub.add_parser("bound", help="closed-form bounds")
    bound.add_argument("kind", choices=("colours", "chain"))
    bound.add_argument("value", type=int)
    return parser


def _load(path: str, parse):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return parse(text)


def _emit(lines, fmt: str) -> None:
    for key, value in lines:
        if fmt == "kv":
            print(f"{key} {value}")
        else:
            print(f"{key.replace('.', ' ')}: {value}")


def cmd_colour(args) -> int:
    cap = _cap(args)
    if args.input:
        graph = _load(args.input, parse_graph)
    else:
        graph = generate_family(
            args.family, degree=args.degree, radius=args.radius, n=args.n, m=args.m, w=args.w, h=args.h
        )
    colouring, trace = run(graph, args.root, args.horizon, bound_mode=args.bound_mode, cap=cap)
    checks = audit.audit_run(graph, trace, colouring)
    asymmetric = oracle.is_asymmetric(graph, colouring)
    if args.out:
        Path(args.out).write_text(serialize_colouring(colouring), encoding="utf-8")
    if args.trace:
        Path(args.trace).write_text(serialize_trace(trace), encoding="utf-8")

    budget = colour_bound(max(graph.max_degree, 1))
    used = {c for c in colouring.colours if c.kind != "far"}
    lines = [
        ("graph.source", args.input or graph.family_tag),
        ("graph.vertices", graph.n),
        ("graph.max-degree", graph.max_degree),
        ("run.root", args.root),
        ("run.horizon", trace.horizon),
        ("run.bound-mode", trace.bound_mode),
        ("run.orbit-domain", ORBIT_DOMAIN),
        ("run.cap", cap),
        ("colours.used", len(used)),
        ("colours.max-numeric", colouring.max_numeric()),
        ("colours.barred", len(colouring.barred_values())),
        ("bound.total-colours", f"{budget.total:g}"),
        ("bound.max-numeric", f"{budget.numeric:g}"),
        ("stabilizer.orders", " ".join(str(o) for o in trace.stabilizer_orders)),
    ]
    summary = audit.summarize(checks)
    for name in sorted(summary):
        result = summary[name]
        status = "pass" if result.passed else f"FAIL ({result.label()}: {result.detail})"
        lines.append((f"check.{name}", status))
    lines.append(("checks.all", "pass" if audit.all_passed(checks) else "fail"))
    lines.append(("oracle.asymmetric", "true" if asymmetric else "false"))
    _emit(lines, args.format)

    if not audit.all_passed(checks):
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_verify(args) -> int:
    graph = _load(args.graph, parse_graph)
    colouring = _load(args.colouring, parse_colouring)
    if len(colouring) != graph.n:
        raise ValueError(f"colouring covers {len(colouring)} vertices, graph has {graph.n}")
    order = oracle.stabilizer_order(graph, colouring)
    if order == 1:
        _emit([("asymmetric", "true")], "text")
        return EXIT_OK
    _emit([("asymmetric", "false"), ("stabilizer-order", order)], "text")
    return EXIT_NOT_ASYMMETRIC


def cmd_oracle(args) -> int:
    call, reads_cap = ORACLE_TABLE[args.quantity]
    cap = _cap(args) if reads_cap else None
    graph = _load(args.graph, parse_graph)
    start = time.perf_counter()
    report = call(graph, args, cap)
    lines = [
        ("oracle.quantity", report.quantity),
        ("oracle.value", report.value),
        ("oracle.search-space", report.search_space),
        ("oracle.elapsed", f"{time.perf_counter() - start:.3f}"),
    ]
    lines.extend((f"oracle.{key}", value) for key, value in sorted(report.details.items()))
    _emit(lines, "kv")
    return EXIT_OK


def cmd_bound(args) -> int:
    if args.value < 1:
        raise ValueError(f"value must be positive, got {args.value}")
    if args.kind == "chain":
        print(chain_length_bound(args.value))
    else:
        budget = colour_bound(args.value)
        print(budget.total)
        print(f"max-numeric {budget.numeric:g}")
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "colour": cmd_colour,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
        "bound": cmd_bound,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except GroupCapError as exc:
        print(f"asym: group cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BUG_SURFACE as exc:
        if isinstance(exc, InternalInvariantError):
            print(f"asym: internal invariant violated: {exc}", file=sys.stderr)
        else:
            print(f"asym: internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, OSError) as exc:
        print(f"asym: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
