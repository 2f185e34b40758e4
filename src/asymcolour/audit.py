"""Independent re-verification of a construction run.

Given the graph and the trace of a run, every invariant the construction
promises is rechecked from scratch, in one pass over the spheres: the
colourings and the inner colouring states are replayed from the recorded
deltas, each bound is tested numerically, and every group is searched by
the audit's own route, or shown equal to the group before it by its
generators. That route is :func:`~asymcolour.symmetry.coset_search`,
a partition backtrack that keeps one automorphism per coset, refining at
every node and pruned where the refinement splits differ from its
source path's. It shares the partition primitives and the equitable
refinement with the construction, which the tests check against
round-based 1-WL, but none of its search, and it lists no elements. The
stabilizer of ``c_k`` is keyed by each vertex's colour and distance from
the root, and each running stabilizer at inner index i also by the least
colour (:func:`induced_colouring`) of each block that holds the vertex in
partitions 0..i, the paper's definition read literally. Those running
keys are kept per step and extended index by index: each index appends
one partition's block colours. They are rebuilt from the c_k keys when a
replayed recolouring changes the least colour of an earlier partition,
which fails ``induced-colours-stable``, or when a reordered trace takes
an earlier index again, so on any trace they equal the definition. One
index per partition, built once per step, tells which of its blocks
holds a vertex. The checks on the replayed colours read only the blocks
that hold a recoloured vertex, since every other block is still all
``numeric(1)``. The
construction takes the same groups as stabilizers of the sphere's own
colours, so the two agree only if its reasoning holds. Every group is
taken by one rule (:func:`_stabilizer`): when its keys refine the keys
of the group before it (``c_{k-1}``'s, or the previous inner index's
running stabilizer, which starts from ``c_k``'s) and every generator of
that group preserves them, the two groups are equal and that group is
kept; else it is searched, from that group's equitable partition split
by the keys when they refine its keys, and from scratch when they do not
(at k = 0, or when a step merges colour classes). Orders, orbits, monotonicity, the block
actions and the fixed blocks are read from generators, and each sphere's
orbits once per k; the embedded final stabilizer, which the construction
lists as products of transversals, is compared with the closure of the
recomputed generators. The audit shares none of the construction's
control flow either, so a bookkeeping bug in one of the two shows up as
a failed check.
"""

from __future__ import annotations

import math

from .colouring import (
    Colour,
    Colouring,
    FAR,
    ROOT,
    RefinementTrace,
    ceil_sqrt,
    colour_bound,
    initial_colouring,
    numeric,
)
from .graphs import Graph, Record, distances
from .symmetry import PermGroup, coset_search, moved_block, orbits, permutes_blocks, preserves


def induced_colouring(colours, partition) -> tuple[Colour, ...]:
    """Per-block colour: the minimum vertex colour in each block."""
    return tuple(min(colours[v] for v in block) for block in partition)


class CheckResult(Record):
    """One check's verdict; unlike the other records it stays mutable,
    so it has no hash."""

    __slots__ = ("name", "step", "passed", "detail")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, step: int | None, passed: bool, detail: str = ""):
        self.name = name
        self.step = step
        self.passed = passed
        self.detail = detail

    def label(self) -> str:
        where = f" (step {self.step})" if self.step is not None else ""
        return f"{self.name}{where}"


def audit_run(graph: Graph, trace: RefinementTrace, final: Colouring) -> list[CheckResult]:
    """Recheck every per-step invariant of a finished run in one pass over
    k = 0..K, which replays ``c_k`` in place and takes its stabilizer
    once for all of k's checks, searched or kept from k-1. The one element
    list built is the closure compared with the embedded final
    stabilizer."""
    checks: list[CheckResult] = []
    root = trace.root
    # a single-vertex graph has max degree 0; its bounds degenerate to the
    # max-degree-1 case (and no step ever runs)
    delta = max(graph.max_degree, 1)
    chunk_cap = ceil_sqrt(delta)
    dist = distances(graph, root)
    spheres: list[list[int]] = [[] for _ in range(max(dist) + 1)]
    for v in range(graph.n):
        spheres[dist[v]].append(v)
    budget = colour_bound(delta)

    colours = list(initial_colouring(graph, root).colours)
    # the vertices of spheres 0..k-1, and the largest orbit on them
    ball: list[int] = []
    largest = 0
    # the vertices failing root-colour-unique and far-matches-distance;
    # from k to k+1 only the recoloured vertices and sphere k+1 can change
    wrong_root: set[int] = set()
    wrong_far: set[int] = set()
    keys = group = None
    for k in range(len(trace.steps) + 1):
        touched = range(graph.n)
        if k > 0:
            # c_{k-1} is c_k with the old colours of the recoloured sphere
            recoloured = trace.steps[k - 1].final_sphere_colours
            ok_restrict = all(dist[v] >= k or colours[v] == colour for v, colour in recoloured)
            checks.append(CheckResult("inner-ball-preserved", k, ok_restrict))
            for v, colour in recoloured:
                colours[v] = colour
            touched = [v for v, _ in recoloured] + spheres[k]
        # an automorphism preserving c_k fixes the uniquely coloured root (see
        # root-colour-unique), so it preserves the distance from the root too
        previous, keys = keys, list(zip(colours, dist))
        before, group = group, _stabilizer(graph, keys, previous, group)
        if k < len(trace.stabilizer_orders):
            recorded = trace.stabilizer_orders[k]
            detail = f"recomputed order {group.order}, trace says {recorded}"
            checks.append(CheckResult("stabilizer-order-recorded", k, group.order == recorded, detail))
        for v in touched:
            wrong_root.discard(v)
            wrong_far.discard(v)
            if (colours[v] == ROOT) != (v == root):
                wrong_root.add(v)
            if (colours[v] == FAR) != (dist[v] > k):
                wrong_far.add(v)
        checks.append(CheckResult("root-colour-unique", k, not wrong_root))
        checks.append(CheckResult("far-matches-distance", k, not wrong_far))
        # the group keeps the distance from the root, so the ball's orbits
        # are its spheres' orbits; a group kept from k-1 keeps its largest
        if group is not before:
            largest = max(map(len, orbits(group, ball)), default=0)
        sphere_orbits = orbits(group, spheres[k])
        largest = max([largest, *map(len, sphere_orbits)])
        ball += spheres[k]
        checks.append(
            CheckResult(
                "ball-orbits-small",
                k,
                largest <= chunk_cap,
                f"largest orbit {largest} > ceil(sqrt({delta})) = {chunk_cap}",
            )
        )
        if k > 0:
            checks.append(CheckResult("stabilizer-monotone", k, preserves(group, previous)))
        if k < len(trace.steps):
            checks.extend(_audit_step(graph, trace.steps[k], sphere_orbits, keys, group, delta))

    checks.append(
        CheckResult(
            "replay-matches-result",
            None,
            tuple(colours) == final.colours,
            "colouring rebuilt from the trace differs from the returned colouring",
        )
    )
    if trace.final_stabilizer is not None:
        checks.append(
            CheckResult(
                "final-stabilizer-elements",
                None,
                group.order == len(trace.final_stabilizer)
                and trace.final_stabilizer == PermGroup.from_generators(graph.n, group.generators).elements,
                "embedded final stabilizer differs from the recomputed one",
            )
        )

    used = {c for c in final.colours if c != FAR}
    max_numeric, barred_values = final.max_numeric(), final.barred_values()
    checks.append(
        CheckResult(
            "colour-count",
            None,
            len(used) <= budget.total,
            f"{len(used)} distinct colours, bound {budget.total:g}",
        )
    )
    checks.append(
        CheckResult(
            "max-numeric",
            None,
            max_numeric <= budget.numeric,
            f"max numeric {max_numeric}, bound {budget.numeric:g}",
        )
    )
    checks.append(
        CheckResult(
            "barred-palette",
            None,
            all(b <= chunk_cap for b in barred_values),
            f"barred values {sorted(barred_values)} exceed {chunk_cap}",
        )
    )
    return checks


def _audit_step(graph, step, sphere_orbits, keys, stabilizer, delta):
    """Recheck step k against ``stabilizer``, the group of c_k that the
    pass of :func:`audit_run` at k took, by the vertex keys ``keys``,
    (colour, distance from the root), that the running stabilizers extend.
    ``sphere_orbits`` are that group's orbits on sphere k."""
    checks: list[CheckResult] = []
    k = step.k
    chunk_cap = ceil_sqrt(delta)

    checks.append(
        CheckResult(
            "orbits-match",
            k,
            sphere_orbits == step.orbit_list,
            "recorded orbit list differs from recomputed orbits",
        )
    )

    partitions = step.partitions
    # index[j][v] is the block of partition j that holds v
    index = [{v: b for b, block in enumerate(blocks) for v in block} for blocks in partitions]
    expected_first = (step.next_sphere,) if step.next_sphere else ()
    ok_first = partitions[0] == expected_first
    ok_nested = True
    for i in range(1, len(partitions)):
        for block in partitions[i]:
            if len({index[i - 1][v] for v in block}) != 1:
                ok_nested = False
    checks.append(CheckResult("partitions-nested", k, ok_first and ok_nested))

    oversized_ok = True
    for i, blocks in enumerate(partitions):
        large = [b for b in blocks if len(b) > delta]
        if i == len(partitions) - 1 and large:
            oversized_ok = False
        if len(large) > 1:
            oversized_ok = False
    checks.append(CheckResult("class-sizes", k, oversized_ok))

    # the running stabilizers are taken by vertex keys, which is sound only
    # for partitions whose blocks every element of the stabilizer permutes
    unpermuted = (i for i, blocks in enumerate(partitions) if not permutes_blocks(stabilizer, blocks))
    permuted = next(unpermuted, len(partitions))
    checks.append(
        CheckResult(
            "stabilizer-permutes-partitions",
            k,
            permuted == len(partitions),
            f"a stabilizer generator does not permute the blocks of partition {permuted}",
        )
    )

    # replay the inner loop against recomputed running stabilizers, each
    # kept from the previous inner index's group or searched; the chain
    # starts at c_k's keys and group
    running_keys, running = keys, stabilizer
    state = {v: numeric(1) for v in step.next_sphere}
    # the vertices the replay has recoloured, and how often
    recolour_counts: dict[int, int] = {}
    size_cap = math.ceil(3 * chunk_cap / 2)
    # least[j][b] is the least colour under state of block b of partition
    # j. The blocks of a well-formed partition hold only vertices of the
    # next sphere, which the replay starts at numeric(1), and only a block
    # holding a recoloured vertex changes its least colour. The running
    # keys hold the least colours of partitions 0..keyed-1.
    least = [[numeric(1)] * len(blocks) for blocks in partitions]
    keyed = 0

    def monochromatic(i):
        """Whether every block of partition i has one colour. A block that
        holds no recoloured vertex is still all ``numeric(1)``, so only the
        blocks that hold one are read."""
        read = {index[i][v] for v in recolour_counts if v in index[i]}
        return all(len({state[v] for v in partitions[i][b]}) == 1 for b in read)

    for rec in step.inner:
        i = rec.index
        checks.append(
            CheckResult(
                "acting-orbit-match",
                k,
                rec.acting_orbit == step.orbit_list[rec.index],
                f"inner {rec.index}",
            )
        )
        if i >= permuted:
            gamma_tilde, order = None, "none (the stabilizer does not permute the partitions)"
        else:
            # every running key extends the c_k key, so a trivial c_k group
            # is every running group. The keys at i are those at the last
            # index taken with partitions keyed..i appended: each vertex's
            # key is its c_k key and the least colour of each block holding
            # it in partitions 0..i. They are rebuilt from the c_k keys
            # (keyed = 0) when an earlier partition's least colour changed.
            if not stabilizer.is_trivial():
                # an earlier index again, which only a reordered trace has
                if i + 1 < keyed:
                    keyed = 0
                extended = (running_keys if keyed else keys)[:]
                for j in range(keyed, i + 1):
                    for block, colour in zip(partitions[j], least[j]):
                        for v in block:
                            extended[v] += (colour,)
                keyed = i + 1
                running, running_keys = _stabilizer(graph, extended, running_keys, running), extended
            gamma_tilde, order = running, running.order
        checks.append(
            CheckResult(
                "running-stabilizer-order",
                k,
                order == rec.stabilizer_order,
                f"inner {rec.index}: recomputed {order}, trace says {rec.stabilizer_order}",
            )
        )

        blocks_i = partitions[rec.index]
        checks.append(CheckResult("blocks-monochromatic", k, monochromatic(i), f"inner {rec.index}"))

        fixes = gamma_tilde is not None and moved_block(gamma_tilde, blocks_i) is None
        checks.append(CheckResult("running-stabilizer-fixes-blocks", k, fixes, f"inner {rec.index}"))

        checks.append(
            CheckResult(
                "fixing-set-size",
                k,
                len(rec.fixing_blocks) <= size_cap and len(rec.fixing_blocks) <= rec.size_bound,
                f"inner {rec.index}: {len(rec.fixing_blocks)} picks, caps {size_cap} and {rec.size_bound:g}",
            )
        )

        halving = not blocks_i or all(len(block) <= len(blocks_i[index[i][block[0]]]) / 2 for block in rec.fixing_blocks)
        checks.append(CheckResult("fixing-halves-parent", k, halving, f"inner {rec.index}"))

        # every offset is positive, so the replay changes exactly the
        # vertices of the fixing blocks
        before = {v: state[v] for block in rec.fixing_blocks for v in block}
        for offset, block in enumerate(rec.fixing_blocks, start=1):
            for v in block:
                state[v] = numeric(state[v].value + offset)
                recolour_counts[v] = recolour_counts.get(v, 0) + 1
        replayed = {(v, colour, state[v]) for v, colour in before.items()}
        checks.append(
            CheckResult(
                "recolour-deltas-match",
                k,
                replayed == set(rec.recoloured),
                f"inner {rec.index}",
            )
        )

        # only a block holding a recoloured vertex can change its least colour
        induced_ok = True
        for j, b in {(j, at[v]) for v in before for j, at in enumerate(index) if v in at}:
            colour = min(state[u] for u in partitions[j][b])
            if colour != least[j][b]:
                least[j][b] = colour
                induced_ok = induced_ok and j > i
                if j < keyed:
                    keyed = 0
        checks.append(CheckResult("induced-colours-stable", k, induced_ok, f"inner {rec.index}"))

    if partitions[-1]:
        checks.append(CheckResult("blocks-monochromatic", k, monochromatic(len(partitions) - 1), "finest partition"))

    limit = 1 + math.log2(delta)
    checks.append(
        CheckResult(
            "recolour-count-cap",
            k,
            all(count <= limit for count in recolour_counts.values()),
            f"max recolour count {max(recolour_counts.values(), default=0)}, cap {limit:g}",
        )
    )

    split_ok = True
    seen_blocks = []
    for split in step.splits:
        seen_blocks.append(split.block)
        flat = tuple(v for chunk in split.chunks for v in chunk)
        if flat != split.block:
            split_ok = False
        if any(len(chunk) > chunk_cap for chunk in split.chunks):
            split_ok = False
        if len(split.chunk_colours) != len(split.chunks):
            split_ok = False
        if split.chunk_colours[0] != state[split.block[0]]:
            split_ok = False
        for b, colour in enumerate(split.chunk_colours[1:], start=1):
            if colour.kind != "barred" or colour.value != b:
                split_ok = False
        if len(set(split.chunk_colours)) != len(split.chunk_colours):
            split_ok = False
    if tuple(seen_blocks) != partitions[-1]:
        split_ok = False
    checks.append(CheckResult("final-split", k, split_ok))

    final_state = dict(state)
    for split in step.splits:
        for chunk, colour in zip(split.chunks, split.chunk_colours):
            for v in chunk:
                final_state[v] = colour
    checks.append(
        CheckResult(
            "sphere-colours-match",
            k,
            tuple((v, final_state[v]) for v in step.next_sphere) == step.final_sphere_colours,
        )
    )
    return checks


def _stabilizer(graph, keys, previous, group):
    """``Aut(G, keys)``: ``group``, the audit's group of the keys
    ``previous`` (those of c_{k-1}, or of the previous inner index; None
    at k = 0), when the two are shown equal, else the audit's own
    :func:`~asymcolour.symmetry.coset_search`.

    If ``keys`` refine ``previous`` (every key occurs with one previous
    key), an automorphism preserving ``keys`` preserves ``previous``, so
    ``Aut(G, keys) <= Aut(G, previous) = group``; if also every generator
    of ``group`` preserves ``keys``, then ``group <= Aut(G, keys)``. If
    not, the search splits ``group``'s partition by ``keys``: every
    partition equitable and finer than ``keys`` is finer than it.
    """
    if group is not None and len(set(zip(keys, previous))) == len(set(keys)):
        return group if preserves(group, keys) else coset_search(graph, keys, group)
    return coset_search(graph, keys)


def summarize(checks: list[CheckResult]) -> dict[str, CheckResult]:
    """First failing result per check name, or the first result if all pass."""
    summary: dict[str, CheckResult] = {}
    for check in checks:
        if check.name not in summary or (summary[check.name].passed and not check.passed):
            summary[check.name] = check
    return summary


def all_passed(checks: list[CheckResult]) -> bool:
    return all(c.passed for c in checks)
