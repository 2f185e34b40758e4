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
an earlier index again, so on any trace they equal the definition.

Each step pays only for what it changes. One pass over its partitions
checks their nesting and class sizes, finds the first one the c_k group
does not permute, and builds one index per partition that tells which of
its blocks holds a vertex; a partition equal to the one before it shares
that index and those answers. While nothing has been recoloured, every
block is all ``numeric(1)``: the running keys append ``numeric(1)`` per
block, and no block is read for its colours. An inner record with no
fixing blocks recolours nothing, so it settles ``fixing-halves-parent``,
``recolour-deltas-match`` and ``induced-colours-stable`` without reading
a block; after a recolouring, the checks on the replayed colours read
only the blocks that hold a recoloured vertex. A group without
generators has one-point orbits, preserves every key and fixes every
block, so its block tests and orbit scans are not run. Details are
formatted when first read. A malformed record fails its check instead
of raising: a partition vertex in no block of the partition before, a
fixing block outside the next sphere, a split without chunk colours, an
inner index outside the partitions.

The construction takes the same groups as stabilizers of the sphere's own
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
from itertools import chain

from .colouring import (
    Colour,
    Colouring,
    FAR,
    ROOT,
    RefinementTrace,
    barred,
    ceil_sqrt,
    colour_bound,
    initial_colouring,
    numeric,
)
from .graphs import Graph, Record, distances
from .symmetry import PermGroup, coset_search, moved_block, orbits, permutes_blocks, preserves

# the colour every vertex of the next sphere starts a step's replay at, and
# the running-key entry of a block of that colour
_ONE = numeric(1)
_ONE_KEY = (_ONE,)


def induced_colouring(colours, partition) -> tuple[Colour, ...]:
    """Per-block colour: the minimum vertex colour in each block."""
    return tuple(min(colours[v] for v in block) for block in partition)


class _Deferred(Record):
    """The slot of a check detail that is formatted on its first read."""

    __slots__ = ("_format",)


class CheckResult(_Deferred):
    """One check's verdict; unlike the other records it stays mutable,
    so it has no hash. The audit builds most details with :func:`_later`,
    which leaves ``detail`` unset until it is first read."""

    __slots__ = ("name", "step", "passed", "detail")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, name: str, step: int | None, passed: bool, detail: str = ""):
        self.name = name
        self.step = step
        self.passed = passed
        self.detail = detail

    def __getattr__(self, attr):
        # reached only for an unset slot
        if attr != "detail":
            raise AttributeError(attr)
        template, *args = self._format
        self.detail = template.format(*args)
        return self.detail

    def label(self) -> str:
        where = f" (step {self.step})" if self.step is not None else ""
        return f"{self.name}{where}"


def _later(name: str, step: int | None, passed: bool, *detail) -> CheckResult:
    """A check whose detail, ``template.format(*args)`` for ``detail =
    (template, *args)``, is formatted when it is first read. The args are
    taken now, so a later change to the variables they came from does not
    reach the text."""
    check = object.__new__(CheckResult)
    check.name = name
    check.step = step
    check.passed = passed
    check._format = detail
    return check


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
    touched = range(graph.n)
    keys = group = None
    for k in range(len(trace.steps) + 1):
        if k > 0:
            # c_{k-1} is c_k with the old colours of the recoloured sphere.
            # Sphere k is touched at every k; an honest step recolours it
            # alone, so a recoloured vertex joins touched only from elsewhere
            ok_restrict = True
            touched = spheres[k]
            for v, colour in trace.steps[k - 1].final_sphere_colours:
                if dist[v] != k:
                    if dist[v] < k and colours[v] != colour:
                        ok_restrict = False
                    touched = touched + [v]
                colours[v] = colour
            checks.append(CheckResult("inner-ball-preserved", k, ok_restrict))
        # an automorphism preserving c_k fixes the uniquely coloured root (see
        # root-colour-unique), so it preserves the distance from the root too
        previous, keys = keys, list(zip(colours, dist))
        before, group = group, _stabilizer(graph, keys, previous, group)
        if k < len(trace.stabilizer_orders):
            recorded = trace.stabilizer_orders[k]
            checks.append(
                _later(
                    "stabilizer-order-recorded",
                    k,
                    group.order == recorded,
                    "recomputed order {}, trace says {}",
                    group.order,
                    recorded,
                )
            )
        for v in touched:
            if (colours[v] == ROOT) != (v == root):
                wrong_root.add(v)
            else:
                wrong_root.discard(v)
            if (colours[v] == FAR) != (dist[v] > k):
                wrong_far.add(v)
            else:
                wrong_far.discard(v)
        checks.append(CheckResult("root-colour-unique", k, not wrong_root))
        checks.append(CheckResult("far-matches-distance", k, not wrong_far))
        # the group keeps the distance from the root, so the ball's orbits
        # are its spheres' orbits; a group kept from k-1 keeps its largest
        if not group.generators:
            # every orbit is one point, and the ball holds the root
            sphere_orbits = tuple((v,) for v in spheres[k])
            largest = 1
        else:
            if group is not before:
                largest = max(map(len, orbits(group, ball)), default=0)
            sphere_orbits = orbits(group, spheres[k])
            largest = max([largest, *map(len, sphere_orbits)])
        ball += spheres[k]
        checks.append(
            _later(
                "ball-orbits-small",
                k,
                largest <= chunk_cap,
                "largest orbit {} > ceil(sqrt({})) = {}",
                largest,
                delta,
                chunk_cap,
            )
        )
        if k > 0:
            checks.append(CheckResult("stabilizer-monotone", k, preserves(group, previous)))
        if k < len(trace.steps):
            _audit_step(checks, graph, trace.steps[k], sphere_orbits, keys, group, delta)

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
        _later(
            "colour-count", None, len(used) <= budget.total, "{} distinct colours, bound {:g}", len(used), budget.total
        )
    )
    checks.append(
        _later(
            "max-numeric",
            None,
            max_numeric <= budget.numeric,
            "max numeric {}, bound {:g}",
            max_numeric,
            budget.numeric,
        )
    )
    checks.append(
        _later(
            "barred-palette",
            None,
            all(b <= chunk_cap for b in barred_values),
            "barred values {} exceed {}",
            sorted(barred_values),
            chunk_cap,
        )
    )
    return checks


def _audit_step(checks, graph, step, sphere_orbits, keys, stabilizer, delta):
    """Recheck step k against ``stabilizer``, the group of c_k that the
    pass of :func:`audit_run` at k took, by the vertex keys ``keys``,
    (colour, distance from the root), that the running stabilizers extend,
    and append the results to ``checks``. ``sphere_orbits`` are that
    group's orbits on sphere k.

    A step pays for what it changes. While no inner record has recoloured
    a vertex, every block is all ``numeric(1)``: no block is read for its
    colours, and an inner record with no fixing blocks settles its three
    recolouring checks without reading one. A group without generators
    fixes every block, so the block tests are not called for it.
    """
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

    # one pass over the partitions: partitions-nested, class-sizes, the
    # first partition the stabilizer does not permute, and index[j][v], the
    # block of partition j that holds v. A partition equal to the one
    # before it shares its index and its answers.
    partitions = step.partitions
    nested = partitions[:1] == ((step.next_sphere,) if step.next_sphere else (),)
    sizes_ok = True
    permuted = len(partitions)
    index: list[dict[int, int]] = []
    at: dict[int, int] = {}
    large = 0
    for i, blocks in enumerate(partitions):
        if i == 0 or blocks != partitions[i - 1]:
            outer, at = at, {}
            large = 0
            for b, block in enumerate(blocks):
                if len(block) > delta:
                    large += 1
                for v in block:
                    at[v] = b
                if i and nested:
                    parent = outer.get(block[0]) if block else None
                    if parent is None or any(outer.get(v) != parent for v in block):
                        nested = False
            if large > 1:
                sizes_ok = False
            if permuted == len(partitions) and stabilizer.generators and not permutes_blocks(stabilizer, blocks):
                permuted = i
        index.append(at)
    checks.append(CheckResult("partitions-nested", k, nested))
    # large now counts the finest partition's oversized blocks
    checks.append(CheckResult("class-sizes", k, sizes_ok and not large))
    # the running stabilizers are taken by vertex keys, which is sound only
    # for partitions whose blocks every element of the stabilizer permutes
    checks.append(
        _later(
            "stabilizer-permutes-partitions",
            k,
            permuted == len(partitions),
            "a stabilizer generator does not permute the blocks of partition {}",
            permuted,
        )
    )

    # replay the inner loop against recomputed running stabilizers, each
    # kept from the previous inner index's group or searched; the chain
    # starts at c_k's keys and group
    running_keys, running = keys, stabilizer
    state = dict.fromkeys(step.next_sphere, _ONE)
    # the vertices the replay has recoloured, and how often
    recolour_counts: dict[int, int] = {}
    size_cap = math.ceil(3 * chunk_cap / 2)
    # least[j][b] is the least colour under state of block b of partition
    # j, built at the first recolouring: until then every block is all
    # numeric(1), the colour the replay starts the next sphere at, and a
    # block outside it reads as numeric(1) too. Only a block holding a
    # recoloured vertex changes its least colour. The running keys hold the
    # least colours of partitions 0..keyed-1.
    least = None
    keyed = 0

    for rec in step.inner:
        i = rec.index
        where = f"inner {i}"
        has_partition = 0 <= i < len(partitions)
        checks.append(
            CheckResult(
                "acting-orbit-match",
                k,
                0 <= i < len(step.orbit_list) and rec.acting_orbit == step.orbit_list[i],
                where,
            )
        )
        if not has_partition:
            gamma_tilde, order = None, f"none (no partition {i})"
        elif i >= permuted:
            gamma_tilde, order = None, "none (the stabilizer does not permute the partitions)"
        else:
            # every running key extends the c_k key, so a trivial c_k group
            # is every running group. The keys at i are those at the last
            # index taken with partitions keyed..i appended: each vertex's
            # key is its c_k key and the least colour of each block holding
            # it in partitions 0..i. They are rebuilt from the c_k keys
            # (keyed = 0) when an earlier partition's least colour changed.
            if stabilizer.generators:
                # an earlier index again, which only a reordered trace has
                if i + 1 < keyed:
                    keyed = 0
                extended = (running_keys if keyed else keys)[:]
                for j in range(keyed, i + 1):
                    if least is None:
                        for block in partitions[j]:
                            for v in block:
                                extended[v] += _ONE_KEY
                    else:
                        for block, colour in zip(partitions[j], least[j]):
                            for v in block:
                                extended[v] += (colour,)
                keyed = i + 1
                running, running_keys = _stabilizer(graph, extended, running_keys, running), extended
            gamma_tilde, order = running, running.order
        checks.append(
            _later(
                "running-stabilizer-order",
                k,
                order == rec.stabilizer_order,
                "{}: recomputed {}, trace says {}",
                where,
                order,
                rec.stabilizer_order,
            )
        )

        blocks_i = partitions[i] if has_partition else ()
        index_i = index[i] if has_partition else {}
        checks.append(
            CheckResult(
                "blocks-monochromatic",
                k,
                not recolour_counts or _monochromatic(blocks_i, index_i, state, recolour_counts),
                where,
            )
        )
        fixes = gamma_tilde is not None and (not gamma_tilde.generators or moved_block(gamma_tilde, blocks_i) is None)
        checks.append(CheckResult("running-stabilizer-fixes-blocks", k, fixes, where))

        fixing = rec.fixing_blocks
        checks.append(
            _later(
                "fixing-set-size",
                k,
                len(fixing) <= size_cap and len(fixing) <= rec.size_bound,
                "{}: {} picks, caps {} and {:g}",
                where,
                len(fixing),
                size_cap,
                rec.size_bound,
            )
        )
        if not fixing:
            # nothing is recoloured, so no block changes its colour
            checks.append(CheckResult("fixing-halves-parent", k, True, where))
            checks.append(CheckResult("recolour-deltas-match", k, not rec.recoloured, where))
            checks.append(CheckResult("induced-colours-stable", k, True, where))
            continue

        # a fixing block must lie in a block of partition i
        halving = not blocks_i or all(
            block and block[0] in index_i and len(block) <= len(blocks_i[index_i[block[0]]]) / 2 for block in fixing
        )
        checks.append(CheckResult("fixing-halves-parent", k, halving, where))

        # every offset is positive, so the replay changes exactly the
        # vertices of the fixing blocks; one outside the next sphere is
        # not replayed, and its record cannot match
        before: dict[int, Colour] = {}
        inside = True
        for offset, block in enumerate(fixing, start=1):
            for v in block:
                if v not in state:
                    inside = False
                    continue
                before.setdefault(v, state[v])
                state[v] = numeric(state[v].value + offset)
                recolour_counts[v] = recolour_counts.get(v, 0) + 1
        replayed = {(v, colour, state[v]) for v, colour in before.items()}
        checks.append(CheckResult("recolour-deltas-match", k, inside and replayed == set(rec.recoloured), where))

        # only a block holding a recoloured vertex can change its least colour
        if least is None:
            least = [[_ONE] * len(blocks) for blocks in partitions]
        induced_ok = True
        for j, b in {(j, at_j[v]) for v in before for j, at_j in enumerate(index) if v in at_j}:
            colour = min(state.get(u, _ONE) for u in partitions[j][b])
            if colour != least[j][b]:
                least[j][b] = colour
                induced_ok = induced_ok and j > i
                if j < keyed:
                    keyed = 0
        checks.append(CheckResult("induced-colours-stable", k, induced_ok, where))

    if partitions and partitions[-1]:
        mono = not recolour_counts or _monochromatic(partitions[-1], index[-1], state, recolour_counts)
        checks.append(CheckResult("blocks-monochromatic", k, mono, "finest partition"))

    limit = 1 + math.log2(delta)
    most = max(recolour_counts.values(), default=0)
    checks.append(_later("recolour-count-cap", k, most <= limit, "max recolour count {}, cap {:g}", most, limit))

    # the first chunk keeps the block's replayed colour and the others take
    # barred(1), barred(2), ...: distinct colours, as the replay's are
    # numeric
    finest = partitions[-1] if partitions else ()
    split_ok = tuple(split.block for split in step.splits) == finest
    for split in step.splits:
        chunks, chunk_colours = split.chunks, split.chunk_colours
        if (
            not split.block
            or tuple(chain.from_iterable(chunks)) != split.block
            or len(chunk_colours) != len(chunks)
            or max(map(len, chunks)) > chunk_cap
            or chunk_colours[0] != state.get(split.block[0], _ONE)
            or chunk_colours[1:] != tuple(map(barred, range(1, len(chunks))))
        ):
            split_ok = False
    checks.append(CheckResult("final-split", k, split_ok))

    for split in step.splits:
        for chunk, colour in zip(split.chunks, split.chunk_colours):
            for v in chunk:
                state[v] = colour
    sphere_colours = tuple(zip(step.next_sphere, map(state.__getitem__, step.next_sphere)))
    checks.append(CheckResult("sphere-colours-match", k, sphere_colours == step.final_sphere_colours))


def _monochromatic(blocks, index, state, recoloured) -> bool:
    """Whether every block has one colour under ``state``, where
    ``index[v]`` is the block that holds v. A block that holds no
    recoloured vertex is still all ``numeric(1)``, so only the blocks that
    hold one are read."""
    read = {index[v] for v in recoloured if v in index}
    return all(len({state.get(u, _ONE) for u in blocks[b]}) == 1 for b in read)


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
