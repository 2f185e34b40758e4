"""The sphere-by-sphere symmetry-breaking colouring construction.

Starting from a colouring that marks only the root, each step colours the
next sphere: vertices are partitioned by their exact neighbourhoods into
the previous sphere's orbits, a small fixing set of partition classes gets
colour offsets so that preserving the colouring forces every class to be
fixed setwise, and finally every class is split into chunks of size at
most ceil(sqrt(max_degree)) using the barred palette. The stabilizer of
the result then has only small orbits inside the coloured ball.

Each inner index works in the stabilizer of the sphere's current colours,
with no induced block colour. Every step appends a trace record with the
orbits, partitions, chosen fixing sets and colour deltas, so the whole run
can be re-audited independently (see :mod:`asymcolour.audit`).
"""

from __future__ import annotations

import math
from functools import cache
from itertools import count

from .errors import GraphFormatError, InternalInvariantError, VertexRangeError
from .graphs import Graph, Record, distances, parse_int
from .symmetry import (
    DEFAULT_CAP,
    SGSGroup,
    coloured_automorphisms,
    format_permutation,
    minimal_fixing_set,
    moved_block,
    orbits,
    permutes_blocks,
)

_KINDS = ("root", "numeric", "barred", "far")
_KIND_RANK = {kind: rank for rank, kind in enumerate(_KINDS)}


class Colour(tuple):
    """One colour of the palette {root} | numeric 1,2,... | barred 1,2,... | far.

    A colour is the pair ``(rank, value)``, the rank of its kind in
    root, numeric, barred, far and its value, 0 for root and far.
    Hashing, equality and the order are the pair's, so they run in C:
    root < numeric(1) < numeric(2) < ... < barred(1) < ... < far.
    The order extends the numeric minimum the audit takes for induced
    block colours; during the inner loop only numeric colours occur on the
    active sphere, so the extension never changes an induced colour.
    """

    __slots__ = ()

    def __new__(cls, kind: str, value: int = 0):
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown colour kind {kind!r}")
        if kind in ("root", "far") and value != 0:
            raise ValueError(f"{kind} colour carries no value")
        if kind in ("numeric", "barred") and value < 1:
            raise ValueError(f"{kind} colour needs value >= 1, got {value}")
        return tuple.__new__(cls, (_KIND_RANK[kind], value))

    def __getnewargs__(self):
        return (self.kind, self.value)

    @property
    def kind(self) -> str:
        return _KINDS[self[0]]

    @property
    def value(self) -> int:
        return self[1]

    def token(self) -> str:
        rank, value = self
        kind = _KINDS[rank]
        if kind == "root":
            return "0"
        if kind == "far":
            return "inf"
        if kind == "barred":
            return f"b:{value}"
        return str(value)

    @classmethod
    def from_token(cls, token: str) -> "Colour":
        if token == "0":
            return ROOT
        if token == "inf":
            return FAR
        if token.startswith("b:"):
            return barred(parse_int(token[2:]))
        return numeric(parse_int(token))

    def __repr__(self):
        return f"Colour({self.token()!r})"


ROOT = Colour("root")
FAR = Colour("far")


@cache
def numeric(n: int) -> Colour:
    return Colour("numeric", n)


@cache
def barred(b: int) -> Colour:
    return Colour("barred", b)


class Colouring(Record):
    """A total colour assignment, plus the construction metadata.

    ``root`` and ``radius`` are set by the construction (radius k means
    exactly the vertices at distance > k are far-coloured); colourings
    parsed from files may carry ``None`` there.
    """

    __slots__ = ("colours", "root", "radius")

    def __init__(self, colours: tuple[Colour, ...], root: int | None = None, radius: int | None = None):
        object.__setattr__(self, "colours", colours)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "radius", radius)

    def __getitem__(self, v: int) -> Colour:
        return self.colours[v]

    def __len__(self) -> int:
        return len(self.colours)

    def max_numeric(self) -> int:
        """Largest numeric colour value used, 0 if none."""
        return max((c.value for c in self.colours if c.kind == "numeric"), default=0)

    def barred_values(self) -> set[int]:
        return {c.value for c in self.colours if c.kind == "barred"}


def serialize_colouring(colouring: Colouring) -> str:
    """One line per vertex: "v<TAB>token"."""
    return "".join(f"{v}\t{c.token()}\n" for v, c in enumerate(colouring.colours))


def parse_colouring(text: str) -> Colouring:
    """Parse the per-vertex colour file; every vertex must appear exactly once."""
    assigned: dict[int, Colour] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"expected 'vertex<TAB>colour', got {line!r}", line=lineno)
        try:
            v = parse_int(fields[0])
            colour = Colour.from_token(fields[1])
        except ValueError as exc:
            raise GraphFormatError(str(exc), line=lineno) from None
        if v < 0:
            raise GraphFormatError(f"vertex {v} is negative", line=lineno)
        if v in assigned:
            raise GraphFormatError(f"vertex {v} coloured twice", line=lineno)
        assigned[v] = colour
    if not assigned:
        raise GraphFormatError("empty colouring")
    # the vertices are distinct and non-negative, so they are 0..n-1
    # exactly when the largest is n - 1; nothing is sized by the largest
    n = len(assigned)
    if max(assigned) != n - 1:
        missing = next(v for v in count() if v not in assigned)
        raise GraphFormatError(f"vertex {missing} has no colour")
    colours = tuple(assigned[v] for v in range(n))
    roots = [v for v, c in enumerate(colours) if c == ROOT]
    return Colouring(colours, root=roots[0] if len(roots) == 1 else None)


def ceil_sqrt(delta: int) -> int:
    if delta < 1:
        raise ValueError(f"max degree must be >= 1, got {delta}")
    return math.isqrt(delta - 1) + 1


class ColourBudget(Record):
    """Colour bounds as functions of the maximal degree.

    ``total`` bounds the number of distinct colours; ``numeric`` bounds the
    largest numeric colour value the construction can produce.
    """

    __slots__ = ("total", "numeric")

    def __init__(self, total: float, numeric: float):
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "numeric", numeric)


def colour_bound(delta: int) -> ColourBudget:
    """1 + (5/2 + 3/2 log2 d) ceil(sqrt d) total colours; the numeric
    values stay below 1 + (1 + log2 d) ceil(3 ceil(sqrt d) / 2). Raises
    ValueError when either bound is not a finite float (d from about
    3.5·10^609 on)."""
    if delta < 1:
        raise ValueError(f"max degree must be >= 1, got {delta}")
    s = ceil_sqrt(delta)
    log = math.log2(delta)
    try:
        budget = ColourBudget(1.0 + (2.5 + 1.5 * log) * s, 1.0 + (1.0 + log) * math.ceil(3 * s / 2))
    except OverflowError:
        budget = ColourBudget(math.inf, math.inf)
    if not (math.isfinite(budget.total) and math.isfinite(budget.numeric)):
        raise ValueError(f"the colour bound of a {delta.bit_length()}-bit max degree overflows a float")
    return budget


def initial_colouring(graph: Graph, root: int) -> Colouring:
    """Radius-0 colouring: the root alone gets the root colour, everything
    else is far."""
    if not (0 <= root < graph.n):
        raise VertexRangeError(f"root {root} outside 0..{graph.n - 1}")
    colours = tuple(ROOT if v == root else FAR for v in range(graph.n))
    return Colouring(colours, root=root, radius=0)


def neighbourhood_refinement(graph: Graph, next_sphere, orbit_list) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Nested partitions of the next sphere by exact neighbourhoods.

    The first partition has the whole sphere as one block; partition i
    refines partition i-1 by the exact neighbour set inside the i-th orbit
    of the previous sphere. Blocks are ordered by minimum vertex.
    """
    next_sphere = tuple(sorted(next_sphere))
    current: tuple[tuple[int, ...], ...] = (next_sphere,) if next_sphere else ()
    result = [current]
    for orbit in orbit_list:
        orbit_set = frozenset(orbit)
        refined: list[tuple[int, ...]] = []
        for block in current:
            groups: dict[frozenset[int], list[int]] = {}
            for v in block:
                groups.setdefault(graph.neighbours(v) & orbit_set, []).append(v)
            refined.extend(tuple(vs) for vs in groups.values())
        current = tuple(sorted(refined, key=lambda b: b[0]))
        result.append(current)
    return tuple(result)


class InnerStep(Record):
    """Record of one inner refinement index: which classes got offsets."""

    __slots__ = ("index", "acting_orbit", "stabilizer_order", "size_bound", "fixing_blocks", "recoloured")

    def __init__(
        self,
        index: int,
        acting_orbit: tuple[int, ...],
        stabilizer_order: int,
        size_bound: float,
        fixing_blocks: tuple[tuple[int, ...], ...],
        recoloured: tuple[tuple[int, Colour, Colour], ...],
    ):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "acting_orbit", acting_orbit)
        object.__setattr__(self, "stabilizer_order", stabilizer_order)
        object.__setattr__(self, "size_bound", size_bound)
        object.__setattr__(self, "fixing_blocks", fixing_blocks)
        object.__setattr__(self, "recoloured", recoloured)


class ClassSplit(Record):
    """Record of the final split of one finest-partition class."""

    __slots__ = ("block", "chunks", "chunk_colours")

    def __init__(self, block: tuple[int, ...], chunks: tuple[tuple[int, ...], ...], chunk_colours: tuple[Colour, ...]):
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "chunks", chunks)
        object.__setattr__(self, "chunk_colours", chunk_colours)


class StepTrace(Record):
    """Everything step k did while colouring sphere k+1."""

    __slots__ = ("k", "sphere", "next_sphere", "orbit_list", "partitions", "inner", "splits", "final_sphere_colours")

    def __init__(
        self,
        k: int,
        sphere: tuple[int, ...],
        next_sphere: tuple[int, ...],
        orbit_list: tuple[tuple[int, ...], ...],
        partitions: tuple[tuple[tuple[int, ...], ...], ...],
        inner: tuple[InnerStep, ...],
        splits: tuple[ClassSplit, ...],
        final_sphere_colours: tuple[tuple[int, Colour], ...],
    ):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "sphere", sphere)
        object.__setattr__(self, "next_sphere", next_sphere)
        object.__setattr__(self, "orbit_list", orbit_list)
        object.__setattr__(self, "partitions", partitions)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "final_sphere_colours", final_sphere_colours)


STABILIZER_EMBED_LIMIT = 120

# the sphere the per-step orbits are taken on: always the previous one, the
# one already coloured, as the construction's own bookkeeping forces
ORBIT_DOMAIN = "previous-sphere"


class RefinementTrace(Record):
    """Full record of a run, sufficient to re-audit every invariant.

    The residual symmetry after the last step is embedded as an explicit
    element list when it is small enough to print.
    """

    __slots__ = ("root", "horizon", "max_degree", "bound_mode", "stabilizer_orders", "steps", "final_stabilizer")

    def __init__(
        self,
        root: int,
        horizon: int,
        max_degree: int,
        bound_mode: str,
        stabilizer_orders: tuple[int, ...],
        steps: tuple[StepTrace, ...],
        final_stabilizer: tuple[tuple[int, ...], ...] | None = None,
    ):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "max_degree", max_degree)
        object.__setattr__(self, "bound_mode", bound_mode)
        object.__setattr__(self, "stabilizer_orders", stabilizer_orders)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "final_stabilizer", final_stabilizer)


BOUND_MODES = ("csg", "elementary")


def _fixing_size_bound(m: int, bound_mode: str) -> float:
    """Cap on the fixing-set length for an acting orbit of size m.

    "csg" uses the classification-backed subgroup-chain bound ceil(3m/2);
    "elementary" uses the weaker m*log2(m) estimate that only needs
    Lagrange's theorem.
    """
    if bound_mode == "csg":
        return math.ceil(3 * m / 2)
    if bound_mode == "elementary":
        return m * math.log2(m) if m > 1 else 0.0
    raise ValueError(f"unknown bound mode {bound_mode!r}")


def split_into_chunks(block, chunk_cap: int) -> tuple[tuple[int, ...], ...]:
    """Split a sorted class into up to chunk_cap + 1 chunks of size at most
    chunk_cap, as evenly as possible, in vertex order.

    Using one chunk more than the barred palette would suggest costs
    nothing (the first chunk keeps its colour) and separates classes of
    size up to chunk_cap + 1 completely.
    """
    block = tuple(sorted(block))
    count = min(len(block), chunk_cap + 1)
    base, extra = divmod(len(block), count)
    chunks = []
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        chunks.append(block[start:start + size])
        start += size
    return tuple(chunks)


def extend_colouring(
    graph: Graph,
    sphere_k: tuple[int, ...],
    next_sphere: tuple[int, ...],
    colouring: Colouring,
    stabilizer: SGSGroup,
    *,
    bound_mode: str = "csg",
) -> tuple[Colouring, StepTrace]:
    """One construction step: colour the next sphere.

    ``sphere_k`` and ``next_sphere`` are the sorted vertices at distance
    k and k+1 from the root, where k is the colouring's radius.
    ``stabilizer`` must be the stabilizer of ``colouring`` in the graph's
    automorphism group, ``coloured_automorphisms(graph, colouring)`` as
    :func:`run` holds it. Every group of the step is the stabilizer of a
    finer colouring, found by coloured search. Returns the extended
    colouring (radius k+1, equal to the input on the current ball) and
    the step's trace record.

    The running stabilizer at index i keeps, by definition, the least
    colour of every block of partitions 0..i. As ``stabilizer`` permutes
    those blocks and each block of partition i has one colour, that is
    the stabilizer of the sphere's colours. The recolouring at index i
    keeps the least colours of partitions 0..i (the audit's
    ``induced-colours-stable``), so the running groups only shrink and
    each is taken from the last.
    Every guard reads generators, so each search is a running
    stabilizer, whose order the trace records, or picks a fixing set.
    """
    k = colouring.radius
    if k is None:
        raise ValueError("colouring has no radius; use a construction colouring")
    root = colouring.root
    delta = graph.max_degree
    chunk_cap = ceil_sqrt(delta)
    if not next_sphere:
        raise ValueError(f"no vertices at distance {k + 1} from root {root}")

    orbit_list = orbits(stabilizer, sphere_k)
    partitions = neighbourhood_refinement(graph, next_sphere, orbit_list)

    state = list(colouring.colours)
    for v in next_sphere:
        state[v] = numeric(1)
    gamma_tilde = stabilizer
    inner_records = []
    for i in range(len(orbit_list)):
        # partition i is first used here, so each is checked once
        if not permutes_blocks(stabilizer, partitions[i]):
            raise InternalInvariantError("stabilizer element does not permute a refinement partition")
        if any(state[v] != state[block[0]] for block in partitions[i] for v in block):
            raise InternalInvariantError(f"a block of partition {i} is not of one colour")
        gamma_tilde = gamma_tilde.stabilizer(state)
        # the size bound needs the pointwise stabilizer of the acting
        # orbit to fix every block of partition i+1; it does when
        # gamma_tilde fixes partition i's blocks, as it then maps each
        # vertex into its block, to one with the same neighbours in the
        # orbit. gamma_tilde fixes index i-1's fixing blocks, and so all
        # of partition i: their offsets tell them apart inside parent
        # blocks of one colour, which it fixes by induction
        if moved_block(gamma_tilde, partitions[i]) is not None:
            raise InternalInvariantError(f"running stabilizer moves a block of partition {i}")
        acting_orbit = orbit_list[i]
        size_bound = _fixing_size_bound(len(acting_orbit), bound_mode)
        fixing = minimal_fixing_set(gamma_tilde, partitions[i + 1], size_bound)

        deltas = []
        for offset, block in enumerate(fixing, start=1):
            for v in block:
                old = state[v]
                new = numeric(old.value + offset)
                state[v] = new
                deltas.append((v, old, new))
        inner_records.append(
            InnerStep(
                index=i,
                acting_orbit=acting_orbit,
                stabilizer_order=gamma_tilde.order,
                size_bound=size_bound,
                fixing_blocks=fixing,
                recoloured=tuple(deltas),
            )
        )

    splits = []
    for block in partitions[-1]:
        if len(block) > delta:
            raise InternalInvariantError(f"finest class {block} is larger than the maximal degree")
        chunks = split_into_chunks(block, chunk_cap)
        chunk_colours = [state[chunks[0][0]]]
        for b, chunk in enumerate(chunks[1:], start=1):
            colour = barred(b)
            chunk_colours.append(colour)
            for v in chunk:
                state[v] = colour
        splits.append(ClassSplit(block=block, chunks=chunks, chunk_colours=tuple(chunk_colours)))

    trace = StepTrace(
        k=k,
        sphere=sphere_k,
        next_sphere=next_sphere,
        orbit_list=orbit_list,
        partitions=partitions,
        inner=tuple(inner_records),
        splits=tuple(splits),
        final_sphere_colours=tuple((v, state[v]) for v in next_sphere),
    )
    return Colouring(tuple(state), root=root, radius=k + 1), trace


def run(
    graph: Graph,
    root: int,
    horizon: int | None = None,
    *,
    bound_mode: str = "csg",
    cap: int = DEFAULT_CAP,
) -> tuple[Colouring, RefinementTrace]:
    """Run the construction from the root out to the given horizon.

    The default horizon is the root's eccentricity, after which no vertex
    is far-coloured. The colouring stabilizer is held by a base and strong
    generating set: it starts as ``Aut(G, c_0)`` and after every step is
    the subgroup preserving the new colouring, found by coloured search.
    No element list of ``Aut(G)`` is built; ``cap`` bounds only the
    embedded final stabilizer, which is listed when it has at most
    ``STABILIZER_EMBED_LIMIT`` elements.
    """
    if bound_mode not in BOUND_MODES:
        raise ValueError(f"unknown bound mode {bound_mode!r}")
    dist = distances(graph, root)
    spheres: list[list[int]] = [[] for _ in range(max(dist) + 1)]
    for v, d in enumerate(dist):
        spheres[d].append(v)
    ecc = len(spheres) - 1
    if horizon is None:
        horizon = ecc
    if horizon < 0 or horizon > ecc:
        raise ValueError(f"horizon {horizon} outside 0..{ecc} (eccentricity of root {root})")

    colouring = initial_colouring(graph, root)
    stabilizer = coloured_automorphisms(graph, colouring)
    orders = [stabilizer.order]
    steps = []
    for k in range(horizon):
        colouring, step = extend_colouring(
            graph, tuple(spheres[k]), tuple(spheres[k + 1]), colouring, stabilizer, bound_mode=bound_mode
        )
        stabilizer = stabilizer.stabilizer(colouring)
        orders.append(stabilizer.order)
        steps.append(step)

    trace = RefinementTrace(
        root=root,
        horizon=horizon,
        max_degree=graph.max_degree,
        bound_mode=bound_mode,
        stabilizer_orders=tuple(orders),
        steps=tuple(steps),
        final_stabilizer=stabilizer.enumerate(cap).elements if stabilizer.order <= STABILIZER_EMBED_LIMIT else None,
    )
    return colouring, trace


def _fmt_block(block) -> str:
    return "{" + ",".join(map(str, block)) + "}"


def serialize_trace(trace: RefinementTrace) -> str:
    """Deterministic line-oriented trace report, one section per step and
    inner index."""
    lines = [
        "trace-format 1",
        f"root {trace.root}",
        f"horizon {trace.horizon}",
        f"max-degree {trace.max_degree}",
        f"bound-mode {trace.bound_mode}",
        f"orbit-domain {ORBIT_DOMAIN}",
        "stabilizer-orders " + " ".join(str(o) for o in trace.stabilizer_orders),
    ]
    for step in trace.steps:
        lines.append(f"step {step.k}")
        lines.append(f"sphere {_fmt_block(step.sphere)}")
        lines.append(f"next-sphere {_fmt_block(step.next_sphere)}")
        lines.append("orbits " + (" ".join(_fmt_block(a) for a in step.orbit_list) or "none"))
        for i, blocks in enumerate(step.partitions):
            lines.append(f"partition {i} " + (" ".join(_fmt_block(b) for b in blocks) or "none"))
        for rec in step.inner:
            fixing = " ".join(
                f"{_fmt_block(block)}:{offset}" for offset, block in enumerate(rec.fixing_blocks, start=1)
            )
            lines.append(
                f"inner {rec.index} acting-orbit {_fmt_block(rec.acting_orbit)} "
                f"stabilizer-order {rec.stabilizer_order} size-bound {rec.size_bound:g} "
                f"fixing-set {fixing or 'none'}"
            )
            recolour = " ".join(f"{v}:{old.token()}->{new.token()}" for v, old, new in rec.recoloured)
            lines.append(f"recolour {recolour or 'none'}")
        for split in step.splits:
            chunks = "|".join(_fmt_block(c) for c in split.chunks)
            colours = "|".join(c.token() for c in split.chunk_colours)
            lines.append(f"split {_fmt_block(split.block)} chunks {chunks} colours {colours}")
        lines.append(
            "sphere-colours " + " ".join(f"{v}:{c.token()}" for v, c in step.final_sphere_colours)
        )
        lines.append("end-step")
    if trace.final_stabilizer is None:
        lines.append(f"final-stabilizer omitted order {trace.stabilizer_orders[-1]}")
    else:
        lines.append(f"final-stabilizer order {len(trace.final_stabilizer)}")
        lines.extend("perm " + format_permutation(p) for p in trace.final_stabilizer)
    return "\n".join(lines) + "\n"
