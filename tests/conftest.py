import contextlib
import itertools
import signal
from collections import deque
from operator import itemgetter

import pytest
from hypothesis import strategies as st

from asymcolour import build_graph, colouring, induced_colouring, symmetry
from asymcolour.symmetry import PermGroup, compose, identity_perm, invert, is_permutation


def brute_automorphisms(graph, colouring=None):
    """Independent oracle: filter all |V|! bijections by full adjacency
    preservation (both directions, every vertex pair)."""
    found = []
    for p in itertools.permutations(range(graph.n)):
        if colouring is not None and any(colouring[p[v]] != colouring[v] for v in range(graph.n)):
            continue
        if all(
            graph.has_edge(p[u], p[v]) == graph.has_edge(u, v)
            for u in range(graph.n)
            for v in range(u + 1, graph.n)
        ):
            found.append(p)
    return sorted(found)


def partitions_with_classes(n: int, classes: int):
    """Reference enumeration of the labellings ``dnumber`` searches: all
    surjective colourings of 0..n-1 with exactly the given number of
    colour classes, one representative per colour renaming.

    Enumerated as restricted growth strings in lexicographic order: class
    labels appear in first-use order, which quotients out colour
    permutations exactly. Vertex 0 always has label 0, pinning one orbit
    representative's colour. Each string is the previous one with its
    rightmost label that can grow increased, and the labels after it
    reset to the least completion that still uses every class.
    """
    if not 1 <= classes <= n:
        return
    labels = [0] * (n - classes + 1) + list(range(1, classes))
    while True:
        yield tuple(labels)
        peak = list(itertools.accumulate(labels, max))  # peak[i] is the largest of labels[:i + 1]
        for i in range(n - 1, 0, -1):
            grown = labels[i] + 1
            top = max(peak[i - 1], grown)
            # a label exceeds every earlier one by at most 1, and the labels
            # after it must leave room for every class above the top one
            if grown <= peak[i - 1] + 1 and grown < classes and n - 1 - i >= classes - 1 - top:
                break
        else:
            return
        labels[i] = grown
        labels[i + 1:] = [0] * (n - 1 - i - (classes - 1 - top)) + list(range(top + 1, classes))


def first_asymmetric_mask(graph):
    """Reference for the motion lemma's 2-colouring search: the first mask,
    counting up from 0, whose 2-colouring gives vertex 0 the label 0 and
    vertex i + 1 the label of bit i, and that no nontrivial automorphism
    of :func:`brute_automorphisms` preserves; None if there is none."""
    n = graph.n
    nontrivial = [p for p in brute_automorphisms(graph) if p != identity_perm(n)]
    for mask in range(2 ** (n - 1)):
        labels = (0,) + tuple((mask >> i) & 1 for i in range(n - 1))
        if not any(all(labels[p[v]] == labels[v] for v in range(n)) for p in nontrivial):
            return mask
    return None


def group_of_elements(degree, elements) -> PermGroup:
    """The group of an element list, the identity added; raises
    ``ValueError`` on a tuple that is not a permutation of 0..degree-1.
    Closure is not checked (see :func:`validate_group`)."""
    elements = sorted({tuple(p) for p in elements} | {identity_perm(degree)})
    for p in elements:
        if len(p) != degree or not is_permutation(p):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
    return PermGroup(degree, tuple(elements))


def trivial_group(degree) -> PermGroup:
    return PermGroup(degree, (identity_perm(degree),))


def symmetric_group(degree) -> PermGroup:
    return PermGroup(degree, tuple(itertools.permutations(range(degree))))


def validate_group(group) -> None:
    """Check the full group axioms on an element list; quadratic in the
    order. Raises ``ValueError`` naming the first axiom that fails."""
    members = set(group.elements)
    if identity_perm(group.degree) not in members:
        raise ValueError("identity missing")
    if len(members) != len(group.elements):
        raise ValueError("duplicate elements")
    if tuple(sorted(group.elements)) != group.elements:
        raise ValueError("elements not sorted")
    for p in group.elements:
        if invert(p) not in members:
            raise ValueError(f"inverse of {p} missing")
        for q in group.elements:
            if compose(p, q) not in members:
                raise ValueError(f"product of {p} and {q} missing")


def vf2_automorphisms(graph, keys=None):
    """Second independent oracle: networkx's VF2 matcher, listing the
    isomorphisms of the graph onto itself that preserve the vertex keys."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    g = nx.Graph()
    g.add_nodes_from((v, {"key": None if keys is None else keys[v]}) for v in range(graph.n))
    g.add_edges_from(graph.edges())
    matcher = GraphMatcher(g, g, node_match=lambda a, b: a["key"] == b["key"])
    return sorted(tuple(m[v] for v in range(graph.n)) for m in matcher.isomorphisms_iter())


def paley(q):
    """The Paley graph of a prime q = 1 mod 4: the residues mod q, adjacent
    when their difference is a nonzero square. Strongly regular, so 1-WL
    splits nothing; its automorphisms are the maps x -> a*x + b with a a
    nonzero square, q(q-1)/2 of them."""
    squares = {x * x % q for x in range(1, q)}
    return build_graph(q, [(u, v) for u in range(q) for v in range(u + 1, q) if (v - u) % q in squares])


def kneser(m, k):
    """The Kneser graph KG(m, k): the k-subsets of an m-set, adjacent when
    disjoint. For m > 2k its automorphisms are the m! permutations of the
    ground set."""
    subsets = [frozenset(s) for s in itertools.combinations(range(m), k)]
    pairs = itertools.combinations(range(len(subsets)), 2)
    return build_graph(len(subsets), [(u, v) for u, v in pairs if not subsets[u] & subsets[v]])


def replace(value, **changes):
    """A copy of a value type with the named fields changed, the way
    ``dataclasses.replace`` copies a dataclass. The fields are the type's
    ``__slots__``, which its ``__init__`` takes under the same names."""
    fields = {name: getattr(value, name) for name in type(value).__slots__}
    unknown = changes.keys() - fields.keys()
    if unknown:
        raise TypeError(f"{type(value).__name__} has no fields {sorted(unknown)}")
    fields.update(changes)
    return type(value)(**fields)


def break_construction_search(monkeypatch):
    """Make the construction's individualisation-refinement search and its
    leaf test raise, so that only code on another route can still answer."""

    def broken(*args, **kwargs):
        raise AssertionError("the construction's search was called")

    for name in ("_search", "_automorphism_below", "_maps_edges_to_edges", "_target_cell"):
        monkeypatch.setattr(symmetry, name, broken)


def count_subtree_searches(monkeypatch):
    """The list that receives ``(level, image)`` for every subtree search
    of the construction's search, ``symmetry._automorphism_below``."""
    searched = []
    below = symmetry._automorphism_below

    def counted(graph, path, splits, leaf, level, w):
        searched.append((level, w))
        return below(graph, path, splits, leaf, level, w)

    monkeypatch.setattr(symmetry, "_automorphism_below", counted)
    return searched


def count_coset_nodes(monkeypatch):
    """The list that receives ``(level, image)`` for every search of the
    audit's coset search for a coset representative,
    ``symmetry._coset_representative``."""
    searched = []
    representative = symmetry._coset_representative

    def counted(graph, points, path, splits, level, w):
        searched.append((level, w))
        return representative(graph, points, path, splits, level, w)

    monkeypatch.setattr(symmetry, "_coset_representative", counted)
    return searched


def fix_one_vertex_per_block(monkeypatch):
    """Make the construction's fixing-set search return one vertex of each
    block it chose, so that a recolouring leaves some block of the next
    partition in two colours."""
    search = colouring.minimal_fixing_set

    def truncated(group, blocks, size_bound=None):
        return tuple(block[:1] for block in search(group, blocks, size_bound))

    monkeypatch.setattr(colouring, "minimal_fixing_set", truncated)


def drop_fixing_sets(monkeypatch):
    """Make the construction's fixing-set search choose no block, so the
    next inner index's running stabilizer still moves blocks of its
    partition."""
    monkeypatch.setattr(colouring, "minimal_fixing_set", lambda group, blocks, size_bound=None: ())


class CountedRows(list):
    """Adjacency rows that count how many times one is read."""

    reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return super().__getitem__(v)


def reference_refine(adjacency, lab, cell, end, splitters):
    """``symmetry._refine`` without its stop at a discrete partition: the
    queue of splitters is always run to the end. Returns the number of
    cells added and the list of splits made."""
    queue = deque(splitters)
    queued = set(splitters)
    added = 0
    splits = []
    while queue:
        s = queue.popleft()
        queued.discard(s)
        counts: dict[int, int] = {}
        for w in lab[s:end[s]]:
            for u in adjacency[w]:
                counts[u] = counts.get(u, 0) + 1
        touched: dict[int, list[int]] = {}
        for u in counts:
            x = cell[u]
            if end[x] - x > 1:
                touched.setdefault(x, []).append(u)
        for x in sorted(touched):
            e = end[x]
            members = touched[x]
            by_count: dict[int, list[int]] = {}
            for u in members:
                by_count.setdefault(counts[u], []).append(u)
            if len(members) < e - x:
                by_count[0] = [v for v in lab[x:e] if v not in counts]
            elif len(by_count) == 1:
                continue
            shape = sorted((count, len(fragment)) for count, fragment in by_count.items())
            splits.append((x, tuple(shape)))
            added += len(shape) - 1
            unqueued = None if x in queued else max(shape, key=itemgetter(1))[0]
            pos = x
            for count, size in shape:
                fragment = by_count[count]
                lab[pos:pos + size] = fragment
                for v in fragment:
                    cell[v] = pos
                end[pos] = pos + size
                if (pos != x) if unqueued is None else (count != unqueued):
                    queue.append(pos)
                    queued.add(pos)
                pos += size
    return added, splits


def colour_classes(colours):
    """The colour classes as an ordered partition ``(lab, cell, end,
    starts)``, in order of first appearance, with every class's start in
    ``starts`` so that a refinement from them queues every class.

    Cells are the ranges ``lab[s:end[s]]`` and ``cell[v]`` is the start of
    the cell holding ``v``. Built apart from ``symmetry._split``, so the
    full-queue reference does not share its start.
    """
    classes: dict = {}
    for v, colour in enumerate(colours):
        classes.setdefault(colour, []).append(v)
    n = len(colours)
    lab: list[int] = []
    cell = [0] * n
    end = [0] * n
    starts = []
    for members in classes.values():
        s = len(lab)
        lab.extend(members)
        for v in members:
            cell[v] = s
        end[s] = len(lab)
        starts.append(s)
    return lab, cell, end, starts


def equitable_classes(graph, colours) -> list[int]:
    """The coarsest equitable partition finer than the colouring (1-WL).

    ``result[v]`` is a class id; automorphisms preserving the colouring
    preserve the classes.
    """
    lab, cell, end, starts = colour_classes(colours)
    symmetry._refine(graph.adjacency, lab, cell, end, starts, len(starts))
    return cell


def induced_keys(n: int, partitions, state) -> list[tuple]:
    """For each of the vertices 0..n-1, the tuple of the induced colours of
    its blocks, one per partition that holds it.

    The paper's running stabilizer, the subgroup of the step's stabilizer
    keeping the induced colouring of every partition 0..i, is the one
    preserving these keys, because each of its elements permutes the
    blocks of each partition. The audit keeps these keys incrementally;
    this is the definition it is compared with.
    """
    keys: list[tuple] = [()] * n
    for blocks in partitions:
        for block, colour in zip(blocks, induced_colouring(state, blocks)):
            for v in block:
                keys[v] += (colour,)
    return keys


def reference_fixing_set(group, blocks, size_bound=None):
    """The fixing set found by comparing orders: take the stabilizer of
    every block, adjoin the first block the stabilizer of the picks moves
    until the two orders are equal, then drop each pick, last first,
    whose removal keeps the order. Pass ``group.enumerate()`` to take
    every stabilizer by filtering the element list with
    ``PermGroup.stabilizer``."""
    blocks = tuple(tuple(sorted(b)) for b in blocks)

    def stabilizer_of(picks):
        return symmetry.block_stabilizer(group, [blocks[i] for i in picks])

    target = stabilizer_of(range(len(blocks))).order
    picks = []
    current = group
    while current.order != target:
        picks.append(
            next(b for b in range(len(blocks)) if b not in picks and symmetry.moved_block(current, [blocks[b]]) is not None)
        )
        current = stabilizer_of(picks)
    for b in reversed(list(picks)):
        trial = [x for x in picks if x != b]
        if stabilizer_of(trial).order == target:
            picks = trial
    assert size_bound is None or len(picks) <= size_bound
    return tuple(blocks[b] for b in sorted(picks, key=lambda i: blocks[i][0]))


@contextlib.contextmanager
def deadline(seconds):
    """Fail the test with a message, instead of stalling the suite, if the
    block runs longer than ``seconds``. Uses SIGALRM, so it works only in
    the main thread on POSIX; the handler interrupts pure-Python loops."""

    def expire(signum, frame):
        pytest.fail(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def atlas_corpus():
    """All connected graphs on 1..7 vertices, relabelled to 0..n-1."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    graphs = []
    for g in graph_atlas_g():
        n = g.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(g):
            mapping = {u: i for i, u in enumerate(sorted(g.nodes()))}
            edges = [(mapping[u], mapping[v]) for u, v in g.edges()]
            graphs.append(build_graph(n, edges))
    return graphs


@pytest.fixture(scope="session")
def corpus():
    graphs = atlas_corpus()
    by_n = {}
    for g in graphs:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    # connected graph counts per vertex count, a classical sequence;
    # guards against an incomplete corpus silently weakening the suite
    assert by_n == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    return graphs


@st.composite
def connected_graphs(draw, min_n=1, max_n=8):
    """Random connected graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        extras = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True))
        edges.update(extras)
    return build_graph(n, sorted(edges))


@st.composite
def permutations_of(draw, n):
    values = list(range(n))
    return tuple(draw(st.permutations(values)))
