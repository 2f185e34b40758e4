"""Permutations and the two kinds of permutation group.

Every group is ``Aut(G, c)`` for some vertex colouring ``c``, held by a
base and a strong generating set (:class:`SGSGroup`), so the order is the
product of the basic orbit lengths. A partition is one 4-tuple ``(lab,
cell, end, cells)``, built one way: :func:`_split` splits a partition by
vertex keys and refines only from the cells they split, every fragment
but a largest one queued (Hopcroft 1971). Each group keeps the equitable
partition its search started from, the coarsest one finer than ``c``
(:func:`_equitable`). The groups come in chains, each ``Aut(G, c')`` for
a ``c'`` finer than its parent's, so a search in a chain splits the
parent's partition by the new keys; the first group of a chain splits
the unit partition by key and degree. Every search node's children are
taken by :func:`_child`, which copies its node, individualises one vertex
and refines from it. Before either search looks for an automorphism
mapping a level's point ``b`` to a candidate image ``w``, it tries the
twin first guess, the transposition ``(b w)`` (:func:`_twin_swap`), with
its own leaf test: the swap is an automorphism exactly when ``b`` and
``w`` are twins, as most images are on trees and complete graphs. Two
independent searches build one:

- the construction's :func:`coloured_automorphisms`, individualisation
  and refinement (McKay & Piperno 2014), called only from
  :func:`~asymcolour.colouring.run`; every subgroup the construction
  needs is ``Aut(G, c')`` for a finer colouring ``c'``, taken by
  :meth:`SGSGroup.stabilizer`, whose search starts from the parent's
  generators that preserve ``c'``: each seeds the level of the first
  base point it moves, so only the images they cannot reach are searched;
- :func:`coset_search`, a partition backtrack (Leon 1991) that keeps one
  automorphism per coset: its own point order, breadth-first unless the
  caller gives one, and Sims levels, and at every node an
  individualisation and a refinement, pruned when the splits differ from
  its source path's. It shares the construction's partition primitives
  (:func:`_equitable`, :func:`_split`, :func:`_child`) and the twin
  first guess, but none of its search. It completes each coset
  representative toward the identity, fixing every point a cell shares
  with the source's and trying the source point first, so its generators
  move few points. The audit keys it by colour and distance from the
  root, and passes the previous group of its chain when the keys refine
  that group's; every oracle reads it keyed by the colouring, from
  scratch, through :func:`automorphism_sgs`, or, for a labelling search,
  with the reverse of the labelling order as its point order.

:class:`PermGroup` is the explicit element list. The one listing route is
:meth:`SGSGroup.enumerate`, products of transversals, which compares the
exact order with an element cap (default 10**6) before it lists anything.
It lists ``Aut(G)`` where the motion oracles need every element, and
the small final stabilizer embedded in a trace; the oracles' labelling
searches read the same transversals (:meth:`SGSGroup.transversals`) as a
stabilizer chain and list nothing. The audit checks that embed against
:meth:`PermGroup.from_generators`, the closure of its own generators;
the tests filter lists with :meth:`PermGroup.stabilizer`.

Both group kinds carry ``generators`` and their ``supports``, the points
each one moves: :func:`orbits`, :func:`moved_block`, :func:`preserves`
and :func:`permutes_blocks` read only the supports, so the construction's
guards search nothing and cost what the generators move, and
:func:`minimal_fixing_set` reads those of the block stabilizers it takes.
Permutations are tuples ``p`` with ``p[i]`` the image of ``i``.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from operator import itemgetter

from .errors import (
    DomainNotInvariantError,
    GroupCapError,
    InternalInvariantError,
    NotAPartitionActionError,
)
from .graphs import Graph

DEFAULT_CAP = 10**6

Perm = tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Composition p after q: the result maps i to p[q[i]]."""
    return tuple([p[x] for x in q])


def invert(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def is_permutation(p) -> bool:
    return sorted(p) == list(range(len(p)))


def _support(p: Perm) -> tuple[int, ...]:
    """The points a permutation moves, in increasing order."""
    return tuple(v for v, w in enumerate(p) if v != w)


def format_permutation(p: Perm) -> str:
    """One-line image form "p(0) p(1) ... p(n-1)"."""
    return " ".join(str(x) for x in p)


class PermGroup:
    """A permutation group on 0..degree-1 as an explicit element list.

    Elements are sorted, duplicate-free, and always include the identity.
    ``generators`` is the set it was closed from, or else the elements
    themselves. Made by :meth:`SGSGroup.enumerate`, which lists under the
    element cap, and by :meth:`from_generators`, which closes under it.
    The element set behind membership tests is built on the first one,
    and the generators' supports on their first read.
    """

    __slots__ = ("degree", "elements", "generators", "_element_set", "_supports")

    def __init__(self, degree: int, elements: tuple[Perm, ...], generators: tuple[Perm, ...] | None = None):
        self.degree = degree
        self.elements = elements
        self.generators = elements if generators is None else generators
        self._element_set = None
        self._supports = None

    @classmethod
    def from_generators(cls, degree: int, generators, cap: int = DEFAULT_CAP) -> "PermGroup":
        """Close a generator list under composition (and hence inversion)."""
        gens = [tuple(g) for g in generators]
        for g in gens:
            if len(g) != degree or not is_permutation(g):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
        elems = {identity_perm(degree)}
        frontier = deque(elems)
        while frontier:
            p = frontier.popleft()
            for g in gens:
                q = compose(g, p)
                if q not in elems:
                    elems.add(q)
                    if len(elems) > cap:
                        raise GroupCapError(f"closure exceeded cap {cap}", cap=cap)
                    frontier.append(q)
        return cls(degree, tuple(sorted(elems)), generators=tuple(gens))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """The points each generator moves, as for :class:`SGSGroup`."""
        if self._supports is None:
            self._supports = tuple(map(_support, self.generators))
        return self._supports

    def _members(self) -> frozenset:
        if self._element_set is None:
            self._element_set = frozenset(self.elements)
        return self._element_set

    def __contains__(self, p) -> bool:
        return tuple(p) in self._members()

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self.degree == other.degree and self.elements == other.elements

    def __hash__(self):
        return hash((self.degree, self.elements))

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def subgroup(self, predicate) -> "PermGroup":
        """The elements satisfying a predicate (caller promises a subgroup)."""
        return PermGroup(self.degree, tuple(p for p in self.elements if predicate(p)))

    def stabilizer(self, keys) -> "PermGroup":
        """The elements preserving a vertex colouring ``keys`` (indexable by vertex)."""
        domain = range(self.degree)
        return self.subgroup(lambda p: all(keys[p[v]] == keys[v] for v in domain))


def _refine(adjacency, lab, cell, end, splitters, cells: int) -> tuple[int, list]:
    """Split cells by neighbour counts until the partition is equitable.

    ``cells`` is the number of cells the partition has on entry. Once it
    is discrete no cell can split, so refinement stops there, with the
    same result as refining on (McKay & Piperno 2014). Only cells that
    changed are queued as splitters. When a cell that is
    not queued splits, every fragment but a largest one is queued: counts
    into the left-out fragment follow from counts into the others and into
    their former union (Hopcroft 1971; McKay 1981). Fragments are placed
    in order of neighbour count and split cells are taken in position
    order, so the result depends on the structure alone, never on vertex
    labels. Returns the number of cells added and the list of splits made;
    two search nodes related by an automorphism make the same splits.

    A splitter of one vertex, such as an individualised one, gives each
    neighbour the count 1, so it is not counted: a cell it touches splits
    into its non-neighbours and its neighbours, as the general code would
    place and queue them.
    """
    n = len(lab)
    queue = deque(splitters)
    queued = set(splitters)
    added = 0
    splits = []
    while queue and cells + added < n:
        s = queue.popleft()
        queued.discard(s)
        if end[s] - s == 1:
            row = adjacency[lab[s]]
            near: dict[int, list[int]] = {}
            for u in row:
                x = cell[u]
                if end[x] - x > 1:
                    near.setdefault(x, []).append(u)
            if not near:
                continue
            row = set(row)
            for x in sorted(near):
                e = end[x]
                members = near[x]
                m = e - len(members)
                if m == x:
                    continue
                lab[x:e] = [v for v in lab[x:e] if v not in row] + members
                for v in members:
                    cell[v] = m
                end[x] = m
                end[m] = e
                splits.append((x, ((0, m - x), (1, e - m))))
                added += 1
                # a queued cell stays queued as its non-neighbours, so the
                # neighbours join it; otherwise the smaller fragment is
                # queued, the neighbours if the two are equal
                pos = m if x in queued or m - x >= e - m else x
                queue.append(pos)
                queued.add(pos)
            continue
        counts: dict[int, int] = {}
        for w in lab[s:end[s]]:
            for u in adjacency[w]:
                counts[u] = counts.get(u, 0) + 1
        # a singleton cell cannot split, so its vertices are not bucketed
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
            # a queued cell stays queued as its first fragment; otherwise
            # every fragment but a largest one is queued
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


def _equitable(graph: Graph, keys):
    """The coarsest equitable partition finer than the vertex keys, as
    ``(lab, cell, end, cells)``: the unit partition :func:`_split` by the
    pairs (key, degree).

    The unit partition's one cell is the whole vertex set, and vertices
    of equal degree have equal counts into it, as :func:`_split` needs.
    So refinement starts from every (key, degree) class but a largest one
    (Hopcroft 1971), in order of first appearance. For the root's
    colouring ``c_0`` that skips counting the neighbours of the n - 1
    other vertices.
    """
    adjacency = graph.adjacency
    n = graph.n
    unit = (list(range(n)), [0] * n, [n] + [0] * (n - 1), 1)
    return _split(graph, unit, [(keys[v], len(adjacency[v])) for v in range(n)])


def _split(graph: Graph, partition, keys):
    """The coarsest equitable partition finer than ``partition`` and the
    vertex keys, refined only from the cells the keys split.

    The partition is copied, and each of its cells is split by the keys
    into fragments in order of first appearance. Every fragment but a
    largest one is queued. That needs less than an equitable
    ``partition``: two vertices that share a cell and a key must have
    equal counts into every cell of ``partition``, so that no cell left
    whole need be queued and counts into a left-out fragment follow from
    counts into the others (Hopcroft 1971). An equitable partition meets
    it, and so does the unit partition once the degree is part of the key
    (:func:`_equitable`). Fragments stay where their cell was, so a
    split of a group's partition has the cells :func:`_equitable` gives
    the combined keys, not always in its order.
    """
    lab, cell, end, cells = partition
    lab, cell, end = lab[:], cell[:], end[:]
    n = len(lab)
    splitters = []
    s = 0
    while s < n:
        e = end[s]
        if e - s > 1:
            by_key: dict = {}
            for v in lab[s:e]:
                by_key.setdefault(keys[v], []).append(v)
            if len(by_key) > 1:
                fragments = list(by_key.values())
                largest = max(fragments, key=len)
                pos = s
                for fragment in fragments:
                    size = len(fragment)
                    lab[pos:pos + size] = fragment
                    for v in fragment:
                        cell[v] = pos
                    end[pos] = pos + size
                    if fragment is not largest:
                        splitters.append(pos)
                    pos += size
                cells += len(fragments) - 1
        s = e
    added, _ = _refine(graph.adjacency, lab, cell, end, splitters, cells)
    return lab, cell, end, cells + added


def _individualise(lab, cell, end, v) -> int:
    """Split ``v`` off as a singleton at the end of its cell; returns its start."""
    s = cell[v]
    e = end[s]
    i = lab.index(v, s, e)
    lab[i] = lab[e - 1]
    lab[e - 1] = v
    cell[v] = e - 1
    end[s] = e - 1
    end[e - 1] = e
    return e - 1


def _child(adjacency, partition, v):
    """The child of a search node: a copy of ``partition`` with ``v``
    individualised and refined from that singleton, as ``(lab, cell, end,
    cells)``, and the splits the refinement made. ``partition`` is left
    as it was, so a search may keep every node of its path."""
    lab, cell, end, cells = partition
    lab, cell, end = lab[:], cell[:], end[:]
    s = _individualise(lab, cell, end, v)
    added, splits = _refine(adjacency, lab, cell, end, [s], cells + 1)
    return (lab, cell, end, cells + 1 + added), splits


def _target_cell(lab, end, s: int) -> int:
    """Start of the first cell with more than one vertex, scanning from
    the cell start ``s``. A child node scans from its parent's target
    cell: the cells before it were singletons at the parent, and
    refinement only splits cells, so they still are."""
    while end[s] - s == 1:
        s = end[s]
    return s


class SGSGroup:
    """``Aut(G, c)`` held by a base and a strong generating set.

    ``partition`` is the equitable partition ``(lab, cell, end, cells)``
    the search started from, the coarsest one finer than ``c``: a
    subgroup's search splits it by its further keys instead of refining
    ``c`` again. The generators that fix ``base[:j]`` move ``base[j]``
    around its whole orbit in the pointwise stabilizer of ``base[:j]``, of
    size ``orbit_lengths[j]``. The order is the product of those lengths,
    taken once. ``supports[i]`` lists the points that ``generators[i]``
    moves, stored once when the group is made: every question asked of
    the generators reads only those points. Built by :func:`_search` (the
    base is the individualised vertices) and by :func:`coset_search`, the
    partition backtrack (the base is the individualised points whose
    orbit has more than one point). Subgroups are taken by
    :meth:`stabilizer`; elements are listed only on request, by
    :meth:`enumerate`, under the element cap.
    """

    __slots__ = ("graph", "partition", "base", "generators", "supports", "orbit_lengths", "order")

    def __init__(self, graph: Graph, partition, base, generators, supports, orbit_lengths):
        self.graph = graph
        self.partition = partition
        self.base = tuple(base)
        self.generators = tuple(generators)
        self.supports = tuple(supports)
        self.orbit_lengths = tuple(orbit_lengths)
        self.order = math.prod(self.orbit_lengths)

    @property
    def degree(self) -> int:
        return self.graph.n

    def is_trivial(self) -> bool:
        return not self.generators

    def __repr__(self):
        return f"SGSGroup(degree={self.degree}, order={self.order})"

    def stabilizer(self, keys) -> "SGSGroup":
        """The subgroup preserving a further vertex colouring ``keys``.

        Each generator is tested once. When every one preserves ``keys``
        the subgroup is the group itself, and a subgroup of the trivial
        group is trivial; otherwise it is searched from this group's
        partition split by ``keys``, seeded with the generators that
        preserve ``keys``, which lie in it.
        """
        kept = [
            (g, support)
            for g, support in zip(self.generators, self.supports)
            if all(keys[g[v]] == keys[v] for v in support)
        ]
        if len(kept) == len(self.generators):
            return self
        return _search(self.graph, _split(self.graph, self.partition, keys), kept)

    def transversals(self) -> list[list[tuple[int, Perm]]]:
        """For each base level j, ``(u, t)`` for every other point u of the
        orbit of ``base[j]`` under the generators that fix ``base[:j]``,
        with ``t`` a product of them mapping ``base[j]`` to u (Sims 1970):
        the generator that reached u composed with the representative of
        the point it was reached from."""
        base = self.base
        # the generators of level j fix base[:j] and move base[j]
        by_level = _by_level(base, zip(self.generators, self.supports))
        movers: dict[int, list[Perm]] = {}
        levels = []
        for j in reversed(range(len(base))):
            for g, support in by_level[j]:
                _adjoin(movers, g, support)
            representatives = {base[j]: identity_perm(self.degree)}
            orbit = [base[j]]
            for u in orbit:
                for g in movers.get(u, ()):
                    if g[u] not in representatives:
                        representatives[g[u]] = compose(g, representatives[u])
                        orbit.append(g[u])
            levels.append([(u, representatives[u]) for u in orbit[1:]])
        levels.reverse()
        return levels

    def enumerate(self, cap: int = DEFAULT_CAP) -> PermGroup:
        """The sorted element list, as products of :meth:`transversals`.

        The exact order is checked against ``cap`` before anything is
        listed. From the deepest level up, the pointwise stabilizer of
        ``base[:j]`` is the union, over the orbit of ``base[j]``, of the
        previous level's list composed with the inverse of a coset
        representative; the identity's coset is the previous list itself.
        """
        order = self.order
        if order > cap:
            raise GroupCapError(f"group has {order} elements, cap is {cap}", cap=cap)
        elements = [identity_perm(self.degree)]
        for level in reversed(self.transversals()):
            previous = elements
            elements = previous[:]
            for _, t in level:
                elements.extend(map(itemgetter(*invert(t)), previous))
        elements.sort()
        return PermGroup(self.degree, tuple(elements))


def coloured_automorphisms(graph: Graph, colouring=None) -> SGSGroup:
    """The automorphisms preserving a vertex colouring, as base and strong
    generating set.

    ``colouring`` may be a Colouring or any sequence of hashable colours
    indexable by vertex; ``None`` gives the full automorphism group. No
    element list is built, so no cap applies.
    """
    n = graph.n
    colours = [0] * n if colouring is None else colouring
    return _search(graph, _equitable(graph, colours), ())


def _search(graph: Graph, partition, seeds) -> SGSGroup:
    """Individualisation-refinement search for the automorphisms that keep
    each cell of an equitable ``partition`` ``(lab, cell, end, cells)``,
    which it does not change.

    The first path takes the :func:`_child` that individualises the last
    vertex of the first non-singleton cell until the partition is
    discrete; those vertices are the base, and ``path`` keeps each node
    with its target cell. Individualising the last vertex moves no other,
    so a cell that refinement does not split gives its vertices to the
    base in their order in ``partition``, which :func:`_split` keeps in
    every fragment: a subgroup's search mostly takes its parent's base
    points in the parent's order, and the parent's generators seed the
    levels where they served. ``seeds`` are ``(generator, support)`` pairs
    already known to lie in the group, such as the generators of a parent
    group that preserve the finer colouring; each is a candidate generator
    of the level of the first base point it moves. From the deepest level
    up, a level first takes each of its seeds that grows the orbit of its
    base point under the generators found so far. Then each vertex ``w``
    of the level's target cell that the generators cannot reach from the
    base point ``b`` is tried. The twin first guess comes first: ``(b w)``
    keeps the cells, as ``w`` shares ``b``'s cell, and fixes the earlier
    base points, which are singletons there, so it is the level's
    generator if :func:`_maps_edges_to_edges` passes it on its two points,
    that is, if ``b`` and ``w`` are twins. Otherwise the subtree of ``w``
    is searched for a leaf that is an automorphic image of the first leaf,
    pruning every node whose refinement splits differ from the first
    path's. Every generator of level j fixes the base points above j, and
    the search of each level is exhaustive, so the orbit lengths are exact
    (Sims 1970).
    """
    n = graph.n
    adjacency = graph.adjacency

    path = []  # per level: the node's partition and its target cell
    splits = []  # per level: the splits made after individualising
    base = []
    node = partition
    t = 0
    while node[3] < n:
        lab, _, end, _ = node
        t = _target_cell(lab, end, t)
        path.append((node, t))
        v = lab[end[t] - 1]
        base.append(v)
        node, made = _child(adjacency, node, v)
        splits.append(made)
    leaf = node[0]

    def keeps_edges(image, moved):
        return _maps_edges_to_edges(graph, image, moved)

    seeded = _by_level(base, seeds)
    generators: list[Perm] = []
    supports: list[tuple[int, ...]] = []
    movers: dict[int, list[Perm]] = {}
    orbit_lengths = [1] * len(base)
    for level in reversed(range(len(base))):
        (plab, _, pend, _), t = path[level]
        b = base[level]
        # the generators of the deeper levels fix the base point
        orbit = {b}
        for g, support in seeded[level]:
            if any(g[u] not in orbit for u in support if u in orbit):
                generators.append(g)
                supports.append(support)
                _adjoin(movers, g, support)
                _grow(orbit, g, support, movers)
        for w in plab[t:pend[t]]:
            if w in orbit:
                continue
            found = _twin_swap(n, b, w, keeps_edges) or _automorphism_below(graph, path, splits, leaf, level, w)
            if found is not None:
                g, support = found
                generators.append(g)
                supports.append(support)
                _adjoin(movers, g, support)
                _grow(orbit, g, support, movers)
        orbit_lengths[level] = len(orbit)
    return SGSGroup(graph, partition, base, generators, supports, orbit_lengths)


def _twin_swap(n: int, b: int, w: int, keeps_edges):
    """The twin first guess: the transposition ``(b w)`` with its support
    ``(min, max)``, if the caller's leaf test ``keeps_edges(image,
    moved)`` passes it, else None. It passes exactly when ``b`` and ``w``
    are twins, with equal neighbourhoods apart from each other."""
    image = list(range(n))
    image[b] = w
    image[w] = b
    support = (b, w) if b < w else (w, b)
    return (tuple(image), support) if keeps_edges(image, support) else None


def _by_level(base, pairs) -> list[list[tuple[Perm, tuple[int, ...]]]]:
    """The ``(generator, support)`` pairs, each at the level of the first
    base point its generator moves. Only the identity moves no point of a
    base, and it is dropped."""
    position = {b: j for j, b in enumerate(base)}
    levels: list[list[tuple[Perm, tuple[int, ...]]]] = [[] for _ in base]
    for g, support in pairs:
        moved = [position[v] for v in support if v in position]
        if moved:
            levels[min(moved)].append((g, support))
    return levels


def _adjoin(movers: dict, g: Perm, support) -> None:
    """Record ``g`` among the generators moving each point of its support."""
    for v in support:
        movers.setdefault(v, []).append(g)


def _grow(orbit: set[int], g: Perm, support, movers) -> None:
    """Extend an orbit under some generators to the orbit under them and
    ``g``, once :func:`_adjoin` has recorded ``g``: from the images ``g``
    gives its points, the only ones it can add."""
    frontier = [g[u] for u in support if u in orbit and g[u] not in orbit]
    orbit.update(frontier)
    _close(orbit, frontier, movers)


def _close(orbit: set[int], frontier: list[int], movers, domain=None) -> None:
    """Add to ``orbit`` every point that some generators, given as
    :func:`_adjoin` records them, by the points they move, reach from
    ``frontier``; raises if one leaves ``domain`` (when given)."""
    while frontier:
        u = frontier.pop()
        for p in movers.get(u, ()):
            w = p[u]
            if w not in orbit:
                if domain is not None and w not in domain:
                    raise DomainNotInvariantError(f"element maps {u} to {w} outside the domain")
                orbit.add(w)
                frontier.append(w)


def _automorphism_below(graph: Graph, path, splits, leaf, level: int, w: int):
    """An automorphism mapping the first leaf to a leaf below the child of
    ``path[level]`` that individualises ``w``, with its support, or None
    if there is none.

    Depth-first and iterative; a child whose refinement splits differ from
    the first path's at the same depth cannot be an automorphic image of
    the first path's node there, so its subtree is skipped. Each cell is
    tried from its last vertex, as the first path chose, so the leaf found
    differs from the first leaf at few points, and so does the generator.
    """
    n = graph.n
    adjacency = graph.adjacency
    node, t = path[level]
    stack = [(node, t, level, [w])]
    while stack:
        node, t, depth, candidates = stack[-1]
        if not candidates:
            stack.pop()
            continue
        child, made = _child(adjacency, node, candidates.pop())
        if made != splits[depth]:
            continue
        clab, _, cend, ccells = child
        if ccells < n:
            ct = _target_cell(clab, cend, t)
            stack.append((child, ct, depth + 1, clab[ct:cend[ct]]))
            continue
        image = [0] * n
        for x, y in zip(leaf, clab):
            image[x] = y
        moved = sorted(x for x, y in zip(leaf, clab) if x != y)
        if _maps_edges_to_edges(graph, image, moved):
            return tuple(image), tuple(moved)
    return None


def _maps_edges_to_edges(graph: Graph, image, moved) -> bool:
    """Whether a bijection of the vertices that moves only the points
    ``moved`` maps every edge onto an edge: an edge between two fixed
    points maps onto itself, so only the edges at ``moved`` are tested.
    The graph is finite, so the bijection then maps its edges onto its
    edges and its non-edges onto non-edges: it is an automorphism."""
    adjacency, adjsets = graph.adjacency, graph._adjsets
    return all(image[u] in adjsets[image[x]] for x in moved for u in adjacency[x])


def coset_search(graph: Graph, keys, parent: SGSGroup | None = None, order=None) -> SGSGroup:
    """The automorphisms preserving the vertex keys, by a partition
    backtrack that keeps one automorphism per coset (Sims 1970; Leon 1991).

    The keys are refined to their 1-WL classes (:func:`_equitable`), or,
    given a ``parent`` group preserving coarser keys that these refine,
    the parent's partition is split by them (:func:`_split`): the same
    cells, maybe in another order. A discrete partition gives the trivial
    group at once. The points are taken in ``order``, by default
    breadth-first from a vertex of a smallest class. The source path
    takes the :func:`_child` of each point that is not yet a singleton,
    down to a discrete leaf, and keeps every node: those points are the
    levels, and :func:`_coset_representative` reads the source's node at
    each depth. The others need none: an automorphism fixing the points
    before such a point fixes it too, as it keeps the partition it is a
    singleton of. From the deepest level
    up, each point ``w`` of the level's cell that the generators found so
    far do not reach from the level's point ``b`` is tried as its image,
    with the earlier points fixed: first by the twin first guess ``(b w)``,
    tested by this route's own edge test on its two points, then, if
    ``b`` and ``w`` are not twins, by :func:`_coset_representative`. For
    twins the search's own answer, the map completed toward the identity,
    is that same transposition, so the guess changes no generator, only
    the time. Every generator found at a level fixes the points before it
    and each level tries its whole cell, so the orbit lengths are exact.
    The base is the levels whose orbit has more than one point, in the
    points' order, so each base point's transversal fixes every point
    before it in ``order``.
    """
    n = graph.n
    adjacency = graph.adjacency
    partition = _equitable(graph, keys) if parent is None else _split(graph, parent.partition, keys)
    _, cell, end, cells = partition
    if cells == n:
        return SGSGroup(graph, partition, (), (), (), ())
    if order is None:
        order = [min(range(n), key=lambda v: end[cell[v]] - cell[v])]
        seen = set(order)
        for u in order:
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    order.append(v)
    points = []
    path = []  # per level: the partition before its point is individualised
    splits = []  # per level: the splits made after individualising it
    node = partition
    for v in order:
        _, cell, end, _ = node
        if end[cell[v]] - cell[v] > 1:
            points.append(v)
            path.append(node)
            node, made = _child(adjacency, node, v)
            splits.append(made)
    path.append(node)
    adjsets = graph._adjsets

    def keeps_edges(image, moved):
        return all(image[u] in adjsets[image[x]] for x in moved for u in adjacency[x])

    generators: list[Perm] = []
    supports: list[tuple[int, ...]] = []
    movers: dict[int, list[Perm]] = {}
    levels = []  # (point, orbit length), deepest first
    for j in reversed(range(len(points))):
        b = points[j]
        plab, pcell, pend, _ = path[j]
        s = pcell[b]
        # the generators of the deeper levels fix the level's point
        orbit = {b}
        for w in sorted(plab[s:pend[s]]):
            if w in orbit:
                continue
            found = _twin_swap(n, b, w, keeps_edges) or _coset_representative(graph, points, path, splits, j, w)
            if found is not None:
                g, support = found
                generators.append(g)
                supports.append(support)
                _adjoin(movers, g, support)
                _grow(orbit, g, support, movers)
        if len(orbit) > 1:
            levels.append((b, len(orbit)))
    levels.reverse()
    return SGSGroup(graph, partition, [b for b, _ in levels], generators, supports, [length for _, length in levels])


def _coset_representative(graph: Graph, points, path, splits, level: int, w: int):
    """An automorphism fixing ``points[:level]`` and mapping
    ``points[level]`` to ``w``, with its support, or None if there is none.

    Depth-first over image points. A node individualises one in the cell
    at its source point's position and refines; it is pruned when its
    splits differ from the source path's at that depth, as no automorphism
    maps the source's node there. A node that survives tests one map onto
    it from the source's partition at that depth, :func:`_toward_identity`,
    and returns it if it sends every edge at the points it moves onto an
    edge: a bijection of a finite graph that maps its edges onto edges is
    an automorphism. At a discrete node that map is the leaf; at any other
    the search descends, trying the source point first when it lies in the
    image cell. :func:`coset_search` calls it only for an image that is
    not a twin of ``points[level]``; a twin's transposition would be the
    map it tests first.
    """
    adjacency, adjsets = graph.adjacency, graph._adjsets
    stack = [(path[level], level, [w])]
    while stack:
        node, depth, candidates = stack[-1]
        if not candidates:
            stack.pop()
            continue
        child, made = _child(adjacency, node, candidates.pop())
        if made != splits[depth]:
            continue
        clab, _, cend, _ = child
        slab, scell, send, _ = path[depth + 1]
        image, moved = _toward_identity(slab, clab, scell, send)
        if all(image[u] in adjsets[image[x]] for x in moved for u in adjacency[x]):
            return tuple(image), tuple(sorted(moved))
        if depth + 1 < len(points):
            point = points[depth + 1]
            t = scell[point]
            following = [v for v in clab[t:cend[t]] if v != point]
            if len(following) < cend[t] - t:
                following.append(point)
            stack.append((child, depth + 1, following))
    return None


def _toward_identity(source, target, cell, end) -> tuple[list[int], list[int]]:
    """The bijection mapping each cell of ``source`` onto the cell at the
    same position of ``target`` (two ``lab`` arrays with the same cells,
    given by ``cell`` and ``end`` of ``source``) that fixes every point the
    two cells share and maps the rest in position order; returns its
    image array and the points it moves. A cell of one point maps to the
    other's point, so on discrete partitions it is the leaf map."""
    image = list(range(len(source)))
    moved = []
    done = set()
    for x, y in zip(source, target):
        if x != y and cell[x] not in done:
            s = cell[x]
            done.add(s)
            here, there = source[s:end[s]], target[s:end[s]]
            shared = set(here).intersection(there)
            leaving = [u for u in here if u not in shared]
            arriving = [u for u in there if u not in shared]
            for u, v in zip(leaving, arriving):
                image[u] = v
            moved += leaving
    return image, moved


def automorphism_sgs(graph: Graph, colouring=None) -> SGSGroup:
    """All adjacency-preserving bijections, optionally colour-preserving,
    as base and strong generating set; no element is listed.

    The :func:`coset_search` of the colouring, which searches it by its
    1-WL classes. ``colouring`` may be a Colouring or any sequence
    indexable by vertex; images are then restricted to equal colours.
    """
    return coset_search(graph, [0] * graph.n if colouring is None else colouring)


def automorphism_group(graph: Graph, colouring=None, cap: int = DEFAULT_CAP) -> PermGroup:
    """The group of :func:`automorphism_sgs` as a sorted element list,
    listed by :meth:`SGSGroup.enumerate`, which compares the exact order
    with ``cap`` before it lists any element."""
    return automorphism_sgs(graph, colouring).enumerate(cap)


def orbits(group, domain) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of a setwise-invariant domain.

    Blocks are ordered by their minimum element; members sorted. A group
    without generators has singleton orbits.
    """
    domain_set = set(domain)
    if not group.generators:
        return tuple((v,) for v in sorted(domain_set))
    movers: dict[int, list[Perm]] = {}
    for g, support in zip(group.generators, group.supports):
        _adjoin(movers, g, support)
    seen: set[int] = set()
    blocks = []
    for v in sorted(domain_set):
        if v not in seen:
            orbit = {v}
            _close(orbit, [v], movers, domain_set)
            seen |= orbit
            blocks.append(tuple(sorted(orbit)))
    return tuple(blocks)


def moved_block(group, blocks) -> int | None:
    """The index of the first of some disjoint blocks that an element does
    not map onto itself, or None when every element fixes every block. An
    element fixes them all exactly when every generator does, so one pass
    over the supports answers: a generator moves the block of a point it
    moves out of that block."""
    if not group.generators:
        return None
    block_of = {v: b for b, block in enumerate(blocks) for v in block}
    return min(
        (
            block_of[v]
            for g, support in zip(group.generators, group.supports)
            for v in support
            if v in block_of and block_of.get(g[v]) != block_of[v]
        ),
        default=None,
    )


def preserves(group, keys) -> bool:
    """Whether every element maps each vertex to one with the same key:
    true exactly when every generator does on the points it moves."""
    return all(keys[g[v]] == keys[v] for g, support in zip(group.generators, group.supports) for v in support)


def permutes_blocks(group, blocks) -> bool:
    """Whether every element maps each block onto a block of the
    partition: true exactly when every generator does. A permutation that
    maps each block into a block maps the blocks' union onto itself, so
    every block receives the image of one block, and all of it. Each
    generator reads the points it moves: one that stays in its block
    needs nothing more, and a block that one of them leaves is read once,
    as it must go whole into the block of that point's image."""
    if not group.generators:
        return True
    block_of = {v: b for b, block in enumerate(blocks) for v in block}
    for g, support in zip(group.generators, group.supports):
        read = set()
        for v in support:
            b = block_of.get(v)
            if b is None or b in read:
                continue
            target = block_of.get(g[v])
            if target == b:
                continue
            read.add(b)
            if target is None or any(block_of.get(g[u]) != target for u in blocks[b]):
                return False
    return True


def block_stabilizer(group, partition):
    """Elements fixing every block of the partition setwise."""
    keys = [-1] * group.degree
    for b, block in enumerate(partition):
        for v in block:
            keys[v] = b
    return group.stabilizer(keys)


def chain_length_bound(n: int) -> int:
    """Maximal length of a strict subgroup chain in Sym(n): the closed form
    floor((3n-1)/2) minus the number of ones in the binary expansion of n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return (3 * n - 1) // 2 - n.bit_count()


def longest_chain_bruteforce(n: int) -> int:
    """Exact longest subgroup chain of Sym(n), by full lattice enumeration.

    Enumerates every subgroup (cyclic extension: repeatedly adjoin one
    coset representative and close), then takes the longest strictly
    decreasing path from Sym(n) to the trivial group, counted as the
    number of strict inclusions. Limited to n <= 5.
    """
    if not 1 <= n <= 5:
        raise ValueError(f"subgroup lattice enumeration supports 1 <= n <= 5, got {n}")
    full = list(itertools.permutations(range(n)))
    ident = identity_perm(n)

    subgroups: dict[frozenset, tuple[Perm, ...]] = {frozenset({ident}): ()}
    frontier = deque(subgroups.items())
    while frontier:
        elems, gens = frontier.popleft()
        seen_cosets: set[Perm] = set()
        for g in full:
            if g in elems:
                continue
            coset_rep = min(compose(h, g) for h in elems)
            if coset_rep in seen_cosets:
                continue
            seen_cosets.add(coset_rep)
            new_gens = gens + (g,)
            new_elems = frozenset(PermGroup.from_generators(n, new_gens).elements)
            if new_elems not in subgroups:
                subgroups[new_elems] = new_gens
                frontier.append((new_elems, new_gens))

    lattice = list(subgroups)
    proper_subs: dict[frozenset, list[frozenset]] = {H: [] for H in lattice}
    for H in lattice:
        for K in lattice:
            if K < H:
                proper_subs[H].append(K)

    depth: dict[frozenset, int] = {}

    def longest(H: frozenset) -> int:
        if len(H) == 1:
            return 0
        if H not in depth:
            depth[H] = 1 + max(longest(K) for K in proper_subs[H])
        return depth[H]

    return longest(frozenset(full))


def minimal_fixing_set(group, blocks, size_bound: float | None = None) -> tuple[tuple[int, ...], ...]:
    """A small, inclusion-minimal list of blocks whose setwise fixing
    forces every block of the partition to be fixed setwise.

    Greedy phase: while the stabilizer of the picks still moves some
    block, adjoin the first moved block. Prune phase: scan the picks in
    reverse insertion order and drop any pick whose removal leaves a
    stabilizer that still fixes every block. The result is returned
    sorted by minimum vertex.

    Both phases read generators only: the stabilizer of any picks contains
    the block stabilizer, so equals it when its generators fix every block.
    The last pick stays, since without it the greedy phase saw a block move.

    Each greedy pick strictly shrinks the induced action on the block set,
    so the greedy length is bounded by the longest subgroup chain in the
    symmetric group on the blocks; `size_bound` (when given) is an
    additional promise from the caller and both bounds are enforced as
    internal-consistency checks. A group without generators fixes every
    block, so needs no pick.
    """
    if not group.generators:
        return ()
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    if not permutes_blocks(group, blocks):
        raise NotAPartitionActionError("group does not permute the blocks of the partition")

    def first_moved(picks):
        return moved_block(block_stabilizer(group, [blocks[i] for i in picks]), blocks)

    picks: list[int] = []
    while (moved := first_moved(picks)) is not None:
        picks.append(moved)

    for b in reversed(picks[:-1]):
        trial = [x for x in picks if x != b]
        if first_moved(trial) is None:
            picks = trial

    if picks and len(picks) > chain_length_bound(len(blocks)):
        raise InternalInvariantError(
            f"fixing set of length {len(picks)} exceeds the chain bound for {len(blocks)} blocks"
        )
    if size_bound is not None and len(picks) > size_bound:
        raise InternalInvariantError(f"fixing set of length {len(picks)} exceeds promised bound {size_bound}")

    return tuple(blocks[b] for b in sorted(picks, key=lambda i: blocks[i][0]))
