"""Brute-force ground truth for everything the construction claims.

Every search here is exhaustive over an explicitly bounded space; nothing
is sampled, so oracle output is admissible as test ground truth. Sizes
are protected by guards, not by approximation.

``Aut(G)`` is read as a base and strong generating set,
:func:`~asymcolour.symmetry.automorphism_sgs` (the audit's coset search).
``autorder`` is its order, the product of the basic orbit lengths, and
lists nothing. The fewest points moved by a strong generator bounds the
motion from above, and every nontrivial permutation moves at least two,
so a generator that moves two settles the motion without a listing; the
motion lemma takes both numbers from the same generating set. The
elements are listed once, as products of transversals, only where the
motion is not settled so, and for the motion lemma's 2-colourings once
its hypothesis holds. The exact order is compared with the element cap
before any element is listed, so the cap, not the graph's size, bounds
each listing, and bounds nothing else. The 2-colourings are scanned whole
against a table of the nontrivial elements, fewest moved points first,
with C-level getters.
``dnumber`` lists nothing. It searches colour partitions depth first, one
vertex's label at a time, and reads ``Aut(G)`` as a stabilizer chain with
base n-1, ..., 0 (Sims 1970; Butler 1991, ch. 10): ``H_i`` fixes every
vertex above i and is the coset search of keys distinct above i, split
from ``H_{i+1}``'s partition. A prefix that labels 0..i is dropped when a
nontrivial element of ``H_i`` preserves it, as that element preserves
every completion. The test is a depth-first search over products of
transversal elements, one level at a time from i down, that keeps only
the branches that map each point to a point of the same label.
The asymmetry, stabilizer-order and interior-support oracles list no
elements: they read the same coset search's generating set of
``Aut(G, c)``, so they check the construction's groups by a route that
shares none of its search.
"""

from __future__ import annotations

import time
from itertools import compress
from operator import eq, itemgetter, ne

from .colouring import Colouring, numeric
from .errors import AsymmetricGraphError, InternalInvariantError, SearchGuardError, NoAsymmetricColouringError
from .graphs import Graph, Record, distances, eccentricity
from .symmetry import DEFAULT_CAP, Perm, PermGroup, SGSGroup, automorphism_sgs, compose, coset_search, identity_perm
from .symmetry import automorphism_group  # noqa: F401  (the acceptance tests read oracle.automorphism_group)

DISTINGUISHING_VERTEX_GUARD = 12
TWO_COLOURING_VERTEX_GUARD = 20


class OracleReport(Record):
    """Result of one exhaustive computation.

    ``search_space`` is the number of objects the search examined;
    ``elapsed`` is wall-clock seconds (diagnostic only, never part of a
    deterministic output file). Each report without ``details`` gets a
    fresh empty dict.
    """

    __slots__ = ("quantity", "value", "search_space", "elapsed", "details")

    def __init__(self, quantity: str, value: object, search_space: int, elapsed: float, details: dict | None = None):
        object.__setattr__(self, "quantity", quantity)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "search_space", search_space)
        object.__setattr__(self, "elapsed", elapsed)
        object.__setattr__(self, "details", {} if details is None else details)

    def kv_lines(self) -> list[str]:
        lines = [
            f"oracle.quantity {self.quantity}",
            f"oracle.value {self.value}",
            f"oracle.search-space {self.search_space}",
            f"oracle.elapsed {self.elapsed:.3f}",
        ]
        lines.extend(f"oracle.{key} {value}" for key, value in sorted(self.details.items()))
        return lines


def is_asymmetric(graph: Graph, colouring) -> bool:
    """True iff only the identity automorphism preserves the colouring.

    Decided by :func:`~asymcolour.symmetry.automorphism_sgs`, the coset
    search keyed by the colouring's 1-WL classes, which lists no elements.
    """
    return automorphism_sgs(graph, colouring).is_trivial()


def stabilizer_order(graph: Graph, colouring) -> int:
    """The order of the colouring's stabilizer in ``Aut(G)``, read off the
    strong generating set of :func:`is_asymmetric`'s search."""
    return automorphism_sgs(graph, colouring).order


def _transversals(graph: Graph) -> list[list[tuple[int, Perm]]]:
    """For each vertex i, a transversal of i's orbit under ``H_i``, the
    automorphisms that fix every vertex above i: one ``(u, t)`` for each
    other point u of the orbit, with ``t`` in ``H_i`` mapping i to u.

    The chain has base n-1, n-2, ..., 0 (Sims 1970). ``H_{n-1}`` is
    ``Aut(G)``, and ``H_{i-1}``, the stabilizer of i in ``H_i``, is the
    :func:`~asymcolour.symmetry.coset_search` of the keys that are 0 on
    0..i-1 and distinct above, split from ``H_i``'s partition; it is
    ``H_i`` itself when every generator fixes i. Each orbit is closed
    under ``H_i``'s generators from i, and the representative of an image
    is the generator composed with the representative it was reached from.
    """
    n = graph.n
    transversals: list[list[tuple[int, Perm]]] = [[] for _ in range(n)]
    group = automorphism_sgs(graph)
    for i in reversed(range(n)):
        if group.is_trivial():
            break
        representatives = {i: identity_perm(n)}
        orbit = [i]
        for u in orbit:
            for g in group.generators:
                if g[u] not in representatives:
                    representatives[g[u]] = compose(g, representatives[u])
                    orbit.append(g[u])
        transversals[i] = [(u, representatives[u]) for u in orbit[1:]]
        if len(orbit) > 1:
            group = coset_search(graph, [0] * i + list(range(1, n - i + 1)), parent=group)
    return transversals


def _preserved(transversals, labels) -> bool:
    """Whether a nontrivial element of ``H_i`` keeps the labels of the
    points 0..i, where i is the last labelled point, given that none of
    ``H_{i-1}`` keeps those of 0..i-1.

    Every element of ``H_i`` is one product ``t_i·t_{i-1}⋯t_0`` of
    transversal elements or identities, and one that fixes i lies in
    ``H_{i-1}``, so the search starts from each ``t_i`` mapping i to
    another point of its label. It goes depth first, one level at a time
    from i down; the deeper factors fix j, so a branch maps j where its
    product down to ``t_j`` does, and one that sends j to another label is
    dropped at once. A branch that reaches below level 0 keeps every
    label. A level whose transversal is empty has only the identity.
    """
    i = len(labels) - 1
    # each branch is a product g·t, t not yet composed (None for the
    # identity), that keeps the labels of the levels above j
    stack = [(t, None, i - 1) for u, t in transversals[i] if labels[u] == labels[i]]
    while stack:
        g, t, j = stack.pop()
        if t is not None:
            g = compose(g, t)
        while j >= 0 and not transversals[j] and labels[g[j]] == labels[j]:
            j -= 1
        if j < 0:
            return True
        label = labels[j]
        stack.extend((g, t, j - 1) for u, t in transversals[j] if labels[g[u]] == label)
        if labels[g[j]] == label:
            stack.append((g, None, j - 1))
    return False


def _first_asymmetric_labelling(transversals, classes: int) -> tuple[tuple[int, ...] | None, int]:
    """The first restricted growth string with exactly ``classes`` classes
    that no nontrivial automorphism preserves, and the number of prefixes
    tested.

    Restricted growth strings list each partition of the points once:
    class labels appear in first-use order, which quotients out colour
    renamings, and point 0 always has label 0. The search extends a
    prefix one label at a time, least label first, so full strings come
    in lexicographic order. A prefix that assigns point v is dropped when
    a nontrivial element of ``H_v``, which moves only assigned points,
    preserves it: that element preserves every completion, so the prefix
    is dropped with all of them (:func:`_preserved`). A full string that
    survives is preserved by no nontrivial element.
    """
    n = len(transversals)
    tested = 0

    def choices(i: int, top: int) -> range:
        # the labels point i may take after a prefix whose largest label is
        # top: at most top + 1, and leaving room for every class above top
        least = top + 1 if classes - 1 - top > n - 1 - i else 0
        return range(least, min(top + 1, classes - 1) + 1)

    # options[i] yields the labels point i has still to try, least first;
    # prefix holds the labels of the points before the last of them
    options = [iter(choices(0, -1))] if 1 <= classes <= n else []
    prefix: tuple[int, ...] = ()
    while options:
        i = len(options) - 1
        label = next(options[i], None)
        if label is None:
            options.pop()
            prefix = prefix[:-1]
            continue
        tested += 1
        labels = prefix + (label,)
        if not _preserved(transversals, labels):
            if i + 1 == n:
                return labels, tested
            options.append(iter(choices(i + 1, max(labels))))
            prefix = labels
    return None, tested


def _support_table(group: PermGroup) -> list[tuple[itemgetter, itemgetter]]:
    """The nontrivial elements, fewest moved points first, each as a pair
    of getters: one over the points it moves and one over their images.

    A labelling is preserved by the element exactly when both getters read
    the same labels from it. An element that moves few points preserves
    the most labellings, so a scan in this order usually stops early.
    Only the motion lemma's scan of whole 2-colourings reads it; ``dnumber``
    tests its prefixes against a stabilizer chain (:func:`_transversals`).
    """
    points = range(group.degree)
    fixed = lambda p: sum(map(eq, p, points))
    table = []
    # the sorted elements start with the identity
    for p in sorted(group.elements[1:], key=fixed, reverse=True):
        at = itemgetter(*compress(points, map(ne, p, points)))
        table.append((at, itemgetter(*at(p))))
    return table


def _preserving_automorphism(table, labels) -> bool:
    """Whether some element of the support table preserves the label classes."""
    for at, to in table:
        if at(labels) == to(labels):
            return True
    return False


def _asymmetric_partition(graph: Graph, class_counts) -> tuple[tuple[int, ...] | None, int]:
    """The first partition, over each class count in turn, that no
    nontrivial automorphism preserves (None if there is none), and the
    number of prefixes tested."""
    transversals = _transversals(graph)
    tested = 0
    for classes in class_counts:
        labels, count = _first_asymmetric_labelling(transversals, classes)
        tested += count
        if labels is not None:
            return labels, tested
    return None, tested


def distinguishing_report(graph: Graph, max_colours: int | None = None) -> OracleReport:
    """The least number of colours admitting an asymmetric colouring, with
    the first such partition as witness and the number of prefixes tested
    as search space.

    Exhaustive over set partitions (colourings up to colour renaming) with
    the first vertex's colour pinned; exactness is unaffected because both
    colour permutations and automorphisms act on the colouring space. The
    partitions are searched depth first in lexicographic order, and a
    prefix is dropped only when a nontrivial automorphism preserves every
    completion of it (:func:`_first_asymmetric_labelling`), so each
    partition is refuted or returned. The automorphisms are read from a
    stabilizer chain (:func:`_transversals`) and never listed, so no
    element cap applies. The search at c colours only runs after every
    (c-1)-class partition has been refuted, so the returned value is
    minimal by exhaustion.
    """
    start = time.perf_counter()
    if graph.n > DISTINGUISHING_VERTEX_GUARD:
        raise SearchGuardError(
            f"distinguishing-number search supports up to {DISTINGUISHING_VERTEX_GUARD} vertices, got {graph.n}"
        )
    if max_colours is None:
        max_colours = graph.max_degree + 1
    if max_colours < 1:
        raise SearchGuardError(f"max_colours must be >= 1, got {max_colours}")
    witness, examined = _asymmetric_partition(graph, range(1, min(max_colours, graph.n) + 1))
    if witness is None:
        raise NoAsymmetricColouringError(f"no asymmetric colouring with at most {max_colours} colours")
    return OracleReport(
        quantity="dnumber",
        value=max(witness) + 1,
        search_space=examined,
        elapsed=time.perf_counter() - start,
        details={"witness": " ".join(str(x) for x in witness)},
    )


def distinguishing_number(graph: Graph, max_colours: int | None = None) -> int:
    """The least number of colours admitting an asymmetric colouring; see
    :func:`distinguishing_report`."""
    return distinguishing_report(graph, max_colours).value


def distinguishing_witness(graph: Graph, classes: int) -> tuple[int, ...] | None:
    """First asymmetric partition with the given class count, if any."""
    return _asymmetric_partition(graph, (classes,))[0]


def _motion(group: SGSGroup, cap: int) -> tuple[int, PermGroup | None]:
    """The fewest points a nontrivial element moves, with the element list
    scanned to find it, or None when a strong generator settles it.

    A generator that moves two points gives the motion at once, since no
    nontrivial permutation moves fewer; otherwise every element is listed
    under ``cap`` and scanned. Undefined for the trivial group, which
    raises rather than returning a sentinel.
    """
    if group.is_trivial():
        raise AsymmetricGraphError("graph has no nontrivial automorphism; motion is undefined")
    if min(map(len, group.supports)) == 2:
        return 2, None
    points = range(group.degree)
    listed = group.enumerate(cap)
    # the sorted elements start with the identity; the rest are nontrivial
    return group.degree - max(sum(map(eq, p, points)) for p in listed.elements[1:]), listed


def motion_report(graph: Graph, cap: int = DEFAULT_CAP) -> OracleReport:
    """Minimum number of vertices moved by a nontrivial automorphism. The
    search space is the number of strong generators read when one of them
    settles it, and otherwise ``|Aut|``, every element of which is
    examined."""
    start = time.perf_counter()
    group = automorphism_sgs(graph)
    value, listed = _motion(group, cap)
    examined = len(group.generators) if listed is None else listed.order
    return OracleReport("motion", value, examined, time.perf_counter() - start)


def motion(graph: Graph, cap: int = DEFAULT_CAP) -> int:
    """Minimum number of vertices moved by a nontrivial automorphism; see
    :func:`motion_report`."""
    return motion_report(graph, cap).value


def _motion_hypothesis(motion_value: int, order: int) -> bool:
    """The motion lemma's hypothesis ``2^(m/2) >= |Aut|``, tested exactly
    in integers as ``2^m >= |Aut|^2`` (a float ``2.0 ** (m / 2)``
    overflows once m exceeds 2046)."""
    return 2**motion_value >= order**2


def motion_lemma_check(graph: Graph, cap: int = DEFAULT_CAP) -> OracleReport:
    """Check the motion hypothesis 2^(m/2) >= |Aut| and, when it holds,
    exhaustively find the promised asymmetric 2-colouring.

    The order and the motion come from one strong generating set; the
    elements are listed only when the hypothesis holds, for the
    2-colouring scan, or when the motion needs them. The hypothesis
    holding but the search failing would disprove a theorem, so that case
    raises an internal error instead of reporting.
    """
    start = time.perf_counter()
    group = automorphism_sgs(graph)
    m, listed = _motion(group, cap)
    order = group.order
    details = {"motion": m, "aut-order": order}
    if not _motion_hypothesis(m, order):
        return OracleReport(
            quantity="motion-lemma",
            value="hypothesis-not-satisfied",
            search_space=0,
            elapsed=time.perf_counter() - start,
            details=details,
        )

    if listed is None:
        listed = group.enumerate(cap)
    if graph.n > TWO_COLOURING_VERTEX_GUARD:
        raise SearchGuardError(
            f"2-colouring search supports up to {TWO_COLOURING_VERTEX_GUARD} vertices, got {graph.n}"
        )
    table = _support_table(listed)
    tested = 0
    witness = None
    # vertex 0's colour is pinned: swapping the two colours preserves asymmetry
    for mask in range(2 ** (graph.n - 1)):
        labels = (0,) + tuple((mask >> i) & 1 for i in range(graph.n - 1))
        tested += 1
        if not _preserving_automorphism(table, labels):
            witness = labels
            break
    if witness is None:
        raise InternalInvariantError("motion lemma hypothesis held but no 2-colouring was found")
    colouring = Colouring(tuple(numeric(label + 1) for label in witness))
    details["colouring"] = " ".join(c.token() for c in colouring.colours)
    return OracleReport(
        quantity="motion-lemma",
        value="colouring-found",
        search_space=tested,
        elapsed=time.perf_counter() - start,
        details=details,
    )


def interior_support_check(graph: Graph, root: int, truncation_radius: int) -> bool:
    """True iff no nontrivial automorphism moves only vertices strictly
    inside the truncation ball.

    When true, the boundary of the truncated graph is rigid: any
    automorphism fixing the outermost sphere and beyond pointwise is the
    identity, which is the finite stand-in for the extension argument on
    infinite graphs. Decided by :func:`exterior_stabilizer`, which lists
    no elements.
    """
    return exterior_stabilizer(graph, root, truncation_radius).is_trivial()


def interior_support_report(graph: Graph, root: int, truncation_radius: int | None = None) -> OracleReport:
    """:func:`interior_support_check` as a report, with the order of the
    searched :func:`exterior_stabilizer` as search space. The radius
    defaults to the root's eccentricity."""
    start = time.perf_counter()
    if truncation_radius is None:
        truncation_radius = eccentricity(graph, root)
    searched = exterior_stabilizer(graph, root, truncation_radius)
    return OracleReport(
        "interior-support",
        "true" if searched.is_trivial() else "false",
        searched.order,
        time.perf_counter() - start,
        details={"root": root, "radius": truncation_radius},
    )


def exterior_stabilizer(graph: Graph, root: int, truncation_radius: int) -> SGSGroup:
    """The automorphisms fixing every vertex outside ``ball(root,
    truncation_radius - 1)``: exactly those whose support lies inside it.

    Searched exhaustively by :func:`~asymcolour.symmetry.automorphism_sgs`
    as the automorphisms of the colouring that gives each outside vertex a
    colour of its own.
    """
    dist = distances(graph, root)
    if truncation_radius < 0:
        raise ValueError(f"truncation radius must be >= 0, got {truncation_radius}")
    if truncation_radius > max(dist):
        raise ValueError(f"truncation radius {truncation_radius} exceeds the root's eccentricity")
    return automorphism_sgs(graph, [-1 if d < truncation_radius else v for v, d in enumerate(dist)])


def autorder_report(graph: Graph) -> OracleReport:
    """``|Aut(G)|``, the product of the basic orbit lengths of its strong
    generating set, with the number of strong generators as search space.
    No element is listed, so no cap applies."""
    start = time.perf_counter()
    group = automorphism_sgs(graph)
    return OracleReport("autorder", group.order, len(group.generators), time.perf_counter() - start)


def automorphism_order(graph: Graph) -> int:
    """``|Aut(G)|``; see :func:`autorder_report`."""
    return autorder_report(graph).value
