"""Brute-force ground truth for everything the construction claims.

Every search here is exhaustive over an explicitly bounded space; nothing
is sampled, so oracle output is admissible as test ground truth. Sizes
are protected by guards, not by approximation. A report holds only what
its search found; no clock is read here, and ``asym oracle`` times the
call itself.

``Aut(G)`` is read as a base and strong generating set,
:func:`~asymcolour.symmetry.coset_search` (the audit's coset search).
``autorder`` is its order, the product of the basic orbit lengths, and
lists nothing. The fewest points moved by a strong generator bounds the
motion from above, and every nontrivial permutation moves at least two,
so a generator that moves two settles the motion without a listing; the
motion lemma takes both numbers from the same generating set. The
elements are listed, as products of transversals, only where the motion
is not settled so. The exact order is compared with the element cap
before any element is listed, so the cap, not the graph's size, bounds
each listing, and bounds nothing else. Apart from that fallback, the
package lists elements only for the small final stabilizer a trace
embeds, both through :meth:`~asymcolour.symmetry.SGSGroup.enumerate`.
``dnumber`` and the motion lemma's 2-colourings are one walk
(:func:`_first_asymmetric`). It labels the vertices one at a time in a
labelling order, depth first, over a stabilizer chain whose base is the
reverse of that order (Sims 1970; Butler 1991, ch. 10): ``H_k`` fixes
every vertex after the k-th, and the chain is the transversals of the
coset search given the base as its point order. A prefix that labels
the first k + 1 vertices is dropped when a nontrivial element of ``H_k``
preserves it, as that element preserves every completion. The test is a
depth-first search over products of transversal elements, one level at
a time from k down, that keeps only the branches that map each point to
a point of the same label. ``dnumber`` labels 0..n-1 with restricted
growth strings; the motion lemma labels n-1..0 with two labels and
vertex 0 pinned, which is the order of the masks with vertex n-1 in the
top bit. Before the search, ``dnumber`` (not the motion lemma) looks up
the earlier twins of the k-th vertex (:func:`_twin_table`): one with the
same label makes the transposition of the two such an element, so the
prefix is dropped at once.
The asymmetry, stabilizer-order and interior-support oracles list no
elements: they read the same coset search's generating set of
``Aut(G, c)``, so they check the construction's groups by a route that
shares none of its search.
"""

from __future__ import annotations

from operator import eq

from .colouring import Colouring, numeric
from .errors import AsymmetricGraphError, InternalInvariantError, SearchGuardError, NoAsymmetricColouringError
from .graphs import Graph, Record, distances, eccentricity
from .symmetry import DEFAULT_CAP, Perm, PermGroup, SGSGroup, automorphism_sgs, compose, coset_search
from .symmetry import automorphism_group  # noqa: F401  (the acceptance tests read oracle.automorphism_group)

DISTINGUISHING_VERTEX_GUARD = 12
TWO_COLOURING_VERTEX_GUARD = 20


class OracleReport(Record):
    """What one exhaustive computation found.

    ``search_space`` is the number of objects the search examined, and
    ``details`` names the rest of what it found (a witness, the radius
    searched). A report holds no timing, so two reports of one search are
    equal. Each report without ``details`` gets a fresh empty dict.
    """

    __slots__ = ("quantity", "value", "search_space", "details")

    def __init__(self, quantity: str, value: object, search_space: int, details: dict | None = None):
        object.__setattr__(self, "quantity", quantity)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "search_space", search_space)
        object.__setattr__(self, "details", {} if details is None else details)


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


def _chain(group: SGSGroup, order) -> list[list[tuple[int, Perm]]]:
    """For each position k of a labelling ``order``, the transversal of
    the orbit of ``order[k]`` under ``H_k``, the automorphisms fixing every
    vertex after it: ``(u, t)`` with ``t`` in ``H_k`` mapping ``order[k]``
    to u. ``group`` is the :func:`~asymcolour.symmetry.coset_search` of
    ``Aut(G)`` with the reversed order as its point order, so its
    transversals are this chain; a vertex that is no base point has none.
    """
    levels = dict(zip(group.base, group.transversals()))
    return [levels.get(v, []) for v in order]


def _preserved(chain, order, labels, k: int) -> bool:
    """Whether a nontrivial element of ``H_k`` keeps the labels of the
    vertices ``order[:k + 1]``, given that none of ``H_{k-1}`` keeps those
    of ``order[:k]``. ``labels`` is indexed by vertex; only those vertices
    are read.

    Every element of ``H_k`` is one product ``t_k·t_{k-1}⋯t_0`` of
    transversal elements or identities, and one that fixes ``order[k]``
    lies in ``H_{k-1}``, so the search starts from each ``t_k`` mapping
    ``order[k]`` to another vertex of its label. It goes depth first, one
    level at a time from k down; the deeper factors fix ``order[j]``, so a
    branch maps it where its product down to ``t_j`` does, and one that
    sends it to another label is dropped at once. A branch that reaches
    below level 0 keeps every label. A level whose transversal is empty
    has only the identity.
    """
    label = labels[order[k]]
    # each branch is a product g·t, t not yet composed (None for the
    # identity), that keeps the labels of the levels above j
    stack = [(t, None, k - 1) for u, t in chain[k] if labels[u] == label]
    while stack:
        g, t, j = stack.pop()
        if t is not None:
            g = compose(g, t)
        while j >= 0 and not chain[j] and labels[g[order[j]]] == labels[order[j]]:
            j -= 1
        if j < 0:
            return True
        v = order[j]
        label = labels[v]
        stack.extend((g, t, j - 1) for u, t in chain[j] if labels[g[u]] == label)
        if labels[g[v]] == label:
            stack.append((g, None, j - 1))
    return False


def _twin_table(graph: Graph, order) -> list[tuple[int, ...]]:
    """For each position k of a labelling ``order``, the vertices before it
    in the order that are twins of ``order[k]``: u and v with N(u)∖{v} =
    N(v)∖{u}, so that the transposition ``(u v)`` is an automorphism.
    Twins that are not adjacent share their open neighbourhood and
    adjacent ones their closed neighbourhood, so the vertices are grouped
    on both in one dict. An open neighbourhood never equals a closed one,
    which would put a vertex in its own neighbourhood, so the two kinds of
    key do not meet.
    """
    groups: dict[frozenset[int], list[int]] = {}
    table = []
    for v in order:
        neighbours = graph._adjsets[v]
        apart = groups.setdefault(neighbours, [])
        adjacent = groups.setdefault(neighbours | {v}, [])
        table.append(tuple(apart + adjacent))
        apart.append(v)
        adjacent.append(v)
    return table


def _first_asymmetric(chain, twins, order, choices) -> tuple[tuple[int, ...] | None, int]:
    """The first labelling, as labels indexed by vertex, that no nontrivial
    automorphism preserves, and the number of prefixes tested; None if
    every labelling is preserved.

    The search labels the vertices in ``order``, one at a time, giving
    position k each label of ``choices(k, top)`` in turn, where top is the
    largest label of the prefix before it (-1 for none). It goes depth
    first, so full labellings come in lexicographic order of their labels
    read in ``order``. A prefix that labels ``order[:k + 1]`` is dropped
    when a nontrivial element of ``H_k``, which moves only labelled
    vertices, preserves it: that element preserves every completion, so
    the prefix is dropped with all of them (:func:`_preserved`). A full
    labelling that survives is preserved by no nontrivial element.

    ``twins[k]`` lists vertices of ``order[:k]`` that are twins of
    ``order[k]`` (:func:`_twin_table`; empty tuples turn the test off).
    When one of them has the label just given, their transposition fixes
    every vertex after position k, so lies in ``H_k``, is nontrivial and
    keeps every label: :func:`_preserved` would say so, and the prefix is
    dropped without the search. It still counts as tested, so the search
    space, and what the walk returns, do not depend on the table.
    """
    n = len(order)
    labels = [0] * n
    tested = 0
    # options[k] yields the labels position k has still to try; tops[k] is
    # the largest label before position k
    options = [iter(choices(0, -1))]
    tops = [-1]
    while options:
        k = len(options) - 1
        label = next(options[k], None)
        if label is None:
            options.pop()
            tops.pop()
            continue
        tested += 1
        # a twin of the same label: their transposition keeps every label
        if twins[k] and label in map(labels.__getitem__, twins[k]):
            continue
        labels[order[k]] = label
        # an empty level adds only the identity, so keeps nothing new
        if not (chain[k] and _preserved(chain, order, labels, k)):
            if k + 1 == n:
                return tuple(labels), tested
            tops.append(max(tops[k], label))
            options.append(iter(choices(k + 1, tops[-1])))
    return None, tested


def _asymmetric_partition(graph: Graph, class_counts) -> tuple[tuple[int, ...] | None, int]:
    """The first partition, over each class count in turn, that no
    nontrivial automorphism preserves (None if there is none), and the
    number of prefixes tested. Partitions are restricted growth strings,
    labelled in the order 0..n-1: class labels appear in first-use order,
    which quotients out colour renamings, so vertex 0 has label 0.
    Prefixes that give two twins one label are refuted by their
    transposition (:func:`_twin_table`) before the chain is searched,
    which changes no result and no count."""
    n = graph.n
    order = range(n)
    chain = _chain(coset_search(graph, [0] * n, order=order[::-1]), order)
    twins = _twin_table(graph, order)
    tested = 0
    for classes in class_counts:
        if not 1 <= classes <= n:
            continue

        def choices(k: int, top: int, classes=classes) -> range:
            # the labels vertex k may take after a prefix whose largest
            # label is top: at most top + 1, leaving room for every class
            least = top + 1 if classes - 1 - top > n - 1 - k else 0
            return range(least, min(top + 1, classes - 1) + 1)

        labels, count = _first_asymmetric(chain, twins, order, choices)
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
    completion of it (:func:`_first_asymmetric`), so each partition is
    refuted or returned. The automorphisms are read from a stabilizer
    chain (:func:`_chain`) and never listed, so no element cap applies.
    A prefix that gives two twins one colour is refuted by their
    transposition, without a search of the chain; it is counted all the
    same, so the search space is the number of prefixes tested either way.
    The search at c colours only runs after every (c-1)-class partition
    has been refuted, so the returned value is minimal by exhaustion.
    """
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
    return OracleReport("dnumber", max(witness) + 1, examined, {"witness": " ".join(map(str, witness))})


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
    group = automorphism_sgs(graph)
    value, listed = _motion(group, cap)
    examined = len(group.generators) if listed is None else listed.order
    return OracleReport("motion", value, examined)


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

    The order and the motion come from one strong generating set, the
    :func:`~asymcolour.symmetry.coset_search` of ``Aut(G)`` with points
    0..n-1, whose elements are listed only when the motion needs them.
    Once the hypothesis holds, the walk of ``dnumber`` labels the vertices
    from n-1 down over that group's chain, with two labels and vertex 0's
    pinned. That is mask order, vertex n-1 in the top bit, so it finds the
    first mask that no nontrivial automorphism preserves; the search space
    is its rank, the masks a scan of whole 2-colourings tests. The
    hypothesis holding but the search failing would disprove a theorem,
    so that case raises an internal error instead of reporting.

    The walk gets no twin table, unlike ``dnumber``'s. Twins make the
    motion 2, and then the hypothesis holds only for ``|Aut| <= 2``, where
    the walk is short already; building the table would cost every graph
    that reaches the walk and save next to nothing.
    """
    n = graph.n
    group = coset_search(graph, [0] * n, order=range(n))
    m, _ = _motion(group, cap)
    order = group.order
    details = {"motion": m, "aut-order": order}
    if not _motion_hypothesis(m, order):
        return OracleReport("motion-lemma", "hypothesis-not-satisfied", 0, details)

    if n > TWO_COLOURING_VERTEX_GUARD:
        raise SearchGuardError(
            f"2-colouring search supports up to {TWO_COLOURING_VERTEX_GUARD} vertices, got {n}"
        )
    labelling = range(n - 1, -1, -1)
    # vertex 0, labelled last, is pinned: swapping the two colours preserves asymmetry
    witness, _ = _first_asymmetric(
        _chain(group, labelling), [()] * n, labelling, lambda k, top: range(2 if k < n - 1 else 1)
    )
    if witness is None:
        raise InternalInvariantError("motion lemma hypothesis held but no 2-colouring was found")
    colouring = Colouring(tuple(numeric(label + 1) for label in witness))
    details["colouring"] = " ".join(c.token() for c in colouring.colours)
    rank = 1 + sum(label << (v - 1) for v, label in enumerate(witness) if v)
    return OracleReport("motion-lemma", "colouring-found", rank, details)


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
    if truncation_radius is None:
        truncation_radius = eccentricity(graph, root)
    searched = exterior_stabilizer(graph, root, truncation_radius)
    value = "true" if searched.is_trivial() else "false"
    return OracleReport("interior-support", value, searched.order, {"root": root, "radius": truncation_radius})


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
    group = automorphism_sgs(graph)
    return OracleReport("autorder", group.order, len(group.generators))


def automorphism_order(graph: Graph) -> int:
    """``|Aut(G)|``; see :func:`autorder_report`."""
    return autorder_report(graph).value
