"""Finite simple connected graphs, built-in families, and metric helpers.

Vertices are dense integers 0..n-1. All graph values are immutable after
construction and every function here is pure, so values can be shared
freely. Family generators number vertices deterministically (breadth-first
from the root for trees) so that repeated runs are bit-reproducible.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import count

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    GraphFormatError,
    GraphStructureError,
    SelfLoopError,
    VertexRangeError,
)


class Record:
    """Base of the immutable value types: the fields are the ``__slots__``.

    Two records are equal when they have the same type and equal fields,
    and hash and ``repr`` follow the fields in slot order. A subclass's
    ``__init__`` takes the fields in that order under the same names and
    sets each with ``object.__setattr__``, as ``Graph`` does.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()


class Graph:
    """An immutable simple undirected connected graph.

    Equality and hashing consider only the structure (vertex count and
    adjacency); ``family_tag`` is descriptive metadata.
    """

    __slots__ = ("n", "adjacency", "family_tag", "max_degree", "_adjsets")

    def __init__(self, n: int, adjacency: tuple[tuple[int, ...], ...], family_tag: str | None = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "family_tag", family_tag)
        object.__setattr__(self, "max_degree", max(map(len, adjacency), default=0))
        object.__setattr__(self, "_adjsets", tuple(map(frozenset, adjacency)))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adjacency == other.adjacency

    def __hash__(self):
        return hash((self.n, self.adjacency))

    def __repr__(self):
        tag = f", family_tag={self.family_tag!r}" if self.family_tag else ""
        return f"Graph(n={self.n}, edges={self.edge_count}{tag})"

    @property
    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjsets[u]

    def neighbours(self, v: int) -> frozenset[int]:
        return self._adjsets[v]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]


def build_graph(vertex_count: int, edges, family_tag: str | None = None) -> Graph:
    """Validate and build a graph from an edge list.

    Rejects self-loops, duplicate edges, out-of-range endpoints, and
    disconnected graphs, each with its own error type. Adjacency lists in
    the result are sorted ascending. A connected graph on n vertices has
    at least n - 1 edges, so a vertex count beyond that is rejected from
    the edges alone, before anything is sized by it.
    """
    if vertex_count < 1:
        raise GraphStructureError(f"graph needs at least one vertex, got {vertex_count}")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < vertex_count) or not (0 <= v < vertex_count):
            raise VertexRangeError(f"edge ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge ({key[0]}, {key[1]})")
        seen.add(key)
    if vertex_count > len(seen) + 1:
        touching: defaultdict[int, list[int]] = defaultdict(list)
        for u, v in seen:
            touching[u].append(v)
            touching[v].append(u)
        _check_connected(vertex_count, touching)
    adj: list[list[int]] = [[] for _ in range(vertex_count)]
    for u, v in seen:
        adj[u].append(v)
        adj[v].append(u)
    graph = Graph(vertex_count, tuple(map(tuple, map(sorted, adj))), family_tag)
    _check_connected(vertex_count, graph.adjacency)
    return graph


def _check_connected(n: int, neighbours) -> None:
    """Raise unless every vertex of 0..n-1 is reached from 0 through
    ``neighbours[u]``, naming the smallest vertex that is not; nothing is
    sized by n."""
    reached = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in neighbours[u]:
            if v not in reached:
                reached.add(v)
                queue.append(v)
    if len(reached) != n:
        missing = next(v for v in count() if v not in reached)
        raise DisconnectedError(f"graph is disconnected (vertex {missing} unreachable from 0)")


class FamilySpec(Record):
    """Parameters for one of the built-in graph families.

    tree(degree, radius) is the degree-regular tree truncated at the given
    distance from the root: the root has `degree` children, every other
    internal vertex has `degree - 1` children, and all leaves sit at the
    truncation distance.
    """

    __slots__ = ("family", "degree", "radius", "n", "m", "w", "h")

    FAMILIES = ("tree", "cycle", "path", "complete", "complete_bipartite", "grid")

    def __init__(
        self,
        family: str,
        degree: int | None = None,
        radius: int | None = None,
        n: int | None = None,
        m: int | None = None,
        w: int | None = None,
        h: int | None = None,
    ):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "h", h)
        if self.family not in self.FAMILIES:
            raise GraphStructureError(f"unknown family {self.family!r}")
        checks = {
            "tree": [("degree", self.degree, 2), ("radius", self.radius, 1)],
            "cycle": [("n", self.n, 3)],
            "path": [("n", self.n, 1)],
            "complete": [("n", self.n, 1)],
            "complete_bipartite": [("m", self.m, 1), ("n", self.n, 1)],
            "grid": [("w", self.w, 1), ("h", self.h, 1)],
        }[self.family]
        for name, value, low in checks:
            if value is None or value < low:
                raise GraphStructureError(f"{self.family} requires {name} >= {low}, got {value}")


def generate_family(spec: FamilySpec) -> Graph:
    """Build a graph from a family spec with canonical vertex numbering."""
    if spec.family == "tree":
        return truncated_tree(spec.degree, spec.radius)
    if spec.family == "cycle":
        return cycle_graph(spec.n)
    if spec.family == "path":
        return path_graph(spec.n)
    if spec.family == "complete":
        return complete_graph(spec.n)
    if spec.family == "complete_bipartite":
        return complete_bipartite_graph(spec.m, spec.n)
    return grid_graph(spec.w, spec.h)


def truncated_tree(degree: int, radius: int) -> Graph:
    """The degree-regular tree truncated at the given radius, BFS-numbered."""
    spec = FamilySpec("tree", degree=degree, radius=radius)
    edges = []
    next_id = 1
    frontier = [0]
    for depth in range(spec.radius):
        children_per_vertex = spec.degree if depth == 0 else spec.degree - 1
        new_frontier = []
        for parent in frontier:
            for _ in range(children_per_vertex):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return build_graph(next_id, edges, family_tag=f"tree({degree},{radius})")


def cycle_graph(n: int) -> Graph:
    FamilySpec("cycle", n=n)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return build_graph(n, edges, family_tag=f"cycle({n})")


def path_graph(n: int) -> Graph:
    FamilySpec("path", n=n)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], family_tag=f"path({n})")


def complete_graph(n: int) -> Graph:
    FamilySpec("complete", n=n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_graph(n, edges, family_tag=f"complete({n})")


def complete_bipartite_graph(m: int, n: int) -> Graph:
    FamilySpec("complete_bipartite", m=m, n=n)
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return build_graph(m + n, edges, family_tag=f"complete_bipartite({m},{n})")


def grid_graph(w: int, h: int) -> Graph:
    FamilySpec("grid", w=w, h=h)
    edges = []
    for r in range(h):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < h:
                edges.append((v, v + w))
    return build_graph(w * h, edges, family_tag=f"grid({w},{h})")


def distances(graph: Graph, root: int) -> list[int]:
    """Geodesic distance from the root to every vertex, by BFS."""
    if not (0 <= root < graph.n):
        raise VertexRangeError(f"root {root} outside 0..{graph.n - 1}")
    dist = [-1] * graph.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in graph.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def sphere(graph: Graph, root: int, k: int) -> tuple[int, ...]:
    """Vertices at distance exactly k from the root, sorted."""
    dist = distances(graph, root)
    return tuple(v for v in range(graph.n) if dist[v] == k)


def ball(graph: Graph, root: int, k: int) -> tuple[int, ...]:
    """Vertices at distance at most k from the root, sorted."""
    dist = distances(graph, root)
    return tuple(v for v in range(graph.n) if 0 <= dist[v] <= k)


def eccentricity(graph: Graph, root: int) -> int:
    return max(distances(graph, root))


def parse_int(token: str) -> int:
    """An integer written as ASCII ``-?[0-9]+``, the one form the text
    formats take; raises ValueError on the other forms ``int`` accepts."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def parse_graph(text: str) -> Graph:
    """Parse the adjacency-list text format.

    First non-comment line is the vertex count; every further non-empty,
    non-comment line is an edge "u v" with 0 <= u < v < n. '#' starts a
    comment line.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphFormatError("expected a single vertex count", line=lineno)
            try:
                n = parse_int(fields[0])
            except ValueError:
                raise GraphFormatError(f"invalid vertex count {fields[0]!r}", line=lineno) from None
            continue
        if len(fields) != 2:
            raise GraphFormatError(f"expected an edge 'u v', got {line!r}", line=lineno)
        try:
            u, v = parse_int(fields[0]), parse_int(fields[1])
        except ValueError:
            raise GraphFormatError(f"non-integer edge endpoint in {line!r}", line=lineno) from None
        if not (0 <= u < v < n):
            if u >= n or v >= n or u < 0 or v < 0:
                raise VertexRangeError(f"line {lineno}: edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            raise GraphFormatError(f"edge endpoints must satisfy u < v, got ({u}, {v})", line=lineno)
        edges.append((u, v))
    if n is None:
        raise GraphFormatError("empty input: missing vertex count")
    return build_graph(n, edges)


def serialize_graph(graph: Graph) -> str:
    """Canonical text form: vertex count, then sorted 'u v' edge lines."""
    lines = [str(graph.n)]
    lines.extend(f"{u} {v}" for u, v in graph.edges())
    return "\n".join(lines) + "\n"
