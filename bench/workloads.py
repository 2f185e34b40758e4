"""Workload inputs: graph texts, their seeded relabelling, and the op lists.

The generators here are the benchmark's own, independent of
``asymcolour.graphs``, so the program receives only text. Seed 0 keeps the
canonical vertex numbering (the one ``asym colour --family`` uses) in the
first copy of each graph; every other copy, and every copy under any other
seed, relabels the graph's vertices at random and maps the root with them.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass

WORKLOADS = ("corpus", "dense", "sparse")

# relabelled copies of each graph in one run
COPIES = {"corpus": 3, "dense": 1, "sparse": 3}

# connected graphs per vertex count, 1..7 vertices (OEIS A001349)
ATLAS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@dataclass(frozen=True)
class Input:
    """One graph handed to the program, as text, with the image of the
    canonical root 0 under the relabelling."""

    label: str
    text: str
    root: int


@dataclass(frozen=True)
class OracleOp:
    """One library oracle call on ``inputs[graph]``.

    ``radius`` is the truncation radius of ``interior_support_check``.
    """

    label: str
    kind: str
    graph: int
    radius: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Input, ...]
    colour: tuple[int, ...]
    oracle: tuple[OracleOp, ...]

    def texts(self) -> list[str]:
        return [inp.text for inp in self.inputs]

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Workload":
        data = json.loads(text)
        return cls(
            data["name"],
            tuple(Input(**i) for i in data["inputs"]),
            tuple(data["colour"]),
            tuple(OracleOp(**o) for o in data["oracle"]),
        )


def tree_edges(degree: int, radius: int):
    """Degree-regular tree truncated at the radius, numbered breadth-first."""
    edges = []
    next_id = 1
    frontier = [0]
    for depth in range(radius):
        new_frontier = []
        for parent in frontier:
            for _ in range(degree if depth == 0 else degree - 1):
                edges.append((parent, next_id))
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return next_id, edges


def path_edges(n: int):
    return n, [(i, i + 1) for i in range(n - 1)]


def cycle_edges(n: int):
    return n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def grid_edges(w: int, h: int):
    edges = []
    for r in range(h):
        for c in range(w):
            v = r * w + c
            if c + 1 < w:
                edges.append((v, v + 1))
            if r + 1 < h:
                edges.append((v, v + w))
    return w * h, edges


def complete_edges(n: int):
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)]


def complete_bipartite_edges(m: int, n: int):
    return m + n, [(i, m + j) for i in range(m) for j in range(n)]


def eccentricity(n: int, edges, root: int) -> int:
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adjacency[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return max(dist.values())


def atlas_corpus():
    """All connected graphs on 1..7 vertices from the networkx atlas, as
    ``(label, n, edges)`` with vertices relabelled to 0..n-1 in sorted order."""
    import networkx as nx
    from networkx.generators.atlas import graph_atlas_g

    graphs = []
    for index, g in enumerate(graph_atlas_g()):
        n = g.number_of_nodes()
        if 1 <= n <= 7 and nx.is_connected(g):
            mapping = {u: i for i, u in enumerate(sorted(g.nodes()))}
            graphs.append((f"atlas[{index}]", n, [(mapping[u], mapping[v]) for u, v in g.edges()]))
    by_n: dict[int, int] = {}
    for _, n, _ in graphs:
        by_n[n] = by_n.get(n, 0) + 1
    # an incomplete atlas would silently shrink the workload
    if by_n != ATLAS_COUNTS:
        raise RuntimeError(f"atlas corpus has {by_n} connected graphs per vertex count, expected {ATLAS_COUNTS}")
    return graphs


def graph_text(n: int, edges) -> str:
    """The adjacency-list text format: vertex count, then sorted 'u v' lines."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in edges)
    return "\n".join([str(n)] + [f"{u} {v}" for u, v in pairs]) + "\n"


def relabel(n: int, edges, rng: random.Random | None):
    """Text of the graph under a random vertex permutation (identity when
    ``rng`` is None), and the permutation as a list mapping old to new."""
    perm = list(range(n))
    if rng is not None:
        rng.shuffle(perm)
    return graph_text(n, [(perm[u], perm[v]) for u, v in edges]), perm


def _graphs(name: str):
    if name == "corpus":
        return atlas_corpus()
    if name == "dense":
        return [
            ("tree(4,2)", *tree_edges(4, 2)),
            ("tree(3,3)", *tree_edges(3, 3)),
            ("K(4,4)", *complete_bipartite_edges(4, 4)),
            ("K7", *complete_edges(7)),
        ]
    return [
        ("path(300)", *path_edges(300)),
        ("cycle(300)", *cycle_edges(300)),
        ("grid(12,12)", *grid_edges(12, 12)),
    ]


def _oracle_ops(name: str, graphs, base: int, suffix: str) -> list[OracleOp]:
    """One copy's oracle ops; its graphs start at ``inputs[base]``."""
    if name == "corpus":
        return [OracleOp(label + suffix, "motion_lemma_check", base + i) for i, (label, _, _) in enumerate(graphs)]
    if name == "dense":
        return [
            OracleOp("tree(4,2)" + suffix, "interior_support_check", base + 0, radius=2),
            OracleOp("tree(3,3)" + suffix, "interior_support_check", base + 1, radius=3),
            OracleOp("tree(4,2)" + suffix, "motion", base + 0),
            OracleOp("K(4,4)" + suffix, "distinguishing_number", base + 2),
            OracleOp("K7" + suffix, "distinguishing_number", base + 3),
        ]
    return [
        OracleOp(label + suffix, "interior_support_check", base + i, radius=eccentricity(n, edges, 0))
        for i, (label, n, edges) in enumerate(graphs)
    ]


def build_workload(name: str, seed: int) -> Workload:
    """The inputs and ops of one workload under one seed.

    Every graph appears ``COPIES`` times, each copy under its own
    relabelling: the work of the construction depends on the labels, and
    averaging over copies keeps one seed's run close to another's. Seed 0
    keeps the canonical labels in the first copy only.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    graphs = _graphs(name)
    inputs: list[Input] = []
    oracle: list[OracleOp] = []
    for copy in range(COPIES[name]):
        suffix = f"#{copy}" if COPIES[name] > 1 else ""
        base = len(inputs)
        for label, n, edges in graphs:
            text, perm = relabel(n, edges, None if seed == 0 and copy == 0 else rng)
            inputs.append(Input(label + suffix, text, perm[0]))
        oracle.extend(_oracle_ops(name, graphs, base, suffix))
    return Workload(name, tuple(inputs), tuple(range(len(inputs))), tuple(oracle))
