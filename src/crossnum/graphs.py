"""Simple graphs, vertex covers, and the compressed (G_X, h) representation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property


class CoverSizeExceeded(Exception):
    """No vertex cover of the requested size exists."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on integer vertex ids."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        vs = tuple(sorted(set(self.vertices)))
        es = []
        vset = set(vs)
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if u not in vset or v not in vset:
                raise ValueError(f"edge ({u},{v}) leaves the vertex set")
            es.append((u, v) if u < v else (v, u))
        es_sorted = tuple(sorted(es))
        for a, b in zip(es_sorted, es_sorted[1:]):
            if a == b:
                raise ValueError(f"repeated edge {a}")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", es_sorted)

    @staticmethod
    def from_edges(edges, extra_vertices=()) -> "Graph":
        edges = tuple(edges)  # read once: `edges` may be a generator
        vs = set(extra_vertices)
        for u, v in edges:
            vs.add(u)
            vs.add(v)
        return Graph(tuple(sorted(vs)), edges)

    @cached_property
    def adjacency(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.edge_set

    def components(self) -> list[frozenset[int]]:
        return connected_components(self.vertices, self.edges)

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


def connected_components(nodes, edges) -> list[frozenset]:
    """The connected components of the graph on `nodes` whose edges are
    the node pairs `edges`, in the order of their first node in `nodes`."""
    adj: dict = {v: [] for v in nodes}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        stack, comp = [start], {start}
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with the m-side on ids 0..m-1."""
    edges = [(i, m + j) for i in range(m) for j in range(n)]
    return Graph(tuple(range(m + n)), tuple(edges))


def complete_graph(n: int) -> Graph:
    return Graph(tuple(range(n)), tuple(itertools.combinations(range(n), 2)))


# ---------------------------------------------------------------------------
# vertex covers


def _cover_search(edges, chosen, budget):
    """The least sorted cover of the remaining edges that adds exactly
    `budget` picks to `chosen`, or None."""
    uncovered = [e for e in edges if e[0] not in chosen and e[1] not in chosen]
    if not uncovered:
        return sorted(chosen) if budget == 0 else None
    if budget == 0:
        return None
    best = None
    for pick in min(uncovered):
        chosen.add(pick)
        found = _cover_search(uncovered, chosen, budget - 1)
        chosen.remove(pick)
        if found is not None and (best is None or found < best):
            best = found
    return best


def find_vertex_cover(g: Graph, k_max: int) -> frozenset[int]:
    """Minimum vertex cover via edge branching, capped at size k_max.

    Each connected component is searched on its own, within what the
    earlier components left of k_max, and the components' least covers
    join into the lexicographically least cover among those of minimum
    size.  Raises CoverSizeExceeded when every cover is larger than k_max.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    comp_of = {v: i for i, comp in enumerate(g.components()) for v in comp}
    edges_of: dict[int, list] = {}
    for e in g.edges:
        edges_of.setdefault(comp_of[e[0]], []).append(e)
    cover: list[int] = []
    for edges in edges_of.values():
        for k in range(k_max - len(cover) + 1):
            found = _cover_search(edges, set(), k)
            if found is not None:
                cover += found
                break
        else:
            raise CoverSizeExceeded(f"no vertex cover of size <= {k_max}")
    return frozenset(cover)


# ---------------------------------------------------------------------------
# compressed representation


@dataclass(frozen=True)
class CompressedGraph:
    """(X, G_X, h): cover size k, induced subgraph on cover indices 0..k-1,
    and counts h mapping neighborhood bitmasks to multiplicities."""

    k: int
    gx_edges: tuple[tuple[int, int], ...]
    h: tuple[tuple[int, int], ...]  # sorted (bitmask, count), count > 0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"negative cover size {self.k}")
        for u, v in self.gx_edges:
            if u == v:
                raise ValueError(f"G_X self-loop at {u}")
            if not (0 <= u < v < self.k):
                raise ValueError(f"G_X edge ({u},{v}) outside cover range")
        if len(set(self.gx_edges)) != len(self.gx_edges):
            raise ValueError("repeated G_X edge")
        seen = set()
        for mask, count in self.h:
            if mask < 0 or mask.bit_length() > self.k:
                raise ValueError(f"h mask {mask} not a subset of the cover")
            if count <= 0:
                raise ValueError("h counts must be positive")
            if mask in seen:
                raise ValueError(f"duplicate h mask {mask}")
            seen.add(mask)
        object.__setattr__(self, "gx_edges", tuple(sorted(self.gx_edges)))
        object.__setattr__(self, "h", tuple(sorted(self.h)))

    @property
    def h_map(self) -> dict[int, int]:
        return dict(self.h)

    def total_vertices(self) -> int:
        return self.k + sum(c for _, c in self.h)

    @staticmethod
    def make(k, gx_edges, h_map) -> "CompressedGraph":
        items = tuple(sorted((m, c) for m, c in h_map.items() if c))
        return CompressedGraph(k, tuple(gx_edges), items)


def compress(g: Graph, cover: frozenset[int]) -> CompressedGraph:
    """Collapse non-cover vertices into neighborhood-multiplicity counts."""
    for u, v in g.edges:
        if u not in cover and v not in cover:
            raise ValueError(f"edge ({u},{v}) has no end in the cover")
    order = sorted(cover)
    index = {v: i for i, v in enumerate(order)}
    gx = [
        (index[u], index[v])
        for u, v in g.edges
        if u in cover and v in cover
    ]
    h: dict[int, int] = {}
    for v in g.vertices:
        if v in cover:
            continue
        mask = 0
        for w in g.adjacency[v]:
            mask |= 1 << index[w]
        h[mask] = h.get(mask, 0) + 1
    return CompressedGraph.make(len(order), gx, h)


def expand(cg: CompressedGraph) -> Graph:
    """Concrete graph realizing (G_X, h): cover on ids 0..k-1, the rest fresh."""
    edges = list(cg.gx_edges)
    vertices = list(range(cg.k))
    nxt = cg.k
    for mask, count in cg.h:
        members = [i for i in range(cg.k) if mask >> i & 1]
        for _ in range(count):
            vertices.append(nxt)
            edges.extend((i, nxt) for i in members)
            nxt += 1
    return Graph(tuple(vertices), tuple(edges))


# ---------------------------------------------------------------------------
# isomorphisms


def _nx_graph(g: Graph):
    """g as a networkx graph."""
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges)
    return ng


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """Whether g1 and g2 are isomorphic (networkx's VF2)."""
    import networkx as nx

    return nx.is_isomorphic(_nx_graph(g1), _nx_graph(g2))


def automorphisms(g: Graph) -> list[dict[int, int]]:
    """All automorphisms of g, by degree-pruned backtracking (small
    graphs)."""
    vs = g.vertices
    by_degree: dict[int, list[int]] = {}
    for w in vs:
        by_degree.setdefault(g.degree(w), []).append(w)
    mapping: dict[int, int] = {}
    out = []

    def extend(i):
        if i == len(vs):
            out.append(dict(mapping))
            return
        v = vs[i]
        for w in by_degree[g.degree(v)]:
            if w in mapping.values():
                continue
            if all(g.has_edge(v, u) == g.has_edge(w, mapping[u])
                   for u in vs[:i]):
                mapping[v] = w
                extend(i + 1)
                del mapping[v]

    extend(0)
    return out


# ---------------------------------------------------------------------------
# text formats


def parse_edge_list(text: str) -> Graph:
    """One "u v" pair per line; '#' starts a comment; "v <id>" adds a vertex."""
    edges = []
    extra = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            extra.append(int(parts[1]))
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex id") from exc
        edges.append((u, v))
    return Graph.from_edges(edges, extra)


def format_edge_list(g: Graph) -> str:
    lines = [f"v {v}" for v in g.vertices if not g.adjacency[v]]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_compressed(text: str) -> CompressedGraph:
    """First line "k", then "gx u v" and "h <bitmask> <count>" lines.  Each
    h record needs a count of at least 1 and a mask of cover vertices; the
    counts of repeated masks add up."""
    k = None
    gx = []
    h: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if k is None:
            if len(parts) != 1:
                raise ValueError(f"line {lineno}: expected cover size 'k'")
            k = int(parts[0])
            if k < 0:
                raise ValueError(f"negative cover size {k}")
            continue
        if parts[0] == "gx" and len(parts) == 3:
            gx.append(tuple(sorted(map(int, parts[1:]))))
        elif parts[0] == "h" and len(parts) == 3:
            mask, count = int(parts[1]), int(parts[2])
            if count < 1:
                raise ValueError(f"line {lineno}: h count {count} is not "
                                 "positive")
            if mask < 0 or mask.bit_length() > k:
                raise ValueError(f"line {lineno}: h mask {mask} is not a "
                                 f"subset of the {k} cover vertices")
            h[mask] = h.get(mask, 0) + count
        else:
            raise ValueError(f"line {lineno}: unrecognized record {raw!r}")
    if k is None:
        raise ValueError("empty compressed graph input")
    return CompressedGraph.make(k, gx, h)


def format_compressed(cg: CompressedGraph) -> str:
    lines = [str(cg.k)]
    lines += [f"gx {u} {v}" for u, v in cg.gx_edges]
    lines += [f"h {mask} {count}" for mask, count in cg.h]
    return "\n".join(lines) + "\n"
