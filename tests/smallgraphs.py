"""Exhaustive generation of small graphs up to isomorphism, their
canonical form, and a brute-force minimum vertex cover, for the tests.

Graphs come from augmenting graphs on n-1 vertices by one vertex with every
possible neighborhood, deduplicated by canonical form.
"""

from __future__ import annotations

import itertools
from math import factorial, prod

from crossnum.graphs import Graph


def induced(g: Graph, keep) -> Graph:
    """The subgraph of g on the vertices in `keep`."""
    keep = set(keep)
    return Graph(
        tuple(sorted(keep)),
        tuple(e for e in g.edges if e[0] in keep and e[1] in keep),
    )


def canonical_form(g: Graph) -> tuple:
    """Canonical edge tuple under vertex relabeling.

    Color-refined brute force per connected component; intended for the
    small graphs used in tests.
    """
    comps = g.components()
    if len(comps) > 1:
        parts = sorted(canonical_form(induced(g, c)) for c in comps)
        shift = 0
        edges = []
        for cn, ces in parts:
            edges.extend((u + shift, v + shift) for u, v in ces)
            shift += cn
        return (shift, tuple(sorted(edges)))
    vs = list(g.vertices)
    n = len(vs)
    # iterated color refinement to cut the permutation space
    sig = {v: g.degree(v) for v in vs}
    for _ in range(n):
        nxt = {
            v: (sig[v], tuple(sorted(sig[w] for w in g.adjacency[v])))
            for v in vs
        }
        names = {s: i for i, s in enumerate(sorted(set(nxt.values())))}
        renamed = {v: names[nxt[v]] for v in vs}
        if len(set(renamed.values())) == len(set(sig.values())):
            break
        sig = renamed
    classes: dict = {}
    for v in vs:
        classes.setdefault(sig[v], []).append(v)
    ordered_classes = [sorted(classes[s]) for s in sorted(classes)]
    if prod(factorial(len(c)) for c in ordered_classes) > 2_000_000:
        raise ValueError("canonical_form limited to small graphs")

    def key(perms):
        # the classes' permutations, laid end to end, give the new labels
        label = {v: i for i, v in enumerate(itertools.chain(*perms))}
        edges = (sorted((label[u], label[v])) for u, v in g.edges)
        return (n, tuple(sorted(map(tuple, edges))))

    return min(map(key, itertools.product(
        *[itertools.permutations(cls) for cls in ordered_classes])))


def graphs_up_to_iso(n: int) -> list[Graph]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    if n == 0:
        return [Graph((), ())]
    if n == 1:
        return [Graph((0,), ())]
    out = {}
    for g in graphs_up_to_iso(n - 1):
        base = list(g.edges)
        for mask in range(1 << (n - 1)):
            edges = base + [
                (i, n - 1) for i in range(n - 1) if mask >> i & 1
            ]
            h = Graph(tuple(range(n)), tuple(edges))
            key = canonical_form(h)
            if key not in out:
                out[key] = h
    return [out[k] for k in sorted(out)]


def connected_graphs(n_max: int):
    """Connected graphs with 1..n_max vertices, up to isomorphism."""
    for n in range(1, n_max + 1):
        for g in graphs_up_to_iso(n):
            if g.is_connected():
                yield g


def small_cover_suite(n_max: int, k_max: int):
    """Connected graphs with <= n_max vertices and minimum cover <= k_max."""
    from crossnum.graphs import CoverSizeExceeded, find_vertex_cover

    for g in connected_graphs(n_max):
        try:
            cover = find_vertex_cover(g, k_max)
        except CoverSizeExceeded:
            continue
        yield g, cover


def minimum_cover_size_bruteforce(g: Graph) -> int:
    """Reference oracle: smallest cover by direct subset search."""
    vs = g.vertices
    for k in range(len(vs) + 1):
        for sub in itertools.combinations(vs, k):
            s = set(sub)
            if all(u in s or v in s for u, v in g.edges):
                return k
    return len(vs)
