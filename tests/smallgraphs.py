"""Exhaustive generation of small graphs up to isomorphism, and a
brute-force minimum vertex cover, for the tests.

Graphs come from augmenting graphs on n-1 vertices by one vertex with every
possible neighborhood, deduplicated by canonical form.
"""

from __future__ import annotations

import itertools

from crossnum.graphs import Graph, canonical_form


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
