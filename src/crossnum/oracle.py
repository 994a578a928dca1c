"""Definition-level crossing number: search over crossing-pair sets and
per-edge orders, accepting a candidate when its planarization is planar.

Deliberately independent of the pipeline's enumeration machinery: candidate
generation is plain set enumeration and planarity testing is networkx's
left-right test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import networkx as nx

from .graphs import Graph, automorphisms


class OracleCeilingExceeded(Exception):
    pass


@dataclass(frozen=True)
class OracleConfig:
    """Size and effort limits of the brute-force oracle."""

    max_crossings: int = 8   # iterative-deepening ceiling
    max_edges: int = 18
    max_vertices: int = 9

    def __post_init__(self):
        if self.max_crossings < 0 or self.max_edges <= 0 or self.max_vertices <= 0:
            raise ValueError("oracle ceilings must be positive")


def is_planar(g: Graph) -> bool:
    """Standalone planarity test (left-right algorithm via networkx)."""
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges)
    ok, _ = nx.check_planarity(ng, counterexample=False)
    return ok


def _nonadjacent_pairs(g: Graph) -> list:
    out = []
    edges = g.edges
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if not set(e) & set(f):
                out.append((e, f))
    return out


def _order_assignments(pair_set):
    """All per-edge orders: edges crossed >= 2 times get every permutation.

    Yields dicts edge -> tuple of crossing indices (into pair_set).
    """
    on_edge: dict[tuple, list[int]] = {}
    for i, (e, f) in enumerate(pair_set):
        on_edge.setdefault(e, []).append(i)
        on_edge.setdefault(f, []).append(i)
    multi = sorted(e for e, ids in on_edge.items() if len(ids) > 1)
    single = {e: tuple(ids) for e, ids in on_edge.items() if len(ids) == 1}
    perms = [
        [tuple(p) for p in itertools.permutations(on_edge[e])] for e in multi
    ]
    for combo in itertools.product(*perms):
        orders = dict(single)
        for e, p in zip(multi, combo):
            orders[e] = p
        yield orders


def _planarization_nx(g: Graph, pair_set, orders):
    """The configuration as a networkx graph: each edge becomes a path
    through a dummy node ("x", i) for each crossing pair i on it."""
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    for e in g.edges:
        chain = [e[0]] + [("x", i) for i in orders.get(e, ())] + [e[1]]
        for a, b in zip(chain, chain[1:]):
            ng.add_edge(a, b)
    return ng


def _pair_orbit_reps(g: Graph, pairs) -> set:
    """Pairs that are lexicographic minima of their automorphism orbits."""
    autos = automorphisms(g)
    reps = set()
    seen = set()
    for pr in pairs:
        if pr in seen:
            continue
        orbit = set()
        for sigma in autos:
            e, f = pr
            se = tuple(sorted((sigma[e[0]], sigma[e[1]])))
            sf = tuple(sorted((sigma[f[0]], sigma[f[1]])))
            orbit.add(tuple(sorted((se, sf))))
        seen |= orbit
        reps.add(min(orbit))
    return reps


def oracle_cr(g: Graph, cfg: OracleConfig | None = None) -> int:
    """Least c admitting c crossing pairs whose planarization is planar.

    Iterative deepening c = 0, 1, ...; candidate sets by size then
    lexicographic order.  The first set slot only ranges over automorphism
    orbit representatives, which is exhaustive up to relabeling and keeps
    dense inputs tractable.
    """
    cfg = cfg or OracleConfig()
    if len(g.edges) > cfg.max_edges or len(g.vertices) > cfg.max_vertices:
        raise OracleCeilingExceeded("graph outside oracle size limits")
    if is_planar(g):
        return 0
    pairs = _nonadjacent_pairs(g)
    first_slots = _pair_orbit_reps(g, pairs)
    index = {pr: i for i, pr in enumerate(pairs)}
    for c in range(1, cfg.max_crossings + 1):
        for first in pairs:
            if first not in first_slots:
                continue
            rest = pairs[index[first] + 1 :]
            for tail in itertools.combinations(rest, c - 1):
                pair_set = (first,) + tail
                for orders in _order_assignments(pair_set):
                    ng = _planarization_nx(g, pair_set, orders)
                    ok, _ = nx.check_planarity(ng, counterexample=False)
                    if ok:
                        return c
    raise OracleCeilingExceeded(
        f"no drawing found with <= {cfg.max_crossings} crossings"
    )
