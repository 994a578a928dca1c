"""Definition-level crossing number: the least c such that some set of c
crossing pairs, with some order of the crossings along each edge, has a
planar planarization.

Deliberately independent of the pipeline's enumeration machinery:
candidates are sets of pairs of independent edges, their symmetry comes
from the automorphisms of the input graph itself (not from the solver's
cover group), and planarity testing is networkx's left-right test.
networkx is imported where it is first needed, so importing this module,
or solving without the oracle, does not load it.

Two reductions keep the search small; neither changes the value.

* Orderly generation (Read 1978; McKay, "Isomorph-free exhaustive
  generation", 1998).  A pair set is a sorted tuple of pair indices, and
  only the lexicographically least tuple of each automorphism orbit is
  tested.  Being least is closed under prefixes: if a relabelling made
  S minus its largest element smaller, the same relabelling would make S
  smaller.  So the least sets of size c are found by extending the least
  sets of size c - 1 by a larger index, and every orbit is reached.
  Relabelling a drawing keeps its crossing count, so testing one set per
  orbit decides every size exactly.
* Euler prune.  In a drawing whose crossings are the pair set P, deleting
  a set S of edges that meets every pair of P leaves a plane drawing of
  G - S.  G - S has all n vertices of G and girth at least g, the girth of
  the non-planar G, so it has at most floor(g (n - 2) / (g - 2)) edges
  (Euler's formula; an acyclic G - S has at most n - 1 <= that many).  If
  fewer edges than |E| minus that bound meet every pair of P, no order
  of P's crossings can be planar, and P is skipped untested.
"""

from __future__ import annotations

import itertools
from operator import add

from .graphs import CompressedGraph, Graph, _nx_graph, automorphisms, expand


class OracleCeilingExceeded(Exception):
    pass


# Size and effort limits of the brute-force oracle: the iterative-deepening
# ceiling, the largest graph it takes, and its work cap in pair-set images
# plus planarity tests.
MAX_CROSSINGS = 8
MAX_EDGES = 18
MAX_VERTICES = 9
MAX_WORK = 20_000_000


def is_planar(g: Graph) -> bool:
    """Standalone planarity test (left-right algorithm via networkx)."""
    import networkx as nx

    ok, _ = nx.check_planarity(_nx_graph(g), counterexample=False)
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
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    for e in g.edges:
        chain = [e[0]] + [("x", i) for i in orders.get(e, ())] + [e[1]]
        for a, b in zip(chain, chain[1:]):
            ng.add_edge(a, b)
    return ng


def _pair_permutations(g: Graph, pairs) -> list[tuple[int, ...]]:
    """The automorphisms of g acting on indices into `pairs`: distinct,
    identity dropped."""
    edge_index = {e: i for i, e in enumerate(g.edges)}
    pair_edges = [(edge_index[e], edge_index[f]) for e, f in pairs]
    pair_index = {pr: i for i, pr in enumerate(pair_edges)}
    perms = set()
    for sigma in automorphisms(g):
        moved = [edge_index[min(sigma[u], sigma[v]), max(sigma[u], sigma[v])]
                 for u, v in g.edges]
        perms.add(tuple(
            pair_index[min(moved[i], moved[j]), max(moved[i], moved[j])]
            for i, j in pair_edges
        ))
    perms.discard(tuple(range(len(pairs))))
    return sorted(perms)


def _planar_edge_bound(g: Graph) -> int:
    """Most edges a plane subgraph of the non-planar g can keep on all of
    g's vertices: floor(girth (n - 2) / (girth - 2))."""
    import networkx as nx

    girth = nx.girth(_nx_graph(g))
    return girth * (len(g.vertices) - 2) // (girth - 2)


def _hits_below(pair_set, k: int) -> bool:
    """Whether fewer than k edges meet every pair of `pair_set`: a bounded
    search tree that puts either edge of the first unmet pair in the set."""
    if not pair_set:
        return k > 0
    if k <= 1:
        return False
    return any(
        _hits_below([p for p in pair_set if x not in p], k - 1)
        for x in pair_set[0]
    )


def _least_pair_sets(perms, n_pairs: int, max_size: int, spend):
    """Every sorted tuple of at most `max_size` pair indices that no
    permutation in `perms` maps to a lexicographically smaller one, by
    size then lexicographically (orderly generation).

    Level c extends each tuple of level c - 1 by every larger index and
    calls `spend(len(perms) + 1)` per extension tried: the extension and
    its image under each permutation.  Tuples are compared as integers:
    index i weighs 2^(n_pairs - 1 - i), so of two tuples of one size the
    lexicographically smaller has the larger weight sum.
    """
    weight = [1 << (n_pairs - 1 - i) for i in range(n_pairs)]
    # image_weight[i][j]: the weight of index i's image under perms[j]
    image_weight = [[weight[p[i]] for p in perms] for i in range(n_pairs)]
    level = [()]
    for _ in range(max_size):
        kept = []
        for base in level:
            base_weight = sum(weight[i] for i in base)
            base_images = [0] * len(perms)
            for i in base:
                base_images = list(map(add, base_images, image_weight[i]))
            for x in range(base[-1] + 1 if base else 0, n_pairs):
                spend(len(perms) + 1)
                total = base_weight + weight[x]
                if any(map(total.__lt__,
                           map(add, base_images, image_weight[x]))):
                    continue
                kept.append(base + (x,))
                yield kept[-1]
        level = kept


def expand_for_oracle(cg: CompressedGraph) -> Graph:
    """The expansion of `cg`, within the oracle's size limits: raises
    OracleCeilingExceeded, before expanding, when `cg` has more than
    MAX_VERTICES vertices, and when its expansion has more than MAX_EDGES
    edges."""
    n = cg.total_vertices()
    if n > MAX_VERTICES:
        raise OracleCeilingExceeded(
            f"graph outside oracle size limits: {n} vertices "
            f"(limit {MAX_VERTICES})")
    g = expand(cg)
    _check_size(g)
    return g


def _check_size(g: Graph):
    if len(g.edges) > MAX_EDGES or len(g.vertices) > MAX_VERTICES:
        raise OracleCeilingExceeded("graph outside oracle size limits")


def oracle_cr(g: Graph, max_crossings: int = MAX_CROSSINGS) -> int:
    """Least c admitting c crossing pairs whose planarization is planar.

    Iterative deepening c = 0, 1, ... over the pair sets that are least in
    their automorphism orbit (`_least_pair_sets`; see the module docstring
    for why this is exhaustive).  Each is tested, under every order of
    the crossings along each edge, unless fewer than `need` (|E| minus
    the planar edge bound) edges meet all of its pairs: the Euler prune.

    Raises `OracleCeilingExceeded` when g is outside the size limits, when
    no drawing has at most `max_crossings` crossings, or when the work
    exceeds `MAX_WORK`: each pair set examined counts once plus once
    per automorphism image, and each planarity test once.
    """
    _check_size(g)
    import networkx as nx

    if max_crossings >= 0 and is_planar(g):
        return 0
    pairs = _nonadjacent_pairs(g)
    need = len(g.edges) - _planar_edge_bound(g)
    work = 0

    def spend(units):
        nonlocal work
        work += units
        if work > MAX_WORK:
            raise OracleCeilingExceeded(
                f"oracle work cap hit: {MAX_WORK} pair-set images and "
                "planarity tests"
            )

    for s in _least_pair_sets(_pair_permutations(g, pairs), len(pairs),
                              max_crossings, spend):
        pair_set = tuple(pairs[i] for i in s)
        if _hits_below(pair_set, need):
            continue
        for orders in _order_assignments(pair_set):
            spend(1)
            ng = _planarization_nx(g, pair_set, orders)
            ok, _ = nx.check_planarity(ng, counterexample=False)
            if ok:
                return len(s)
    raise OracleCeilingExceeded(
        f"no drawing found with <= {max_crossings} crossings"
    )
