"""Enumeration of abstract topological clusterings.

A representative set picks, for every present neighborhood, a nonempty set
of cyclic orders; the router then enumerates all good drawings of the cover
subgraph plus one star per chosen (neighborhood, rotation), up to a budget on
weighted crossings, with each representative's rotation pinned to its tag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial

from .drawing import CombinatorialDrawing, antidistance
from .embedding import Emb
from .graphs import CompressedGraph, Graph


def rotations(j: int) -> int:
    """Distinct cyclic orders of j labeled elements."""
    return factorial(max(j - 1, 0))


def cyclic_orders(members: tuple) -> list[tuple]:
    """All cyclic orders of `members`, least element first, sorted."""
    members = tuple(sorted(members))
    if len(members) <= 2:
        return [members]
    first, rest = members[0], members[1:]
    return sorted((first,) + p for p in itertools.permutations(rest))


def mask_members(mask: int, k: int) -> tuple:
    return tuple(i for i in range(k) if mask >> i & 1)


@dataclass(frozen=True)
class RepSpec:
    vertex: int
    mask: int
    tag: tuple  # cyclic order of the neighborhood, canonical rotation


@dataclass(frozen=True)
class RepresentativeSet:
    """One rotation-tagged representative per chosen (neighborhood, order)."""

    k: int
    reps: tuple  # RepSpec tuple, sorted by (mask, tag)

    # the crossing edge pairs: none until a clustering draws the set
    crossings = ()

    @property
    def groups(self) -> tuple:
        """(mask, rep indices) per neighborhood, in mask order."""
        return tuple(
            (m, tuple(i for i, _ in run)) for m, run in itertools.groupby(
                enumerate(self.reps), key=lambda item: item[1].mask))

    def host_graph(self, gx_edges) -> Graph:
        edges = list(gx_edges)
        for spec in self.reps:
            edges.extend((x, spec.vertex) for x in mask_members(spec.mask, self.k))
        return Graph.from_edges(edges, extra_vertices=tuple(range(self.k)))

    def tags_by_vertex(self) -> dict[int, tuple]:
        return {s.vertex: s.tag for s in self.reps}

    def forced_crossings(self) -> int:
        """Crossings that the tags alone force in every good drawing of the
        host: over the pairs of representatives, the antidistance of their
        tags restricted to the leaves they share.  A drawing of the host
        restricts to a good drawing of each pair's two stars on those
        leaves, and each crossing lies on the stars of at most one pair."""
        total = 0
        for a, b in itertools.combinations(self.reps, 2):
            shared = a.mask & b.mask
            total += antidistance(
                tuple(x for x in a.tag if shared >> x & 1),
                tuple(x for x in b.tag if shared >> x & 1),
            )
        return total


def rep_cap(mask: int, count: int) -> int:
    """min(h(Y), #rotations): extra zero-weight representatives never help."""
    return min(count, rotations(bin(mask).count("1")))


def count_rep_sets(cg: CompressedGraph, cap: int) -> int:
    """How many sets `enumerate_rep_sets` yields, counted without building
    any; once the count passes `cap` it stops early at some value above it."""
    total = 1
    for m, count in cg.h:
        if m == 0:
            continue
        orders = rotations(bin(m).count("1"))
        choices = 0
        for size in range(1, rep_cap(m, count) + 1):
            choices += comb(orders, size)
            if choices > cap:
                break
        total *= choices
        if total > cap:
            break
    return total


def enumerate_rep_sets(cg: CompressedGraph):
    """All representative sets, lexicographic in (mask, rotation index set).

    Isolated vertices (the empty neighborhood) never enter a clustering and
    are skipped here; the pipeline reattaches them at drawing-emission time.
    """
    masks = [m for m, _ in cg.h if m != 0]
    h = cg.h_map
    per_mask_choices = []
    for m in masks:
        orders = cyclic_orders(mask_members(m, cg.k))
        cap = rep_cap(m, h[m])
        subsets = []
        for size in range(1, cap + 1):
            subsets.extend(itertools.combinations(range(len(orders)), size))
        subsets.sort()
        per_mask_choices.append([(m, [orders[i] for i in sub]) for sub in subsets])
    for combo in itertools.product(*per_mask_choices):
        reps = []
        nxt = cg.k
        for m, tags in combo:
            for tag in tags:
                reps.append(RepSpec(nxt, m, tag))
                nxt += 1
        yield RepresentativeSet(cg.k, tuple(reps))


# ---------------------------------------------------------------------------
# the router: enumerate good drawings by face-guided edge insertion


def _connected_edge_order(graph: Graph) -> list[tuple]:
    """Edges ordered so every prefix after the first is connected."""
    remaining = set(graph.edges)
    placed: set[int] = set()
    order = []
    while remaining:
        touching = sorted(
            e for e in remaining if e[0] in placed or e[1] in placed
        )
        e = touching[0] if touching else min(remaining)
        order.append(e)
        remaining.remove(e)
        placed.update(e)
    return order


class _Router:
    """DFS over face-guided insertions of the host graph's edges.

    Each edge is routed incrementally: every crossing is applied to a copy
    of the arrangement before the route continues, so the reachable corners
    always reflect the partially drawn edge (routes through a face with
    repeated boundary pieces would otherwise claim impossible chords).  A
    route step carries the cycle of the face it is in and traces only the
    face it enters next, never the whole arrangement; only an edge whose
    first endpoint has no edge yet lists every face to start in.
    """

    def __init__(self, graph, fixed_rotations, bound_fn, weights):
        self.graph = graph
        self.bound_fn = bound_fn
        self.order = _connected_edge_order(graph)
        self.tags = fixed_rotations or {}
        weights = weights or {}
        self.weight = {
            e: weights.get(e[0], 1) * weights.get(e[1], 1) for e in graph.edges
        }

    def run(self):
        emb = Emb()
        for v in self.graph.vertices:
            emb.add_vertex(v)
        yield from self._place(emb, 0, 0)

    def _place(self, emb, idx, cost):
        """Draw the edges from `idx` on into `emb`, whose crossings cost
        `cost` in all."""
        if idx == len(self.order):
            yield emb
            return
        edge = self.order[idx]
        budget_left = self.bound_fn() - cost
        if budget_left < 0:
            return
        for child, spent in self._route(emb, edge, budget_left):
            yield from self._place(child, idx + 1, cost + spent)

    # -- incremental routing ------------------------------------------------

    def _gaps(self, emb, w, other):
        """The gaps of `w`'s ring (gap i lies before dart i; an empty ring
        has gap 0) where an edge toward `other` may enter.  A tag allows
        only the gap before the drawn neighbour that follows `other` in it,
        so the drawn neighbours stay in the tag's cyclic order."""
        tag = self.tags.get(w)
        if tag is None:
            return range(max(len(emb.rot[w]), 1))
        if other not in tag:
            return ()
        drawn = emb.vertex_rotation(w)
        i = tag.index(other)
        after = [x for x in tag[i + 1:] + tag[:i] if x in drawn]
        return (drawn.index(after[0]) if after else 0,)

    def _route(self, emb, edge, budget_left):
        """Yield (copy of `emb` with `edge` drawn, cost of its crossings),
        one per distinct route whose crossings cost at most `budget_left`.

        The route never crosses an edge at `edge[1]`, so that vertex's ring,
        and with it the gaps the route may end at, stay fixed throughout."""
        u, v = edge
        gaps, ends = self._gaps(emb, u, v), self._gaps(emb, v, u)
        if not gaps or not ends:
            return
        ring_u = emb.rot[u]
        if ring_u:
            starts = [(pos, emb.face_at(ring_u[pos])) for pos in gaps]
        else:
            starts = [(0, cycle) for cycle in emb.faces()] or [(0, ())]
        for pos, cycle in starts:
            yield from self._grow(
                emb, edge, ends, u, pos, cycle, frozenset(), 0,
                budget_left,
            )

    def _grow(self, emb, edge, ends, node, pos, cycle, crossed, spent,
              budget):
        """Extend the partial route ending at `node` (ring gap `pos`) inside
        the face `cycle`, which is () while nothing is drawn, and finish it
        at each gap of `ends` that the face reaches.  The route's crossings
        so far cost `spent`; a crossing that would take it over `budget` is
        not tried."""
        ring_v = emb.rot[edge[1]]
        on_face = set(cycle)
        for end_pos in ends:
            if not ring_v or ring_v[end_pos] in on_face:
                child = emb.copy()
                child.finish_edge(edge, node, pos, end_pos)
                yield child, spent
        w = self.weight[edge]
        # every edge weighs at least 1, so each crossing costs at least w
        if budget < spent + w:
            return
        u, v = edge
        for dart in cycle:
            g = emb.edge_of(dart)
            # an edge may not cross itself, an adjacent edge or one edge twice
            if u in g or v in g or g in crossed:
                continue
            cost = spent + w * self.weight[g]
            if cost > budget:
                continue
            child = emb.copy()
            x = child.cross_dart(edge, node, pos, dart)
            # the route continues in the face of the dummy's open slot
            yield from self._grow(
                child, edge, ends, x, None, child.face_at(child.rot[x][1]),
                crossed | {g}, cost, budget,
            )


def enumerate_embeddings(graph, fixed_rotations, bound_fn, weights=None):
    """All sphere drawings of the connected `graph` whose crossings cost at
    most `bound_fn()`.

    A crossing of edges e and f costs w(e)·w(f), where an edge weighs the
    product of its ends' `weights` (vertex -> int >= 1; a vertex it omits,
    and every vertex when it is None, weighs 1, so the cost is then the
    crossing count).  `fixed_rotations` (or None) pins cyclic neighbor
    orders at chosen vertices of `graph`; `bound_fn` is re-read at every
    step, so a caller may tighten the budget while the stream runs
    (branch-and-bound).  Yields Emb objects in deterministic DFS order,
    each emitted structure distinct.
    Raises ValueError on a disconnected graph (the pipeline splits its input
    into connected components before it builds any host), on a pinned
    vertex outside the graph and on a weight below 1.
    """
    if not graph.is_connected():
        raise ValueError("router host graph is disconnected")
    if not set(fixed_rotations or ()) <= set(graph.vertices):
        raise ValueError("rotation pinned at a vertex outside the host graph")
    if any(w < 1 for w in (weights or {}).values()):
        raise ValueError("router vertex weights must be at least 1")
    yield from _Router(graph, fixed_rotations, bound_fn, weights).run()


# ---------------------------------------------------------------------------
# abstract clusterings


@dataclass(frozen=True)
class AbstractClustering(RepresentativeSet):
    """A good drawing of G_X plus tagged representatives; the IQP skeleton."""

    drawing: CombinatorialDrawing

    @property
    def crossings(self):
        """The crossing edge pairs of the drawing."""
        return self.drawing.crossing_pairs.values()

    @property
    def r(self) -> int:
        """Crossings of the subdrawing induced by the cover."""
        return sum(1 for e, f in self.crossings
                   if max(e) < self.k and max(f) < self.k)


def clustering_from_emb(rep_set, host, emb) -> AbstractClustering:
    """The clustering of `rep_set` drawn by `emb`, a drawing of `host`."""
    return AbstractClustering(rep_set.k, rep_set.reps, emb.to_drawing(host))
