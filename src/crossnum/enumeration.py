"""Enumeration of abstract topological clusterings.

A representative set picks, for every present neighborhood, a nonempty set
of cyclic orders; the router then enumerates all good drawings of the cover
subgraph plus one star per chosen (neighborhood, rotation), up to a crossing
budget, with each representative's rotation pinned to its tag.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .drawing import CombinatorialDrawing, canonical_cycle
from .embedding import Emb, vnode
from .graphs import CompressedGraph, Graph


def rotations(j: int) -> int:
    """Distinct cyclic orders of j labeled elements."""
    if j <= 2:
        return 1
    out = 1
    for i in range(2, j):
        out *= i
    return out


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

    def host_graph(self, gx_edges) -> Graph:
        edges = list(gx_edges)
        for spec in self.reps:
            edges.extend((x, spec.vertex) for x in mask_members(spec.mask, self.k))
        return Graph.from_edges(edges, extra_vertices=tuple(range(self.k)))

    def tags_by_vertex(self) -> dict[int, tuple]:
        return {s.vertex: s.tag for s in self.reps}


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


def _cyclic_subsequence(partial: tuple, tag: tuple) -> bool:
    """True iff `partial` is a cyclic subsequence of cyclic `tag`."""
    n = len(tag)
    if len(partial) <= 2:
        return set(partial) <= set(tag)
    for off in range(n):
        rot = tag[off:] + tag[:off]
        it = iter(rot)
        if all(x in it for x in partial):
            return True
    return False


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

    def __init__(self, graph, fixed_rotations, bound_fn):
        self.graph = graph
        self.fixed = fixed_rotations or {}
        self.bound_fn = bound_fn
        self.order = _connected_edge_order(graph)

    def run(self):
        emb = Emb()
        for v in self.graph.vertices:
            emb.add_vertex(v)
        yield from self._place(emb, 0)

    def _place(self, emb, idx):
        if idx == len(self.order):
            if self._tags_ok(emb, final=True):
                yield emb
            return
        edge = self.order[idx]
        budget_left = self.bound_fn() - emb.crossing_count()
        if budget_left < 0:
            return
        for child in self._route(emb, edge, budget_left):
            if not self._tags_ok(child, final=False):
                continue
            yield from self._place(child, idx + 1)

    def _tags_ok(self, emb, final):
        for v, tag in self.fixed.items():
            if vnode(v) not in emb.rot:
                if final:
                    return False
                continue
            got = emb.vertex_rotation(v)
            if final and len(got) == len(tag):
                if canonical_cycle(got) != canonical_cycle(tag):
                    return False
            elif not _cyclic_subsequence(got, tag):
                return False
        return True

    # -- incremental routing ------------------------------------------------

    def _route(self, emb, edge, budget_left):
        """Yield copies of `emb` with `edge` drawn, one per distinct route."""
        ring_u = emb.rot[vnode(edge[0])]
        if ring_u:
            starts = [(pos, emb.face_at(d)) for pos, d in enumerate(ring_u)]
        else:
            starts = [(0, cycle) for cycle in emb.faces()] or [(0, None)]
        for pos, cycle in starts:
            yield from self._grow(
                emb, edge, vnode(edge[0]), pos, cycle, frozenset(), budget_left
            )

    def _grow(self, emb, edge, node, pos, cycle, crossed, budget):
        """Extend the partial route ending at `node` (ring gap `pos`) inside
        the face `cycle`."""
        if cycle is None:
            # empty arrangement: only the plain segment is possible
            child = emb.copy()
            child.finish_edge(edge, node, pos, 0)
            yield child
            return
        ring_v = emb.rot[vnode(edge[1])]
        if not ring_v:
            child = emb.copy()
            child.finish_edge(edge, node, pos, 0)
            yield child
        else:
            on_face = set(cycle)
            for end_pos in range(len(ring_v)):
                if ring_v[end_pos] in on_face:
                    child = emb.copy()
                    child.finish_edge(edge, node, pos, end_pos)
                    yield child
        if budget <= len(crossed):
            return
        u, v = edge
        for dart in cycle:
            g = emb.edge_of(dart)
            # an edge may not cross itself, an adjacent edge or one edge twice
            if u in g or v in g or g in crossed:
                continue
            child = emb.copy()
            x = child.cross_dart(edge, node, pos, dart)
            # the route continues in the face of the dummy's open slot
            yield from self._grow(
                child, edge, x, None, child.face_at(child.rot[x][1]),
                crossed | {g}, budget,
            )


def enumerate_embeddings(graph, fixed_rotations, bound_fn):
    """All sphere drawings of the connected `graph` with at most
    `bound_fn()` crossings.

    `fixed_rotations` (or None) pins cyclic neighbor orders at chosen
    vertices; `bound_fn` is re-read at every step, so a caller may tighten
    the budget while the stream runs (branch-and-bound).  Yields Emb objects
    in deterministic DFS order, each emitted structure distinct.  Raises
    ValueError on a disconnected graph: the pipeline splits its input into
    connected components before it builds any host.
    """
    if not graph.is_connected():
        raise ValueError("router host graph is disconnected")
    yield from _Router(graph, fixed_rotations, bound_fn).run()


# ---------------------------------------------------------------------------
# abstract clusterings


@dataclass(frozen=True)
class AbstractClustering:
    """A good drawing of G_X plus tagged representatives; the IQP skeleton."""

    k: int
    reps: tuple  # RepSpec tuple in group order
    drawing: CombinatorialDrawing
    r: int  # crossings of the subdrawing induced by the cover

    @property
    def groups(self) -> tuple:
        """(mask, rep index range) per neighborhood, in mask order."""
        out = []
        for i, spec in enumerate(self.reps):
            if out and out[-1][0] == spec.mask:
                out[-1][1].append(i)
            else:
                out.append((spec.mask, [i]))
        return tuple((m, tuple(ix)) for m, ix in out)


def _cover_crossings(drawing: CombinatorialDrawing, k: int) -> int:
    n = 0
    for e, f in drawing.crossing_pairs.values():
        if max(e) < k and max(f) < k:
            n += 1
    return n


def clustering_from_emb(rep_set, host, emb) -> AbstractClustering:
    """The clustering of `rep_set` drawn by `emb`, a drawing of `host`."""
    d = emb.to_drawing(host)
    return AbstractClustering(
        rep_set.k, rep_set.reps, d, _cover_crossings(d, rep_set.k)
    )
