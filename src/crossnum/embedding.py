"""Embedded planarizations: rotation systems over edge chains with dummy
vertices at crossings, face tracing, and Euler-based sphere checks.

Nodes are ('v', vertex) for original vertices and ('x', crossing_id) for
dummies.  A drawing edge (u, v) is a chain of segments oriented u -> v; a
dart is (segment_id, end) where end 0 points along the chain.  Rotations
list outgoing darts in counterclockwise order and faces are traced with
succ(d) = rotation-successor of rev(d) at head(d); a rotation system is a
sphere embedding iff V - E + F = 2 on every connected component.
"""

from __future__ import annotations

from .graphs import connected_components


def vnode(v):
    return ("v", v)


def xnode(c):
    return ("x", c)


class Emb:
    """Mutable embedded planarization of a combinatorial drawing."""

    def __init__(self):
        self.segs: dict[int, tuple] = {}   # seg id -> (node_a, node_b, edge)
        self.chains: dict[tuple, list[int]] = {}  # edge -> seg ids, u->v
        self.rot: dict[tuple, list[tuple]] = {}   # node -> outgoing darts
        self._next_seg = 0
        self._next_x = 0  # crossings are never removed, so also their count

    # -- dart algebra ---------------------------------------------------

    def tail(self, dart):
        return self.segs[dart[0]][dart[1]]

    def head(self, dart):
        return self.segs[dart[0]][1 - dart[1]]

    def edge_of(self, dart):
        return self.segs[dart[0]][2]

    @staticmethod
    def rev(dart):
        return (dart[0], 1 - dart[1])

    def end_dart(self, edge, v):
        """The dart of `edge` that leaves its end v."""
        chain = self.chains[edge]
        return (chain[-1], 1) if edge[1] == v else (chain[0], 0)

    def succ(self, dart):
        """Next dart along the face containing `dart`."""
        w = self.head(dart)
        ring = self.rot[w]
        i = ring.index(self.rev(dart))
        return ring[(i + 1) % len(ring)]

    def copy(self) -> "Emb":
        e = Emb.__new__(Emb)
        e.segs = dict(self.segs)
        e.chains = {k: list(v) for k, v in self.chains.items()}
        e.rot = {k: list(v) for k, v in self.rot.items()}
        e._next_seg = self._next_seg
        e._next_x = self._next_x
        return e

    # -- queries ----------------------------------------------------------

    def add_vertex(self, v):
        node = vnode(v)
        if node not in self.rot:
            self.rot[node] = []
        return node

    def crossing_count(self) -> int:
        return self._next_x

    def all_darts(self):
        for sid in sorted(self.segs):
            yield (sid, 0)
            yield (sid, 1)

    def faces(self):
        """All face cycles (tuples of darts), each traced from its least
        dart, in the order of those darts."""
        seen = set()
        out = []
        for d in self.all_darts():
            if d not in seen:
                out.append(self.face_at(d))
                seen.update(out[-1])
        return out

    def face_at(self, dart):
        """The face cycle through `dart`, as `faces()` lists it: traced
        from the cycle's least dart."""
        cycle = [dart]
        d = self.succ(dart)
        while d != dart:
            cycle.append(d)
            d = self.succ(d)
        i = cycle.index(min(cycle))
        return tuple(cycle[i:] + cycle[:i])

    def components(self):
        return connected_components(
            self.rot, ((a, b) for a, b, _ in self.segs.values()))

    def euler_ok(self) -> bool:
        """True iff the rotation system is a sphere embedding per component.

        A component with an edge has V - E + F = 2 - 2g with genus g >= 0,
        so the sum over those components is 2 per component only when every
        genus is 0.  An isolated node fills its own sphere."""
        isolated = sum(1 for ring in self.rot.values() if not ring)
        comps = len(self.components()) - isolated
        euler = len(self.rot) - isolated - len(self.segs) + len(self.faces())
        return euler == 2 * comps

    # -- surgery ----------------------------------------------------------

    def _new_seg(self, a, b, edge):
        sid = self._next_seg
        self._next_seg += 1
        self.segs[sid] = (a, b, edge)
        return sid

    def _split(self, dart, node):
        """Split the segment under `dart` at `node`; returns the dummy's
        darts toward head(dart) and toward tail(dart)."""
        seg, end = dart
        ga, gb, g = self.segs[seg]
        s1 = self._new_seg(ga, node, g)
        s2 = self._new_seg(node, gb, g)
        chain = self.chains[g]
        k = chain.index(seg)
        chain[k : k + 1] = [s1, s2]
        self._replace(ga, (seg, 0), (s1, 0))
        self._replace(gb, (seg, 1), (s2, 1))
        del self.segs[seg]
        to_start = (s1, 1)  # dart from node toward ga
        to_end = (s2, 0)    # dart from node toward gb
        return (to_end, to_start) if end == 0 else (to_start, to_end)

    def _replace(self, node, old, new):
        ring = self.rot[node]
        ring[ring.index(old)] = new

    def _attach(self, node, pos, dart):
        """Put the first dart of a route piece into the ring of its tail:
        at gap `pos` of a vertex, or in the open forward slot that
        cross_dart leaves at a dummy."""
        self.rot[node].insert(1 if node[0] == "x" else pos, dart)

    def cross_dart(self, edge, node, pos, dart):
        """Draw a piece of `edge` from `node` (ring gap `pos`) across the
        segment under `dart`, ending at a new dummy, which is returned.

        The dummy's ring is [toward head(dart), toward tail(dart), back
        along `edge`]; the next piece fills the open forward slot between
        the first two (faces sit on the right of their darts, so the
        forward dart follows the head-side dart counterclockwise).
        """
        cid = self._next_x
        self._next_x += 1
        x = xnode(cid)
        to_head, to_tail = self._split(dart, x)
        seg = self._new_seg(node, x, edge)
        self.chains.setdefault(edge, []).append(seg)
        self._attach(node, pos, (seg, 0))
        self.rot[x] = [to_head, to_tail, (seg, 1)]
        return x

    def finish_edge(self, edge, node, pos, end_pos):
        """Draw the last piece of `edge` from `node` (ring gap `pos`) to
        its end vertex, entering that ring at gap `end_pos`."""
        vn_ = vnode(edge[1])
        seg = self._new_seg(node, vn_, edge)
        self.chains.setdefault(edge, []).append(seg)
        self._attach(node, pos, (seg, 0))
        self.rot[vn_].insert(end_pos, (seg, 1))

    def add_drawing(self, d) -> "Emb":
        """Add the CombinatorialDrawing `d` beside what this embedding
        holds, and return self.  The drawing shares no vertex with what is
        here; its crossings take the next free ids, in the order of their
        own ids.
        """
        for v in d.graph.vertices:
            self.add_vertex(v)
        pairs = d.crossing_pairs
        new_id = {}
        for cid in sorted(pairs):
            if len(pairs[cid]) != 2:
                raise ValueError(f"crossing {cid} not on exactly two edges")
            new_id[cid] = self._next_x
            self._next_x += 1
        prev: dict[tuple, tuple] = {}  # (crossing id, edge) -> dart back
        nxt: dict[tuple, tuple] = {}   # (crossing id, edge) -> dart onward
        for edge, seq in d.sequences:
            xs = [new_id[c] for c in seq]
            stops = [vnode(edge[0])] + [xnode(c) for c in xs] + [vnode(edge[1])]
            chain = [self._new_seg(a, b, edge) for a, b in zip(stops, stops[1:])]
            self.chains[edge] = chain
            for i, cid in enumerate(xs):
                prev[cid, edge] = (chain[i], 1)
                nxt[cid, edge] = (chain[i + 1], 0)
        for v, neighbors in d.rotations:
            self.rot[vnode(v)] = [
                self.end_dart((v, w) if v < w else (w, v), v) for w in neighbors
            ]
        bits = dict(d.orientations)
        for cid, c in new_id.items():
            e, f = pairs[cid]
            ep, en, fp, fn = prev[c, e], nxt[c, e], prev[c, f], nxt[c, f]
            if bits.get(cid, 0) == 0:
                self.rot[xnode(c)] = [ep, fp, en, fn]
            else:
                self.rot[xnode(c)] = [ep, fn, en, fp]
        return self

    # -- extraction -------------------------------------------------------

    def vertex_rotation(self, v) -> tuple[int, ...]:
        """Neighbor ids of v in rotation order (simple graphs)."""
        out = []
        for d in self.rot[vnode(v)]:
            a, b = self.edge_of(d)
            out.append(b if a == v else a)
        return tuple(out)

    def drawing_data(self):
        """(sequences, orientation bits) in one pass over the chains."""
        seqs = {}
        prev_dart = {}
        for edge, chain in self.chains.items():
            cids = []
            for i, sid in enumerate(chain[:-1]):
                node = self.segs[sid][1]
                cids.append(node[1])
                prev_dart[(node, edge)] = (sid, 1)
            seqs[edge] = tuple(cids)
        orients = {}
        for node, ring in self.rot.items():
            if node[0] == "x":
                # a dummy's first two darts lie on its two edges
                e, f = sorted((self.edge_of(ring[0]), self.edge_of(ring[1])))
                i = ring.index(prev_dart[node, e])
                orients[node[1]] = (
                    0 if ring[(i + 1) % 4] == prev_dart[node, f] else 1)
        return seqs, orients

    def to_drawing(self, graph):
        """The CombinatorialDrawing of this embedding; `graph` lists the
        drawn vertices and edges, every vertex of it placed here."""
        from .drawing import CombinatorialDrawing

        seqs, orients = self.drawing_data()
        rots = {v: self.vertex_rotation(v) for v in graph.vertices}
        return CombinatorialDrawing.make(graph, seqs, rots, orients)
