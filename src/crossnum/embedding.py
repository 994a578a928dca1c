"""Embedded planarizations: rotation systems over edge chains with dummy
vertices at crossings, face tracing, and Euler-based sphere checks.

Nodes and darts are plain ints.  A node is the vertex id v (>= 0) for an
original vertex and ~c (< 0) for the dummy of crossing c.  A drawing edge
(u, v) is a chain of segments oriented u -> v; segment s has the darts
2*s, which points along the chain, and 2*s + 1, which points back, so a
dart's segment is d >> 1, its end is d & 1 and its reversal is d ^ 1.
Rotations list outgoing darts in counterclockwise order, and a face's dart
after d is the rotation-successor of d ^ 1 at the head of d; a rotation
system is a sphere embedding iff V - E + F = 2 on every connected
component.
"""

from __future__ import annotations

from .graphs import connected_components


class Emb:
    """Mutable embedded planarization of a combinatorial drawing."""

    def __init__(self):
        self.segs: dict[int, tuple] = {}   # seg id -> (node_a, node_b, edge)
        self.chains: dict[tuple, list[int]] = {}  # edge -> seg ids, u->v
        self.rot: dict[int, list[int]] = {}   # node -> outgoing darts
        self._next_seg = 0
        self._next_x = 0  # the next free crossing id

    # -- dart algebra ---------------------------------------------------

    def edge_of(self, dart):
        return self.segs[dart >> 1][2]

    def end_dart(self, edge, v):
        """The dart of `edge` that leaves its end v."""
        chain = self.chains[edge]
        return 2 * chain[-1] + 1 if edge[1] == v else 2 * chain[0]

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
        """Add vertex v (an id >= 0, so that it is no dummy) unless it is
        here already."""
        if v < 0:
            raise ValueError(f"negative vertex id {v}")
        if v not in self.rot:
            self.rot[v] = []

    def faces(self):
        """All face cycles (tuples of darts), each traced from its least
        dart, in the order of those darts."""
        seen = set()
        out = []
        for sid in sorted(self.segs):
            for d in (2 * sid, 2 * sid + 1):
                if d not in seen:
                    out.append(self.face_at(d))
                    seen.update(out[-1])
        return out

    def face_at(self, dart):
        """The face cycle through `dart`, as `faces()` lists it: traced
        from the cycle's least dart.  The dart after d is the one after
        d ^ 1 in the ring at the head of d."""
        segs, rot = self.segs, self.rot
        cycle = [dart]
        d = dart
        while True:
            ring = rot[segs[d >> 1][~d & 1]]
            d = ring[(ring.index(d ^ 1) + 1) % len(ring)]
            if d == dart:
                break
            cycle.append(d)
        i = cycle.index(min(cycle))
        return tuple(cycle[i:] + cycle[:i])

    def components(self):
        return connected_components(
            self.rot, ((a, b) for a, b, _ in self.segs.values()))

    def euler_ok(self) -> bool:
        """True iff the rotation system is a sphere embedding per component.

        A component with an edge has V - E + F = 2 - 2g with genus g >= 0,
        so the sum over those components is 2 per component only when every
        genus is 0.  An isolated node fills its own sphere.

        The faces are counted in one pass: each ring gives the face
        successor of the reversal of each of its darts, and the cycles of
        that map are popped one at a time.  A ring dart whose segment is
        gone or that does not leave the ring's node, and a segment dart
        that is in no ring or in two, make the check fail."""
        segs = self.segs
        after = {}  # dart -> the next dart of its face
        darts = isolated = 0
        for node, ring in self.rot.items():
            if not ring:
                isolated += 1
                continue
            darts += len(ring)
            prev = ring[-1]
            for d in ring:
                seg = segs.get(d >> 1)
                if seg is None or seg[d & 1] != node:
                    return False
                after[prev ^ 1] = d
                prev = d
        if len(after) != darts or darts != 2 * len(segs):
            return False
        faces = 0
        while after:
            start, d = after.popitem()
            while d != start:
                d = after.pop(d)
            faces += 1
        comps = len(self.components()) - isolated
        return len(self.rot) - isolated - len(segs) + faces == 2 * comps

    # -- surgery ----------------------------------------------------------

    def _new_seg(self, a, b, edge):
        sid = self._next_seg
        self._next_seg += 1
        self.segs[sid] = (a, b, edge)
        return sid

    def _split(self, dart, node):
        """Split the segment under `dart` at `node`; returns the dummy's
        darts toward the head and toward the tail of `dart`."""
        seg = dart >> 1
        ga, gb, g = self.segs[seg]
        s1 = self._new_seg(ga, node, g)
        s2 = self._new_seg(node, gb, g)
        chain = self.chains[g]
        k = chain.index(seg)
        chain[k : k + 1] = [s1, s2]
        self._replace(ga, 2 * seg, 2 * s1)
        self._replace(gb, 2 * seg + 1, 2 * s2 + 1)
        del self.segs[seg]
        to_start = 2 * s1 + 1  # dart from node toward ga
        to_end = 2 * s2        # dart from node toward gb
        return (to_start, to_end) if dart & 1 else (to_end, to_start)

    def _replace(self, node, old, new):
        ring = self.rot[node]
        ring[ring.index(old)] = new

    def _attach(self, node, pos, dart):
        """Put the first dart of a route piece into the ring of its tail:
        at gap `pos` of a vertex, or in the open forward slot that
        cross_dart leaves at a dummy."""
        self.rot[node].insert(1 if node < 0 else pos, dart)

    def cross_dart(self, edge, node, pos, dart):
        """Draw a piece of `edge` from `node` (ring gap `pos`) across the
        segment under `dart`, ending at a new dummy, which is returned.

        The dummy's ring is [toward the head of `dart`, toward its tail,
        back along `edge`]; the next piece fills the open forward slot
        between the first two (faces sit on the right of their darts, so
        the forward dart follows the head-side dart counterclockwise).
        """
        x = ~self._next_x
        self._next_x += 1
        to_head, to_tail = self._split(dart, x)
        seg = self._new_seg(node, x, edge)
        self.chains.setdefault(edge, []).append(seg)
        self._attach(node, pos, 2 * seg)
        self.rot[x] = [to_head, to_tail, 2 * seg + 1]
        return x

    def finish_edge(self, edge, node, pos, end_pos):
        """Draw the last piece of `edge` from `node` (ring gap `pos`) to
        its end vertex, entering that ring at gap `end_pos`."""
        seg = self._new_seg(node, edge[1], edge)
        self.chains.setdefault(edge, []).append(seg)
        self._attach(node, pos, 2 * seg)
        self.rot[edge[1]].insert(end_pos, 2 * seg + 1)

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
        # new crossing id -> its darts [back, onward] on its lesser edge,
        # then on the other (the sequences are sorted by edge)
        around = {c: [] for c in new_id.values()}
        for edge, seq in d.sequences:
            xs = [new_id[c] for c in seq]
            stops = [edge[0], *(~c for c in xs), edge[1]]
            chain = [self._new_seg(a, b, edge) for a, b in zip(stops, stops[1:])]
            self.chains[edge] = chain
            for i, c in enumerate(xs):
                around[c] += (2 * chain[i] + 1, 2 * chain[i + 1])
        for v, neighbors in d.rotations:
            self.rot[v] = [
                self.end_dart((v, w) if v < w else (w, v), v) for w in neighbors
            ]
        bits = dict(d.orientations)
        for cid, c in new_id.items():
            ep, en, fp, fn = around[c]
            if bits.get(cid, 0) == 0:
                self.rot[~c] = [ep, fp, en, fn]
            else:
                self.rot[~c] = [ep, fn, en, fp]
        return self

    # -- extraction -------------------------------------------------------

    def vertex_rotation(self, v) -> tuple[int, ...]:
        """Neighbor ids of v in rotation order (simple graphs)."""
        out = []
        for d in self.rot[v]:
            a, b = self.edge_of(d)
            out.append(b if a == v else a)
        return tuple(out)

    def to_drawing(self, graph):
        """The CombinatorialDrawing of this embedding; `graph` lists the
        drawn vertices and edges, every vertex of it placed here.  The
        sequences come from one pass over the chains, the orientation bits
        from one over the dummies' rings."""
        from .drawing import CombinatorialDrawing

        seqs = {
            edge: tuple(~self.segs[sid][1] for sid in chain[:-1])
            for edge, chain in self.chains.items()
        }
        orients = {}
        for node, ring in self.rot.items():
            if node < 0:
                # a dummy's two odd darts run back along its two edges; the
                # bit is 0 when the lesser edge's is followed by the other's
                i, j = [k for k, d in enumerate(ring) if d & 1]
                if self.edge_of(ring[i]) > self.edge_of(ring[j]):
                    i, j = j, i
                orients[~node] = 0 if (i + 1) % 4 == j else 1
        rots = {v: self.vertex_rotation(v) for v in graph.vertices}
        return CombinatorialDrawing.make(graph, seqs, rots, orients)
