"""Combinatorial good drawings: crossings, rotation systems, planarization,
equivalence, weighted counts, and topological clusters."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .embedding import Emb, build_emb
from .graphs import Graph


def zee(m: int) -> int:
    """Forced crossings between two equal-rotation degree-m stars."""
    return (m // 2) * ((m - 1) // 2)


class UnrealizableDrawing(Exception):
    pass


@dataclass(frozen=True)
class CombinatorialDrawing:
    """A good drawing: per-edge crossing sequences plus a rotation system.

    `sequences` maps each edge (u, v), u < v, to its crossing ids in u -> v
    order; `rotations` maps each vertex to the cyclic (counterclockwise)
    tuple of its neighbors; `orientations` optionally pins the embedding by
    giving each crossing's local orientation bit.
    """

    graph: Graph
    sequences: tuple  # sorted tuple of (edge, tuple_of_cids)
    rotations: tuple  # sorted tuple of (vertex, neighbor_tuple)
    weights: tuple = ()  # sorted tuple of (edge, weight), 1 if absent
    orientations: tuple | None = None  # sorted tuple of (cid, bit)

    @staticmethod
    def make(graph, sequences, rotations, weights=None, orientations=None):
        seqs = {e: tuple(s) for e, s in sequences.items()}
        for e in graph.edges:
            seqs.setdefault(e, ())
        # rotations are cyclic: store each in canonical (least-first) phase
        rots = {v: canonical_cycle(tuple(r)) for v, r in rotations.items()}
        for v in graph.vertices:
            rots.setdefault(v, tuple(graph.adjacency[v]))
        w = tuple(sorted((weights or {}).items()))
        ori = None
        if orientations is not None:
            ori = tuple(sorted(orientations.items()))
        return CombinatorialDrawing(
            graph,
            tuple(sorted(seqs.items())),
            tuple(sorted(rots.items())),
            w,
            ori,
        )

    @property
    def seq_map(self) -> dict:
        return dict(self.sequences)

    @property
    def rot_map(self) -> dict:
        return dict(self.rotations)

    @property
    def weight_map(self) -> dict:
        w = {e: 1 for e in self.graph.edges}
        w.update(dict(self.weights))
        return w

    @property
    def crossing_pairs(self) -> dict:
        """Crossing id -> sorted (edge, edge) pair."""
        on: dict[int, list] = {}
        for e, seq in self.sequences:
            for c in seq:
                on.setdefault(c, []).append(e)
        return {c: tuple(sorted(es)) for c, es in on.items()}

    def emb(self) -> Emb:
        """The stored embedding; derives one when orientations are absent."""
        ori = self.orientations
        if ori is None:
            ori = derive_orientations(self)
            if ori is None:
                raise UnrealizableDrawing("no sphere embedding exists")
            ori = tuple(sorted(ori.items()))
        emb = build_emb(self.graph, self.seq_map, self.rot_map, dict(ori))
        return emb

    def relabel(self, mapping) -> "CombinatorialDrawing":
        """The subdrawing on the vertices that `mapping` keys, each renamed
        to its value.  Crossing ids and orientation bits carry over, and
        the bits are relative to each edge's direction and each crossing's
        edge-pair order, so a mapping that reverses a kept edge or reorders
        a kept crossing's pair raises ValueError."""
        new = {}  # kept edge -> its image
        for e in self.graph.edges:
            if e[0] in mapping and e[1] in mapping:
                new[e] = (mapping[e[0]], mapping[e[1]])
                if new[e][0] >= new[e][1]:
                    raise ValueError(f"relabelling turns edge {e} into {new[e]}")
        live = set()
        for c, (e, f) in self.crossing_pairs.items():
            if e in new and f in new:
                if new[e] > new[f]:
                    raise ValueError(
                        f"relabelling reorders the edge pair of crossing {c}")
                live.add(c)
        seqs = {
            new[e]: tuple(c for c in seq if c in live)
            for e, seq in self.sequences if e in new
        }
        rots = {
            mapping[v]: tuple(mapping[w] for w in ring if w in mapping)
            for v, ring in self.rotations if v in mapping
        }
        weights = {new[e]: w for e, w in self.weights if e in new}
        ori = self.orientations
        if ori is not None:
            ori = {c: b for c, b in ori if c in live}
        graph = Graph(tuple(mapping.values()), tuple(new.values()))
        return CombinatorialDrawing.make(graph, seqs, rots, weights, ori)

    def with_orientations(self) -> "CombinatorialDrawing":
        if self.orientations is not None:
            return self
        ori = derive_orientations(self)
        if ori is None:
            raise UnrealizableDrawing("no sphere embedding exists")
        return CombinatorialDrawing(
            self.graph, self.sequences, self.rotations, self.weights,
            tuple(sorted(ori.items())),
        )


@dataclass(frozen=True)
class GoodnessReport:
    ok: bool
    violation: str = ""


def _structural_violation(d: CombinatorialDrawing) -> str:
    edge_set = set(d.graph.edges)
    seqs = d.seq_map
    if set(seqs) != edge_set:
        return "sequence table does not match the edge set"
    on: dict[int, list] = {}
    for e, seq in seqs.items():
        for c in seq:
            on.setdefault(c, []).append(e)
        if len(set(seq)) != len(seq):
            return f"edge {e} repeats a crossing id"
    for c, es in on.items():
        if len(es) != 2:
            return f"crossing {c} does not lie on exactly two edges"
        if es[0] == es[1]:
            return f"crossing {c} lies twice on edge {es[0]}"
    rots = d.rot_map
    if set(rots) != set(d.graph.vertices):
        return "rotation table does not match the vertex set"
    for v, ring in rots.items():
        if sorted(ring) != sorted(d.graph.adjacency[v]):
            return f"rotation at {v} is not a permutation of its neighbors"
    for e, w in d.weights:
        if w < 1:
            return f"weight of {e} is not positive"
    return ""


def validate_good(d: CombinatorialDrawing) -> GoodnessReport:
    """Good-drawing rules plus realizability of the crossing structure."""
    msg = _structural_violation(d)
    if msg:
        return GoodnessReport(False, msg)
    pairs = d.crossing_pairs
    for c, (e, f) in sorted(pairs.items()):
        if set(e) & set(f):
            return GoodnessReport(False, "adjacent crossing")
    seen_pairs = {}
    for c, pr in sorted(pairs.items()):
        if pr in seen_pairs:
            return GoodnessReport(False, "double crossing")
        seen_pairs[pr] = c
    # realizability
    if d.orientations is not None:
        emb = build_emb(d.graph, d.seq_map, d.rot_map, dict(d.orientations))
        emb.validate_structure()
        if not emb.euler_ok():
            return GoodnessReport(False, "unrealizable rotation/crossing structure")
    else:
        if derive_orientations(d) is None:
            return GoodnessReport(False, "unrealizable rotation/crossing structure")
    return GoodnessReport(True)


def derive_orientations(d: CombinatorialDrawing) -> dict | None:
    """Lexicographically first crossing-orientation assignment that yields a
    sphere embedding, or None.  Exponential in the crossing count; fine at
    the sizes validation is used for."""
    cids = sorted(d.crossing_pairs)
    seqs, rots = d.seq_map, d.rot_map
    for bits in itertools.product((0, 1), repeat=len(cids)):
        ori = dict(zip(cids, bits))
        emb = build_emb(d.graph, seqs, rots, ori)
        if emb.euler_ok():
            return ori
    return None


def crossing_count(d: CombinatorialDrawing):
    """Weighted crossing count: each crossing contributes w(e) * w(f)."""
    w = d.weight_map
    return sum(w[e] * w[f] for e, f in d.crossing_pairs.values())


# ---------------------------------------------------------------------------
# planarization


@dataclass(frozen=True)
class Planarization:
    """Plane graph with a degree-4 dummy per crossing, plus traced faces."""

    nodes: tuple
    segments: tuple  # ((node_a, node_b), parent_edge)
    rotations: tuple  # (node, dart tuple)
    faces: tuple  # canonical face cycles
    components: int

    @property
    def vertex_count(self):
        return len(self.nodes)

    @property
    def edge_count(self):
        return len(self.segments)

    @property
    def face_count(self):
        """Faces on the sphere; disjoint components share one outer face."""
        return len(self.faces) - (self.components - 1)

    def euler_holds(self) -> bool:
        return (
            self.vertex_count - self.edge_count + self.face_count
            == 1 + self.components
        )


def _canonical_dart(emb: Emb, dart):
    seg, end = dart
    a, b, edge = emb.segs[seg]
    k = emb.chains[edge].index(seg)
    return (edge, k, end)


def canonical_faces(emb: Emb) -> tuple:
    """Face cycles with segment-position dart names, each cycle rotated to
    its lexicographic minimum, and the collection sorted."""
    out = []
    for cyc in emb.faces():
        named = [_canonical_dart(emb, dd) for dd in cyc]
        best = min(
            tuple(named[i:] + named[:i]) for i in range(len(named))
        )
        out.append(best)
    return tuple(sorted(out))


def planarize(d: CombinatorialDrawing) -> Planarization:
    rep = validate_good(d)
    if not rep.ok:
        raise UnrealizableDrawing(rep.violation)
    emb = d.with_orientations().emb()
    nodes = tuple(sorted(emb.rot))
    segments = tuple(
        sorted(((a, b), e) for a, b, e in emb.segs.values())
    )
    rotations = tuple(
        sorted(
            (node, tuple(_canonical_dart(emb, dd) for dd in ring))
            for node, ring in emb.rot.items()
        )
    )
    return Planarization(
        nodes,
        segments,
        rotations,
        canonical_faces(emb),
        len(emb.components()),
    )


# ---------------------------------------------------------------------------
# equivalence


def canonical_key(d: CombinatorialDrawing):
    """Equivalence key: crossing pairs with per-edge orders, plus the
    planarization's face collection.  Mirror images get distinct keys."""
    dd = d.with_orientations()
    pairs = dd.crossing_pairs
    seq_key = tuple(
        (e, tuple(pairs[c] for c in seq)) for e, seq in dd.sequences
    )
    return (seq_key, canonical_faces(dd.emb()))


def structural_key(d: CombinatorialDrawing):
    """Cheap dedup key with crossings renamed to their edge pairs.

    Rotations, per-edge crossing orders and orientation bits determine the
    planarization's traced faces, so drawings agree on this key exactly
    when they agree on canonical_key; this skips the face tracing.
    """
    dd = d.with_orientations() if d.orientations is None and d.sequences else d
    pairs = dd.crossing_pairs
    seq_key = tuple(
        (e, tuple(pairs[c] for c in seq)) for e, seq in dd.sequences
    )
    ori = tuple(sorted((pairs[c], b) for c, b in (dd.orientations or ())))
    return (seq_key, dd.rotations, ori)


def equivalent(d1: CombinatorialDrawing, d2: CombinatorialDrawing) -> bool:
    if d1.graph.edges != d2.graph.edges or d1.graph.vertices != d2.graph.vertices:
        raise ValueError("equivalence requires the same underlying graph")
    return canonical_key(d1) == canonical_key(d2)


# ---------------------------------------------------------------------------
# topological clusters


def canonical_cycle(t: tuple) -> tuple:
    """Rotate a cyclic tuple to its lexicographic minimum (no reflection)."""
    if not t:
        return t
    return min(tuple(t[i:] + t[:i]) for i in range(len(t)))


@dataclass(frozen=True)
class Cluster:
    neighborhood: frozenset
    rotation: tuple
    members: tuple

    @property
    def size(self):
        return len(self.members)

    @property
    def degree(self):
        return len(self.neighborhood)


@dataclass(frozen=True)
class ClusterPartition:
    clusters: tuple

    def of(self, v) -> int:
        for i, cl in enumerate(self.clusters):
            if v in cl.members:
                return i
        raise KeyError(v)


def clusters(d: CombinatorialDrawing, cover: frozenset) -> ClusterPartition:
    """Partition non-cover vertices by (neighborhood, clockwise rotation)."""
    rots = d.rot_map
    groups: dict[tuple, list] = {}
    for v in d.graph.vertices:
        if v in cover:
            continue
        nb = d.graph.neighborhood(v)
        if not nb <= cover:
            raise ValueError(f"{cover} is not a vertex cover of the drawing")
        key = (tuple(sorted(nb)), canonical_cycle(rots[v]))
        groups.setdefault(key, []).append(v)
    out = [
        Cluster(frozenset(nb), rot, tuple(sorted(vs)))
        for (nb, rot), vs in sorted(groups.items())
    ]
    return ClusterPartition(tuple(out))


def cluster_crossings(d: CombinatorialDrawing, cl: Cluster):
    """Weighted crossings between pairs of edges both incident to `cl`."""
    w = d.weight_map
    members = set(cl.members)
    total = 0
    for e, f in d.crossing_pairs.values():
        if (set(e) & members) and (set(f) & members):
            total += w[e] * w[f]
    return total


def noncluster_count(d: CombinatorialDrawing, cover: frozenset):
    """Weighted crossings whose edge pair shares no topological cluster."""
    part = clusters(d, cover)
    where = {}
    for i, cl in enumerate(part.clusters):
        for v in cl.members:
            where[v] = i
    w = d.weight_map
    total = 0
    for e, f in d.crossing_pairs.values():
        ce = {where[v] for v in e if v in where}
        cf = {where[v] for v in f if v in where}
        if not (ce & cf):
            total += w[e] * w[f]
    return total


# ---------------------------------------------------------------------------
# weighted clusterings


@dataclass(frozen=True)
class WeightedClustering:
    """A drawing whose non-cover vertices carry cluster-size weights."""

    drawing: CombinatorialDrawing
    cover: frozenset
    vertex_weights: tuple  # sorted (vertex, weight), weight >= 0

    @staticmethod
    def make(drawing, cover, vertex_weights):
        return WeightedClustering(
            drawing, frozenset(cover), tuple(sorted(vertex_weights.items()))
        )

    @property
    def weight_map(self):
        return dict(self.vertex_weights)

    def check(self):
        part = clusters(self.drawing, self.cover)
        for cl in part.clusters:
            if len(cl.members) > 1:
                raise ValueError(
                    "representatives share a topological cluster"
                )
        for v, w in self.vertex_weights:
            if v in self.cover or w < 0:
                raise ValueError(f"bad weight entry ({v}, {w})")

    def edge_weights(self) -> dict:
        """c'(e): the weight of the non-cover end, 1 for cover-cover edges."""
        wm = self.weight_map
        out = {}
        for e in self.drawing.graph.edges:
            outside = [v for v in e if v not in self.cover]
            out[e] = wm.get(outside[0], 1) if outside else 1
        return out

    def weighted_crossing_number(self):
        d = self.drawing
        ew = self.edge_weights()
        return sum(
            ew[e] * ew[f] for e, f in d.crossing_pairs.values()
        )


def cl_value(wc: WeightedClustering):
    """Unavoidable intra-cluster crossings: sum of C(c,2) * Z(deg)."""
    g = wc.drawing.graph
    total = 0
    for v, c in wc.vertex_weights:
        total += comb(c, 2) * zee(g.degree(v))
    return total


# ---------------------------------------------------------------------------
# interchange format


def drawing_to_text(d: CombinatorialDrawing) -> str:
    """Deterministic structured-text form of a drawing."""
    dd = d.with_orientations() if d.crossing_pairs else d
    pairs = dd.crossing_pairs
    order = sorted(pairs, key=lambda c: pairs[c])
    name = {c: i for i, c in enumerate(order)}
    lines = ["drawing"]
    lines.append("vertices " + " ".join(str(v) for v in dd.graph.vertices))
    for e, seq in dd.sequences:
        tail = " ".join(str(name[c]) for c in seq)
        lines.append(f"edge {e[0]} {e[1]} : {tail}".rstrip())
    for c in order:
        (a, b), (x, y) = pairs[c]
        lines.append(f"crossing {name[c]} = {a} {b} x {x} {y}")
    for v, ring in dd.rotations:
        lines.append(f"rot {v} : " + " ".join(str(w) for w in ring))
    if dd.orientations:
        for c, bit in dd.orientations:
            lines.append(f"orient {name[c]} {bit}")
    for e, w in dd.weights:
        if w != 1:
            lines.append(f"weight {e[0]} {e[1]} : {w}")
    return "\n".join(lines) + "\n"


def drawing_from_text(text: str) -> CombinatorialDrawing:
    vertices: list[int] = []
    seqs: dict[tuple, tuple] = {}
    rots: dict[int, tuple] = {}
    weights: dict[tuple, int] = {}
    orients: dict[int, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "drawing" or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "vertices":
            vertices = [int(x) for x in parts[1:]]
        elif parts[0] == "edge":
            u, v = int(parts[1]), int(parts[2])
            cids = tuple(int(x) for x in parts[4:])
            seqs[(u, v)] = cids
        elif parts[0] == "crossing":
            continue  # implied by the edge sequences
        elif parts[0] == "rot":
            rots[int(parts[1])] = tuple(int(x) for x in parts[3:])
        elif parts[0] == "orient":
            orients[int(parts[1])] = int(parts[2])
        elif parts[0] == "weight":
            weights[(int(parts[1]), int(parts[2]))] = int(parts[4])
        else:
            raise ValueError(f"unrecognized drawing record: {raw!r}")
    g = Graph(tuple(vertices), tuple(seqs))
    return CombinatorialDrawing.make(
        g, seqs, rots, weights, orients if orients else None
    )
