"""Combinatorial good drawings: crossings, rotation systems, orientation
bits, equivalence, crossing counts, and topological clusters."""

from __future__ import annotations

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
    tuple of its neighbors; `orientations` pins the embedding by giving
    each crossing's local orientation bit.
    """

    graph: Graph
    sequences: tuple  # sorted tuple of (edge, tuple_of_cids)
    rotations: tuple  # sorted tuple of (vertex, neighbor_tuple)
    orientations: tuple  # sorted tuple of (cid, bit), one per crossing

    @staticmethod
    def make(graph, sequences, rotations, orientations=None):
        """A crossing missing from `orientations` gets bit 0."""
        seqs = {e: tuple(s) for e, s in sequences.items()}
        for e in graph.edges:
            seqs.setdefault(e, ())
        # rotations are cyclic: store each in canonical (least-first) phase
        rots = {v: canonical_cycle(tuple(r)) for v, r in rotations.items()}
        for v in graph.vertices:
            rots.setdefault(v, tuple(graph.adjacency[v]))
        bits = orientations or {}
        cids = {c for seq in seqs.values() for c in seq}
        return CombinatorialDrawing(
            graph,
            tuple(sorted(seqs.items())),
            tuple(sorted(rots.items())),
            tuple(sorted((c, bits.get(c, 0)) for c in cids)),
        )

    @property
    def seq_map(self) -> dict:
        return dict(self.sequences)

    @property
    def rot_map(self) -> dict:
        return dict(self.rotations)

    @property
    def crossing_pairs(self) -> dict:
        """Crossing id -> sorted (edge, edge) pair."""
        on: dict[int, list] = {}
        for e, seq in self.sequences:
            for c in seq:
                on.setdefault(c, []).append(e)
        return {c: tuple(sorted(es)) for c, es in on.items()}

    def emb(self) -> Emb:
        """The embedded planarization that the orientation bits pin."""
        return build_emb(self.graph, self.seq_map, self.rot_map,
                         dict(self.orientations))

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
        graph = Graph(tuple(mapping.values()), tuple(new.values()))
        return CombinatorialDrawing.make(graph, seqs, rots,
                                         dict(self.orientations))


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
    emb = d.emb()
    emb.validate_structure()
    if not emb.euler_ok():
        return GoodnessReport(False, "unrealizable rotation/crossing structure")
    return GoodnessReport(True)


def crossing_count(d: CombinatorialDrawing) -> int:
    return len(d.crossing_pairs)


# ---------------------------------------------------------------------------
# equivalence


def structural_key(d: CombinatorialDrawing):
    """Equivalence key: crossings renamed to their edge pairs, with the
    per-edge crossing orders, the rotations and the orientation bits.
    Together these determine the planarization's faces, so mirror images
    get distinct keys."""
    pairs = d.crossing_pairs
    seq_key = tuple(
        (e, tuple(pairs[c] for c in seq)) for e, seq in d.sequences
    )
    ori = tuple(sorted((pairs[c], b) for c, b in d.orientations))
    return (seq_key, d.rotations, ori)


def equivalent(d1: CombinatorialDrawing, d2: CombinatorialDrawing) -> bool:
    if d1.graph.edges != d2.graph.edges or d1.graph.vertices != d2.graph.vertices:
        raise ValueError("equivalence requires the same underlying graph")
    return structural_key(d1) == structural_key(d2)


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


def cluster_crossings(d: CombinatorialDrawing, cl: Cluster) -> int:
    """Crossings between pairs of edges both incident to `cl`."""
    members = set(cl.members)
    return sum(1 for e, f in d.crossing_pairs.values()
               if (set(e) & members) and (set(f) & members))


def noncluster_count(d: CombinatorialDrawing, cover: frozenset) -> int:
    """Crossings whose edge pair shares no topological cluster."""
    part = clusters(d, cover)
    where = {}
    for i, cl in enumerate(part.clusters):
        for v in cl.members:
            where[v] = i
    total = 0
    for e, f in d.crossing_pairs.values():
        ce = {where[v] for v in e if v in where}
        cf = {where[v] for v in f if v in where}
        if not (ce & cf):
            total += 1
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
        wm = dict(self.vertex_weights)
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
    pairs = d.crossing_pairs
    order = sorted(pairs, key=lambda c: pairs[c])
    name = {c: i for i, c in enumerate(order)}
    lines = ["drawing"]
    lines.append("vertices " + " ".join(str(v) for v in d.graph.vertices))
    for e, seq in d.sequences:
        tail = " ".join(str(name[c]) for c in seq)
        lines.append(f"edge {e[0]} {e[1]} : {tail}".rstrip())
    for c in order:
        (a, b), (x, y) = pairs[c]
        lines.append(f"crossing {name[c]} = {a} {b} x {x} {y}")
    for v, ring in d.rotations:
        lines.append(f"rot {v} : " + " ".join(str(w) for w in ring))
    for c, bit in d.orientations:
        lines.append(f"orient {name[c]} {bit}")
    return "\n".join(lines) + "\n"


def drawing_from_text(text: str) -> CombinatorialDrawing:
    vertices: list[int] = []
    seqs: dict[tuple, tuple] = {}
    rots: dict[int, tuple] = {}
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
        else:
            raise ValueError(f"unrecognized drawing record: {raw!r}")
    g = Graph(tuple(vertices), tuple(seqs))
    return CombinatorialDrawing.make(g, seqs, rots, orients)
