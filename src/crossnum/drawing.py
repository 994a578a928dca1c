"""Combinatorial good drawings: crossings, rotation systems, orientation
bits, equivalence and crossing counts."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .embedding import Emb
from .graphs import Graph


def zee(m: int) -> int:
    """Forced crossings between two equal-rotation degree-m stars."""
    return (m // 2) * ((m - 1) // 2)


def antidistance(p: tuple, s: tuple) -> int:
    """Forced crossings between two degree-m stars on the same m leaves
    whose centre rotations are the cyclic orders `p` and `s`: in any good
    drawing they cross at least this often (Woodall, "Cyclic-order graphs
    and Zarankiewicz's crossing-number conjecture", 1993).  It is the
    fewest swaps of two cyclically adjacent elements that turn `p` into
    the reverse of `s`, so it is zee(m) when p = s."""
    m = len(p)
    if m < 3:
        return 0
    # relabel so that p is the identity order
    pos = {x: i for i, x in enumerate(p)}
    target = canonical_cycle(tuple(pos[x] for x in s[::-1]))
    return _identity_distances(m)[target]


@cache
def _identity_distances(m: int) -> dict:
    """Swap distance from the identity order of range(m) to every cyclic
    order of it, each keyed in canonical (least-first) phase.  The table
    has (m - 1)! entries; the solver reads it for m <= 6 only, since two
    representatives sharing 7 leaves take more than the pipeline's
    REP_SET_CAP representative sets (at least 720 + C(720, 2))."""
    start = tuple(range(m))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for order in frontier:
            for i in range(m):
                j = (i + 1) % m
                swapped = list(order)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                key = canonical_cycle(tuple(swapped))
                if key not in dist:
                    dist[key] = dist[order] + 1
                    nxt.append(key)
        frontier = nxt
    return dist


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
    def rot_map(self) -> dict:
        return dict(self.rotations)

    @cached_property
    def crossing_pairs(self) -> dict:
        """Crossing id -> sorted tuple of the edges whose sequences hold it
        (two in a good drawing), computed once per drawing."""
        on: dict[int, list] = {}
        for e, seq in self.sequences:
            for c in seq:
                on.setdefault(c, []).append(e)
        return {c: tuple(sorted(es)) for c, es in on.items()}

    def emb(self) -> Emb:
        """The embedded planarization that the orientation bits pin, with
        the crossings numbered 0, 1, ... in the order of their ids here."""
        return Emb().add_drawing(self)

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
    # each edge holds one sequence, so a crossing on two entries lies on
    # two distinct edges unless an edge repeats it
    if sorted(e for e, _ in d.sequences) != list(d.graph.edges):
        return "sequence table does not match the edge set"
    for e, seq in d.sequences:
        if len(set(seq)) != len(seq):
            return f"edge {e} repeats a crossing id"
    for c, es in d.crossing_pairs.items():
        if len(es) != 2:
            return f"crossing {c} does not lie on exactly two edges"
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
    pairs = d.crossing_pairs.values()
    if any(set(e) & set(f) for e, f in pairs):
        return GoodnessReport(False, "adjacent crossing")
    if len(set(pairs)) != len(pairs):
        return GoodnessReport(False, "double crossing")
    # an accepted table gives a well-formed embedding, so only the sphere
    # property is left to check
    if not d.emb().euler_ok():
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


def canonical_cycle(t: tuple) -> tuple:
    """Rotate a cyclic tuple to its lexicographic minimum (no reflection)."""
    if not t:
        return t
    return min(tuple(t[i:] + t[:i]) for i in range(len(t)))


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
