"""Topological clusters and weighted clusterings of the paper, for the
tests that check its lemmas on small drawings."""

from collections import Counter
from dataclasses import dataclass
from math import comb

from crossnum.drawing import CombinatorialDrawing, canonical_cycle, zee


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
        nb = frozenset(d.graph.adjacency[v])
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


def balanced_floor(rep_set, cg) -> int:
    """The least sum of Z(|Y|) C(z, 2) over the weights z of `rep_set`'s
    representatives, when each class's weights sum to its count h(Y): the
    split of h(Y) into parts that differ by at most one."""
    total = 0
    for mask, g in Counter(s.mask for s in rep_set.reps).items():
        q, rem = divmod(cg.h_map[mask], g)
        total += zee(bin(mask).count("1")) * (
            (g - rem) * comb(q, 2) + rem * comb(q + 1, 2))
    return total
