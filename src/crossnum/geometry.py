"""Exact straight-line drawings over rational coordinates.

Builds CombinatorialDrawing objects (with embedding orientations) from
explicit vertex positions, using Fraction arithmetic throughout so crossing
orders and rotations are exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key

from .drawing import CombinatorialDrawing
from .graphs import Graph


class DegenerateDrawing(Exception):
    """Coincident or collinear features prevent reading off a good drawing."""


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _on_open_segment(p, a, b) -> bool:
    if _cross(_sub(b, a), _sub(p, a)) != 0:
        return False
    lo, hi = sorted((a, b))
    return lo < p < hi


def _interior_intersection(p1, p2, p3, p4):
    """Strictly interior intersection parameters (t, s), else None."""
    d1 = _sub(p2, p1)
    d2 = _sub(p4, p3)
    denom = _cross(d1, d2)
    if denom == 0:
        return None
    w = _sub(p3, p1)
    t = Fraction(_cross(w, d2), denom)
    s = Fraction(_cross(w, d1), denom)
    if 0 < t < 1 and 0 < s < 1:
        return t, s
    return None


def _angle_cmp(a, b):
    """Counterclockwise comparator on nonzero direction vectors."""

    def half(v):
        x, y = v
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    c = _cross(a, b)
    if c == 0:
        raise DegenerateDrawing("coinciding edge directions at a point")
    return -1 if c > 0 else 1


def ccw_sorted(items):
    """Sort (vector, tag) pairs counterclockwise starting at direction +x."""
    return sorted(items, key=cmp_to_key(lambda p, q: _angle_cmp(p[0], q[0])))


def drawing_from_points(graph: Graph, pos: dict) -> CombinatorialDrawing:
    """Read the combinatorial drawing off a straight-line embedding.

    Raises DegenerateDrawing on triple points, vertices on edges, adjacent
    crossings or coincident points; callers perturb and retry.
    """
    pts = {v: (Fraction(p[0]), Fraction(p[1])) for v, p in pos.items()}
    if len({pts[v] for v in graph.vertices}) != len(graph.vertices):
        raise DegenerateDrawing("coincident vertices")
    edges = list(graph.edges)
    for w in graph.vertices:
        for e in edges:
            if w in e:
                continue
            if _on_open_segment(pts[w], pts[e[0]], pts[e[1]]):
                raise DegenerateDrawing(f"vertex {w} lies on edge {e}")
    hits: dict[tuple, list] = {e: [] for e in edges}
    crossings = []  # crossing id -> (edge, later edge, point)
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            inter = _interior_intersection(
                pts[e[0]], pts[e[1]], pts[f[0]], pts[f[1]]
            )
            if inter is None:
                continue
            if set(e) & set(f):
                raise DegenerateDrawing("adjacent edges cross")
            t, s = inter
            hits[e].append((t, len(crossings)))
            hits[f].append((s, len(crossings)))
            px = pts[e[0]][0] + t * (pts[e[1]][0] - pts[e[0]][0])
            py = pts[e[0]][1] + t * (pts[e[1]][1] - pts[e[0]][1])
            crossings.append((e, f, (px, py)))
    if len({p for _, _, p in crossings}) != len(crossings):
        raise DegenerateDrawing("three edges through one point")
    seqs = {}
    for e, lst in hits.items():
        lst.sort()
        seqs[e] = tuple(c for _, c in lst)
    rots = {}
    for v in graph.vertices:
        vecs = [(_sub(pts[w], pts[v]), w) for w in graph.adjacency[v]]
        rots[v] = tuple(tag for _, tag in ccw_sorted(vecs))
    orients = {}
    for c, (e, f, p) in enumerate(crossings):
        dirs = [
            (_sub(pts[e[0]], p), "e_prev"),
            (_sub(pts[e[1]], p), "e_next"),
            (_sub(pts[f[0]], p), "f_prev"),
            (_sub(pts[f[1]], p), "f_next"),
        ]
        ring = [tag for _, tag in ccw_sorted(dirs)]
        i = ring.index("e_prev")
        orients[c] = 0 if ring[(i + 1) % 4] == "f_prev" else 1
    return CombinatorialDrawing.make(graph, seqs, rots, orients)


def convex_position_drawing(graph: Graph) -> CombinatorialDrawing:
    """Drawing with all vertices in convex position (chord diagram), in
    the order of their ids along the convex curve.  Perturbs
    deterministically if a triple point occurs.
    """
    vs = graph.vertices
    eps = Fraction(1, 100000)
    for attempt in range(40):
        # strictly convex positions (t, t^2)
        ts = [Fraction(i) + attempt * eps * i * i for i in range(len(vs))]
        pos = {v: (t, t * t) for v, t in zip(vs, ts)}
        try:
            return drawing_from_points(graph, pos)
        except DegenerateDrawing:
            continue
    raise DegenerateDrawing("could not reach general position")
