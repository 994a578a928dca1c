"""Crossing vector / crossing matrix extraction and exact minimization of
f(z) = z^T Q z + 2 p^T z over products of integer simplices."""

from __future__ import annotations

from dataclasses import dataclass

from .drawing import zee
from .enumeration import AbstractClustering
from .graphs import CompressedGraph


class IqpCapExceeded(Exception):
    """The branch-and-bound node cap of one IQP solve was hit."""


@dataclass(frozen=True)
class IqpInstance:
    groups: tuple  # (mask, size, target h) per group, in mask order
    q: tuple  # symmetric |I| x |I| matrix, rows as tuples
    p: tuple  # length |I|
    r: int  # crossings inside the cover subdrawing

    @property
    def size(self) -> int:
        return len(self.p)

    def index_groups(self) -> list[tuple]:
        """Per-group index ranges into the flat z vector."""
        out = []
        at = 0
        for _, size, _ in self.groups:
            out.append(tuple(range(at, at + size)))
            at += size
        return out


@dataclass(frozen=True)
class IqpSolution:
    z: tuple
    f: int
    value: int  # r + weighted crossings + forced intra-cluster crossings


def build_iqp(c: AbstractClustering, cg: CompressedGraph) -> IqpInstance:
    """Read p, Q and r off an abstract clustering."""
    k = c.k
    h = cg.h_map
    reps = c.reps
    idx_of = {spec.vertex: i for i, spec in enumerate(reps)}
    n = len(reps)
    qm = [[0] * n for _ in range(n)]
    p = [0] * n
    r = 0
    for e, f in c.drawing.crossing_pairs.values():
        re = max(e) if max(e) >= k else None
        rf = max(f) if max(f) >= k else None
        if re is None and rf is None:
            r += 1
        elif re is None:
            p[idx_of[rf]] += 1
        elif rf is None:
            p[idx_of[re]] += 1
        else:
            a, b = idx_of[re], idx_of[rf]
            qm[a][b] += 1
            qm[b][a] += 1
    for i, spec in enumerate(reps):
        qm[i][i] = zee(bin(spec.mask).count("1"))
    groups = tuple(
        (mask, len(ix), h[mask]) for mask, ix in c.groups
    )
    return IqpInstance(groups, tuple(tuple(row) for row in qm), tuple(p), r)


def objective(inst: IqpInstance, z) -> int:
    q, p = inst.q, inst.p
    n = inst.size
    total = 0
    for a in range(n):
        za = z[a]
        if za:
            row = q[a]
            total += row[a] * za * za
            for b in range(a + 1, n):
                total += 2 * row[b] * za * z[b]
            total += 2 * p[a] * za
    return total


def solve_iqp(inst: IqpInstance, cap: int = 200_000) -> IqpSolution:
    """Exact global minimizer of f, lexicographically least among optima.

    One interval branch-and-bound over boxes tightened against the group
    sums.  A box splits on its first free coordinate and its low half is
    searched first.  The incumbent is the pair (f, z), and a box is pruned
    only when (bound, least corner) >= (best f, best z), where the bound
    (`_bound`) is a lower bound on f over the box: f at the least corner
    plus the exact minimum, found by water-filling, of the rest of f with
    its off-diagonal part dropped.  The least corner is lexicographically
    below every point of the box, so the optimum kept is the
    lexicographically least.  An expanded box offers the point where that
    minimum is reached as a new incumbent.  The bound is exact when Q is
    diagonal, and a solve for compressed K_{3,n} expands about log2 n
    boxes, not O(n).  `cap` bounds the boxes expanded by one call
    (IqpCapExceeded on overrun, never a silent approximation).
    """
    groups = list(zip(inst.index_groups(), (h for _, _, h in inst.groups)))
    best = (float("inf"), ())
    stack = [_propagate(groups, [(0, h) for ix, h in groups for _ in ix])]
    nodes = 0
    while stack:
        box = stack.pop()
        corner = tuple(lo for lo, _ in box)
        bound, z = _bound(inst, groups, box, corner)
        if (bound, corner) >= best:
            continue
        nodes += 1
        if nodes > cap:
            raise IqpCapExceeded(f"IQP branch-and-bound exceeded {cap} nodes")
        best = min(best, (objective(inst, z), z))
        free = next((i for i, (lo, hi) in enumerate(box) if lo < hi), None)
        if free is None:
            continue
        lo, hi = box[free]
        mid = (lo + hi) // 2
        for half in ((mid + 1, hi), (lo, mid)):  # the low half is popped first
            child = list(box)
            child[free] = half
            stack.append(_propagate(groups, child))
    f, z = best
    # f(z) - 2 (value - r) = sum_a Q_aa z_a for every z
    diag = sum(inst.q[a][a] * z[a] for a in range(inst.size))
    return IqpSolution(z, f, inst.r + (f - diag) // 2)


def _bound(inst, groups, box, corner):
    """A lower bound on f over the feasible points of a tightened box, and
    a feasible point of the box where the bound's relaxation is least.

    Write a point of the box as corner + d with d >= 0.  Then
    f(corner + d) = f(corner) + g.d + d^T Q d with g = 2 (Q corner + p), and
    d^T Q d >= sum_a Q_aa d_a^2 because no entry of Q is negative.  The
    right-hand side is separable and convex in d, so its exact minimum under
    each group's sum and the box bounds takes the cheapest unit steps
    (water-filling); the marginal-cost threshold is found by binary search,
    since h can be huge.  A group with no slack left above the corner (one
    with a single coordinate, say) adds nothing.
    """
    z = list(corner)
    total = objective(inst, corner)
    q, p = inst.q, inst.p
    for ix, h in groups:
        slack = h - sum(corner[i] for i in ix)
        if not slack:
            continue
        # per free coordinate: raising d_a from t to t + 1 costs
        # g_a + Q_aa (2t + 1), for t below the coordinate's span
        free = [a for a in ix if box[a][1] > corner[a]]
        steps = [
            (2 * (p[a] + sum(x * c for x, c in zip(q[a], corner))), q[a][a],
             box[a][1] - corner[a])
            for a in free
        ]

        def taken(lam):
            """Unit steps of marginal cost <= lam, per coordinate."""
            return [
                (span if g <= lam else 0) if not qa
                else min(span, max(0, (lam - g - qa) // (2 * qa) + 1))
                for g, qa, span in steps
            ]

        lo = min(g + qa for g, qa, _ in steps) - 1
        hi = max(g + qa * (2 * span - 1) for g, qa, span in steps)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if sum(taken(mid)) >= slack:
                hi = mid
            else:
                lo = mid
        below = taken(hi - 1)
        extra = slack - sum(below)
        total += extra * hi + sum(
            k * g + qa * k * k for k, (g, qa, _) in zip(below, steps)
        )
        # the last `extra` steps cost exactly hi each; taking them from the
        # last coordinate back keeps the point lexicographically small
        for a, k, upto in reversed(list(zip(free, below, taken(hi)))):
            step = min(extra, upto - k)
            z[a] += k + step
            extra -= step
    return total, tuple(z)


def _propagate(groups, box):
    """Tighten box bounds, in place, to the projections of the per-group sum
    constraints.  Every value left in a coordinate's range extends to a
    feasible point of the box, so no half of a split box is empty."""
    for ix, h in groups:
        lo_sum = sum(box[i][0] for i in ix)
        hi_sum = sum(box[i][1] for i in ix)
        for i in ix:
            lo, hi = box[i]
            box[i] = (max(lo, h - (hi_sum - hi)), min(hi, h - (lo_sum - lo)))
    return box


def iqp_to_text(inst: IqpInstance) -> str:
    """Deterministic dump: group structure, Q rows, p, h targets, r."""
    lines = ["iqp"]
    lines.append(
        "groups " + " ".join(f"{m}:{s}:{h}" for m, s, h in inst.groups)
    )
    for row in inst.q:
        lines.append("q " + " ".join(str(x) for x in row))
    lines.append("p " + " ".join(str(x) for x in inst.p))
    lines.append(f"r {inst.r}")
    return "\n".join(lines) + "\n"
