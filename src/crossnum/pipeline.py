"""End-to-end solver: enumerate abstract clusterings, minimize each IQP,
select the global optimum, and lift the winner to a drawing of the input."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from math import comb

from .drawing import (
    CombinatorialDrawing,
    UnrealizableDrawing,
    canonical_cycle,
    structural_key,
    crossing_count,
    drawing_to_text,
    validate_good,
    zee,
)
from .embedding import Emb, vnode
from .enumeration import (
    AbstractClustering,
    RepresentativeSet,
    RepSpec,
    _cover_crossings,
    clustering_from_emb,
    count_rep_sets,
    enumerate_embeddings,
    enumerate_rep_sets,
    mask_members,
)
from .geometry import convex_position_drawing
from .graphs import CompressedGraph, Graph, expand
from .iqp import ClusteringMismatch, IqpInstance, build_iqp, solve_iqp
from .oracle import OracleConfig, oracle_cr


class ResourceCapExceeded(Exception):
    """An enumeration cap was hit; the result would not be exact."""


# Crossings plus vertices of the largest drawing assemble_lifted builds:
# each crossing costs about 2.5 KB and 44 us to lift, and each vertex one
# stacked copy or add_vertex call.  K_{3,998} (249 503) is within it.
DRAWING_CAP = 250_000

# Largest cover size a solve accepts.  A solve spends about 0.1 ms per
# cover vertex even when nothing else is there; beyond this it would run
# for seconds to minutes, and far beyond, run out of memory.
COVER_CAP = 10_000

# Most representative sets a solve lists.
REP_SET_CAP = 100_000


@dataclass(frozen=True)
class PipelineOptions:
    iqp_cap: int = 200_000
    clustering_cap: int = 2_000_000
    want_drawing: bool = False


@dataclass
class ComponentResult:
    cover: tuple  # global cover vertices of this component
    value: int
    winner: AbstractClustering
    weights: tuple
    instance: IqpInstance
    clusterings_seen: int
    rep_set_counts: tuple


@dataclass
class SolveReport:
    value: int
    components: list
    isolated: int
    lifted: CombinatorialDrawing | None = None

    def to_json(self) -> str:
        payload = {
            "crossing_number": str(self.value),
            "isolated_vertices": self.isolated,
            "components": [
                {
                    "cover": list(c.cover),
                    "value": str(c.value),
                    "weights": [str(w) for w in c.weights],
                    "clusterings_seen": c.clusterings_seen,
                    "rep_set_counts": list(c.rep_set_counts),
                    "winner": drawing_to_text(c.winner.drawing),
                    "winner_reps": [
                        [s.vertex, s.mask, list(s.tag)] for s in c.winner.reps
                    ],
                }
                for c in self.components
            ],
        }
        if self.lifted is not None:
            payload["lifted_drawing"] = drawing_to_text(self.lifted)
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# chord construction


def chord_clustering(cg: CompressedGraph) -> AbstractClustering:
    """Feasible starting clustering: everything in convex position.

    One representative per present neighborhood, carrying the canonical
    (sorted) rotation, drawn with all vertices on a convex curve and edges
    as straight chords.
    """
    masks = [m for m, _ in cg.h if m != 0]
    reps = tuple(
        RepSpec(cg.k + i, m, mask_members(m, cg.k)) for i, m in enumerate(masks)
    )
    host = RepresentativeSet(cg.k, reps).host_graph(cg.gx_edges)
    drawing = convex_position_drawing(host)
    for spec in reps:
        got = canonical_cycle(drawing.rot_map[spec.vertex])
        if got != canonical_cycle(spec.tag):
            raise ClusteringMismatch(f"convex rotation {got} != tag {spec.tag}")
    return AbstractClustering(
        cg.k, reps, drawing, _cover_crossings(drawing, cg.k)
    )


def initial_budget(cg: CompressedGraph) -> int:
    """Crossing count of the canonical chord clustering."""
    _check_cover(cg)
    return len(chord_clustering(cg).drawing.crossing_pairs)


# ---------------------------------------------------------------------------
# component decomposition


def component_split(cg: CompressedGraph):
    """Split the compressed graph into its connected components, in order
    of their least cover vertex.  Returns ([(cover ids, component), ...],
    isolated), where `isolated` counts the vertices without an edge: those
    of the empty neighborhood and the cover vertices with no G_X edge and
    no neighborhood.  Raises ResourceCapExceeded, before building anything,
    when the cover has more than COVER_CAP vertices."""
    _check_cover(cg)
    parent = list(range(cg.k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    touched = set()
    for u, v in cg.gx_edges:
        parent[find(u)] = find(v)
        touched.update((u, v))
    for mask, _ in cg.h:
        ms = mask_members(mask, cg.k)
        for x in ms[1:]:
            parent[find(x)] = find(ms[0])
        touched.update(ms)
    members: dict[int, list[int]] = {}
    for v in sorted(touched):
        members.setdefault(find(v), []).append(v)
    index = {v: i for ms in members.values() for i, v in enumerate(ms)}
    gx = {root: [] for root in members}
    h = {root: {} for root in members}
    for u, v in cg.gx_edges:
        gx[find(u)].append((index[u], index[v]))
    for mask, count in cg.h:
        ms = mask_members(mask, cg.k)
        if ms:
            h[find(ms[0])][sum(1 << index[x] for x in ms)] = count
    comps = [
        (tuple(ms), CompressedGraph.make(len(ms), gx[root], h[root]))
        for root, ms in members.items()
    ]
    return comps, cg.k - len(index) + cg.h_map.get(0, 0)


def _cl_min(rep_set: RepresentativeSet, cg: CompressedGraph) -> int:
    """Least possible forced intra-cluster crossings for this rep set."""
    h = cg.h_map
    by_mask: dict[int, int] = {}
    for spec in rep_set.reps:
        by_mask[spec.mask] = by_mask.get(spec.mask, 0) + 1
    total = 0
    for mask, g in by_mask.items():
        z_val = zee(bin(mask).count("1"))
        if z_val == 0:
            continue
        q, rem = divmod(h[mask], g)
        total += ((g - rem) * comb(q, 2) + rem * comb(q + 1, 2)) * z_val
    return total


def ordered_rep_sets(cg: CompressedGraph, cap: int) -> list:
    """All representative sets in solve order: fewest representatives
    first, then by their (mask, tag) list."""
    if count_rep_sets(cg, cap) > cap:
        raise ResourceCapExceeded("representative-set cap exceeded")
    return sorted(
        enumerate_rep_sets(cg),
        key=lambda rs: (len(rs.reps), [(s.mask, s.tag) for s in rs.reps]),
    )


def clustering_stream(cg: CompressedGraph, rep_sets, budget, cap: int):
    """Yield (i, clustering) for the clusterings of each `rep_sets[i]` in
    turn, in router DFS order, pairwise distinct.  `budget(i)` is re-read
    at every router step, so the caller may tighten it as the stream runs;
    a rep set whose budget is already negative is skipped.  Raises
    ResourceCapExceeded when a clustering beyond the first `cap` exists.
    """
    seen = 0
    for i, rs in enumerate(rep_sets):
        bound = partial(budget, i)
        if bound() < 0:
            continue
        host = rs.host_graph(cg.gx_edges)
        for emb in enumerate_embeddings(host, rs.tags_by_vertex(), bound):
            seen += 1
            if seen > cap:
                raise ResourceCapExceeded(
                    f"clustering cap hit: more than {cap} clusterings"
                )
            yield i, clustering_from_emb(rs, host, emb)


def _check_cover(cg: CompressedGraph):
    if cg.k > COVER_CAP:
        raise ResourceCapExceeded(
            f"cover cap exceeded: cover size {cg.k} is above {COVER_CAP}")


def enumerate_clusterings(cg: CompressedGraph, budget: int,
                          opts: PipelineOptions = PipelineOptions()):
    """The clustering stream of a connected graph, such as one of
    `component_split`'s components, at a fixed crossing budget, in solve
    order.  The router raises ValueError on a disconnected graph."""
    _check_cover(cg)
    rep_sets = ordered_rep_sets(cg, REP_SET_CAP)
    stream = clustering_stream(cg, rep_sets, lambda i: budget, opts.clustering_cap)
    return (c for _, c in stream)


def _solve_component(cover: tuple, cg: CompressedGraph,
                     opts: PipelineOptions) -> ComponentResult:
    """Solve one connected component, whose cover vertex i is cover[i]."""
    winner = chord_clustering(cg)
    instance = build_iqp(winner, cg)
    sol0 = solve_iqp(instance, opts.iqp_cap)
    value, weights, key = sol0.value, sol0.z, structural_key(winner.drawing)
    rep_sets = ordered_rep_sets(cg, REP_SET_CAP)
    counts = [0] * len(rep_sets)
    cl_mins = [_cl_min(rs, cg) for rs in rep_sets]
    # distinct clusterings often give equal instances; solve each once
    solved = {instance: sol0}

    def budget(i):
        return value - 1 - cl_mins[i]

    for i, c in clustering_stream(cg, rep_sets, budget, opts.clustering_cap):
        counts[i] += 1
        inst = build_iqp(c, cg)
        sol = solved.get(inst)
        if sol is None:
            sol = solved[inst] = solve_iqp(inst, opts.iqp_cap)
        if sol.value > value:
            continue
        c_key = structural_key(c.drawing)
        if sol.value < value or repr(c_key) < repr(key):
            value, weights, key = sol.value, sol.z, c_key
            winner, instance = c, inst
    return ComponentResult(cover, value, winner, weights, instance,
                           sum(counts), tuple(counts))


def crossing_number(cg: CompressedGraph, opts: PipelineOptions | None = None) -> SolveReport:
    """Exact crossing number of the compressed input graph: the sum over
    its components.  Raises ResourceCapExceeded, before building anything,
    when the cover has more than COVER_CAP vertices."""
    opts = opts or PipelineOptions()
    comps, isolated = component_split(cg)
    results = [_solve_component(cover, sub, opts) for cover, sub in comps]
    report = SolveReport(sum(r.value for r in results), results, isolated)
    if opts.want_drawing:
        report.lifted = assemble_lifted(cg, report)
    return report


# ---------------------------------------------------------------------------
# lifting: stacking weighted copies of each representative


def _away_dart(emb: Emb, edge, v):
    chain = emb.chains[edge]
    return (chain[-1], 1) if edge[1] == v else (chain[0], 0)


def duplicate_star(emb: Emb, v: int, v_new: int):
    """Add a parallel copy of v's star at a fresh vertex.

    The copy realizes the two-sided stacking pattern: the new star crosses
    v's star exactly Z(deg v) times (left half of the rotation bundled
    against the right half) and repeats every crossing currently carried by
    v's edges, so each existing star copy is crossed just as v was.  The
    sphere property is not checked here; `_lift_emb` checks it once after
    the last copy.
    """
    ring = emb.rot[vnode(v)]
    m = len(ring)
    edges = [emb.edge_of(d) for d in ring]
    if m:
        start = min(range(m), key=lambda i: edges[i])
        edges = edges[start:] + edges[:start]
    a = m // 2
    snapshot = {
        e: [emb.segs[sid][0] for sid in emb.chains[e][1:]] for e in edges
    }
    emb.add_vertex(v_new)
    hub_cnt = {e: 0 for e in edges}
    for q0, e_q in enumerate(edges):
        q = q0 + 1
        left = q <= a
        y_q = e_q[0] if e_q[1] == v else e_q[1]
        steps_out = []
        if left:
            # cross each earlier-left edge's innermost segment from above:
            # the crossed dart points away from v (its face is the corner
            # sector the copy's edge occupies)
            steps_out.extend(_away_dart(emb, e_p, v) for e_p in edges[:q - 1])
        else:
            # cross the farther-right edges just beyond their earlier hub
            # dummies, via the dart pointing back toward v
            for p0 in range(m - 1, q - 1, -1):
                e_p = edges[p0]
                chain = emb.chains[e_p]
                if e_p[1] == v:
                    sid = chain[len(chain) - 1 - hub_cnt[e_p]]
                    steps_out.append((sid, 0))
                else:
                    sid = chain[hub_cnt[e_p]]
                    steps_out.append((sid, 1))
                hub_cnt[e_p] += 1
        # corridor along e_q, outward from v over the pre-duplication dummies
        # (e_q's own chain never changes during its corridor, so index once)
        interior = snapshot[e_q]
        outward = reversed(interior) if e_q[1] == v else iter(interior)
        chain = emb.chains[e_q]
        at = {emb.segs[sid][0]: j for j, sid in enumerate(chain)}
        for node in outward:
            i = at[node]
            if e_q[1] == v:
                beta = (chain[i - 1], 1)
            else:
                beta = (chain[i], 0)
            ringx = emb.rot[node]
            j = ringx.index(beta)
            # left copies run on the walk's right (clockwise of beta), right
            # copies on its left; cross the partner's half on that side
            if left:
                target = ringx[(j - 1) % 4]
            else:
                target = Emb.rev(ringx[(j + 1) % 4])
            if emb.edge_of(target) == e_q:
                raise ValueError(f"stacked copy of {e_q} would cross it")
            steps_out.append(target)
        ring_y = emb.rot[vnode(y_q)]
        t_dart = _away_dart(emb, e_q, y_q)
        idx = ring_y.index(t_dart)
        start_pos = idx + 1 if left else idx
        new_edge = (y_q, v_new) if y_q < v_new else (v_new, y_q)
        if new_edge[0] == y_q:
            steps = [Emb.rev(d) for d in reversed(steps_out)]
            emb.insert_edge(
                new_edge, start_pos, steps, len(emb.rot[vnode(v_new)])
            )
        else:
            emb.insert_edge(
                new_edge, len(emb.rot[vnode(v_new)]), list(steps_out), start_pos
            )


def _lift_emb(c: AbstractClustering, z, cover_ids, first_id) -> tuple:
    """The embedding of c with each representative replaced by z stacked
    copies, under final vertex ids: cover vertex i becomes cover_ids[i] and
    the copies take ids first_id, first_id + 1, ... in representative
    order.  Returns (embedding, next free id)."""
    mapping = dict(enumerate(cover_ids))
    stacks = []
    nxt = first_id
    for spec, w in zip(c.reps, z):
        if w:
            mapping[spec.vertex] = nxt
            stacks.append((nxt, w))
            nxt += w
    emb = c.drawing.relabel(mapping).emb()
    for v, w in stacks:
        for copy in range(v + 1, v + w):
            duplicate_star(emb, v, copy)
    if not emb.euler_ok():
        raise UnrealizableDrawing("stacked copies broke the sphere embedding")
    return emb, nxt


def lift(c: AbstractClustering, z) -> CombinatorialDrawing:
    """Replace each representative by z parallel stacked copies.

    Copies are labeled k, k+1, ... in representative order; the total
    crossing count equals the instance's true value at z.
    """
    emb, n = _lift_emb(c, z, range(c.k), c.k)
    return emb.to_drawing(Graph(tuple(range(n)), tuple(sorted(emb.chains))))


def assemble_lifted(cg: CompressedGraph, report: SolveReport) -> CombinatorialDrawing:
    """Lift every component winner and lay the pieces side by side, with
    the vertices without an edge added on their own: the cover keeps ids
    0..k-1, each component's copies follow in component order, and the
    empty neighborhood's vertices come last.  Raises ResourceCapExceeded,
    before building anything, when the drawing would have more than
    DRAWING_CAP crossings and vertices together."""
    n = cg.total_vertices()
    if report.value + n > DRAWING_CAP:
        raise ResourceCapExceeded(
            f"drawing cap exceeded: the lifted drawing would have "
            f"{report.value} crossings and {n} vertices "
            f"(cap {DRAWING_CAP} in all)"
        )
    merged = Emb()
    for v in range(cg.k):
        merged.add_vertex(v)
    nxt = cg.k
    for res in report.components:
        emb, nxt = _lift_emb(res.winner, res.weights, res.cover, nxt)
        merged.merge(emb)
    for u in range(nxt, nxt + cg.h_map.get(0, 0)):
        merged.add_vertex(u)
    vertices = tuple(sorted(n[1] for n in merged.rot if n[0] == "v"))
    return merged.to_drawing(Graph(vertices, tuple(sorted(merged.chains))))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    detail: str = ""


def verify(report: SolveReport, cg: CompressedGraph,
           oracle_gate: OracleConfig | None = None) -> VerifyResult:
    """Re-validate the lifted winner and recount; compare to the brute
    oracle when the expanded graph is small enough."""
    lifted = report.lifted or assemble_lifted(cg, report)
    rep = validate_good(lifted)
    if not rep.ok:
        return VerifyResult(False, f"lifted drawing invalid: {rep.violation}")
    recount = crossing_count(lifted)
    if recount != report.value:
        return VerifyResult(
            False,
            f"lift count != reported value ({recount} != {report.value})",
        )
    gate = oracle_gate or OracleConfig()
    g = None
    if cg.total_vertices() <= gate.max_vertices:
        g = expand(cg)
        if len(g.edges) > gate.max_edges:
            g = None
    if g is not None:
        ocr = oracle_cr(g, gate)
        if ocr != report.value:
            return VerifyResult(
                False, f"oracle disagrees ({ocr} != {report.value})"
            )
        return VerifyResult(True, f"pipeline={report.value} oracle={ocr}")
    return VerifyResult(True, f"pipeline={report.value} oracle=skipped")
