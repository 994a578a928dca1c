"""End-to-end solver: enumerate abstract clusterings, minimize each IQP,
select the global optimum, and lift the winner to a drawing of the input."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import partial

from .drawing import (
    CombinatorialDrawing,
    UnrealizableDrawing,
    canonical_cycle,
    structural_key,
    crossing_count,
    drawing_to_text,
    validate_good,
)
from .embedding import Emb
from .enumeration import (
    AbstractClustering,
    RepresentativeSet,
    RepSpec,
    clustering_from_emb,
    count_rep_sets,
    enumerate_embeddings,
    enumerate_rep_sets,
    mask_members,
)
from .geometry import convex_position_drawing
from .graphs import CompressedGraph, Graph, connected_components
from .iqp import MAX_NODES, IqpInstance, build_iqp, solve_iqp
from .oracle import (
    MAX_CROSSINGS,
    OracleCeilingExceeded,
    expand_for_oracle,
    oracle_cr,
)


class ResourceCapExceeded(Exception):
    """An enumeration cap was hit; the result would not be exact."""


class ClusteringMismatch(Exception):
    """A clustering's drawing disagrees with its representatives' tags."""


# Crossings plus vertices of the largest drawing assemble_lifted builds:
# each crossing costs about 1.4 KB and 35 us to lift, and each vertex one
# stacked copy or add_vertex call.  K_{3,998} (249 503) is within it.
DRAWING_CAP = 250_000

# Largest cover size a solve accepts.  A solve spends about 0.1 ms per
# cover vertex even when nothing else is there; beyond this it would run
# for seconds to minutes, and far beyond, run out of memory.
COVER_CAP = 10_000

# Most representative sets a solve lists.
REP_SET_CAP = 100_000

# Largest cover whose symmetries a solve searches for, by trying all k!
# permutations; a larger cover is solved with mirroring alone.
GROUP_COVER_CAP = 6


@dataclass(frozen=True)
class PipelineOptions:
    iqp_cap: int = MAX_NODES
    clustering_cap: int = 2_000_000
    want_drawing: bool = False


@dataclass
class ComponentResult:
    cover: tuple  # global cover vertices of this component
    value: int
    winner: AbstractClustering
    weights: tuple
    instance: IqpInstance
    rep_set_counts: tuple  # clusterings read per orbit representative
    # rep sets whose tags force more crossings than their budget, skipped
    # unrouted; printed by `-v`, kept out of the report
    tag_skipped: int = 0

    @property
    def clusterings_seen(self) -> int:
        return sum(self.rep_set_counts)


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
    return AbstractClustering(cg.k, reps, drawing)


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
    # a neighborhood joins its members as a G_X edge joins its ends
    links = list(cg.gx_edges)
    touched = {x for e in links for x in e}
    for mask, _ in cg.h:
        ms = mask_members(mask, cg.k)
        links += [(ms[0], x) for x in ms[1:]]
        touched.update(ms)
    members = [sorted(c) for c in connected_components(sorted(touched), links)]
    # cover vertex v is vertex j of component i
    where = {v: (i, j) for i, ms in enumerate(members) for j, v in enumerate(ms)}
    gx = [[] for _ in members]
    h = [{} for _ in members]
    for u, v in cg.gx_edges:
        gx[where[u][0]].append((where[u][1], where[v][1]))
    for mask, count in cg.h:
        ms = mask_members(mask, cg.k)
        if ms:
            h[where[ms[0]][0]][sum(1 << where[x][1] for x in ms)] = count
    comps = [
        (tuple(ms), CompressedGraph.make(len(ms), gx[i], h[i]))
        for i, ms in enumerate(members)
    ]
    return comps, cg.k - len(where) + cg.h_map.get(0, 0)


def _cover_group(cg: CompressedGraph) -> list:
    """The permutations p of the cover (i goes to p[i]) that map the G_X
    edges onto themselves and each h mask onto a mask with the same count;
    the identity alone when the cover has more than GROUP_COVER_CAP
    vertices."""
    identity = tuple(range(cg.k))
    if cg.k > GROUP_COVER_CAP:
        return [identity]
    edges = set(cg.gx_edges)
    h = cg.h_map
    return [
        p for p in itertools.permutations(identity)
        if all(tuple(sorted((p[u], p[v]))) in edges for u, v in edges)
        and all(h.get(_mask_image(m, p)) == c for m, c in cg.h)
    ]


def _mask_image(mask: int, p: tuple) -> int:
    return sum(1 << p[i] for i in mask_members(mask, len(p)))


def ordered_rep_sets(cg: CompressedGraph) -> list:
    """The representative sets a solve reads, in solve order (fewest
    representatives first, then by their (mask, tag) list): the first set
    of each orbit under the cover group combined with mirroring.  Raises
    ResourceCapExceeded when there are more than REP_SET_CAP labelled sets.

    Relabelling the cover by a group element, or mirroring a drawing
    (reversing every rotation), maps the clusterings of one rep set onto
    those of another in its orbit, with the same crossings and IQP values,
    so a solve needs one rep set per orbit (isomorph rejection, McKay 1998).
    A rep set is keyed by its sorted (mask, tag) pairs; the image of a pair
    maps the mask and the tag through p, reverses the tag when mirroring,
    and rotates it to its canonical start.
    """
    if count_rep_sets(cg, REP_SET_CAP) > REP_SET_CAP:
        raise ResourceCapExceeded("representative-set cap exceeded")
    maps = [
        ({m: _mask_image(m, p) for m, _ in cg.h}, p, mirror)
        for p in _cover_group(cg) for mirror in (False, True)
    ]
    by_key = {tuple((s.mask, s.tag) for s in rs.reps): rs
              for rs in enumerate_rep_sets(cg)}
    seen = set()
    out = []
    for key in sorted(by_key, key=lambda key: (len(key), key)):
        if key in seen:
            continue
        out.append(by_key[key])
        for masks, p, mirror in maps:
            seen.add(tuple(sorted(
                (masks[m], canonical_cycle(tuple(
                    p[x] for x in (tag[::-1] if mirror else tag))))
                for m, tag in key
            )))
    return out


def _router_weights(rs: RepresentativeSet, cg: CompressedGraph) -> dict:
    """The router's vertex weights for `rs`: h(Y) for a representative
    alone in its neighborhood's group; every other vertex weighs 1."""
    h = cg.h_map
    return {rs.reps[ix[0]].vertex: h[m] for m, ix in rs.groups if len(ix) == 1}


def clustering_stream(cg: CompressedGraph, rep_sets, budget, cap: int,
                      tag_skipped: list | None = None):
    """Yield (i, clustering) for the clusterings of each `rep_sets[i]` in
    turn, in router DFS order, pairwise distinct.  `budget(i)` is re-read
    at every router step, so the caller may tighten it as the stream runs.

    The budget counts weighted crossings (`_router_weights`): a crossing of
    two edges costs the product of their ends' weights, so one on the star
    of a representative alone in its group costs h(Y) or h(Y)·h(Y').  This
    is exact for the solve's budget `value − 1 − floor`, where a rep set's
    floor is the value of its IQP with no crossings drawn (`build_iqp` of
    the bare set: Q = diag Z(|Y|), p = 0, r = 0), the least
    Σ Z(|Y_a|)·C(z_a, 2) over the feasible points.  A clustering's IQP
    value is r + Σ p_a z_a + Σ_{a<b} Q_ab z_a z_b + Σ Z(|Y_a|)·C(z_a, 2).
    A lone representative has z_a = h(Y) at every feasible point.  Every
    other representative may be taken as z_a ≥ 1: a clustering that gives
    one weight 0 is a clustering of the smaller rep set, whose orbit is
    also solved.  Each drawn crossing then adds at least its cost to the
    first three terms, the last is at least the floor, and so
    value ≥ floor + (weighted crossings): every drawing over budget has a
    value of at least the incumbent.

    A rep set is skipped unrouted when its budget is already negative, or
    when its tags force more crossings than its budget
    (`RepresentativeSet.forced_crossings`): every drawing of its host has
    at least that many crossings, each costing at least 1, so its router
    would emit nothing; the index of each set skipped for its tags is
    appended to `tag_skipped` when one is given.  Raises
    ResourceCapExceeded when a clustering beyond the first `cap` exists,
    and when the router's nested generators outgrow the recursion limit.
    """
    seen = 0
    for i, rs in enumerate(rep_sets):
        bound = partial(budget, i)
        if bound() < 0:
            continue
        if rs.forced_crossings() > bound():
            if tag_skipped is not None:
                tag_skipped.append(i)
            continue
        host = rs.host_graph(cg.gx_edges)
        try:
            for emb in enumerate_embeddings(host, rs.tags_by_vertex(), bound,
                                            _router_weights(rs, cg)):
                seen += 1
                if seen > cap:
                    raise ResourceCapExceeded(
                        f"clustering cap hit: more than {cap} clusterings"
                    )
                yield i, clustering_from_emb(rs, host, emb)
        except RecursionError:
            raise ResourceCapExceeded(
                f"router depth cap hit: the recursion limit is too low to "
                f"route a host graph of {len(host.edges)} edges") from None


def _check_cover(cg: CompressedGraph):
    if cg.k > COVER_CAP:
        raise ResourceCapExceeded(
            f"cover cap exceeded: cover size {cg.k} is above {COVER_CAP}")


def enumerate_clusterings(cg: CompressedGraph, budget: int,
                          opts: PipelineOptions = PipelineOptions()):
    """The clustering stream of the rep sets a solve reads, at a fixed
    budget on weighted crossings (see `clustering_stream`), for a connected
    graph such as one of `component_split`'s components.  The router raises
    ValueError on a disconnected graph."""
    _check_cover(cg)
    rep_sets = ordered_rep_sets(cg)
    stream = clustering_stream(cg, rep_sets, lambda i: budget, opts.clustering_cap)
    return (c for _, c in stream)


def _solve_component(cover: tuple, cg: CompressedGraph,
                     opts: PipelineOptions) -> ComponentResult:
    """Solve one connected component, whose cover vertex i is cover[i]."""
    # distinct clusterings, and most rep sets' floors, give equal
    # instances; solve each once
    solved = {}

    def solve(rs):
        inst = build_iqp(rs, cg)
        if inst not in solved:
            solved[inst] = solve_iqp(inst, opts.iqp_cap)
        return inst, solved[inst]

    winner = chord_clustering(cg)
    instance, sol = solve(winner)
    value, weights, key = sol.value, sol.z, structural_key(winner.drawing)
    rep_sets = ordered_rep_sets(cg)
    counts = [0] * len(rep_sets)
    floors = [solve(rs)[1].value for rs in rep_sets]
    tag_skipped = []

    def budget(i):
        return value - 1 - floors[i]

    for i, c in clustering_stream(cg, rep_sets, budget, opts.clustering_cap,
                                  tag_skipped):
        counts[i] += 1
        inst, sol = solve(c)
        if sol.value > value:
            continue
        c_key = structural_key(c.drawing)
        if sol.value < value or repr(c_key) < repr(key):
            value, weights, key = sol.value, sol.z, c_key
            winner, instance = c, inst
    return ComponentResult(cover, value, winner, weights, instance,
                           tuple(counts), len(tag_skipped))


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


def duplicate_star(emb: Emb, v: int, v_new: int):
    """Add a parallel copy of v's star at a fresh vertex v_new.

    The copy realizes the two-sided stacking pattern: the new star crosses
    v's star exactly Z(deg v) times (left half of the rotation bundled
    against the right half) and repeats every crossing currently carried by
    v's edges, so each existing star copy is crossed just as v was.  Each
    edge of the copy is drawn from its other end, which a lift makes the
    smaller one: raises ValueError, before changing anything, unless v is
    the larger end of each of its edges and v_new > v is not yet drawn.
    The sphere property is not checked here; a lift checks it once after
    the last copy.
    """
    ring = emb.rot[v]
    edges = [emb.edge_of(d) for d in ring]
    if v_new <= v or v_new in emb.rot or any(e[1] != v for e in edges):
        raise ValueError(
            f"cannot copy the star of {v} to {v_new}: the copy must be a "
            f"larger id not yet drawn, and {v} the larger end of each of its "
            f"edges")
    m = len(ring)
    if m:
        start = edges.index(min(edges))
        edges = edges[start:] + edges[:start]
    a = m // 2
    snapshot = {
        e: [emb.segs[sid][0] for sid in emb.chains[e][1:]] for e in edges
    }
    emb.add_vertex(v_new)
    hub_cnt = {e: 0 for e in edges}
    for q, e_q in enumerate(edges, 1):
        left = q <= a
        if left:
            # cross each earlier-left edge's innermost segment from above:
            # the crossed dart points away from v (its face is the corner
            # sector the copy's edge occupies)
            steps_out = [emb.end_dart(e_p, v) for e_p in edges[:q - 1]]
        else:
            # cross the farther-right edges just beyond their earlier hub
            # dummies, via the dart pointing back toward v
            steps_out = []
            for e_p in reversed(edges[q:]):
                hub_cnt[e_p] += 1
                steps_out.append(2 * emb.chains[e_p][-hub_cnt[e_p]])
        # corridor along e_q, outward from v over the pre-duplication dummies
        # (e_q's own chain never changes during its corridor, so index once)
        back = {emb.segs[sid][1]: 2 * sid + 1 for sid in emb.chains[e_q]}
        for node in reversed(snapshot[e_q]):
            ringx = emb.rot[node]
            j = ringx.index(back[node])
            # left copies run on the walk's right (clockwise of the dart
            # back toward e_q's other end), right copies on its left; cross
            # the partner's half on that side
            if left:
                target = ringx[(j - 1) % 4]
            else:
                target = ringx[(j + 1) % 4] ^ 1
            if emb.edge_of(target) == e_q:
                raise ValueError(f"stacked copy of {e_q} would cross it")
            steps_out.append(target)
        y_q = e_q[0]
        copy_edge, node = (y_q, v_new), y_q
        idx = emb.rot[node].index(emb.end_dart(e_q, y_q))
        pos = idx + 1 if left else idx
        for d in reversed(steps_out):
            node = emb.cross_dart(copy_edge, node, pos, d ^ 1)
        emb.finish_edge(copy_edge, node, pos, len(emb.rot[v_new]))


def assemble_lifted(cg: CompressedGraph, report: SolveReport) -> CombinatorialDrawing:
    """Lift every component winner into one embedding, with the vertices
    without an edge added on their own: the cover keeps ids 0..k-1, each
    component's copies follow in component order, and the empty
    neighborhood's vertices come last.  Raises ResourceCapExceeded, before
    building anything, when the drawing would have more than DRAWING_CAP
    crossings and vertices together."""
    n = cg.total_vertices()
    if report.value + n > DRAWING_CAP:
        raise ResourceCapExceeded(
            f"drawing cap exceeded: the lifted drawing would have "
            f"{report.value} crossings and {n} vertices "
            f"(cap {DRAWING_CAP} in all)"
        )
    emb = Emb()
    nxt = cg.k
    for res in report.components:
        # cover vertex i becomes res.cover[i]; the copies take fresh ids
        mapping = dict(enumerate(res.cover))
        stacks = []
        for spec, w in zip(res.winner.reps, res.weights):
            if w:
                mapping[spec.vertex] = nxt
                stacks.append((nxt, w))
                nxt += w
        emb.add_drawing(res.winner.drawing.relabel(mapping))
        for v, w in stacks:
            for copy in range(v + 1, v + w):
                duplicate_star(emb, v, copy)
    # each class's weights sum to its count, so the ids end at n - 1; the
    # empty neighborhood's vertices and edgeless cover vertices join here
    for u in range(n):
        emb.add_vertex(u)
    if not emb.euler_ok():
        raise UnrealizableDrawing("stacked copies broke the sphere embedding")
    return emb.to_drawing(Graph(tuple(range(n)), tuple(sorted(emb.chains))))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    detail: str = ""


def verify(report: SolveReport, cg: CompressedGraph,
           max_crossings: int = MAX_CROSSINGS) -> VerifyResult:
    """Re-validate the lifted winner and recount; compare to the brute
    oracle, searching up to `max_crossings` crossings, when the expanded
    graph is within the oracle's size limits."""
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
    try:
        g = expand_for_oracle(cg)
    except OracleCeilingExceeded:
        return VerifyResult(True, f"pipeline={report.value} oracle=skipped")
    ocr = oracle_cr(g, max_crossings)
    if ocr != report.value:
        return VerifyResult(
            False, f"oracle disagrees ({ocr} != {report.value})"
        )
    return VerifyResult(True, f"pipeline={report.value} oracle={ocr}")
