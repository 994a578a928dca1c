"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the full suite is sized for a single desktop core.
"""

import time
from fractions import Fraction
from math import comb

import networkx as nx

from crossnum.drawing import canonical_cycle, crossing_count, validate_good, zee
from crossnum.geometry import drawing_from_points
from crossnum.graphs import (
    CompressedGraph,
    Graph,
    compress,
    complete_bipartite,
    complete_graph,
    find_vertex_cover,
)
from crossnum.iqp import build_iqp, objective
from crossnum.oracle import _planarization_nx, oracle_cr
from crossnum.pipeline import (
    PipelineOptions,
    assemble_lifted,
    crossing_number,
    duplicate_star,
    enumerate_clusterings,
)

from cluster_reference import cluster_crossings, clusters
from iqp_reference import feasible_points, true_value
from oracle_reference import oracle_drawings
from smallgraphs import small_cover_suite


def report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    n = 0
    for g, cover in small_cover_suite(7, 3):
        cg = compress(g, cover)
        got = crossing_number(cg).value
        want = oracle_cr(g)
        assert got == want, (g.edges, got, want)
        n += 1
    dt = time.time() - t0
    report(1, dt < 600, f"{n} graphs exact-match in {dt:.0f}s")


def test_criterion_2_named_graphs():
    named = [
        ("K4", complete_graph(4), 0),
        ("K5", complete_graph(5), 1),
        ("K33", complete_bipartite(3, 3), 1),
        ("K6", complete_graph(6), 3),
        ("K34", complete_bipartite(3, 4), 2),
        ("K35", complete_bipartite(3, 5), 4),
    ]
    results = []
    for name, g, want in named:
        cover = find_vertex_cover(g, len(g.vertices) - 1)
        via_pipeline = crossing_number(compress(g, cover)).value
        via_oracle = oracle_cr(g)
        assert via_pipeline == via_oracle == want, (name, via_pipeline, via_oracle)
        results.append(f"{name}={via_pipeline}")
    report(2, True, " ".join(results))


def _stacked_k2m(m):
    """K_{2,m} with centres m and m + 1, drawn by stacking a copy of the
    star of m: its leaves sit on a shallow parabola below the centre,
    exactly placed."""
    pos = {m: (0, 0)}
    for i in range(m):
        x = Fraction(2 * i - (m - 1))
        pos[i] = (x, Fraction(-2) - x * x / (4 * m))
    g = Graph(tuple(range(m + 1)), tuple((i, m) for i in range(m)))
    emb = drawing_from_points(g, pos).emb()
    duplicate_star(emb, m, m + 1)
    edges = tuple(sorted(emb.chains))
    assert edges == tuple(sorted((i, c) for i in range(m) for c in (m, m + 1)))
    return emb.to_drawing(Graph(tuple(range(m + 2)), edges))


def test_criterion_3_k2m_bound_and_stacking():
    # lower bound: no drawing of K_{2,m} whose centres share a rotation has
    # fewer than Z(m) crossings; for m <= 4 every such drawing is listed
    for m, want in ((3, 1), (4, 2)):
        ds = oracle_drawings(
            complete_bipartite(2, m), zee(m), equal_rotations=((0, 1),)
        )
        got = min(crossing_count(d) for d in ds)
        assert got == want == zee(m), (m, got)
    assert oracle_drawings(
        complete_bipartite(2, 5), zee(5) - 1, equal_rotations=((0, 1),)
    ) == []
    # upper bound: the stacking construction draws it with Z(m) crossings
    for m, want in ((3, 1), (4, 2), (5, 4), (7, 9)):
        d = _stacked_k2m(m)
        assert validate_good(d).ok, m
        assert crossing_count(d) == want == zee(m), m
        rot = d.rot_map
        assert canonical_cycle(rot[m]) == canonical_cycle(rot[m + 1]), m
        cids = sorted(d.crossing_pairs)
        index = {c: i for i, c in enumerate(cids)}
        pair_set = [d.crossing_pairs[c] for c in cids]
        orders = {e: tuple(index[c] for c in seq) for e, seq in d.sequences}
        ng = _planarization_nx(d.graph, pair_set, orders)
        assert nx.check_planarity(ng, counterexample=False)[0], m
    report(3, True, "Z(3)=1 Z(4)=2 Z(5)=4 and stacked Z(7)=9")


def test_criterion_4_cluster_lower_bound():
    checked = 0
    for g, cover in (
        (complete_bipartite(3, 3), frozenset({0, 1, 2})),
        (complete_bipartite(3, 4), frozenset({0, 1, 2})),
    ):
        for d in oracle_drawings(g, 4):
            for cl in clusters(d, cover).clusters:
                bound = comb(cl.size, 2) * zee(cl.degree)
                assert cluster_crossings(d, cl) >= bound
                checked += 1
    report(4, True, f"{checked} cluster instances, zero violations")


def test_criterion_5_iqp_identity():
    instances = 0
    for cg in (
        CompressedGraph.make(3, (), {7: 3}),
        CompressedGraph.make(3, (), {7: 4, 3: 2}),
        CompressedGraph.make(3, ((0, 1),), {7: 2, 5: 2, 3: 2}),
        CompressedGraph.make(3, ((0, 1), (1, 2)), {7: 3, 1: 3}),
        CompressedGraph.make(2, (), {3: 4, 2: 2}),
    ):
        total_h = sum(c for m, c in cg.h if m)
        assert total_h <= 6
        for c in enumerate_clusterings(cg, 2):
            inst = build_iqp(c, cg)
            const = sum(
                zee(bin(mask).count("1")) * h for mask, _, h in inst.groups
            )
            for z in feasible_points(inst):
                lhs = objective(inst, z) - 2 * (true_value(inst, z) - inst.r)
                assert lhs == const
            instances += 1
    report(5, True, f"identity exact on {instances} instances")


def test_criterion_6_lift_soundness():
    checked = 0
    for cg in (
        CompressedGraph.make(3, (), {7: 3}),
        CompressedGraph.make(3, (), {7: 5}),
        CompressedGraph.make(3, ((0, 1), (0, 2), (1, 2)), {7: 4}),
        CompressedGraph.make(3, ((0, 1),), {7: 2, 5: 1, 3: 2}),
        CompressedGraph.make(2, (), {3: 7}),
    ):
        rep = crossing_number(cg)
        d = assemble_lifted(cg, rep)
        assert validate_good(d).ok
        assert crossing_count(d) == rep.value
        checked += 1
    # plus every winner across the exhaustive small-cover suite
    for g, cover in small_cover_suite(7, 3):
        cg = compress(g, cover)
        rep = crossing_number(cg)
        d = assemble_lifted(cg, rep)
        assert validate_good(d).ok
        assert crossing_count(d) == rep.value
        checked += 1
    report(6, True, f"{checked} lifted winners recounted exactly")


def test_criterion_7_scale():
    n = 10**6
    cg = CompressedGraph.make(3, (), {7: n})
    t0 = time.time()
    value = crossing_number(cg).value
    dt = time.time() - t0
    assert value == 249999500000 == (n // 2) * ((n - 1) // 2)
    report(7, dt < 5, f"K_{{3,10^6}} -> {value} in {dt:.2f}s")
    # clustering counts depend on the h support, not its magnitude
    counts = []
    for h in (3, 1000, n):
        cgh = CompressedGraph.make(3, (), {7: h})
        counts.append(sum(1 for _ in enumerate_clusterings(cgh, 2)))
    assert counts[0] == counts[1] == counts[2]


def test_criterion_8_determinism():
    blobs = []
    for _ in range(2):
        out = []
        for cg in (
            CompressedGraph.make(3, (), {7: 3}),
            CompressedGraph.make(3, ((0, 1), (0, 2), (1, 2)), {7: 3, 5: 2}),
            CompressedGraph.make(4, ((0, 1), (1, 2), (2, 3), (0, 3)), {15: 1}),
        ):
            rep = crossing_number(cg, PipelineOptions(want_drawing=True))
            out.append(rep.to_json())
        blobs.append("\n".join(out).encode())
    report(8, blobs[0] == blobs[1], f"{len(blobs[0])} report bytes identical")
