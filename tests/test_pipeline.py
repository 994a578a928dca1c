import random
from pathlib import Path

import pytest

from crossnum.drawing import (
    clusters,
    crossing_count,
    drawing_to_text,
    validate_good,
    zee,
)
from crossnum.graphs import (
    CompressedGraph,
    Graph,
    VertexCover,
    complete_bipartite,
    complete_graph,
    compress,
    expand,
    find_vertex_cover,
    isomorphic,
    parse_compressed,
)
from crossnum.iqp import build_iqp, true_value
from crossnum.oracle import OracleConfig
from crossnum.pipeline import (
    PipelineOptions,
    ResourceCapExceeded,
    assemble_lifted,
    chord_clustering,
    component_split,
    crossing_number,
    enumerate_clusterings,
    initial_budget,
    lift,
    verify,
)

from iqp_reference import feasible_points


def test_initial_budget_examples():
    # K_{2,n}: the canonical construction draws a path, crossing-free
    assert initial_budget(CompressedGraph.make(2, (), {3: 9})) == 0
    assert initial_budget(CompressedGraph.make(3, (), {7: 5})) == 0
    assert initial_budget(CompressedGraph.make(0, (), {})) == 0
    assert initial_budget(CompressedGraph.make(0, (), {0: 3})) == 0
    # convex K4 forces one chord crossing
    cg = CompressedGraph.make(3, ((0, 1), (0, 2), (1, 2)), {7: 1})
    assert initial_budget(cg) == 1


def test_degenerate_inputs():
    empty = CompressedGraph.make(0, (), {})
    assert crossing_number(empty).value == 0
    single = CompressedGraph.make(0, (), {0: 1})
    rep = crossing_number(single)
    assert rep.value == 0 and rep.isolated == 1
    lifted = assemble_lifted(single, rep)
    assert len(lifted.graph.vertices) == 1
    cover_only = CompressedGraph.make(2, ((0, 1),), {})
    assert crossing_number(cover_only).value == 0


def test_resource_cap_signals():
    cg = CompressedGraph.make(3, (), {7: 3})
    with pytest.raises(ResourceCapExceeded):
        crossing_number(cg, PipelineOptions(clustering_cap=0))


def test_each_iqp_instance_is_solved_once(monkeypatch):
    import crossnum.pipeline as pipeline

    solved = []
    real = pipeline.solve_iqp

    def recording(inst, cap):
        solved.append(inst)
        return real(inst, cap)

    monkeypatch.setattr(pipeline, "solve_iqp", recording)
    cg = CompressedGraph.make(3, ((0, 1),), {7: 4, 3: 4, 5: 4})
    rep = crossing_number(cg)
    assert rep.value == 2
    # the chord clustering's solve plus one per clustering, were none equal
    assert len(solved) < 1 + rep.components[0].clusterings_seen
    assert len(solved) == len(set(solved))


def test_chord_clustering_is_valid():
    cg = CompressedGraph.make(3, ((0, 1), (0, 2), (1, 2)), {7: 4, 5: 2, 3: 1})
    c = chord_clustering(cg)
    assert validate_good(c.drawing).ok
    assert len(c.reps) == 3


def test_internal_checks_raise_typed_errors(monkeypatch):
    # these checks were asserts, which vanish under `python -O`
    from dataclasses import replace

    from crossnum import pipeline
    from crossnum.drawing import UnrealizableDrawing
    from crossnum.embedding import Emb
    from crossnum.iqp import ClusteringMismatch

    cg = CompressedGraph.make(3, (), {7: 3})
    convex = pipeline.convex_position_drawing

    def mirrored(host):
        d = convex(host)
        rots = tuple((v, tuple(reversed(r))) for v, r in d.rotations)
        return replace(d, rotations=rots)

    monkeypatch.setattr(pipeline, "convex_position_drawing", mirrored)
    with pytest.raises(ClusteringMismatch):
        chord_clustering(cg)
    monkeypatch.undo()

    c = chord_clustering(cg)
    with pytest.raises(ValueError, match="turns edge"):
        c.drawing.relabel({0: 3, 1: 1, 2: 2, 3: 0})
    # orientation bits are relative to the order of a crossing's edge
    # pair; swapping two cover vertices keeps every edge's direction but
    # swaps the pair of the one crossing of this K_{3,3} drawing
    d = crossing_number(cg, PipelineOptions(want_drawing=True)).lifted
    (((a, _), (b, _)),) = d.crossing_pairs.values()
    mapping = {v: v for v in d.graph.vertices}
    assert d.relabel(mapping) == d
    mapping[a], mapping[b] = b, a
    with pytest.raises(ValueError, match="reorders the edge pair"):
        d.relabel(mapping)
    monkeypatch.setattr(Emb, "euler_ok", lambda self: False)
    with pytest.raises(UnrealizableDrawing):
        lift(c, (2,))


def test_crossing_number_named():
    assert crossing_number(CompressedGraph.make(2, (), {3: 7})).value == 0
    assert crossing_number(CompressedGraph.make(3, (), {7: 3})).value == 1
    assert crossing_number(CompressedGraph.make(3, (), {7: 5})).value == 4


def test_crossing_number_planar_with_gx_edges():
    # wheel-like: 4-cycle cover plus one vertex adjacent to everything
    cg = CompressedGraph.make(4, ((0, 1), (1, 2), (2, 3), (0, 3)), {15: 1})
    assert crossing_number(cg).value == 0


def test_disconnected_sum_and_isolated():
    # two K_{3,3} components and three isolated vertices
    cg = CompressedGraph.make(
        6, (), {7: 3, 56: 3, 0: 3}
    )
    rep = crossing_number(cg)
    assert rep.value == 2
    assert rep.isolated == 3
    assert len(rep.components) == 2

    lifted = assemble_lifted(cg, rep)
    assert validate_good(lifted).ok
    assert crossing_count(lifted) == 2
    assert isomorphic(lifted.graph, expand(cg))


GOLDEN = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, text", [
    ("crit8_a", "3\nh 7 3\n"),
    ("crit8_b", "3\ngx 0 1\ngx 0 2\ngx 1 2\nh 7 3\nh 5 2\n"),
    ("crit8_c", "4\ngx 0 1\ngx 1 2\ngx 2 3\ngx 0 3\nh 15 1\n"),
    ("two_stars", "6\nh 7 3\nh 56 3\nh 0 3\n"),
    ("k35", "3\nh 7 5\n"),
])
def test_lifted_drawing_matches_golden(name, text):
    # the bytes of the lifted drawing are part of the output contract
    cg = parse_compressed(text)
    got = drawing_to_text(assemble_lifted(cg, crossing_number(cg)))
    assert got == (GOLDEN / f"lifted_{name}.txt").read_text()


def test_lift_k33_winner():
    cg = CompressedGraph.make(3, (), {7: 3})
    rep = crossing_number(cg)
    comp = rep.components[0]
    d = lift(comp.winner, comp.weights)
    assert validate_good(d).ok
    assert crossing_count(d) == rep.value == 1
    assert isomorphic(d.graph, expand(cg))


def test_lift_weights_at_most_one_is_subdrawing():
    cg = CompressedGraph.make(3, ((0, 1),), {7: 1, 3: 1})
    rep = crossing_number(cg)
    comp = rep.components[0]
    d = lift(comp.winner, comp.weights)
    assert validate_good(d).ok
    assert crossing_count(d) == rep.value


def test_lift_matches_true_value_on_random_feasible_points():
    rng = random.Random(7)
    arena = []
    for cg in (
        CompressedGraph.make(3, (), {7: 4}),
        CompressedGraph.make(3, (), {7: 6}),
        CompressedGraph.make(3, ((0, 1),), {7: 3, 3: 2}),
        CompressedGraph.make(2, (), {3: 5, 1: 2}),
    ):
        for c in enumerate_clusterings(cg, 1):
            inst = build_iqp(c, cg)
            arena.append((c, inst, list(feasible_points(inst))))
    seen = set()
    for _ in range(100):
        idx = rng.randrange(len(arena))
        c, inst, points = arena[idx]
        z = points[rng.randrange(len(points))]
        if (idx, z) in seen:
            continue
        seen.add((idx, z))
        d = lift(c, z)
        assert validate_good(d).ok
        assert crossing_count(d) == true_value(inst, z)
    assert len(seen) >= 40


def test_lift_stacking_rotations_cluster_together():
    cg = CompressedGraph.make(3, (), {7: 5})
    rep = crossing_number(cg)
    comp = rep.components[0]
    d = lift(comp.winner, comp.weights)
    part = clusters(d, frozenset(range(3)))
    got = sorted(cl.size for cl in part.clusters)
    assert got == sorted(comp.weights)


def test_verify_ok_and_gate():
    cg = CompressedGraph.make(3, (), {7: 3})
    rep = crossing_number(cg)
    res = verify(rep, cg)
    assert res.ok and "oracle=1" in res.detail

    # past the size gate: the oracle is skipped, the lift is recounted
    big = CompressedGraph.make(3, (), {7: 60})
    rep_big = crossing_number(big)
    res_big = verify(rep_big, big, OracleConfig(max_vertices=9, max_edges=18))
    assert res_big.ok and "oracle=skipped" in res_big.detail
    assert rep_big.value == 30 * 29


def test_verify_detects_tampering():
    cg = CompressedGraph.make(3, (), {7: 3})
    rep = crossing_number(cg)
    rep.value -= 1
    res = verify(rep, cg)
    assert not res.ok and "lift count" in res.detail


def test_k3n_closed_form_small_and_huge():
    for n in range(3, 9):
        got = crossing_number(CompressedGraph.make(3, (), {7: n})).value
        assert got == (n // 2) * ((n - 1) // 2)
    n = 10**6
    got = crossing_number(CompressedGraph.make(3, (), {7: n})).value
    assert got == 249999500000


# branch-and-bound nodes allowed per IQP solve, per bit of n
NODES_PER_BIT = 3


@pytest.mark.parametrize("exponent", [3, 6, 9, 12, 18])
@pytest.mark.parametrize("gx", [(), ((0, 1), (1, 2))], ids=["K3n", "K12n"])
def test_closed_form_at_scale(gx, exponent):
    """cr(K_{3,n}) = cr(K_{1,2,n}) = Z(3,n) (Kleitman 1970), with an IQP
    node cap of NODES_PER_BIT * ceil(log2 n): a solver whose node count
    grows linearly in n ends in IqpCapExceeded here."""
    n = 10**exponent
    opts = PipelineOptions(iqp_cap=NODES_PER_BIT * (n - 1).bit_length())
    got = crossing_number(CompressedGraph.make(3, gx, {7: n}), opts).value
    assert got == (n // 2) * ((n - 1) // 2)


def test_drawing_cap(monkeypatch):
    import crossnum.pipeline as pipeline

    # K_{3,3}: 1 crossing and 6 vertices
    cg = CompressedGraph.make(3, (), {7: 3})
    monkeypatch.setattr(pipeline, "DRAWING_CAP", 7)
    report = crossing_number(cg, PipelineOptions(want_drawing=True))
    assert crossing_count(report.lifted) == 1
    monkeypatch.setattr(pipeline, "DRAWING_CAP", 6)
    with pytest.raises(ResourceCapExceeded, match="drawing cap"):
        crossing_number(cg, PipelineOptions(want_drawing=True))
    monkeypatch.undo()
    # the default lifts K_{3,250}, the largest drawing the tests lift
    assert pipeline.DRAWING_CAP >= 125 * 124 + 253


def test_cover_cap(monkeypatch):
    import crossnum.pipeline as pipeline

    cg = CompressedGraph.make(3, (), {7: 3})
    monkeypatch.setattr(pipeline, "COVER_CAP", 3)
    assert crossing_number(cg).value == 1
    monkeypatch.setattr(pipeline, "COVER_CAP", 2)
    for run in (lambda: crossing_number(cg),
                lambda: enumerate_clusterings(cg, 1)):
        with pytest.raises(ResourceCapExceeded, match="cover cap"):
            run()


def test_monotone_under_edge_deletion():
    base = complete_bipartite(3, 4)
    cr_base = crossing_number(
        compress(base, VertexCover(frozenset({0, 1, 2})))
    ).value
    for drop in [(0, 3), (1, 5), (2, 6)]:
        edges = tuple(e for e in base.edges if e != drop)
        g = Graph(base.vertices, edges)
        cg = compress(g, VertexCover(frozenset({0, 1, 2})))
        assert crossing_number(cg).value <= cr_base


def test_report_serialization_deterministic():
    cg = CompressedGraph.make(3, ((0, 1),), {7: 2, 3: 1})
    a = crossing_number(cg, PipelineOptions(want_drawing=True)).to_json()
    b = crossing_number(cg, PipelineOptions(want_drawing=True)).to_json()
    assert a == b


def test_k5_k6_through_cover_computation():
    for g, want in ((complete_graph(5), 1),):
        cover = find_vertex_cover(g, len(g.vertices))
        assert crossing_number(compress(g, cover)).value == want


def test_cover_four_mixed_rotations_match_oracle():
    """Size-4 neighborhoods bring six rotation tags and 41 rep sets."""
    from crossnum.oracle import oracle_cr

    gate = OracleConfig(max_crossings=8, max_edges=18, max_vertices=10)
    for cover_edges in ([(0, 1), (1, 2), (2, 3), (0, 3)],
                        [(0, 1), (1, 2), (2, 3)]):
        edges = list(cover_edges)
        edges += [(i, v) for v in (4, 5, 6) for i in range(4)]
        g = Graph(tuple(range(7)), tuple(edges))
        cg = compress(g, VertexCover(frozenset({0, 1, 2, 3})))
        rep = crossing_number(cg)
        assert rep.value == oracle_cr(g, gate) == 2
        assert verify(rep, cg, gate).ok


def test_random_eight_vertex_graphs_match_oracle():
    """Beyond the exhaustive 7-vertex suite: deterministic random sample."""
    import itertools as it

    from crossnum.graphs import CoverSizeExceeded
    from crossnum.oracle import oracle_cr

    rng = random.Random(40)
    gate = OracleConfig(max_crossings=8, max_edges=18, max_vertices=9)
    checked = 0
    while checked < 20:
        edges = tuple(
            e for e in it.combinations(range(8), 2) if rng.random() < 0.3
        )
        g = Graph(tuple(range(8)), edges)
        if not g.is_connected() or len(edges) > 18:
            continue
        try:
            cover = find_vertex_cover(g, 3)
        except CoverSizeExceeded:
            continue
        assert crossing_number(compress(g, cover)).value == oracle_cr(g, gate)
        checked += 1


def test_edgeless_cover_vertices_are_isolated():
    # cover vertices 3 and 4 have no edge: they are counted as isolated
    # and keep their ids in the lifted drawing, next to K_{3,5}
    cg = parse_compressed("5\nh 7 5\n")
    rep = crossing_number(cg)
    assert rep.value == 4 and rep.isolated == 2
    assert [c.cover for c in rep.components] == [(0, 1, 2)]
    got = drawing_to_text(assemble_lifted(cg, rep))
    assert got == (GOLDEN / "lifted_k35_edgeless.txt").read_text()


def test_edgeless_cover_is_not_solved(monkeypatch):
    import crossnum.pipeline as pipeline

    calls = []
    real = pipeline.chord_clustering

    def counting(cg):
        calls.append(cg)
        return real(cg)

    monkeypatch.setattr(pipeline, "chord_clustering", counting)
    rep = crossing_number(CompressedGraph.make(10_000, (), {}))
    assert rep.value == 0 and rep.components == [] and rep.isolated == 10_000
    assert calls == []


def test_component_split_renumbers_each_component():
    cg = parse_compressed("7\ngx 1 4\ngx 2 6\nh 5 2\nh 64 1\nh 0 3\n")
    comps, isolated = component_split(cg)
    # 0-2 by h 5 and 2-6 by G_X, 1-4 by G_X; 3 and 5 have no edge
    assert comps == [
        ((0, 2, 6), CompressedGraph.make(3, ((1, 2),), {3: 2, 4: 1})),
        ((1, 4), CompressedGraph.make(2, ((0, 1),), {})),
    ]
    assert isolated == 3 + 2
