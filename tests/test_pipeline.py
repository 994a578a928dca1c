import itertools
import random
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crossnum.drawing import (
    GoodnessReport,
    crossing_count,
    drawing_to_text,
    validate_good,
    zee,
)
from crossnum.embedding import Emb
from crossnum.geometry import convex_position_drawing
from crossnum.graphs import (
    CompressedGraph,
    Graph,
    complete_bipartite,
    complete_graph,
    compress,
    expand,
    find_vertex_cover,
    isomorphic,
    parse_compressed,
)
from crossnum.iqp import build_iqp
from crossnum.oracle import OracleCeilingExceeded, oracle_cr
from crossnum.pipeline import (
    REP_SET_CAP,
    ComponentResult,
    PipelineOptions,
    ResourceCapExceeded,
    SolveReport,
    assemble_lifted,
    chord_clustering,
    component_split,
    crossing_number,
    duplicate_star,
    enumerate_clusterings,
    initial_budget,
    ordered_rep_sets,
    verify,
)

from cluster_reference import clusters
from iqp_reference import feasible_points, true_value


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


def test_chord_clustering_perturbs_a_triple_point():
    # five one- and two-vertex neighbourhoods on a 4-cover put three chords
    # through one point at the positions (i, i^2), so the drawing comes
    # from a perturbed attempt
    import hashlib

    from crossnum.geometry import DegenerateDrawing, drawing_from_points

    cg = parse_compressed("4\nh 1 1\nh 3 1\nh 4 1\nh 5 1\nh 9 1\n")
    c = chord_clustering(cg)
    host = c.drawing.graph
    with pytest.raises(DegenerateDrawing, match="three edges through one"):
        drawing_from_points(host, {v: (v, v * v) for v in host.vertices})
    assert validate_good(c.drawing).ok
    for spec in c.reps:
        assert c.drawing.rot_map[spec.vertex] == spec.tag
    assert initial_budget(cg) == 13
    text = drawing_to_text(c.drawing).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "551fe9d077de6fa5ef82d95576e84ef5a847ce65183f3f5c7674c50e64f87e7d")


def test_internal_checks_raise_typed_errors(monkeypatch):
    # these checks were asserts, which vanish under `python -O`
    from dataclasses import replace

    from crossnum import pipeline
    from crossnum.drawing import UnrealizableDrawing
    from crossnum.embedding import Emb
    from crossnum.pipeline import ClusteringMismatch

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
        assemble_lifted(cg, crossing_number(cg))


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
    d = assemble_lifted(cg, rep)
    assert validate_good(d).ok
    assert crossing_count(d) == rep.value == 1
    assert isomorphic(d.graph, expand(cg))


def test_lift_weights_at_most_one_is_subdrawing():
    cg = CompressedGraph.make(3, ((0, 1),), {7: 1, 3: 1})
    rep = crossing_number(cg)
    d = assemble_lifted(cg, rep)
    assert validate_good(d).ok
    assert crossing_count(d) == rep.value


def _lift_point(cg, c, z):
    """The lift of clustering `c` of the connected `cg` at weights `z`."""
    comp = ComponentResult(tuple(range(c.k)), 0, c, tuple(z), None, ())
    return assemble_lifted(cg, SolveReport(0, [comp], 0))


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
            arena.append((cg, c, inst, list(feasible_points(inst))))
    seen = set()
    for _ in range(100):
        idx = rng.randrange(len(arena))
        cg, c, inst, points = arena[idx]
        z = points[rng.randrange(len(points))]
        if (idx, z) in seen:
            continue
        seen.add((idx, z))
        d = _lift_point(cg, c, z)
        assert validate_good(d).ok
        assert crossing_count(d) == true_value(inst, z)
    assert len(seen) >= 40


def test_lift_stacking_rotations_cluster_together():
    cg = CompressedGraph.make(3, (), {7: 5})
    rep = crossing_number(cg)
    comp = rep.components[0]
    d = assemble_lifted(cg, rep)
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
    res_big = verify(rep_big, big)
    assert res_big.ok and "oracle=skipped" in res_big.detail
    assert rep_big.value == 30 * 29


def test_verify_detects_tampering():
    cg = CompressedGraph.make(3, (), {7: 3})
    rep = crossing_number(cg)
    rep.value -= 1
    res = verify(rep, cg)
    assert not res.ok and "lift count" in res.detail


@pytest.mark.parametrize("name, fake, detail", [
    ("validate_good", lambda d: GoodnessReport(False, "broken"),
     "lifted drawing invalid: broken"),
    ("oracle_cr", lambda g, max_crossings: 2, "oracle disagrees (2 != 1)"),
])
def test_verify_fails_when_a_check_disagrees(monkeypatch, name, fake, detail):
    from crossnum import pipeline

    cg = CompressedGraph.make(3, (), {7: 3})
    rep = crossing_number(cg)
    monkeypatch.setattr(pipeline, name, fake)
    res = verify(rep, cg)
    assert res.ok is False and res.detail == detail


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
        compress(base, frozenset({0, 1, 2}))
    ).value
    for drop in [(0, 3), (1, 5), (2, 6)]:
        edges = tuple(e for e in base.edges if e != drop)
        g = Graph(base.vertices, edges)
        cg = compress(g, frozenset({0, 1, 2}))
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

    for cover_edges in ([(0, 1), (1, 2), (2, 3), (0, 3)],
                        [(0, 1), (1, 2), (2, 3)]):
        edges = list(cover_edges)
        edges += [(i, v) for v in (4, 5, 6) for i in range(4)]
        g = Graph(tuple(range(7)), tuple(edges))
        cg = compress(g, frozenset({0, 1, 2, 3}))
        rep = crossing_number(cg)
        assert rep.value == oracle_cr(g) == 2
        assert verify(rep, cg).ok


def test_random_eight_vertex_graphs_match_oracle():
    """Beyond the exhaustive 7-vertex suite: deterministic random sample."""
    import itertools as it

    from crossnum.graphs import CoverSizeExceeded
    from crossnum.oracle import oracle_cr

    rng = random.Random(40)
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
        assert crossing_number(compress(g, cover)).value == oracle_cr(g)
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


def test_duplicate_star_takes_only_the_orientation_a_lift_makes():
    """A lift copies a star whose centre is the larger end of each edge to
    a larger id; any other call is refused before the embedding changes."""
    low = convex_position_drawing(Graph((0, 1, 2, 3), ((0, 1), (0, 2), (0, 3))))
    high = convex_position_drawing(Graph((0, 1, 2, 3), ((0, 3), (1, 3), (2, 3))))
    # the copy's id is taken: 4 already has an edge to the star's second leaf
    taken = convex_position_drawing(
        Graph((0, 1, 2, 3, 4), ((0, 3), (1, 3), (1, 4), (2, 3))))
    for d, v, v_new in ((low, 0, 4), (high, 3, 3), (high, 3, 2),
                        (taken, 3, 4)):
        emb = d.emb()
        before = vars(emb.copy())
        with pytest.raises(ValueError):
            duplicate_star(emb, v, v_new)
        assert vars(emb) == before
    emb = high.emb()
    duplicate_star(emb, 3, 4)
    assert emb.crossing_count() == zee(3) == 1
    assert emb.euler_ok()


def test_one_sphere_check_per_lift(monkeypatch):
    cg = parse_compressed("6\nh 7 3\nh 56 3\nh 0 3\n")
    rep = crossing_number(cg)
    assert len(rep.components) == 2
    calls = []
    euler_ok = Emb.euler_ok
    monkeypatch.setattr(Emb, "euler_ok",
                        lambda self: calls.append(self) or euler_ok(self))
    assemble_lifted(cg, rep)
    assert len(calls) == 1


def _cover_compressed(g):
    return compress(g, find_vertex_cover(g, len(g.vertices)))


@pytest.mark.parametrize("cg, labelled, orbits, value", [
    (_cover_compressed(complete_graph(6)), 24, 1, 3),
    (_cover_compressed(complete_bipartite(4, 4)), 56, 7, 4),
    (parse_compressed("4\ngx 0 1\ngx 1 2\ngx 2 3\ngx 0 3\nh 15 3\n"),
     41, 10, 2),
    (parse_compressed("4\ngx 0 1\ngx 1 2\ngx 2 3\nh 15 3\n"), 41, 18, 2),
    (parse_compressed("3\ngx 0 1\nh 7 4\nh 3 4\nh 5 4\n"), 3, 2, 2),
    # the group moves the masks: the four 3-sets of a 4-cover, one of
    # them with count 2, so it fixes vertex 0
    (parse_compressed("4\nh 7 1\nh 11 1\nh 13 1\nh 14 2\n"), 24, 6, 1),
], ids=["K6", "K44", "C4+3", "P4+3", "G3", "3-sets"])
def test_one_rep_set_per_orbit(cg, labelled, orbits, value):
    """A solve reads the first rep set of each orbit under the cover group
    and mirroring; the dump and enumerate_clusterings still list all."""
    assert len(ordered_rep_sets(cg, REP_SET_CAP)) == labelled
    rep = crossing_number(cg)
    (comp,) = rep.components
    assert len(comp.rep_set_counts) == orbits
    assert rep.value == value


def _solve_every_rep_set(cg):
    with pytest.MonkeyPatch.context() as mp:
        import crossnum.pipeline as pipeline

        mp.setattr(pipeline, "_orbit_representatives", lambda cg, rs: rs)
        return crossing_number(cg)


@st.composite
def symmetric_covers(draw):
    """A cover of 3 or 4 vertices whose G_X and h are closed under a
    drawn permutation p, so p is in the cover group; h <= 2 per mask, at
    most eight vertices and 24 labelled rep sets."""
    k = draw(st.sampled_from((4, 3)))
    p = draw(st.permutations(range(k)))

    def orbit(x, image):
        out = []
        while x not in out:
            out.append(x)
            x = image(x)
        return out

    gx = set()
    pairs = list(itertools.combinations(range(k), 2))
    for e in draw(st.lists(st.sampled_from(pairs), max_size=4)):
        gx.update(orbit(e, lambda e: tuple(sorted((p[e[0]], p[e[1]])))))
    h = {}
    masks = sorted(range(1, 2**k), key=lambda m: (-bin(m).count("1"), m))
    for m in draw(st.lists(st.sampled_from(masks), min_size=1, max_size=3)):
        count = draw(st.integers(1, 2))
        for image in orbit(m, lambda m: sum(1 << p[i] for i in range(k)
                                            if m >> i & 1)):
            h.setdefault(image, count)
    cg = CompressedGraph.make(k, sorted(gx), h)
    assume(cg.total_vertices() <= 8)
    assume(len(ordered_rep_sets(cg, REP_SET_CAP)) <= 24)
    return cg


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(symmetric_covers())
# the swap of 0 and 3 keeps G_X and h; a group that ignored G_X would
# also take (0 1) and (1 3), and the solve would read 3, not 2
@example(parse_compressed("4\ngx 0 2\ngx 2 3\nh 11 2\nh 15 2\n"))
# seven cover vertices: the group is the identity and mirroring alone acts
@example(parse_compressed(
    "7\ngx 2 3\ngx 3 4\ngx 4 5\ngx 5 6\nh 7 3\nh 112 2\n"))
def test_orbit_filter_keeps_the_value(cg):
    rep = crossing_number(cg)
    full = _solve_every_rep_set(cg)
    assert rep.value == full.value


@st.composite
def small_compressed(draw):
    """k <= 3 and, once expanded, at most 9 vertices and 18 edges."""
    k = draw(st.sampled_from((3, 2, 1)))
    pairs = list(itertools.combinations(range(k), 2))
    gx = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    full = 2**k - 1
    room = 9 - k
    h = {full: draw(st.sampled_from(range(room + 1)))}
    room -= h[full]
    for m in draw(st.permutations(range(full))):
        h[m] = draw(st.integers(0, room))
        room -= h[m]
    cg = CompressedGraph.make(k, sorted(gx), h)
    assume(len(expand(cg).edges) <= 18)
    return cg


# the oracle decides cr <= 3 exactly; proving a larger value takes it
# minutes on K_{3,6}, so above 3 it confirms only that cr > 3
ORACLE_CEILING = 3


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(small_compressed())
def test_random_compressed_inputs_match_oracle(cg):
    value = crossing_number(cg).value
    try:
        want = oracle_cr(expand(cg), ORACLE_CEILING)
    except OracleCeilingExceeded:
        assert value > ORACLE_CEILING
    else:
        assert value == want
