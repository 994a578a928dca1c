from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

from crossnum.drawing import (
    CombinatorialDrawing,
    antidistance,
    crossing_count,
    drawing_from_text,
    drawing_to_text,
    structural_key,
    validate_good,
    zee,
)
from crossnum.embedding import Emb
from crossnum.geometry import convex_position_drawing, drawing_from_points
from crossnum.graphs import Graph, complete_bipartite, complete_graph

from cluster_reference import (
    WeightedClustering,
    cl_value,
    cluster_crossings,
    clusters,
    noncluster_count,
)
from drawing_reference import (
    canonical_key,
    euler_reference,
    faces_by_definition,
    validate_structure,
)
from oracle_reference import oracle_drawings

F = Fraction
GOLDEN = Path(__file__).parent / "data"


def one_crossing_k5():
    """K5 with vertex 4 in a face of a planar K4; edge (2,4) escapes once."""
    g = complete_graph(5)
    pos = {
        0: (0, 0),
        1: (4, 0),
        2: (2, 3),
        3: (2, 1),
        4: (F(9, 5), F(9, 20)),
    }
    return drawing_from_points(g, pos)


def test_zee_values():
    assert zee(7) == 9
    assert zee(2) == 0
    assert zee(5) == 4
    assert zee(0) == 0


def test_antidistance_of_equal_tags_is_zee():
    for m in range(9):
        order = tuple(range(m))
        assert antidistance(order, order) == zee(m), m
        # reversed tags force nothing
        assert antidistance(order, order[::-1]) == 0, m


def test_antidistance_is_relabelling_and_rotation_invariant():
    p, s = (3, 7, 1, 4, 9), (7, 9, 4, 3, 1)
    want = antidistance(p, s)
    assert want == 2
    assert want == antidistance(p[2:] + p[:2], s[4:] + s[:4])
    assert want == antidistance(s, p)
    name = {x: i for i, x in enumerate(p)}
    assert want == antidistance(tuple(range(5)), tuple(name[x] for x in s))


def test_validate_planar_k4():
    d = drawing_from_points(
        complete_graph(4), {0: (0, 0), 1: (4, 0), 2: (2, 3), 3: (2, 1)}
    )
    assert validate_good(d).ok


def test_validate_adjacent_crossing():
    g = Graph((0, 1, 2), ((0, 1), (0, 2)))
    d = CombinatorialDrawing.make(g, {(0, 1): (0,), (0, 2): (0,)}, {})
    rep = validate_good(d)
    assert not rep.ok and rep.violation == "adjacent crossing"


def test_validate_double_crossing():
    g = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    d = CombinatorialDrawing.make(g, {(0, 1): (0, 1), (2, 3): (0, 1)}, {})
    rep = validate_good(d)
    assert not rep.ok and rep.violation == "double crossing"


# edges (0, 1) and (2, 3) cross once, and (4, 5) crosses nothing
SIX = Graph(tuple(range(6)), ((0, 1), (2, 3), (4, 5)))
SEQS = (((0, 1), (0,)), ((2, 3), (0,)), ((4, 5), ()))
ROTS = tuple((v, (v ^ 1,)) for v in range(6))


@pytest.mark.parametrize("sequences, rotations, violation", [
    (SEQS + (((0, 2), ()),), ROTS,
     "sequence table does not match the edge set"),
    ((((0, 1), (0, 0)),) + SEQS[1:], ROTS, "edge (0, 1) repeats a crossing id"),
    (SEQS[:1] + (((2, 3), ()),) + SEQS[2:], ROTS,
     "crossing 0 does not lie on exactly two edges"),
    (SEQS[:2] + (((4, 5), (0,)),), ROTS,
     "crossing 0 does not lie on exactly two edges"),
    (SEQS, ROTS[:-1], "rotation table does not match the vertex set"),
    (SEQS, ((0, (2,)),) + ROTS[1:],
     "rotation at 0 is not a permutation of its neighbors"),
])
def test_validate_rejects_malformed_tables(sequences, rotations, violation):
    assert validate_good(CombinatorialDrawing(SIX, SEQS, ROTS, ((0, 0),))).ok
    rep = validate_good(
        CombinatorialDrawing(SIX, sequences, rotations, ((0, 0),)))
    assert rep.ok is False and rep.violation == violation


def test_validate_one_crossing_k5_realizable():
    d = one_crossing_k5()
    assert crossing_count(d) == 1
    assert validate_good(d).ok
    # independent check: the planarization graph is planar (left-right test)
    ng = nx.Graph()
    pairs = d.crossing_pairs
    for e, seq in d.sequences:
        chain = [e[0]] + [("x", c) for c in seq] + [e[1]]
        ng.add_edges_from(zip(chain, chain[1:]))
    assert nx.check_planarity(ng)[0]


def _swap_dummy_halves(emb):
    ring = emb.rot[~0]
    ring[1], ring[2] = ring[2], ring[1]


def _drop_vertex_dart(emb):
    emb.rot[0].pop()


def _repeat_vertex_dart(emb):
    ring = emb.rot[0]
    ring.append(ring[0])


def _cut_chain(emb):
    sid = emb.chains[(2, 4)][0]
    a, b, e = emb.segs[sid]
    emb.segs[sid] = (a, 3, e)


@pytest.mark.parametrize("breaker", [
    _swap_dummy_halves, _drop_vertex_dart, _repeat_vertex_dart, _cut_chain,
])
def test_validate_structure_raises_typed_error(breaker):
    # each hand-broken embedding breaks one invariant the checker covers
    emb = one_crossing_k5().emb()
    validate_structure(emb)
    breaker(emb)
    with pytest.raises(ValueError):
        validate_structure(emb)


@pytest.mark.parametrize("name", sorted(
    p.name for p in GOLDEN.glob("*.txt")
    if p.name.startswith(("lifted_", "dump_"))))
def test_golden_drawings_build_well_formed_embeddings(name):
    # validate_good leaves these invariants to Emb.add_drawing
    texts = (GOLDEN / name).read_text().split("drawing\n")[1:]
    assert len(texts) == {"dump_k33_b3.txt": 20,
                          "dump_c4p3_b2.txt": 23}.get(name, 1)
    for text in texts:
        d = drawing_from_text(text)
        assert validate_good(d).ok
        emb = d.emb()
        validate_structure(emb)
        assert emb.faces() == faces_by_definition(emb)


def _golden_drawings():
    for p in sorted(GOLDEN.glob("*.txt")):
        if p.name.startswith(("lifted_", "dump_")):
            for text in p.read_text().split("drawing\n")[1:]:
                yield drawing_from_text(text)


def test_euler_ok_matches_the_face_count():
    """The one-pass face count agrees with V - E + F over `faces()` on
    every golden drawing, and on each with its least crossing's
    orientation bit flipped, which leaves no sphere embedding."""
    flipped = []
    for d in _golden_drawings():
        assert d.emb().euler_ok() is euler_reference(d.emb()) is True
        if d.orientations:
            bits = dict(d.orientations)
            bits[min(bits)] ^= 1
            bad = CombinatorialDrawing.make(
                d.graph, dict(d.sequences), dict(d.rotations), bits).emb()
            flipped.append(bad.euler_ok())
            assert flipped[-1] is euler_reference(bad)
    assert len(flipped) == 44 and flipped.count(True) == 0


def test_euler_ok_fails_closed_on_a_broken_ring():
    """A dart missing from its ring, or a ring dart whose segment is
    gone, fails the check instead of raising."""
    d = drawing_from_text((GOLDEN / "lifted_k35.txt").read_text())
    emb = d.emb()
    emb.rot[0].pop()
    assert emb.euler_ok() is False
    emb = d.emb()
    del emb.segs[emb.rot[0][0] >> 1]
    assert emb.euler_ok() is False


def test_validate_unrealizable():
    # K4 with rotations from a planar drawing but one ring reversed has no
    # crossing-free sphere embedding
    d = drawing_from_points(
        complete_graph(4), {0: (0, 0), 1: (4, 0), 2: (2, 3), 3: (2, 1)}
    )
    rots = d.rot_map
    rots[3] = tuple(reversed(rots[3]))
    bad = CombinatorialDrawing.make(d.graph, dict(d.sequences), rots)
    rep = validate_good(bad)
    assert not rep.ok and "unrealizable" in rep.violation


def planarization_counts(d):
    """(nodes, segments, faces on the sphere) of the drawing's embedding."""
    emb = d.emb()
    faces = len(emb.faces()) - (len(emb.components()) - 1)
    return len(emb.rot), len(emb.segs), faces


def test_planarize_crossing_free_identity():
    d = drawing_from_points(
        Graph((0, 1, 2), ((0, 1), (1, 2), (0, 2))),
        {0: (0, 0), 1: (4, 0), 2: (2, 3)},
    )
    assert planarization_counts(d) == (3, 3, 2)
    assert d.emb().euler_ok()


def test_planarize_one_crossing_k5():
    d = one_crossing_k5()
    assert planarization_counts(d) == (6, 12, 8)
    assert d.emb().euler_ok()


def test_planarize_bowtie():
    g = Graph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (0, 3)))
    d = drawing_from_points(g, {0: (0, 0), 1: (4, 0), 2: (0, 2), 3: (4, 2)})
    assert planarization_counts(d) == (5, 6, 3)
    assert len(d.emb().components()) == 1
    assert d.emb().euler_ok()


def test_euler_ok_sees_one_bad_component_beside_a_good_one():
    """A crossing-free K5 has no sphere embedding, and a triangle beside
    it must not make up for that."""
    tri = ((5, 6), (5, 7), (6, 7))
    both = Graph(tuple(range(8)), complete_graph(5).edges + tri)
    assert CombinatorialDrawing.make(both, {}, {}).emb().euler_ok() is False
    alone = Graph((5, 6, 7), tri)
    assert CombinatorialDrawing.make(alone, {}, {}).emb().euler_ok() is True


def test_equivalent_reflexive_and_rotation_sensitive():
    d = one_crossing_k5()
    assert structural_key(d) == structural_key(d)
    embeddings = oracle_drawings(complete_bipartite(2, 3), 0)
    assert len(embeddings) == 2
    assert structural_key(embeddings[0]) != structural_key(embeddings[1])


def test_equivalent_crossing_order_sensitive():
    # same crossing pairs, different order along the shared edge
    g = Graph((0, 1, 2, 3, 4, 5), ((0, 1), (2, 3), (4, 5)))
    base = {0: (0, 0), 1: (10, 0), 2: (2, -1), 3: (3, 2), 4: (6, -1), 5: (7, 2)}
    swapped = dict(base)
    swapped[2], swapped[3] = (6, -1), (7, 2)
    swapped[4], swapped[5] = (2, -1), (3, 2)
    d1 = drawing_from_points(g, base)
    d2 = drawing_from_points(g, swapped)
    assert crossing_count(d1) == crossing_count(d2) == 2
    assert structural_key(d1) != structural_key(d2)


def fig1_drawing():
    """Four cover vertices, five blue and four red outer vertices."""
    cover = [0, 1, 2, 3]  # m1, m2, m3, m4
    blues = [4, 5, 6, 7, 8]
    reds = [9, 10, 11, 12]
    edges = [(0, 2), (2, 3), (1, 3), (0, 1)]
    for w in blues + reds:
        edges += [(m, w) for m in cover]
    g = Graph(tuple(range(13)), tuple(sorted(edges)))
    pos = {0: (0, 0), 1: (0, 3), 2: (F(1, 2), F(4, 5)), 3: (F(1, 2), F(11, 5))}
    for i, b in enumerate(blues):
        pos[b] = (-5 + i, F(3, 2))
    for i, r in enumerate(reds):
        pos[r] = (5 - i, F(3, 2))
    return drawing_from_points(g, pos), frozenset(cover)


def test_clusters_fig1():
    d, cover = fig1_drawing()
    part = clusters(d, cover)
    sizes = sorted(c.size for c in part.clusters)
    assert sizes == [4, 5]
    a, b = part.clusters
    assert a.neighborhood == b.neighborhood
    assert a.rotation != b.rotation


def fig2_drawing():
    edges = [(0, 1), (0, 2), (1, 2)]
    blues, reds, yellows = [3, 4, 5], [6, 7], [8, 9, 10]
    for w in blues + reds:
        edges += [(0, w), (1, w), (2, w)]
    for w in yellows:
        edges += [(0, w), (2, w)]
    g = Graph(tuple(range(11)), tuple(sorted(edges)))
    pos = {
        0: (0, 0), 1: (F(3, 2), 3), 2: (3, 0),
        3: (F(3, 2), F(3, 2)), 4: (-1, F(5, 2)), 5: (4, F(5, 2)),
        6: (-1, F(-3, 5)), 7: (4, F(-3, 5)),
        8: (F(3, 2), F(-7, 10)), 9: (-1, 1), 10: (4, 1),
    }
    return drawing_from_points(g, pos), frozenset({0, 1, 2})


def test_clusters_fig2():
    d, cover = fig2_drawing()
    part = clusters(d, cover)
    assert sorted(c.size for c in part.clusters) == [2, 3, 3]
    by_members = {c.members: c for c in part.clusters}
    assert (3, 4, 5) in by_members  # blues share a rotation
    assert (6, 7) in by_members
    assert (8, 9, 10) in by_members  # degree-2: unique cyclic order


def test_clusters_low_degree_single_cluster():
    g = complete_bipartite(2, 4)
    ds = oracle_drawings(g, 0)
    for d in ds:
        part = clusters(d, frozenset({0, 1}))
        assert len(part.clusters) == 1 and part.clusters[0].size == 4


def test_cl_value_examples():
    # weights (3,2,3) with degrees (3,3,2)
    d, cover = fig2_drawing()
    wc = WeightedClustering.make(
        d.graph and d, cover, {3: 3, 6: 2, 8: 3}
    ) if False else None
    # use a clustering-shaped drawing: one rep per cluster
    g = Graph(
        (0, 1, 2, 3, 4, 5),
        ((0, 1), (0, 2), (1, 2),
         (0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4), (0, 5), (2, 5)),
    )
    dd = drawing_from_points(
        g,
        {0: (0, 0), 1: (F(3, 2), 3), 2: (3, 0), 3: (F(3, 2), F(3, 2)),
         4: (-1, F(-3, 5)), 5: (F(3, 2), F(-7, 10))},
    )
    wc = WeightedClustering.make(dd, frozenset({0, 1, 2}), {3: 3, 4: 2, 5: 3})
    wc.check()
    assert cl_value(wc) == 3 * 1 + 1 * 1 + 3 * 0

    unit = WeightedClustering.make(dd, frozenset({0, 1, 2}), {3: 1, 4: 1, 5: 1})
    assert cl_value(unit) == 0

    g2 = Graph((0, 1, 2, 3), ((0, 3), (1, 3), (2, 3)))
    star = drawing_from_points(
        g2, {0: (0, 0), 1: (2, 0), 2: (1, 2), 3: (1, F(1, 2))}
    )
    n = 10**6
    big = WeightedClustering.make(star, frozenset({0, 1, 2}), {3: n})
    assert cl_value(big) == n * (n - 1) // 2


def test_noncluster_count():
    # crossing between two cover-cover edges is always non-cluster
    g = Graph((0, 1, 2, 3, 4), ((0, 1), (2, 3), (2, 4)))
    d = drawing_from_points(
        g, {0: (0, 0), 1: (2, 2), 2: (0, 2), 3: (2, 0), 4: (3, 3)}
    )
    cover = frozenset({0, 1, 2, 3})
    assert crossing_count(d) == 1
    assert noncluster_count(d, cover) == 1

    # crossing involving two edges of one cluster is a cluster crossing
    g2 = complete_bipartite(2, 2)
    d2 = drawing_from_points(
        g2, {0: (0, 0), 1: (2, 0), 2: (1, 1), 3: (1, -1)}
    )
    assert crossing_count(d2) == 0
    assert noncluster_count(d2, frozenset({0, 1})) == 0
    crossing = drawing_from_points(
        g2, {0: (0, 0), 1: (2, 0), 2: (3, 2), 3: (1, 2)}
    )
    assert crossing_count(crossing) == 1
    assert noncluster_count(crossing, frozenset({0, 1})) == 0


def test_cluster_lower_bound_small_oracle_sample():
    # every cluster of size c and degree m carries >= C(c,2) * Z(m)
    from math import comb

    for g, cover, cap in (
        (complete_bipartite(2, 3), frozenset({0, 1}), 2),
        (complete_graph(4), frozenset({0, 1, 2}), 1),
        (complete_bipartite(3, 3), frozenset({0, 1, 2}), 2),
    ):
        for d in oracle_drawings(g, cap):
            for cl in clusters(d, cover).clusters:
                bound = comb(cl.size, 2) * zee(cl.degree)
                assert cluster_crossings(d, cl) >= bound


def test_k2m_equal_rotation_bound_small():
    for m in (3, 4):
        ds = oracle_drawings(
            complete_bipartite(2, m), zee(m), equal_rotations=((0, 1),)
        )
        assert min(crossing_count(d) for d in ds) == zee(m)


def _renamed_crossings(d):
    """The same drawing with every crossing id shifted by 100."""
    seqs = {e: tuple(c + 100 for c in seq) for e, seq in d.sequences}
    bits = {c + 100: b for c, b in d.orientations}
    return CombinatorialDrawing.make(d.graph, seqs, d.rot_map, bits)


def _mirror(d):
    """The mirror image: every rotation reversed and every bit flipped."""
    rots = {v: tuple(reversed(ring)) for v, ring in d.rotations}
    bits = {c: 1 - b for c, b in d.orientations}
    return CombinatorialDrawing.make(d.graph, dict(d.sequences), rots, bits)


def test_equivalence_relation_spot_checks():
    ds = oracle_drawings(complete_bipartite(2, 3), 1)
    keys = [canonical_key(d) for d in ds]
    for i, d in enumerate(ds):
        assert structural_key(d) == structural_key(d)
        for j in range(i + 1, len(ds)):
            same = keys[i] == keys[j]
            assert (structural_key(ds[i]) == structural_key(ds[j])) == same
    # both keys split each drawing list, plus its mirror images and its
    # copies under other crossing ids, into the same classes.  A crossing
    # of two disjoint edges and its mirror differ only in their bit.
    two_edges = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    for g, cap in ((complete_bipartite(3, 3), 2), (complete_graph(5), 1),
                   (two_edges, 1)):
        ds = oracle_drawings(g, cap)
        n = len(ds)
        ds += [_renamed_crossings(d) for d in ds] + [_mirror(d) for d in ds]
        skeys = [structural_key(d) for d in ds]
        ckeys = [canonical_key(d) for d in ds]
        classes = set(zip(skeys, ckeys))
        assert len(set(skeys)) == len(set(ckeys)) == len(classes) >= n
    # a crossing missing from the bits is a crossing with bit 0
    d = one_crossing_k5()
    bare = CombinatorialDrawing.make(d.graph, dict(d.sequences), d.rot_map)
    zeros = CombinatorialDrawing.make(
        d.graph, dict(d.sequences), d.rot_map, {c: 0 for c in d.crossing_pairs})
    assert d.crossing_pairs and bare == zeros
    assert structural_key(bare) == structural_key(zeros)


def test_crossing_count_equals_id_count_unweighted():
    for d in oracle_drawings(complete_bipartite(2, 3), 1):
        assert crossing_count(d) == len(d.crossing_pairs)


def test_drawing_text_round_trip():
    d = one_crossing_k5()
    text = drawing_to_text(d)
    back = drawing_from_text(text)
    assert drawing_to_text(back) == text
    assert structural_key(d) == structural_key(back)


def test_add_drawing_numbers_crossings_after_those_present():
    d = convex_position_drawing(complete_bipartite(3, 3))
    shifted = d.relabel({v: v + 10 for v in d.graph.vertices})
    emb = Emb()
    for part in (d, shifted):
        emb.add_drawing(part)
    both = Graph(d.graph.vertices + shifted.graph.vertices,
                 d.graph.edges + shifted.graph.edges)
    pairs = emb.to_drawing(both).crossing_pairs
    assert sorted(pairs) == list(range(18))
    assert all(min(min(pair)) >= 10 for c, pair in pairs.items() if c >= 9)
    assert emb.euler_ok()


def test_emb_refuses_a_negative_vertex_id():
    # negative nodes are the dummies of crossings
    emb = Emb()
    with pytest.raises(ValueError, match="negative vertex id -1"):
        emb.add_vertex(-1)
    assert emb.rot == {}


def test_emb_numbers_crossings_in_the_order_of_their_ids():
    d = convex_position_drawing(complete_bipartite(3, 3))
    gap = {c: 5 + 4 * i for i, c in enumerate(sorted(d.crossing_pairs))}
    gapped = CombinatorialDrawing.make(
        d.graph,
        {e: tuple(gap[c] for c in seq) for e, seq in d.sequences},
        d.rot_map,
        {gap[c]: bit for c, bit in d.orientations},
    )
    back = gapped.emb().to_drawing(gapped.graph)
    rank = {c: i for i, c in enumerate(sorted(gapped.crossing_pairs))}
    assert back.crossing_pairs == {
        rank[c]: pair for c, pair in gapped.crossing_pairs.items()}
    assert structural_key(back) == structural_key(gapped)
