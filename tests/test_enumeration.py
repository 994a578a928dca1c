from pathlib import Path

from crossnum.drawing import (
    canonical_cycle,
    crossing_count,
    drawing_to_text,
    structural_key,
    validate_good,
)
from crossnum.drawing import clusters as cluster_partition
from crossnum.enumeration import (
    cyclic_orders,
    enumerate_embeddings,
    enumerate_rep_sets,
    rotations,
)
from crossnum.graphs import (
    CompressedGraph,
    VertexCover,
    compress,
    complete_bipartite,
)
from crossnum.oracle import oracle_drawings
from crossnum.pipeline import enumerate_clusterings, ordered_rep_sets

GOLDEN = Path(__file__).parent / "data"


def test_rotations_counts():
    assert rotations(0) == 1
    assert rotations(1) == 1
    assert rotations(2) == 1
    assert rotations(3) == 2
    assert rotations(4) == 6


def test_cyclic_orders_canonical():
    assert cyclic_orders((0, 1, 2)) == [(0, 1, 2), (0, 2, 1)]
    assert cyclic_orders((3, 5)) == [(3, 5)]


def test_rep_sets_k2n():
    cg = CompressedGraph.make(2, (), {3: 6})
    sets = list(enumerate_rep_sets(cg))
    assert len(sets) == 1
    assert len(sets[0].reps) == 1


def test_rep_sets_k3n():
    cg = CompressedGraph.make(3, (), {7: 4})
    sets = list(enumerate_rep_sets(cg))
    tags = [tuple(s.tag for s in rs.reps) for rs in sets]
    assert tags == [
        ((0, 1, 2),),
        ((0, 1, 2), (0, 2, 1)),
        ((0, 2, 1),),
    ]


def test_rep_sets_cap_by_h():
    # h = 1 keeps only a single representative per neighborhood
    cg = CompressedGraph.make(3, (), {7: 1})
    assert [len(rs.reps) for rs in enumerate_rep_sets(cg)] == [1, 1]


def test_rep_sets_fig2():
    cg = CompressedGraph.make(3, ((0, 1), (0, 2), (1, 2)), {7: 5, 5: 3})
    sets = list(enumerate_rep_sets(cg))
    # the 2-neighborhood contributes one rotation; the 3-neighborhood
    # contributes its three nonempty rotation subsets
    assert len(sets) == 3
    assert all(any(s.mask == 5 for s in rs.reps) for rs in sets)


def test_rep_sets_skip_isolated():
    cg = CompressedGraph.make(2, ((0, 1),), {0: 4, 3: 1})
    sets = list(enumerate_rep_sets(cg))
    assert len(sets) == 1
    assert all(s.mask != 0 for s in sets[0].reps)


def test_enumerate_clusterings_k23():
    # single representative: the host is a 2-edge path, one drawing
    cg = CompressedGraph.make(2, (), {3: 3})
    out = list(enumerate_clusterings(cg, 1))
    assert len(out) == 1
    assert crossing_count(out[0].drawing) == 0


def test_enumerate_clusterings_star():
    # |Y| = 3, edgeless G_X: each rotation subset gives stars; the
    # single-rep sets have exactly one drawing each
    cg = CompressedGraph.make(3, (), {7: 1})
    out = list(enumerate_clusterings(cg, 0))
    assert len(out) == 2
    for c in out:
        assert crossing_count(c.drawing) == 0


def test_enumerate_clusterings_k33_includes_planar_two_star():
    cg = CompressedGraph.make(3, (), {7: 3})
    found = False
    for c in enumerate_clusterings(cg, 1):
        if len(c.reps) == 2 and crossing_count(c.drawing) == 0:
            found = True
    assert found


def test_emitted_clusterings_validate_and_match_tags():
    c4 = ((0, 1), (1, 2), (2, 3), (0, 3))
    # golden streams pin the router's DFS emission order, not just counts
    cases = [
        (CompressedGraph.make(3, ((0, 1),), {7: 2, 3: 1}), 1, 30, None),
        (CompressedGraph.make(3, (), {7: 3}), 3, 21, "dump_k33_b3.txt"),
        (CompressedGraph.make(4, c4, {15: 3}), 2, 111, "dump_c4p3_b2.txt"),
    ]
    for cg, budget, expected, golden in cases:
        seen = set()
        order = []  # solve keys of the rep sets, in stream order
        texts = []
        count = 0
        for c in enumerate_clusterings(cg, budget):
            count += 1
            texts.append(drawing_to_text(c.drawing))
            assert validate_good(c.drawing).ok
            for spec in c.reps:
                realized = c.drawing.rot_map[spec.vertex]
                assert canonical_cycle(realized) == canonical_cycle(spec.tag)
            pairs = {(s.mask, s.tag) for s in c.reps}
            assert len(pairs) == len(c.reps)
            key = structural_key(c.drawing)
            assert key not in seen  # pairwise non-equivalent per rep set
            seen.add(key)
            solve_key = (len(c.reps), tuple((s.mask, s.tag) for s in c.reps))
            if not order or order[-1] != solve_key:
                order.append(solve_key)
        assert count == expected
        # rep sets come in solve order, each one's clusterings together
        assert all(a < b for a, b in zip(order, order[1:]))
        if golden is not None:
            assert "".join(texts) == (GOLDEN / golden).read_text()


def test_face_at_is_the_listed_face():
    cg = CompressedGraph.make(3, ((0, 1),), {7: 4, 3: 4, 5: 4})
    hosts = [(complete_bipartite(3, 3), None)] + [
        (rs.host_graph(cg.gx_edges), rs.tags_by_vertex())
        for rs in ordered_rep_sets(cg, 1000)
    ]
    emitted = 0
    for graph, tags in hosts:
        for emb in enumerate_embeddings(graph, tags, lambda: 2):
            emitted += 1
            faces = emb.faces()
            where = {d: cycle for cycle in faces for d in cycle}
            traced = set()
            for d in emb.all_darts():
                cycle = emb.face_at(d)
                assert cycle == where[d]
                traced.add(cycle)
            assert traced == set(faces)
    assert emitted == 36 + 378


def test_counts_independent_of_h_magnitude():
    for h1, h2 in ((3, 100), (3, 10**6)):
        a = CompressedGraph.make(3, (), {7: h1})
        b = CompressedGraph.make(3, (), {7: h2})
        ka = [structural_key(c.drawing) for c in enumerate_clusterings(a, 2)]
        kb = [structural_key(c.drawing) for c in enumerate_clusterings(b, 2)]
        assert ka == kb


def test_completeness_against_oracle_drawings():
    """Every clustering extracted from an oracle drawing is emitted."""
    cases = [
        (complete_bipartite(2, 3), frozenset({0, 1}), 2),
        (complete_bipartite(3, 3), frozenset({0, 1, 2}), 2),
    ]
    for g, cover, cap in cases:
        cg = compress(g, VertexCover(cover))
        emitted = {}
        for c in enumerate_clusterings(cg, cap + 1):
            emitted[structural_key(c.drawing)] = c
        relab_cover = {v: i for i, v in enumerate(sorted(cover))}
        for d in oracle_drawings(g, cap):
            # the lex-least member of each topological cluster represents
            # it; relabel to the host convention: cover 0..k-1, then the
            # representatives in (mask, tag) order
            reps = sorted(
                (
                    sum(1 << relab_cover[x] for x in cl.neighborhood),
                    canonical_cycle(
                        tuple(relab_cover[x] for x in d.rot_map[min(cl.members)])
                    ),
                    min(cl.members),
                )
                for cl in cluster_partition(d, cover).clusters
            )
            mapping = dict(relab_cover)
            for i, (_, _, rep) in enumerate(reps):
                mapping[rep] = len(cover) + i
            assert structural_key(d.relabel(mapping)) in emitted


def test_router_rejects_disconnected_hosts():
    import pytest

    from crossnum.graphs import Graph

    two_paths = Graph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        next(enumerate_embeddings(two_paths, None, lambda: 0))
