import itertools
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crossnum.drawing import (
    antidistance,
    canonical_cycle,
    crossing_count,
    drawing_from_text,
    drawing_to_text,
    structural_key,
    validate_good,
)
from crossnum.enumeration import (
    cyclic_orders,
    enumerate_embeddings,
    enumerate_rep_sets,
    rep_cap,
    rotations,
)
from crossnum.graphs import (
    CompressedGraph,
    Graph,
    compress,
    complete_bipartite,
    parse_compressed,
)
from crossnum.pipeline import (
    PipelineOptions,
    clustering_stream,
    component_split,
    enumerate_clusterings,
)

from cluster_reference import clusters as cluster_partition
from drawing_reference import all_darts, dummy_count, faces_by_definition
from oracle_reference import oracle_drawings

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
    # |Y| = 3, edgeless G_X: the two single-rep sets are mirror images, so
    # the stream reads one of them, and it has exactly one drawing
    cg = CompressedGraph.make(3, (), {7: 1})
    out = list(enumerate_clusterings(cg, 0))
    assert len(out) == 1
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
        (CompressedGraph.make(3, ((0, 1),), {7: 2, 3: 1}), 1, 14, None),
        (CompressedGraph.make(3, (), {7: 3}), 3, 20, "dump_k33_b3.txt"),
        (CompressedGraph.make(4, c4, {15: 3}), 2, 23, "dump_c4p3_b2.txt"),
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
        for rs in enumerate_rep_sets(cg)
    ]
    emitted = 0
    for graph, tags in hosts:
        for emb in enumerate_embeddings(graph, tags, lambda: 2):
            emitted += 1
            faces = emb.faces()
            assert faces == faces_by_definition(emb)
            where = {d: cycle for cycle in faces for d in cycle}
            traced = set()
            for d in all_darts(emb):
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
    """Every clustering extracted from an oracle drawing is emitted by the
    router for its labelled rep set, orbit representative or not."""
    cases = [
        (complete_bipartite(2, 3), frozenset({0, 1}), 2),
        (complete_bipartite(3, 3), frozenset({0, 1, 2}), 2),
    ]
    for g, cover, cap in cases:
        cg = compress(g, cover)
        emitted = {}
        stream = clustering_stream(cg, list(enumerate_rep_sets(cg)),
                                   lambda i: cap + 1,
                                   PipelineOptions.clustering_cap)
        for _, c in stream:
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


def test_tags_equal_the_untagged_stream_filtered():
    """Tags at either end of an edge, including its smaller end, which the
    solver never tags: the tagged stream is the untagged one filtered to
    the drawings whose rotation at each tagged vertex is its tag."""
    from crossnum.graphs import complete_graph

    cases = [
        (complete_graph(5), {0: (1, 2, 3, 4)}, 1, 5, 30),
        (complete_graph(5), {0: (1, 3, 2, 4), 2: (0, 1, 3, 4)}, 1, 1, 30),
        (complete_bipartite(3, 3), {0: (3, 5, 4)}, 2, 18, 36),
        (complete_bipartite(3, 3), {0: (3, 4)}, 2, 0, 36),
    ]
    for graph, tags, budget, kept, total in cases:
        def texts(fixed):
            return [drawing_to_text(emb.to_drawing(graph)) for emb in
                    enumerate_embeddings(graph, fixed, lambda: budget)]

        def fits(d):
            return all(canonical_cycle(d.rot_map[w]) == canonical_cycle(tag)
                       for w, tag in tags.items())

        untagged = texts(None)
        filtered = [t for t in untagged if fits(drawing_from_text(t))]
        assert (len(filtered), len(untagged)) == (kept, total)
        assert texts(tags) == filtered


def test_weights_equal_the_unweighted_stream_filtered():
    """At a fixed budget, the weighted stream is the unweighted one
    filtered to the drawings whose crossings cost at most the budget, in
    the same order: a crossing of e and f costs w(e)·w(f), and an edge
    weighs the product of its ends' weights."""
    from crossnum.graphs import complete_graph

    # a cover edge 0-1 under two stars on {0, 1, 2}, and two stars on
    # four leaves: crossings of the two stars cost 12, of the edge and a
    # star 3 or 4
    two_stars = Graph.from_edges(
        [(0, 1)] + [(x, c) for x in range(3) for c in (3, 4)])
    two_stars4 = Graph.from_edges([(x, c) for x in range(4) for c in (4, 5)])
    cases = [
        (complete_bipartite(3, 3), None, {3: 2}, 3, 48, 792),
        (complete_graph(5), {0: (1, 2, 3, 4)}, {0: 2}, 5, 29, 69),
        (two_stars, {3: (0, 1, 2), 4: (0, 2, 1)}, {3: 3, 4: 4}, 12, 3, 33),
        (two_stars4, {4: (0, 1, 2, 3), 5: (0, 1, 2, 3)}, {4: 3, 5: 4}, 24,
         8, 120),
    ]
    for graph, tags, weights, budget, kept, total in cases:
        def drawings(vertex_weights):
            return [emb.to_drawing(graph) for emb in enumerate_embeddings(
                graph, tags, lambda: budget, vertex_weights)]

        w = {v: weights.get(v, 1) for v in graph.vertices}

        def cost(d):
            return sum(w[e[0]] * w[e[1]] * w[f[0]] * w[f[1]]
                       for e, f in d.crossing_pairs.values())

        unweighted = [(drawing_to_text(d), cost(d)) for d in drawings(None)]
        filtered = [t for t, c in unweighted if c <= budget]
        assert (len(filtered), len(unweighted)) == (kept, total)
        assert [drawing_to_text(d) for d in drawings(weights)] == filtered


def test_router_rejects_a_weight_below_one():
    import pytest

    star = complete_bipartite(1, 3)
    with pytest.raises(ValueError, match="at least 1"):
        next(enumerate_embeddings(star, None, lambda: 0, {0: 0}))


def test_router_rejects_disconnected_hosts():
    import pytest

    from crossnum.graphs import Graph

    two_paths = Graph.from_edges([(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="disconnected"):
        next(enumerate_embeddings(two_paths, None, lambda: 0))


def test_router_rejects_a_tag_outside_the_host():
    import pytest

    star = complete_bipartite(1, 3)
    with pytest.raises(ValueError, match="outside the host"):
        next(enumerate_embeddings(star, {4: (0,)}, lambda: 0))


def test_antidistance_table_against_the_router():
    """Two stars on the same four leaves, with every ordered pair of tags:
    the fewest crossings the router draws is the antidistance, 2 for
    equal tags, 0 for reversed ones and 1 otherwise."""
    host = Graph.from_edges([(x, c) for x in range(4) for c in (4, 5)])
    orders = cyclic_orders(tuple(range(4)))
    table = {}
    for p in orders:
        for s in orders:
            counts = [dummy_count(emb) for emb in enumerate_embeddings(
                host, {4: p, 5: s}, lambda: 2)]
            table[p, s] = min(counts)
            assert table[p, s] == antidistance(p, s)
    assert len(table) == 36
    for (p, s), got in table.items():
        want = 2 if p == s else 0 if s == canonical_cycle(p[::-1]) else 1
        assert got == want, (p, s)


@st.composite
def tagged_covers(draw):
    """A cover of 4 vertices with at most one G_X edge and one or two
    neighborhoods of 3 or 4 members, at most 3 representatives in all."""
    pairs = list(itertools.combinations(range(4), 2))
    gx = draw(st.lists(st.sampled_from(pairs), max_size=1))
    masks = [m for m in range(16) if bin(m).count("1") >= 3]
    h = draw(st.dictionaries(st.sampled_from(masks), st.integers(1, 3),
                             min_size=1, max_size=2))
    cg = CompressedGraph.make(4, gx, h)
    assume(sum(rep_cap(m, c) for m, c in cg.h) <= 3)
    return cg


# crossings the router may draw in the property below: no input forces
# more (distinct tags on four leaves force at most 1 a pair, and tags
# restricted to three shared leaves at most Z(3) = 1)
SOUNDNESS_BUDGET = 3


@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(tagged_covers())
@example(parse_compressed("4\nh 15 3\n"))
def test_forced_crossings_are_a_lower_bound(cg):
    """Every drawing the router emits for a rep set has at least the
    crossings its tags force, so the solver may skip a set whose forced
    crossings exceed its budget."""
    for _, sub in component_split(cg)[0]:
        for rs in enumerate_rep_sets(sub):
            forced = rs.forced_crossings()
            host = rs.host_graph(sub.gx_edges)
            for emb in enumerate_embeddings(host, rs.tags_by_vertex(),
                                            lambda: SOUNDNESS_BUDGET):
                assert dummy_count(emb) >= forced, rs
