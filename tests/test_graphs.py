import itertools
import time

import networkx as nx
import pytest

from crossnum.graphs import (
    CompressedGraph,
    CoverSizeExceeded,
    Graph,
    automorphisms,
    complete_bipartite,
    complete_graph,
    compress,
    expand,
    find_vertex_cover,
    format_compressed,
    format_edge_list,
    isomorphic,
    parse_compressed,
    parse_edge_list,
)

from smallgraphs import (
    canonical_form,
    graphs_up_to_iso,
    minimum_cover_size_bruteforce,
)


def fig2_graph():
    """Triangle cover; 5 vertices see all of it, 3 see vertices 0 and 2."""
    edges = [(0, 1), (0, 2), (1, 2)]
    nxt = 3
    for _ in range(5):
        edges += [(0, nxt), (1, nxt), (2, nxt)]
        nxt += 1
    for _ in range(3):
        edges += [(0, nxt), (2, nxt)]
        nxt += 1
    return Graph(tuple(range(nxt)), tuple(edges))


def test_graph_rejects_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph((0, 1), ((0, 0),))
    with pytest.raises(ValueError):
        Graph((0, 1), ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph((0, 1), ((0, 2),))


def test_cover_path():
    g = Graph((0, 1, 2), ((0, 1), (1, 2)))
    assert find_vertex_cover(g, 3) == frozenset({1})


def test_cover_k33_brute_force_agrees():
    g = complete_bipartite(3, 3)
    want = minimum_cover_size_bruteforce(g)
    got = find_vertex_cover(g, 6)
    assert len(got) == want == 3
    assert all(u in got or v in got for u, v in g.edges)
    sides = ({0, 1, 2}, {3, 4, 5})
    assert set(got) in sides


def test_cover_k5_brute_force_agrees():
    g = complete_graph(5)
    want = minimum_cover_size_bruteforce(g)
    got = find_vertex_cover(g, 5)
    assert len(got) == want == 4
    assert all(u in got or v in got for u, v in g.edges)


def test_cover_size_exceeded():
    with pytest.raises(CoverSizeExceeded):
        find_vertex_cover(complete_graph(5), 3)


def test_cover_lexicographic_tiebreak():
    # 4-cycle: minimum covers {0,2} and {1,3}; lexicographically least wins
    g = Graph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3), (0, 3)))
    assert sorted(find_vertex_cover(g, 4)) == [0, 2]


def test_cover_minimality_exhaustive_small():
    # brute-force cross-check: everything on <= 5 vertices, a slice of the
    # 6-vertex catalogue, and deterministic random 7- and 8-vertex graphs
    import random

    pool = []
    for n in range(1, 6):
        pool += graphs_up_to_iso(n)
    pool += graphs_up_to_iso(6)[::7]
    rng = random.Random(2026)
    for n in (7, 8):
        for _ in range(60):
            edges = [
                e for e in itertools.combinations(range(n), 2)
                if rng.random() < 0.4
            ]
            pool.append(Graph(tuple(range(n)), tuple(edges)))
    for g in pool:
        want = minimum_cover_size_bruteforce(g)
        assert len(find_vertex_cover(g, len(g.vertices))) == want


def test_compress_fig2():
    g = fig2_graph()
    cg = compress(g, frozenset({0, 1, 2}))
    assert cg.k == 3
    assert cg.gx_edges == ((0, 1), (0, 2), (1, 2))
    assert cg.h_map == {7: 5, 5: 3}


def test_compress_k3n():
    g = complete_bipartite(3, 6)
    cg = compress(g, frozenset({0, 1, 2}))
    assert cg.gx_edges == ()
    assert cg.h_map == {7: 6}


def test_compress_empty_cover_isolated():
    g = Graph((0, 1, 2, 3), ())
    cg = compress(g, frozenset())
    assert cg.k == 0 and cg.h_map == {0: 4}


def test_compress_rejects_non_cover():
    g = complete_bipartite(2, 2)
    with pytest.raises(ValueError):
        compress(g, frozenset({0}))


def test_expand_k23():
    cg = CompressedGraph.make(2, (), {3: 3})
    assert isomorphic(expand(cg), complete_bipartite(2, 3))


def test_expand_fig2_edge_count():
    g = fig2_graph()
    cg = compress(g, frozenset({0, 1, 2}))
    out = expand(cg)
    assert len(out.vertices) == 11
    assert len(out.edges) == 24


def test_expand_identity_when_h_empty():
    cg = CompressedGraph.make(3, ((0, 1), (1, 2)), {})
    out = expand(cg)
    assert out.edges == ((0, 1), (1, 2))


def test_round_trip_isomorphic():
    cases = [
        complete_bipartite(3, 4),
        complete_graph(5),
        fig2_graph(),
        Graph((0, 1, 2, 3, 4), ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2))),
    ]
    for g in cases:
        cover = find_vertex_cover(g, len(g.vertices))
        cg = compress(g, cover)
        back = expand(cg)
        assert isomorphic(back, g)
        # and compressing the expansion with the canonical cover is stable
        cover2 = frozenset(range(cg.k))
        assert compress(back, cover2) == cg


def test_compressed_size_independent_of_n():
    small = CompressedGraph.make(3, (), {7: 5})
    huge = CompressedGraph.make(3, (), {7: 10**9})
    # identical structure except for the count's digits
    assert small.gx_edges == huge.gx_edges
    assert [m for m, _ in small.h] == [m for m, _ in huge.h]
    assert len(format_compressed(huge)) <= len(format_compressed(small)) + 12


def test_edge_list_format_round_trip():
    g = Graph((0, 1, 2, 7), ((0, 1), (1, 2)))
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    assert parse_edge_list("# comment\n1 2\n\n0 1\n") == Graph(
        (0, 1, 2), ((0, 1), (1, 2))
    )
    with pytest.raises(ValueError):
        parse_edge_list("1 2 3\n")


def test_compressed_rejects_repeated_gx_edge():
    with pytest.raises(ValueError, match="repeated G_X edge"):
        CompressedGraph.make(2, ((0, 1), (0, 1)), {})
    with pytest.raises(ValueError, match="repeated G_X edge"):
        parse_compressed("2\ngx 0 1\ngx 0 1\n")
    # repeated h lines still add up: an h count may be split over lines
    assert parse_compressed("3\nh 7 2\nh 7 3\n").h_map == {7: 5}


def test_from_edges_reads_a_generator_once():
    g = Graph.from_edges((u, u + 1) for u in range(4))
    assert g.vertices == (0, 1, 2, 3, 4)
    assert g.edges == ((0, 1), (1, 2), (2, 3), (3, 4))


def test_compressed_format_round_trip():
    cg = CompressedGraph.make(3, ((0, 1),), {7: 5, 5: 3})
    assert parse_compressed(format_compressed(cg)) == cg
    with pytest.raises(ValueError):
        parse_compressed("")


def test_canonical_form_and_automorphisms():
    g1 = Graph((0, 1, 2, 3), ((0, 1), (1, 2), (2, 3)))
    g2 = Graph((0, 1, 2, 3), ((3, 1), (1, 0), (0, 2)))
    assert canonical_form(g1) == canonical_form(g2)
    assert len(automorphisms(complete_graph(4))) == 24
    assert len(automorphisms(complete_bipartite(2, 2))) == 8


def test_isomorphic_is_fast_on_cubic_graphs():
    # non-isomorphic graphs with one degree sequence: backtracking over
    # degree classes took seconds on pairs like these
    g1, g2 = (Graph.from_edges(nx.random_regular_graph(3, 20, seed=s).edges)
              for s in (1, 2))
    start = time.perf_counter()
    assert isomorphic(g1, g2) is False
    assert time.perf_counter() - start < 1.0
    flipped = Graph.from_edges([(19 - u, 19 - v) for u, v in g1.edges])
    assert isomorphic(g1, flipped) is True
