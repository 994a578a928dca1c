import hashlib
import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnum import oracle
from crossnum.drawing import crossing_count, structural_key, validate_good
from crossnum.graphs import Graph, automorphisms, complete_bipartite, complete_graph
from crossnum.oracle import (
    OracleCeilingExceeded,
    _hits_below,
    _least_pair_sets,
    _nonadjacent_pairs,
    _order_assignments,
    _pair_permutations,
    _planar_edge_bound,
    _planarization_nx,
    is_planar,
    oracle_cr,
)

from drawing_reference import canonical_key
from oracle_reference import oracle_drawings, plain_oracle_cr
from smallgraphs import connected_graphs


def test_oracle_cr_named():
    assert oracle_cr(complete_graph(4)) == 0
    assert oracle_cr(complete_graph(5)) == 1
    assert oracle_cr(complete_bipartite(3, 3)) == 1
    assert oracle_cr(complete_bipartite(3, 4)) == 2
    assert oracle_cr(complete_bipartite(3, 5)) == 4


def test_oracle_k6():
    assert oracle_cr(complete_graph(6)) == 3


def test_oracle_planarity_agreement():
    for g in connected_graphs(5):
        assert (oracle_cr(g) == 0) == is_planar(g)


def test_oracle_ceiling_signal():
    with pytest.raises(OracleCeilingExceeded):
        oracle_cr(complete_graph(6), 2)
    with pytest.raises(OracleCeilingExceeded):
        oracle_cr(complete_graph(8))
    with pytest.raises(OracleCeilingExceeded):
        oracle_cr(complete_graph(4), -1)


def test_oracle_work_cap(monkeypatch):
    # K_{3,5} takes 597 712 units: 830 pair sets examined, each counted
    # once plus once per image under its 719 non-identity automorphisms,
    # and 112 planarity tests
    k35 = complete_bipartite(3, 5)
    monkeypatch.setattr(oracle, "MAX_WORK", 500_000)
    with pytest.raises(OracleCeilingExceeded, match="work cap"):
        oracle_cr(k35)
    monkeypatch.setattr(oracle, "MAX_WORK", 600_000)
    assert oracle_cr(k35) == 4


@pytest.mark.parametrize("g", [
    complete_graph(5),
    complete_bipartite(3, 3),
    Graph.from_edges(complete_graph(5).edges + ((4, 5),)),
], ids=["K5", "K33", "K5+pendant"])
def test_least_pair_sets_are_one_per_orbit(g):
    """Orderly generation yields exactly the least member of every orbit
    of pair sets of size <= 3, each once, by size then lexicographically."""
    pairs = _nonadjacent_pairs(g)
    index = {pr: i for i, pr in enumerate(pairs)}

    def moved(sigma, pair):
        e, f = (tuple(sorted((sigma[u], sigma[v]))) for u, v in pair)
        return index[min(e, f), max(e, f)]

    autos = automorphisms(g)
    least = {
        min(tuple(sorted(moved(sigma, pairs[i]) for i in s)) for sigma in autos)
        for c in range(1, 4)
        for s in itertools.combinations(range(len(pairs)), c)
    }
    got = list(_least_pair_sets(_pair_permutations(g, pairs), len(pairs), 3,
                                lambda units: None))
    assert got == sorted(least, key=lambda s: (len(s), s))


def _value_or_ceiling(oracle, *args):
    try:
        return oracle(*args)
    except OracleCeilingExceeded:
        return "ceiling"


def test_reduced_search_matches_definition():
    """The orbit-wise, Euler-pruned search against every pair set and
    every order."""
    for g in connected_graphs(6):
        assert (_value_or_ceiling(oracle_cr, g, 2)
                == _value_or_ceiling(plain_oracle_cr, g, 2)), g.edges


@st.composite
def nonplanar_graph_and_pair_set(draw):
    """K5 or K_{3,3} plus random edges on 6 or 7 vertices, and 1 to 5 of
    its crossing pairs."""
    n = draw(st.integers(6, 7))
    base = draw(st.sampled_from([complete_graph(5), complete_bipartite(3, 3)]))
    others = [e for e in itertools.combinations(range(n), 2)
              if e not in base.edge_set]
    extra = draw(st.lists(st.sampled_from(others), unique=True))
    g = Graph(tuple(range(n)), base.edges + tuple(extra))
    pairs = _nonadjacent_pairs(g)
    chosen = draw(st.sets(st.sampled_from(pairs), min_size=1, max_size=5))
    return g, tuple(sorted(chosen))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(nonplanar_graph_and_pair_set())
def test_euler_prune_is_sound(case):
    g, pair_set = case
    need = len(g.edges) - _planar_edge_bound(g)
    fewest = min(
        r for r in range(len(pair_set) + 1)
        for hit in itertools.combinations(g.edges, r)
        if all(e in hit or f in hit for e, f in pair_set)
    )
    assert _hits_below(pair_set, need) == (fewest < need)
    if fewest < need:
        for orders in _order_assignments(pair_set):
            ng = _planarization_nx(g, pair_set, orders)
            assert not nx.check_planarity(ng, counterexample=False)[0]


def test_oracle_drawings_triangle():
    t = Graph((0, 1, 2), ((0, 1), (1, 2), (0, 2)))
    assert len(oracle_drawings(t, 0)) == 1


def test_oracle_drawings_k23_embeddings():
    ds = oracle_drawings(complete_bipartite(2, 3), 0)
    assert len(ds) == 2
    r0 = dict(ds[0].rotations)
    r1 = dict(ds[1].rotations)
    assert r0[0] != r1[0] or r0[1] != r1[1]


def test_oracle_drawings_disjoint_edges():
    g = Graph((0, 1, 2, 3), ((0, 1), (2, 3)))
    ds = oracle_drawings(g, 1)
    counts = sorted(crossing_count(d) for d in ds)
    assert counts == [0, 1, 1]


def test_oracle_drawings_all_valid_and_distinct():
    ds = oracle_drawings(complete_bipartite(3, 3), 2)
    keys = set()
    for d in ds:
        assert validate_good(d).ok
        k = canonical_key(d)
        assert k not in keys
        keys.add(k)


def test_oracle_drawings_min_matches_cr():
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        ds = oracle_drawings(g, 2)
        assert min(crossing_count(d) for d in ds) == oracle_cr(g) == 1


@pytest.mark.parametrize("g, max_cr, count, digest", [
    (complete_bipartite(3, 3), 3, 792,
     "f38b8a2c890e6cafbcab52c95077f033e0172ff2020ecbddf07885d8e70cbbc9"),
    (complete_graph(5), 1, 30,
     "3deaffa8f4ca3a7876b6a4f09fba3a83602c095bb139a848066960dcc86460f4"),
    (Graph((0, 1, 2, 3), ((0, 1), (2, 3))), 1, 3,
     "c4ec137f159760b7215f1af3f45b838143ede6d76e3e9f32ee30545be456acd7"),
])
def test_oracle_drawings_pinned(g, max_cr, count, digest):
    """The drawing count and a sha256 over the sorted structural keys, as
    the exhaustive enumerator gives them: a rewrite must reproduce both."""
    keys = sorted(repr(structural_key(d)) for d in oracle_drawings(g, max_cr))
    got = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert (len(keys), got) == (count, digest)
