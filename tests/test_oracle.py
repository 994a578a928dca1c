import hashlib

import pytest

from crossnum.drawing import crossing_count, structural_key, validate_good
from crossnum.graphs import Graph, complete_bipartite, complete_graph
from crossnum.oracle import OracleCeilingExceeded, OracleConfig, is_planar, oracle_cr

from drawing_reference import canonical_key
from oracle_reference import oracle_drawings
from smallgraphs import connected_graphs


def test_oracle_cr_named():
    assert oracle_cr(complete_graph(4)) == 0
    assert oracle_cr(complete_graph(5)) == 1
    assert oracle_cr(complete_bipartite(3, 3)) == 1
    assert oracle_cr(complete_bipartite(3, 4)) == 2


def test_oracle_k6():
    assert oracle_cr(complete_graph(6)) == 3


def test_oracle_planarity_agreement():
    for g in connected_graphs(5):
        assert (oracle_cr(g) == 0) == is_planar(g)


def test_oracle_ceiling_signal():
    with pytest.raises(OracleCeilingExceeded):
        oracle_cr(complete_graph(6), OracleConfig(max_crossings=2))
    with pytest.raises(OracleCeilingExceeded):
        oracle_cr(complete_graph(8), OracleConfig())


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
