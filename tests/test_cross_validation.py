"""The pipeline's router and the oracle's embedder are independent
implementations; on common ground they must produce identical drawing sets."""

import itertools
import random

from crossnum.drawing import structural_key, validate_good
from crossnum.enumeration import enumerate_embeddings
from crossnum.graphs import Graph, complete_bipartite, complete_graph

from oracle_reference import oracle_drawings


def router_keys(g, bound):
    keys = set()
    for emb in enumerate_embeddings(g, None, lambda: bound):
        d = emb.to_drawing(g)
        assert validate_good(d).ok
        keys.add(structural_key(d))
    return keys


def oracle_keys(g, bound):
    return {structural_key(d) for d in oracle_drawings(g, bound)}


def test_enumerators_agree_on_fixed_cases():
    cases = [
        (Graph((0, 1, 2), ((0, 1), (1, 2), (0, 2))), 1),
        (complete_graph(4), 1),
        (complete_bipartite(2, 3), 1),
        (Graph((0, 1, 2, 3, 4), ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))), 2),
        (complete_bipartite(3, 3), 1),
    ]
    for g, bound in cases:
        assert router_keys(g, bound) == oracle_keys(g, bound)


def test_enumerators_agree_on_random_graphs():
    rng = random.Random(11)
    done = 0
    while done < 8:
        n = rng.randrange(4, 6)
        edges = tuple(
            e for e in itertools.combinations(range(n), 2)
            if rng.random() < 0.55
        )
        g = Graph(tuple(range(n)), edges)
        if not g.is_connected() or len(edges) < 3:
            continue
        assert router_keys(g, 1) == oracle_keys(g, 1)
        done += 1
