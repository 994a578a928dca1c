"""Paper-level properties checked against exhaustive oracle enumeration."""

import itertools

from crossnum.drawing import crossing_count, validate_good
from crossnum.graphs import complete_bipartite, compress
from crossnum.pipeline import crossing_number

from cluster_reference import WeightedClustering, clusters, noncluster_count
from oracle_reference import oracle_drawings


def test_noncluster_lemma_on_oracle_drawings():
    """Some clustering of every good drawing D has weighted crossing count
    at most the non-cluster crossings of D."""
    cases = [
        (complete_bipartite(2, 3), frozenset({0, 1}), 2),
        (complete_bipartite(3, 3), frozenset({0, 1, 2}), 2),
    ]
    for g, cover, cap in cases:
        for d in oracle_drawings(g, cap):
            part = clusters(d, cover)
            target = noncluster_count(d, cover)
            best = None
            for choice in itertools.product(
                *[cl.members for cl in part.clusters]
            ):
                keep = set(cover) | set(choice)
                sub = d.relabel({v: v for v in keep})
                weights = {
                    rep: part.clusters[i].size
                    for i, rep in enumerate(choice)
                }
                wc = WeightedClustering.make(sub, cover, weights)
                value = wc.weighted_crossing_number()
                best = value if best is None else min(best, value)
            assert best <= target, (g.edges, target, best)


def test_restrictions_of_good_drawings_stay_good():
    g = complete_bipartite(3, 3)
    for d in oracle_drawings(g, 1):
        sub = d.relabel({v: v for v in range(5)})
        assert validate_good(sub).ok
        assert crossing_count(sub) <= crossing_count(d)


def test_pipeline_equals_minimum_over_oracle_drawings():
    g = complete_bipartite(3, 3)
    cover = frozenset({0, 1, 2})
    oracle_min = min(crossing_count(d) for d in oracle_drawings(g, 2))
    assert crossing_number(compress(g, cover)).value == oracle_min
