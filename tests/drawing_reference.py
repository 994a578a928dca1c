"""Reference equivalence key for the drawing tests: the planarization's
traced faces, which `crossnum.drawing.structural_key` is checked against."""

from crossnum.drawing import CombinatorialDrawing
from crossnum.embedding import Emb


def _canonical_dart(emb: Emb, dart):
    seg, end = dart
    a, b, edge = emb.segs[seg]
    k = emb.chains[edge].index(seg)
    return (edge, k, end)


def canonical_faces(emb: Emb) -> tuple:
    """Face cycles with segment-position dart names, each cycle rotated to
    its lexicographic minimum, and the collection sorted."""
    out = []
    for cyc in emb.faces():
        named = [_canonical_dart(emb, dd) for dd in cyc]
        best = min(
            tuple(named[i:] + named[:i]) for i in range(len(named))
        )
        out.append(best)
    return tuple(sorted(out))


def canonical_key(d: CombinatorialDrawing):
    """Equivalence key: crossing pairs with per-edge orders, plus the
    planarization's face collection.  Mirror images get distinct keys."""
    pairs = d.crossing_pairs
    seq_key = tuple(
        (e, tuple(pairs[c] for c in seq)) for e, seq in d.sequences
    )
    return (seq_key, canonical_faces(d.emb()))
