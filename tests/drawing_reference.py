"""References for the drawing tests: the planarization's traced faces,
which `crossnum.drawing.structural_key` is checked against, the faces by
their definition, which `Emb.faces` is checked against, the Euler count
over `Emb.faces`, which `Emb.euler_ok` is checked against, and the
structural invariants of an embedding, which `Emb.add_drawing` meets by
construction on every table that `validate_good` accepts."""

from crossnum.drawing import CombinatorialDrawing
from crossnum.embedding import Emb


def all_darts(emb: Emb):
    """Both darts of every segment, in segment id order."""
    for sid in sorted(emb.segs):
        yield 2 * sid
        yield 2 * sid + 1


def dummy_count(emb: Emb) -> int:
    """The dummy nodes of the planarization, one per crossing."""
    return sum(1 for node in emb.rot if node < 0)


def validate_structure(emb: Emb):
    """Raise ValueError unless rings, chains and darts fit together."""
    for node, ring in emb.rot.items():
        if any(emb.segs[d >> 1][d & 1] != node for d in ring):
            raise ValueError(f"rotation at {node} holds a foreign dart")
        if len(set(ring)) != len(ring):
            raise ValueError(f"duplicate dart at {node}")
        if node < 0:
            edges = [emb.edge_of(d) for d in ring]
            if (len(ring) != 4 or edges[0] != edges[2]
                    or edges[1] != edges[3] or edges[0] == edges[1]):
                raise ValueError(f"dummy {node} does not cross two edges")
    for edge, chain in emb.chains.items():
        ends = [emb.segs[sid] for sid in chain]
        if (ends[0][0] != edge[0] or ends[-1][1] != edge[1]
                or any(p[1] != q[0] for p, q in zip(ends, ends[1:]))):
            raise ValueError(f"chain of {edge} is not a path")
    darts = set(all_darts(emb))
    in_rings = {d for ring in emb.rot.values() for d in ring}
    if darts != in_rings:
        raise ValueError("rotation rings do not cover all darts")


def faces_by_definition(emb: Emb) -> list:
    """The face cycles from the whole successor map: the dart after d ^ 1
    (the reversal of d) is the ring successor of d.  Each cycle is rotated
    to its least dart, and the cycles are listed in the order of those
    darts."""
    after = {}
    for ring in emb.rot.values():
        for i, d in enumerate(ring):
            after[d ^ 1] = ring[(i + 1) % len(ring)]
    out = []
    while after:
        start, d = after.popitem()
        cycle = [start]
        while d != start:
            cycle.append(d)
            d = after.pop(d)
        i = cycle.index(min(cycle))
        out.append(tuple(cycle[i:] + cycle[:i]))
    return sorted(out)


def euler_reference(emb: Emb) -> bool:
    """V - E + F == 2 on every component with an edge, with F counted by
    `Emb.faces` and the components by `Emb.components`."""
    isolated = sum(1 for ring in emb.rot.values() if not ring)
    comps = len(emb.components()) - isolated
    faces = len(emb.faces())
    return len(emb.rot) - isolated - len(emb.segs) + faces == 2 * comps


def _canonical_dart(emb: Emb, dart):
    seg, end = dart >> 1, dart & 1
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
