"""Reference enumerators for the tests: the crossing number straight from
its definition, and every good drawing of a small graph with at most c
crossings, up to equivalence.

Independent of the solver's router: candidate crossing configurations are
every set of crossing pairs with every order along each edge, tested with
`crossnum.oracle`'s planarization and networkx's planarity test, and each
configuration's embeddings are built by a face-insertion routine of their
own.
"""

import itertools

import networkx as nx

from crossnum.drawing import CombinatorialDrawing, canonical_cycle, structural_key
from crossnum.graphs import Graph
from crossnum.oracle import (
    OracleCeilingExceeded,
    _nonadjacent_pairs,
    _order_assignments,
    _planarization_nx,
)


# ---------------------------------------------------------------------------
# definition-level crossing number


def plain_oracle_cr(g: Graph, max_crossings: int) -> int:
    """Least c such that some c crossing pairs, in some order along each
    edge, have a planar planarization: every pair set and every order, with
    no symmetry reduction and no prune."""
    pairs = _nonadjacent_pairs(g)
    for c in range(max_crossings + 1):
        for pair_set in itertools.combinations(pairs, c):
            for orders in _order_assignments(pair_set):
                ng = _planarization_nx(g, pair_set, orders)
                if nx.check_planarity(ng, counterexample=False)[0]:
                    return c
    raise OracleCeilingExceeded(
        f"no drawing found with <= {max_crossings} crossings"
    )


# ---------------------------------------------------------------------------
# exhaustive drawing enumeration


def _embeddings(nodes, edges, prune=None, favored=()):
    """All sphere embeddings of a simple connected graph, as rotation maps.

    Face-insertion enumeration with incremental face bookkeeping: each edge
    is drawn inside one face of the partial embedding (splitting it), so
    every produced rotation system is planar and every planar embedding
    arises exactly once.  `prune(rot)` may reject partial rotations early;
    edges touching `favored` vertices are inserted first so such pruning
    bites soon.
    """
    order = []
    placed = set()
    fav = list(favored)
    degree_left: dict = {}
    for a, b in edges:
        degree_left[a] = degree_left.get(a, 0) + 1
        degree_left[b] = degree_left.get(b, 0) + 1

    def rank(e):
        r = [fav.index(v) for v in e if v in fav]
        return min(r) if r else len(fav)

    def dummy_hunger(e):
        # prefer edges that move a crossing dummy toward completion, so the
        # alternation prune can cut subtrees early
        h = 0
        for v in e:
            if isinstance(v, tuple):
                h = min(h, -4 + degree_left[v])
        return h

    remaining = sorted(edges, key=lambda e: (_nkey(e[0]), _nkey(e[1])))

    def pick():
        touching = [e for e in remaining if e[0] in placed or e[1] in placed]
        pool = touching or remaining
        return min(
            pool,
            key=lambda e: (
                rank(e), dummy_hunger(e), _nkey(e[0]), _nkey(e[1])
            ),
        )

    while remaining:
        e = pick()
        order.append(e)
        remaining.remove(e)
        for v in e:
            degree_left[v] -= 1
        placed.update(e)

    rot: dict = {v: [] for v in nodes}
    faces: dict = {}  # face id -> tuple of darts (u, v)
    where: dict = {}  # dart -> face id
    counter = [0]
    results = []

    def trace(d0):
        cyc = [d0]
        append = cyc.append
        u, v = d0
        while True:
            ring = rot[v]
            w = ring[(ring.index(u) + 1) % len(ring)]
            d = (v, w)
            if d == d0:
                return tuple(cyc)
            append(d)
            u, v = v, w

    def add_face(cyc):
        counter[0] += 1
        fid = counter[0]
        faces[fid] = cyc
        for d in cyc:
            where[d] = fid
        return fid

    def drop_face(fid):
        get = where.get
        for d in faces.pop(fid):
            if get(d) == fid:
                del where[d]

    def place(idx):
        if idx == len(order):
            results.append({v: tuple(r) for v, r in rot.items()})
            return
        u, v = order[idx]
        if not rot[u] and rot[v]:
            u, v = v, u
        if not rot[u]:
            # first edge of the component: its own two-dart face
            rot[u].append(v)
            rot[v].append(u)
            fid = add_face(((u, v), (v, u)))
            if prune is None or prune(rot):
                place(idx + 1)
            drop_face(fid)
            rot[u].clear()
            rot[v].clear()
            return
        ring_u = rot[u]
        for upos in range(len(ring_u)):
            fid = where[(u, ring_u[upos])]
            if not rot[v]:
                v_opts = [0]
            else:
                ring_v = rot[v]
                v_opts = [
                    p for p in range(len(ring_v))
                    if where[(v, ring_v[p])] == fid
                ]
            for vpos in v_opts:
                old_cycle = faces[fid]
                rot[u].insert(upos, v)
                if rot[v]:
                    rot[v].insert(vpos, u)
                    spur = False
                else:
                    rot[v].append(u)
                    spur = True
                drop_face(fid)
                c1 = trace((u, v))
                new = [add_face(c1)]
                if (v, u) not in c1:
                    new.append(add_face(trace((v, u))))
                if prune is None or prune(rot):
                    place(idx + 1)
                for nf in new:
                    drop_face(nf)
                for d in old_cycle:
                    where[d] = fid
                faces[fid] = old_cycle
                rot[u].remove(v)
                rot[v].remove(u)

    place(0)
    return results


def _component_split_simple(nodes, edges):
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    comps = []
    for s in nodes:
        if s in seen:
            continue
        comp = {s}
        seen.add(s)
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp, key=_nkey))
    return comps


def _cyclic_subseq(partial, full):
    if len(partial) <= 2:
        return set(partial) <= set(full)
    n = len(full)
    for off in range(n):
        spin = full[off:] + full[:off]
        it = iter(spin)
        if all(x in it for x in partial):
            return True
    return False


def _equal_rotation_prune(g, chains, pairs):
    """Early rejection callback for partially built embeddings."""
    neighbor_of = {}
    degree = {}
    for x, y in pairs:
        for v in (x, y):
            m = {}
            for e in g.edges:
                if v not in e:
                    continue
                chain = chains[e]
                first = chain[1] if chain[0] == v else chain[-2]
                m[first] = e[1] if e[0] == v else e[0]
            neighbor_of[v] = m
            degree[v] = len(m)

    def prune(rot):
        for x, y in pairs:
            mx, my = neighbor_of[x], neighbor_of[y]
            rx = tuple(mx[n] for n in rot.get(x, ()) if n in mx)
            ry = tuple(my[n] for n in rot.get(y, ()) if n in my)
            fx, fy = len(rx) == degree[x], len(ry) == degree[y]
            if fx and fy:
                if canonical_cycle(rx) != canonical_cycle(ry):
                    return False
            elif fx and not _cyclic_subseq(ry, rx):
                return False
            elif fy and not _cyclic_subseq(rx, ry):
                return False
        return True

    return prune


def _alternation_prune(chains):
    """Reject embeddings whose completed dummies do not alternate edges."""
    parent = {}
    for e, chain in chains.items():
        for i, n in enumerate(chain):
            if isinstance(n, tuple):
                parent.setdefault(n, {})[chain[i - 1]] = e
                parent[n][chain[i + 1]] = e

    def prune(rot):
        for x, nbrs in parent.items():
            ring = rot.get(x, ())
            if len(ring) == 4:
                ps = [nbrs[n] for n in ring]
                if ps[0] != ps[2] or ps[1] != ps[3]:
                    return False
        return True

    return prune


def _drawings_for_config(g: Graph, pair_set, orders, equal_rotations=()):
    """All good drawings realizing one crossing configuration."""
    chains = {}
    for e in g.edges:
        chains[e] = [e[0]] + [("x", i) for i in orders.get(e, ())] + [e[1]]
    nodes = sorted(
        set(g.vertices) | {("x", i) for i in range(len(pair_set))},
        key=lambda n: (isinstance(n, tuple), n),
    )
    pedges = set()
    for chain in chains.values():
        for a, b in zip(chain, chain[1:]):
            pedges.add((a, b) if _nkey(a) < _nkey(b) else (b, a))
    alt = _alternation_prune(chains) if pair_set else None
    eq = (
        _equal_rotation_prune(g, chains, equal_rotations)
        if equal_rotations
        else None
    )
    if alt and eq:
        def prune(rot, _a=alt, _e=eq):
            return _a(rot) and _e(rot)
    else:
        prune = alt or eq
    favored = []
    for pr in equal_rotations:
        for v in pr:
            if v not in favored:
                favored.append(v)
    comps = _component_split_simple(nodes, pedges)
    streams = []
    for comp in comps:
        cs = set(comp)
        ce = sorted(
            (e for e in pedges if e[0] in cs and e[1] in cs),
            key=lambda e: (_nkey(e[0]), _nkey(e[1])),
        )
        streams.append(
            _embeddings(
                comp, ce, prune=prune,
                favored=[v for v in favored if v in cs],
            )
        )
    for combo in itertools.product(*streams):
        rot = {}
        for part in combo:
            rot.update(part)
        d = _config_drawing(g, pair_set, chains, rot)
        if d is not None:
            yield d


def _nkey(n):
    return (1, n) if isinstance(n, tuple) else (0, (n,))


def _config_drawing(g, pair_set, chains, rot):
    """Check dummy alternation and convert a rotation map to a drawing."""
    seqs = {}
    where = {}
    for e, chain in chains.items():
        seqs[e] = tuple(n[1] for n in chain[1:-1])
        for i, n in enumerate(chain):
            if isinstance(n, tuple):
                where[(e, n[1])] = (chain[i - 1], chain[i + 1])
    orients = {}
    for i, (e, f) in enumerate(pair_set):
        x = ("x", i)
        ring = rot[x]
        ep, en = where[(e, i)]
        fp, fn = where[(f, i)]
        if {ring[0], ring[2]} not in ({ep, en}, {fp, fn}):
            return None  # the two edges do not alternate: a touch, not a crossing
        j = ring.index(ep)
        orients[i] = 0 if ring[(j + 1) % 4] == fp else 1
    rots = {}
    for v in g.vertices:
        ring = rot.get(v, ())
        out = []
        for n in ring:
            if isinstance(n, tuple):
                # neighbor through a dummy: walk the chain to the far vertex
                e = next(
                    ee
                    for ee, chain in chains.items()
                    if v in (chain[0], chain[-1]) and n in chain
                )
                out.append(e[1] if e[0] == v else e[0])
            else:
                if (min(v, n), max(v, n)) in seqs and not seqs[(min(v, n), max(v, n))]:
                    out.append(n)
                else:
                    e = next(
                        ee
                        for ee, chain in chains.items()
                        if (v, n) in ((chain[0], chain[1]), (chain[-1], chain[-2]))
                    )
                    out.append(e[1] if e[0] == v else e[0])
        rots[v] = tuple(out)
    return CombinatorialDrawing.make(g, seqs, rots, orients)


def oracle_drawings(g: Graph, max_cr: int, equal_rotations=()):
    """All good drawings with at most max_cr crossings, up to equivalence.

    `equal_rotations`: (x, y) pairs that must share their neighbor cyclic
    order (used by the constrained two-star bound checks).
    """
    pairs = _nonadjacent_pairs(g)
    seen = set()
    out = []
    for c in range(0, max_cr + 1):
        for pair_set in itertools.combinations(pairs, c):
            for orders in _order_assignments(pair_set):
                ng = _planarization_nx(g, pair_set, orders)
                ok, _ = nx.check_planarity(ng, counterexample=False)
                if not ok:
                    continue
                for d in _drawings_for_config(
                    g, pair_set, orders, equal_rotations
                ):
                    good = all(
                        canonical_cycle(d.rot_map[x])
                        == canonical_cycle(d.rot_map[y])
                        for x, y in equal_rotations
                    )
                    if not good:
                        continue
                    key = structural_key(d)
                    if key in seen:
                        continue
                    seen.add(key)
                    out.append(d)
    return out
