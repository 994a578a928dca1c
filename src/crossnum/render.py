"""SVG rendering: straight-line layout of a drawing's planarization.

Coordinates are a barycentric (Tutte-style) relaxation with the largest
face pinned to a circle; purely a visualization aid, the combinatorial
drawing file remains the canonical artifact.  Output bytes are
deterministic for a fixed input.
"""

from __future__ import annotations

import math

from .drawing import CombinatorialDrawing, UnrealizableDrawing, validate_good

SIZE = 420  # width and height of the picture


def _node_order(node):
    """Sort key of a planarization node: vertices by id (a vertex is its id
    >= 0), then dummies by crossing id (crossing c is the node ~c)."""
    return (node < 0, ~node if node < 0 else node)


def _layout(emb):
    nodes = sorted(emb.rot, key=_node_order)
    faces = emb.faces()
    pos = {}
    if not faces:
        for i, n in enumerate(nodes):
            pos[n] = (math.cos(i), math.sin(i))
        return pos
    outer = max(faces, key=lambda f: (len(f), f))
    boundary = []
    for dart in outer:
        n = emb.segs[dart >> 1][dart & 1]
        if n not in boundary:
            boundary.append(n)
    m = len(boundary)
    for i, n in enumerate(boundary):
        ang = 2 * math.pi * i / m
        pos[n] = (math.cos(ang), math.sin(ang))
    inner = [n for n in nodes if n not in pos]
    for n in inner:
        pos[n] = (0.0, 0.0)
    neighbors = {n: [] for n in nodes}
    for a, b, _ in emb.segs.values():
        neighbors[a].append(b)
        neighbors[b].append(a)
    for _ in range(220):
        for n in inner:
            ns = neighbors[n]
            if not ns:
                continue
            x = sum(pos[w][0] for w in ns) / len(ns)
            y = sum(pos[w][1] for w in ns) / len(ns)
            pos[n] = (x, y)
    # deterministic nudge for any coincident points (cut vertices etc.)
    seen = {}
    for i, n in enumerate(nodes):
        key = (round(pos[n][0], 9), round(pos[n][1], 9))
        if key in seen:
            bump = 0.03 * (seen[key])
            pos[n] = (pos[n][0] + bump, pos[n][1] + bump * 0.618)
            seen[key] += 1
        else:
            seen[key] = 1
    return pos


def render_svg(d: CombinatorialDrawing) -> str:
    """Render the drawing; crossings appear at their dummy coordinates."""
    rep = validate_good(d)
    if not rep.ok:
        raise UnrealizableDrawing(rep.violation)
    emb = d.emb()
    pos = _layout(emb)

    def sx(p):
        return (p[0] * 0.42 + 0.5) * SIZE

    def sy(p):
        return (p[1] * 0.42 + 0.5) * SIZE

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    for sid in sorted(emb.segs):
        a, b, _ = emb.segs[sid]
        lines.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
            'stroke="black" stroke-width="1.2"/>'
            % (sx(pos[a]), sy(pos[a]), sx(pos[b]), sy(pos[b]))
        )
    for n in sorted(emb.rot, key=_node_order):
        x, y = sx(pos[n]), sy(pos[n])
        if n >= 0:
            lines.append(
                '<circle cx="%.2f" cy="%.2f" r="5" fill="black" '
                'class="vertex"/>' % (x, y)
            )
            lines.append(
                '<text x="%.2f" y="%.2f" font-size="10" fill="red">%s</text>'
                % (x + 6, y - 6, n)
            )
        else:
            lines.append(
                '<rect x="%.2f" y="%.2f" width="6" height="6" '
                'fill="none" stroke="blue" class="crossing"/>'
                % (x - 3, y - 3)
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
