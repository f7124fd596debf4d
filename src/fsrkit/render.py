"""Deterministic SVG rendering of subdivision complexes and spines.

Layout: one tile is chosen as the outer face, its corners pinned on a
circle, and interior vertices placed by the Tutte barycentric method.
Multiple edges and loops are drawn as quadratic curves fanned around the
straight chord.  Spine edges are drawn through tile barycenters.
"""

from __future__ import annotations

import math

import numpy as np

from .complexes import MINUS, PLUS, SphereComplex, dual_skeleton
from .errors import BudgetExceeded
from .rules import LeveledComplex, SubdivisionRule, VertexClass

RENDER_CELL_BUDGET = 10_000
SIZE = 640.0
M = 40.0


def _outer_tile(cx: SphereComplex) -> str:
    return max(sorted(cx.tiles), key=lambda t: (len(cx.tiles[t]), t))


def layout(cx: SphereComplex) -> dict[str, tuple[float, float]]:
    """Vertex positions: pinned outer walk plus Tutte barycentric interior."""
    if len(cx.vertices) + len(cx.edges) + len(cx.tiles) > RENDER_CELL_BUDGET:
        raise BudgetExceeded("complex too large to render",
                             reached=RENDER_CELL_BUDGET)
    outer = _outer_tile(cx)
    walk = cx.tiles[outer]
    boundary: list[str] = []
    for d in walk:
        v = cx.tail(d)
        if v not in boundary:
            boundary.append(v)
    n = len(boundary)
    pos: dict[str, tuple[float, float]] = {}
    r = SIZE / 2 - M
    for i, v in enumerate(boundary):
        ang = 2 * math.pi * i / max(n, 1) - math.pi / 2
        pos[v] = (SIZE / 2 + r * math.cos(ang), SIZE / 2 + r * math.sin(ang))
    interior = [v for v in cx.vertices if v not in pos]
    if interior:
        idx = {v: i for i, v in enumerate(interior)}
        a = np.zeros((len(interior), len(interior)))
        bx = np.zeros(len(interior))
        by = np.zeros(len(interior))
        deg = {v: 0 for v in interior}
        for (t, h) in cx.edges.values():
            for u, w in ((t, h), (h, t)):
                if u in idx:
                    deg[u] += 1
                    if w in idx:
                        a[idx[u], idx[w]] -= 1.0
                    else:
                        bx[idx[u]] += pos[w][0]
                        by[idx[u]] += pos[w][1]
        for v in interior:
            a[idx[v], idx[v]] = max(deg[v], 1)
        try:
            xs = np.linalg.solve(a, bx)
            ys = np.linalg.solve(a, by)
        except np.linalg.LinAlgError:
            xs, *_ = np.linalg.lstsq(a, bx, rcond=None)
            ys, *_ = np.linalg.lstsq(a, by, rcond=None)
        for v in interior:
            pos[v] = (float(xs[idx[v]]), float(ys[idx[v]]))
    return pos


def _edge_paths(cx: SphereComplex, pos) -> dict[str, str]:
    """SVG path data per edge, fanning parallel edges and loops."""
    groups: dict[tuple[str, str], list[str]] = {}
    for e, (t, h) in sorted(cx.edges.items()):
        groups.setdefault(tuple(sorted((t, h))), []).append(e)
    out: dict[str, str] = {}
    for (u, w), edges in groups.items():
        x1, y1 = pos[u]
        x2, y2 = pos[w]
        if u == w:
            for k, e in enumerate(edges):
                rr = 24.0 + 18.0 * k
                out[e] = (f"M {x1:.2f} {y1:.2f} "
                          f"c {rr:.2f} {-rr:.2f} {rr:.2f} {rr:.2f} 0 0")
            continue
        mx, my = (x1 + x2) / 2, (y1 + y2) / 2
        dx, dy = x2 - x1, y2 - y1
        norm = math.hypot(dx, dy) or 1.0
        nx, ny = -dy / norm, dx / norm
        for k, e in enumerate(edges):
            off = (k - (len(edges) - 1) / 2) * 30.0
            cxp, cyp = mx + nx * off, my + ny * off
            out[e] = (f"M {x1:.2f} {y1:.2f} Q {cxp:.2f} {cyp:.2f} "
                      f"{x2:.2f} {y2:.2f}")
    return out


def render_complex(cx: SphereComplex,
                   classes: VertexClass | None = None,
                   spine_edges: frozenset[str] = frozenset(),
                   spine_half_darts: tuple = (),
                   title: str = "") -> str:
    """SVG 1.1 text for the complex, optionally with a spine overlay."""
    pos = layout(cx)
    paths = _edge_paths(cx, pos)
    dual = dual_skeleton(cx)
    bary: dict[str, tuple[float, float]] = {}
    for t, walk in cx.tiles.items():
        pts = [pos[cx.tail(d)] for d in walk]
        bary[t] = (sum(p[0] for p in pts) / len(pts),
                   sum(p[1] for p in pts) / len(pts))
    outer = _outer_tile(cx)
    bary[outer] = (SIZE - M / 2, M / 2)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SIZE:.0f}" height="{SIZE:.0f}" '
        f'viewBox="0 0 {SIZE:.0f} {SIZE:.0f}">',
        f'<rect width="{SIZE:.0f}" height="{SIZE:.0f}" fill="white"/>',
    ]
    if title:
        lines.append(f'<text x="{M:.0f}" y="{M / 2 + 6:.0f}" '
                     f'font-size="14" font-family="monospace">{title}</text>')
    for e, d in sorted(paths.items()):
        lines.append(f'<path d="{d}" fill="none" stroke="#777" '
                     'stroke-width="1.5"/>')
    # spine overlay through barycenters
    for e in sorted(spine_edges):
        a = bary[dual.dart_tile[(e, PLUS)]]
        b = bary[dual.dart_tile[(e, MINUS)]]
        lines.append(f'<path d="M {a[0]:.2f} {a[1]:.2f} L {b[0]:.2f} '
                     f'{b[1]:.2f}" fill="none" stroke="#c22" '
                     'stroke-width="3"/>')
    for d in sorted(spine_half_darts):
        t = dual.dart_tile[d]
        a = bary[t]
        e = d[0]
        b1 = bary[dual.dart_tile[(e, PLUS)]]
        b2 = bary[dual.dart_tile[(e, MINUS)]]
        mid = ((b1[0] + b2[0]) / 2, (b1[1] + b2[1]) / 2)
        lines.append(f'<path d="M {a[0]:.2f} {a[1]:.2f} L {mid[0]:.2f} '
                     f'{mid[1]:.2f}" fill="none" stroke="#c22" '
                     'stroke-width="3" stroke-dasharray="4 3"/>')
    for v in cx.vertices:
        x, y = pos[v]
        color = "#444"
        if classes is not None and v in classes.is_fatou:
            color = "#2a7" if classes.is_fatou[v] else "#d80"
        marked = v in cx.marked
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" '
                     f'r="{6 if marked else 4}" fill="{color}"/>')
        lines.append(f'<text x="{x + 8:.2f}" y="{y - 6:.2f}" font-size="12" '
                     f'font-family="monospace">{v}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_rule_level(rule: SubdivisionRule, lv: LeveledComplex,
                      classes: VertexClass | None = None,
                      spine=None) -> str:
    spine_edges = frozenset(spine.full_edges) if spine is not None else frozenset()
    halves = tuple(d for d in (spine.ends if spine is not None else ())
                   if d[0] not in spine_edges)
    title = f"{rule.name} level {lv.level}"
    return render_complex(lv.complex, classes, spine_edges, halves, title)
