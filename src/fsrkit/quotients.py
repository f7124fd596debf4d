"""Collapsible subcomplexes and quotient subdivision rules.

A collapsible subcomplex consists of a radical ideal of edge types and one
of tile types, closed as a subcomplex (boundary edges of its tiles are in
it), with every connected component simply connected.  Collapsing each
component (and each component of its level-1 preimage) to a point yields a
new subdivision rule on the same sphere; the edge/tile digraphs of the
quotient are the induced subgraphs on the surviving types.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Dart, MINUS, PLUS, SphereComplex, flip
from .digraphs import radical_closure
from .dynamics import (
    build_edge_digraph,
    build_tile_digraph,
    edge_growth_rate,
    has_polynomial_growth,
    julia_edges,
    julia_tiles,
)
from .errors import InternalInconsistency, UnsupportedRegime, ValidationFailure
from .rules import (
    EdgeImage,
    SubdivisionRule,
    TileImage,
    Tower,
    classify_vertices,
    require_valid_rule,
    validate_rule,
)


@dataclass(frozen=True)
class CollapsibleSubcomplex:
    edges: frozenset[str]
    tiles: frozenset[str]
    components: tuple[tuple[str, ...], ...]   # cell ids ("v:", "e:", "t:" tags)

    def is_empty(self) -> bool:
        return not self.edges and not self.tiles


def _subcomplex_components(cx: SphereComplex, edges: frozenset[str],
                           tiles: frozenset[str],
                           extra_vertices: frozenset[str] = frozenset()
                           ) -> list[dict]:
    """Connected components of the closed subcomplex spanned by the cells."""
    verts: set[str] = set(extra_vertices)
    for e in edges:
        t, h = cx.edges[e]
        verts.update((t, h))
    for t in tiles:
        for d in cx.tiles[t]:
            verts.add(cx.tail(d))

    nodes = ({f"v:{v}" for v in verts} | {f"e:{e}" for e in edges}
             | {f"t:{t}" for t in tiles})
    adj: dict[str, set[str]] = {n: set() for n in nodes}

    def link(a: str, b: str) -> None:
        adj[a].add(b)
        adj[b].add(a)

    for e in edges:
        t, h = cx.edges[e]
        link(f"e:{e}", f"v:{t}")
        link(f"e:{e}", f"v:{h}")
    for t in tiles:
        for (e, _) in cx.tiles[t]:
            if e in edges:
                link(f"t:{t}", f"e:{e}")
            else:
                raise ValidationFailure(
                    f"subcomplex tile {t} has boundary edge {e} outside the "
                    "edge set", check="subcomplex closure")

    comps: list[dict] = []
    seen: set[str] = set()
    for n0 in sorted(nodes):
        if n0 in seen:
            continue
        comp = {n0}
        stack = [n0]
        while stack:
            for m in adj[stack.pop()]:
                if m not in comp:
                    comp.add(m)
                    stack.append(m)
        seen |= comp
        comps.append({
            "cells": tuple(sorted(comp)),
            "vertices": {c[2:] for c in comp if c.startswith("v:")},
            "edges": {c[2:] for c in comp if c.startswith("e:")},
            "tiles": {c[2:] for c in comp if c.startswith("t:")},
        })
    return comps


def validate_collapsible(rule: SubdivisionRule, edges: frozenset[str],
                         tiles: frozenset[str]) -> CollapsibleSubcomplex:
    """Check the collapsibility conditions and assemble the subcomplex."""
    require_valid_rule(rule)
    cx = rule.level0
    unknown = (edges - set(cx.edges)) | (tiles - set(cx.tiles))
    if unknown:
        raise ValidationFailure(f"unknown cells {sorted(unknown)}",
                                check="subcomplex")

    eg = build_edge_digraph(rule)
    tg = build_tile_digraph(rule)
    if radical_closure(eg, edges) != set(edges):
        raise ValidationFailure("edge set is not a radical ideal of the "
                                "edge-subdivision digraph", check="radical ideal")
    if radical_closure(tg, tiles) != set(tiles):
        raise ValidationFailure("tile set is not a radical ideal of the "
                                "tile-subdivision digraph", check="radical ideal")
    for t in tiles:
        for (e, _) in cx.tiles[t]:
            if e not in edges:
                raise ValidationFailure(
                    f"tile {t} in the subcomplex has boundary edge {e} "
                    "outside it", check="subcomplex closure")
    if tiles == set(cx.tiles):
        raise ValidationFailure("subcomplex is the whole sphere",
                                check="subcomplex")

    comps = _subcomplex_components(cx, edges, tiles)
    for comp in comps:
        chi = (len(comp["vertices"]) - len(comp["edges"]) + len(comp["tiles"]))
        if chi != 1:
            raise ValidationFailure(
                f"component {comp['cells'][0]}... has Euler count {chi}; "
                "not simply connected", check="simply connected")
    return CollapsibleSubcomplex(frozenset(edges), frozenset(tiles),
                                 tuple(c["cells"] for c in comps))


def collapsible_from_julia_edges(rule: SubdivisionRule,
                                 marked: frozenset[str] | None = None,
                                 skip_levy_check: bool = False
                                 ) -> CollapsibleSubcomplex:
    """Collapsible subcomplex generated by Julia edges of polynomial growth.

    Adjoins, for each Jordan curve of collapsing edges, the closed Jordan
    domain all of whose tiles are Julia tiles containing no Fatou vertex and
    at most one marked point; errors when neither or both sides qualify.
    """
    from .spines import is_levy_free

    if not skip_levy_check:
        report = is_levy_free(rule, marked)
        if not report.levy_free:
            raise UnsupportedRegime(
                "rule has a Levy obstruction; the Julia-edge collapse "
                "requires a Levy-free rule")
    classes = classify_vertices(rule)
    marked = frozenset(marked) if marked is not None else rule.marked

    eg = build_edge_digraph(rule)
    seeds = {e for e in julia_edges(rule)
             if edge_growth_rate(rule, e).value == 1.0}
    x_edges = frozenset(radical_closure(eg, seeds))

    if not x_edges:
        return CollapsibleSubcomplex(frozenset(), frozenset(), ())

    # Jordan curves inside the edge set: vertex-simple cycles of X_E edges
    cx = rule.level0
    jtiles = julia_tiles(rule)
    x_tiles: set[str] = set()
    for cycle_edges in _simple_edge_cycles(cx, x_edges):
        side_a, side_b = _tile_sides(cx, cycle_edges)
        choices = []
        for side in (side_a, side_b):
            tiles = side["tiles"]
            if not tiles <= jtiles:
                continue
            inner = side["vertices"]
            if any(classes.is_fatou[v] for v in inner):
                continue
            dom_marked = (inner | _cycle_vertices(cx, cycle_edges)) & marked
            if len(dom_marked) > 1:
                continue
            if any(not classes.is_fatou[v] for v in dom_marked) or not dom_marked:
                choices.append(side)
        if len(choices) != 1:
            raise InternalInconsistency(
                f"Jordan curve {sorted(cycle_edges)}: {len(choices)} candidate "
                "collapsing sides; theorem hypotheses violated")
        x_tiles |= choices[0]["tiles"]

    return validate_collapsible(rule, x_edges, frozenset(x_tiles))


def _cycle_vertices(cx: SphereComplex, cycle_edges: frozenset[str]) -> set[str]:
    out = set()
    for e in cycle_edges:
        t, h = cx.edges[e]
        out.update((t, h))
    return out


def _simple_edge_cycles(cx: SphereComplex, edges: frozenset[str],
                        cap: int = 10_000) -> list[frozenset[str]]:
    """Vertex-simple cycles of the 1-skeleton supported on the edge set."""
    incid: dict[str, list[tuple[str, str]]] = {}
    for e in sorted(edges):
        t, h = cx.edges[e]
        incid.setdefault(t, []).append((e, h))
        incid.setdefault(h, []).append((e, t))
    cycles: set[frozenset[str]] = set()
    order = sorted(edges)
    for k, e0 in enumerate(order):
        t0, h0 = cx.edges[e0]
        if t0 == h0:
            cycles.add(frozenset({e0}))
            continue
        # paths from h0 back to t0 avoiding e0, using edges >= e0
        stack = [(h0, [e0], {t0, h0})]
        while stack:
            if len(cycles) > cap:
                raise InternalInconsistency("Jordan-curve enumeration cap hit")
            at, path, visited = stack.pop()
            for (e, nxt) in incid.get(at, []):
                if e in path or e < e0:
                    continue
                if nxt == t0:
                    cycles.add(frozenset(path + [e]))
                elif nxt not in visited:
                    stack.append((nxt, path + [e], visited | {nxt}))
    return sorted(cycles, key=sorted)


def _tile_sides(cx: SphereComplex, cycle_edges: frozenset[str]) -> tuple[dict, dict]:
    """Partition tiles and off-curve vertices by the two sides of a Jordan
    curve in the 1-skeleton (2-coloring across non-curve edges)."""
    loc = cx.dart_location()
    adj: dict[str, set[str]] = {t: set() for t in cx.tiles}
    for e in cx.edges:
        if e in cycle_edges:
            continue
        a = loc[(e, PLUS)][0]
        b = loc[(e, MINUS)][0]
        adj[a].add(b)
        adj[b].add(a)
    seed_a = loc[(min(cycle_edges), PLUS)][0]
    seed_b = loc[(min(cycle_edges), MINUS)][0]

    def bfs(seed: str) -> set[str]:
        comp = {seed}
        stack = [seed]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        return comp

    side_a = bfs(seed_a)
    side_b = bfs(seed_b)
    if side_a & side_b or len(side_a) + len(side_b) != len(cx.tiles):
        raise InternalInconsistency("edge cycle does not separate the tiles")

    cyc_verts = _cycle_vertices(cx, cycle_edges)

    def vertices_of(tiles: set[str]) -> set[str]:
        out = set()
        for t in tiles:
            for d in cx.tiles[t]:
                out.add(cx.tail(d))
        return out - cyc_verts

    return ({"tiles": side_a, "vertices": vertices_of(side_a)},
            {"tiles": side_b, "vertices": vertices_of(side_b)})


# ---------------------------------------------------------------------------
# quotient construction
# ---------------------------------------------------------------------------


@dataclass
class QuotientResult:
    rule: SubdivisionRule
    collapse_level0: dict[str, str]   # old cell id -> new id (collapsed -> q)
    collapse_level1: dict[str, str]


def _component_name(cells: tuple[str, ...]) -> str:
    return "q(" + min(c[2:] for c in cells) + ")"


def quotient_rule(rule: SubdivisionRule, x: CollapsibleSubcomplex
                  ) -> QuotientResult:
    """Collapse each component of X (and of its level-1 preimage) to a point."""
    require_valid_rule(rule)
    if x.is_empty():
        return QuotientResult(rule, {}, {})
    x = validate_collapsible(rule, x.edges, x.tiles)
    c0, c1 = rule.level0, rule.level1

    comps0 = _subcomplex_components(c0, x.edges, x.tiles)
    q0: dict[str, str] = {}      # collapsed level-0 cell -> new vertex id
    for comp in comps0:
        q = _component_name(comp["cells"])
        marked_in = comp["vertices"] & rule.marked
        if len(marked_in) > 1:
            raise ValidationFailure(
                f"component {q} collapses marked points {sorted(marked_in)}",
                check="marked collision")
        for v in comp["vertices"]:
            q0[f"v:{v}"] = q
        for e in comp["edges"]:
            q0[f"e:{e}"] = q
        for t in comp["tiles"]:
            q0[f"t:{t}"] = q

    def v0new(v: str) -> str:
        return q0.get(f"v:{v}", v)

    new_vertices0 = []
    for v in c0.vertices:
        if f"v:{v}" not in q0:
            new_vertices0.append(v)
    new_vertices0 += sorted({q for k, q in q0.items() if k.startswith("v:")})
    new_edges0 = {e: (v0new(t), v0new(h)) for e, (t, h) in c0.edges.items()
                  if e not in x.edges}
    new_tiles0 = {}
    for t, walk in c0.tiles.items():
        if t in x.tiles:
            continue
        pruned = tuple(d for d in walk if d[0] not in x.edges)
        if len(pruned) < 2:
            raise ValidationFailure(
                f"tile {t} degenerates to a walk of length {len(pruned)} "
                "after collapse", check="degenerate tile")
        new_tiles0[t] = pruned
    new_marked = frozenset(v0new(v) for v in rule.marked)
    level0q = SphereComplex(tuple(dict.fromkeys(new_vertices0)), new_edges0,
                            new_tiles0, new_marked)

    # level-1 preimage subcomplex
    x1_edges = frozenset(e1 for e1, img in rule.map_edges.items()
                         if img.edge in x.edges)
    x1_tiles = frozenset(t1 for t1, img in rule.map_tiles.items()
                         if img.tile in x.tiles)
    x1_extra_verts = frozenset(
        v1 for v1, img in rule.map_vertices.items()
        if f"v:{img}" in q0)
    comps1 = _subcomplex_components(c1, x1_edges, x1_tiles, x1_extra_verts)
    q1: dict[str, str] = {}
    for comp in comps1:
        q = "p(" + min(c[2:] for c in comp["cells"]) + ")"
        for kind in ("vertices", "edges", "tiles"):
            for cid in comp[kind]:
                q1[f"{kind[0]}:{cid}"] = q

    def v1new(v: str) -> str:
        return q1.get(f"v:{v}", v)

    new_vertices1 = [v for v in c1.vertices if f"v:{v}" not in q1]
    new_vertices1 += sorted({q for k, q in q1.items() if k.startswith("v:")})
    new_edges1 = {e: (v1new(t), v1new(h)) for e, (t, h) in c1.edges.items()
                  if e not in x1_edges}
    new_tiles1 = {}
    old_pruned_walk: dict[str, list[int]] = {}
    for t, walk in c1.tiles.items():
        if t in x1_tiles:
            continue
        keep = [i for i, d in enumerate(walk) if d[0] not in x1_edges]
        pruned = tuple(walk[i] for i in keep)
        if len(pruned) < 2:
            raise ValidationFailure(
                f"level-1 tile {t} degenerates after collapse",
                check="degenerate tile")
        new_tiles1[t] = pruned
        old_pruned_walk[t] = keep
    level1q = SphereComplex(tuple(dict.fromkeys(new_vertices1)), new_edges1,
                            new_tiles1, new_marked)

    # carriers and map for surviving cells; collapsed components become
    # vertices carried by / mapped to collapsed level-0 points
    comp_image: dict[str, str] = {}
    for comp in comps1:
        q = "p(" + min(c[2:] for c in comp["cells"]) + ")"
        imgs = set()
        for v in comp["vertices"]:
            imgs.add(q0.get("v:" + rule.map_vertices[v]))
        for e in comp["edges"]:
            imgs.add(q0.get("e:" + rule.map_edges[e].edge))
        for t in comp["tiles"]:
            imgs.add(q0.get("t:" + rule.map_tiles[t].tile))
        imgs.discard(None)
        if len(imgs) != 1:
            raise InternalInconsistency(
                f"level-1 component {q} maps into {len(imgs)} level-0 "
                "components")
        comp_image[q] = imgs.pop()

    def comp_carrier(comp: dict) -> tuple[str, str]:
        carriers: set[tuple[str, str]] = set()
        for v in comp["vertices"]:
            kind, ref = rule.carrier_vertices[v]
            carriers.add((kind, ref))
        for e in comp["edges"]:
            carriers.add(rule.carrier_edges[e])
        for t in comp["tiles"]:
            carriers.add(("tile", rule.carrier_tiles[t]))
        mapped: set[tuple[str, str]] = set()
        for kind, ref in carriers:
            key = f"{kind[0]}:{ref}"
            if key in q0:
                mapped.add(("vertex", q0[key]))
            else:
                mapped.add((kind, ref))
        tiles = [r for k, r in mapped if k == "tile"]
        edgesc = [r for k, r in mapped if k == "edge"]
        vertsc = [r for k, r in mapped if k == "vertex"]
        if len(tiles) > 1:
            raise ValidationFailure(
                "collapsed level-1 component spans two surviving tiles; the "
                "quotient is not a subdivision rule", check="quotient carrier")
        if tiles:
            return ("tile", tiles[0])
        if len(set(edgesc)) > 1:
            raise ValidationFailure(
                "collapsed level-1 component spans two surviving edges",
                check="quotient carrier")
        if edgesc:
            return ("edge", edgesc[0])
        if len(set(vertsc)) != 1:
            raise ValidationFailure(
                "collapsed level-1 component has no unique carrier vertex",
                check="quotient carrier")
        return ("vertex", vertsc[0])

    carrier_vertices: dict[str, tuple[str, str]] = {}
    carrier_edges: dict[str, tuple[str, str]] = {}
    carrier_tiles: dict[str, str] = {}
    map_vertices: dict[str, str] = {}
    map_edges: dict[str, EdgeImage] = {}
    map_tiles: dict[str, TileImage] = {}

    for comp in comps1:
        q = "p(" + min(c[2:] for c in comp["cells"]) + ")"
        if q not in carrier_vertices:
            carrier_vertices[q] = comp_carrier(comp)
            map_vertices[q] = comp_image[q]
    for v in c1.vertices:
        if f"v:{v}" in q1:
            continue
        kind, ref = rule.carrier_vertices[v]
        key = f"{kind[0]}:{ref}"
        carrier_vertices[v] = (("vertex", q0[key]) if key in q0
                               else (kind, ref))
        map_vertices[v] = rule.map_vertices[v]
    for e in c1.edges:
        if e in x1_edges:
            continue
        kind, ref = rule.carrier_edges[e]
        key = f"{kind[0]}:{ref}"
        if key in q0:
            raise InternalInconsistency(
                f"surviving level-1 edge {e} carried by collapsed cell {ref}")
        carrier_edges[e] = (kind, ref)
        map_edges[e] = rule.map_edges[e]
    for t in c1.tiles:
        if t in x1_tiles:
            continue
        ref = rule.carrier_tiles[t]
        if f"t:{ref}" in q0:
            raise InternalInconsistency(
                f"surviving level-1 tile {t} carried by collapsed tile {ref}")
        carrier_tiles[t] = ref
        img = rule.map_tiles[t]
        # realign: surviving positions correspond bijectively
        img_walk = c0.tiles[img.tile]
        keep_src = old_pruned_walk[t]
        keep_img = [j for j, d in enumerate(img_walk) if d[0] not in x.edges]
        i0 = keep_src[0]
        j0 = (i0 + img.align) % len(img_walk)
        map_tiles[t] = TileImage(img.tile, keep_img.index(j0))

    new_rule = SubdivisionRule(
        name=f"{rule.name}/quotient",
        level0=level0q,
        level1=level1q,
        carrier_vertices=carrier_vertices,
        carrier_edges=carrier_edges,
        carrier_tiles=carrier_tiles,
        map_vertices=map_vertices,
        map_edges=map_edges,
        map_tiles=map_tiles,
        metadata={**rule.metadata, "quotient_of": rule.name,
                  "collapsed_edges": tuple(sorted(x.edges)),
                  "collapsed_tiles": tuple(sorted(x.tiles))},
    )
    rep = validate_rule(new_rule)
    if not rep.ok:
        raise ValidationFailure(
            f"quotient of {rule.name} is not a valid rule: {rep.summary()}",
            check=rep.first_failure or "quotient")
    collapse0 = {k.split(":", 1)[1]: v for k, v in q0.items()}
    collapse1 = {k.split(":", 1)[1]: v for k, v in q1.items()}
    return QuotientResult(new_rule, collapse0, collapse1)


# ---------------------------------------------------------------------------
# isolating Julia vertices by adding Fatou vertex orbits
# ---------------------------------------------------------------------------


def edge_level_darts(tower: Tower, e: str, level: int, start: int = 0
                     ) -> list[Dart]:
    """Ordered level-n darts along a level-``start`` edge, tail to head."""
    darts: list[Dart] = [(e, PLUS)]
    for j in range(start, level):
        lv = tower.up_to(j)
        out: list[Dart] = []
        types = lv.by_id("edge", "type_cell")
        orients = lv.by_id("edge", "type_orient")
        for (eid, direction) in darts:
            path = tower.index.path[types[eid]]
            if j == 0:
                run = [(x, d) for (x, d) in path]
            else:
                run = [(f"{eid}/e.{x}", d) for (x, d) in path]
            if orients[eid] == MINUS:
                run = [flip(d2) for d2 in reversed(run)]
            if direction == MINUS:
                run = [flip(d2) for d2 in reversed(run)]
            out.extend(run)
        darts = out
    return darts


def vertex_sequence_on_edge(tower: Tower, e: str, level: int, start: int = 0
                            ) -> list[str]:
    """Level-n vertices along a level-``start`` edge in order, endpoints
    included."""
    lv = tower.up_to(level)
    darts = edge_level_darts(tower, e, level, start)
    seq = [lv.complex.tail(d) for d in darts]
    seq.append(lv.complex.head(darts[-1]))
    return seq


def _birth_level(tower: Tower, vid: str, max_level: int) -> int:
    for j in range(max_level + 1):
        if vid in tower.up_to(j).by_id("vertex", "fimage"):
            return j
    raise InternalInconsistency(f"vertex {vid} not found below level {max_level}")


def add_vertex_orbit(rule: SubdivisionRule, seed_points: list[tuple[str, int]]
                     ) -> SubdivisionRule:
    """Refine the rule by adding forward orbits of subdivision vertices.

    ``seed_points`` lists (level-n vertex id, level n).  The forward orbit of
    each seed is added to the level-0 vertex set, splitting the edges that
    host the new points; the level-1 complex is split compatibly at the
    preimages of all new points.
    """
    tower = Tower.of(rule)

    # forward orbits down to level 0, then inside the level-0 vertex set
    points: dict[str, int] = {}   # vertex id -> birth level
    for vid, lev in seed_points:
        cur, cl = vid, lev
        while cl > 0:
            if cur not in points or points[cur] > cl:
                points[cur] = cl
            cur = tower.up_to(cl).by_id("vertex", "fimage")[cur]
            cl -= 1
        # cur is now a level-0 vertex; its orbit already consists of vertices
    points = {v: l for v, l in points.items()
              if v not in set(rule.level0.vertices)}
    if not points:
        return rule
    level_max = max(points.values())

    # locate each new point on its hosting level-0 edge
    split0: dict[str, list[str]] = {}
    for vid, lev in sorted(points.items()):
        kind, host, _ = tower.ancestor(vid, "vertex", lev, 0)
        if kind != "edge":
            raise InternalInconsistency(
                f"orbit point {vid} lies inside a {kind}; edge expected")
        split0.setdefault(host, []).append(vid)
    for e0 in split0:
        seq = vertex_sequence_on_edge(tower, e0, level_max)
        pos = {v: i for i, v in enumerate(seq)}
        split0[e0] = sorted(split0[e0], key=lambda v: pos[v])

    # ---- level-0 complex with split edges ----------------------------------
    c0 = rule.level0
    seg0: dict[str, list[tuple[str, str, str]]] = {}   # edge -> (seg id, t, h)
    for e0, (t, h) in c0.edges.items():
        stops = [t] + split0.get(e0, []) + [h]
        if len(stops) == 2:
            seg0[e0] = [(e0, t, h)]
        else:
            seg0[e0] = [(f"{e0}#{i}", stops[i], stops[i + 1])
                        for i in range(len(stops) - 1)]
    new_vertices0 = list(c0.vertices) + sorted(points)
    new_edges0 = {sid: (t, h) for segs in seg0.values() for (sid, t, h) in segs}

    def expand_dart0(d: Dart) -> list[Dart]:
        segs = seg0[d[0]]
        run = [(sid, PLUS) for (sid, _, _) in segs]
        return run if d[1] == PLUS else [flip(x) for x in reversed(run)]

    new_tiles0 = {t: tuple(x for d in walk for x in expand_dart0(d))
                  for t, walk in c0.tiles.items()}
    level0n = SphereComplex(tuple(new_vertices0), new_edges0, new_tiles0,
                            c0.marked)

    # ---- level-1 complex split at preimages of the new points --------------
    # level-1 split points: vertices of f^{-1}(new vertex set), i.e. all
    # subdivision vertices whose one-step image is a refined level-0 vertex
    c1 = rule.level1
    hi = tower.up_to(level_max + 1)
    new_ids = set(points) | set(c0.vertices)
    w_points: dict[str, int] = {}
    for vid in hi.complex.vertices:
        if vid in c1.vertices:
            continue
        bl = _birth_level(tower, vid, level_max + 1)
        if tower.up_to(bl).by_id("vertex", "fimage")[vid] in new_ids:
            w_points[vid] = bl

    split1: dict[str, list[str]] = {}
    host1_of: dict[str, tuple[str, str]] = {}
    for vid, lev in sorted(w_points.items()):
        kind, host, _ = tower.ancestor(vid, "vertex", lev, 1)
        host1_of[vid] = (kind, host)
        if kind == "edge":
            split1.setdefault(host, []).append(vid)
        elif kind != "tile":
            raise InternalInconsistency(
                f"preimage point {vid} hosted by a vertex")
    order_level = max([level_max + 1] + [l for l in w_points.values()])
    for e1 in split1:
        seq = vertex_sequence_on_edge(tower, e1, order_level, start=1)
        pos = {v: i for i, v in enumerate(seq)}
        missing = [v for v in split1[e1] if v not in pos]
        if missing:
            raise InternalInconsistency(
                f"points {missing} not on the expansion of {e1}")
        split1[e1] = sorted(split1[e1], key=lambda v: pos[v])

    seg1: dict[str, list[tuple[str, str, str]]] = {}
    for e1, (t, h) in c1.edges.items():
        stops = [t] + split1.get(e1, []) + [h]
        if len(stops) == 2:
            seg1[e1] = [(e1, t, h)]
        else:
            seg1[e1] = [(f"{e1}#{i}", stops[i], stops[i + 1])
                        for i in range(len(stops) - 1)]
    new_vertices1 = list(c1.vertices) + sorted(
        v for v in w_points if v not in c1.vertices)
    new_edges1 = {sid: (t, h) for segs in seg1.values() for (sid, t, h) in segs}

    def expand_dart1(d: Dart) -> list[Dart]:
        segs = seg1[d[0]]
        run = [(sid, PLUS) for (sid, _, _) in segs]
        return run if d[1] == PLUS else [flip(x) for x in reversed(run)]

    new_tiles1 = {t: tuple(x for d in walk for x in expand_dart1(d))
                  for t, walk in c1.tiles.items()}
    level1n = SphereComplex(tuple(new_vertices1), new_edges1, new_tiles1,
                            c0.marked)

    # ---- carriers ----------------------------------------------------------
    carrier_vertices: dict[str, tuple[str, str]] = {}
    pos_on_edge0: dict[str, dict[str, int]] = {}

    def seg_of_point0(e0: str, vid: str) -> str:
        if e0 not in pos_on_edge0:
            seq = vertex_sequence_on_edge(tower, e0, order_level)
            pos_on_edge0[e0] = {v: i for i, v in enumerate(seq)}
        pos = pos_on_edge0[e0]
        stops = [c0.edges[e0][0]] + split0.get(e0, []) + [c0.edges[e0][1]]
        # find the segment whose endpoint interval contains vid
        for i in range(len(stops) - 1):
            if pos[stops[i]] < pos[vid] < pos[stops[i + 1]]:
                return seg0[e0][i][0]
        raise InternalInconsistency(f"point {vid} not interior to {e0}")

    for v1 in c1.vertices:
        kind, ref = rule.carrier_vertices[v1]
        if kind == "edge" and ref in split0:
            if v1 in points:
                carrier_vertices[v1] = ("vertex", v1)
            else:
                carrier_vertices[v1] = ("edge", seg_of_point0(ref, v1))
        else:
            carrier_vertices[v1] = (kind, ref)
    for vid in sorted(w_points):
        if vid in c1.vertices:
            continue
        if vid in points:
            carrier_vertices[vid] = ("vertex", vid)
            continue
        kind, host = host1_of[vid]
        if kind == "tile":
            carrier_vertices[vid] = ("tile", rule.carrier_tiles[host])
            continue
        # hosted by a level-1 edge: inherit through that edge's carrier
        ck, cref = rule.carrier_edges[host]
        if ck == "tile":
            carrier_vertices[vid] = ("tile", cref)
        else:
            carrier_vertices[vid] = (("vertex", vid) if vid in points
                                     else ("edge", seg_of_point0(cref, vid)))

    carrier_edges: dict[str, tuple[str, str]] = {}
    for e1 in c1.edges:
        kind, ref = rule.carrier_edges[e1]
        for (sid, t, h) in seg1[e1]:
            if kind == "tile" or ref not in split0:
                carrier_edges[sid] = (kind, ref)
            else:
                # the segment sits inside one level-0 segment of ref
                carrier_edges[sid] = ("edge", _seg_host(
                    tower, rule, c0, seg0, split0, ref, sid, t, h,
                    pos_on_edge0, order_level))
    carrier_tiles = dict(rule.carrier_tiles)

    # ---- map ----------------------------------------------------------------
    map_vertices: dict[str, str] = {}
    for v1 in c1.vertices:
        map_vertices[v1] = rule.map_vertices[v1]
    for vid in sorted(w_points):
        if vid not in map_vertices:
            bl = w_points[vid]
            map_vertices[vid] = tower.up_to(bl).by_id("vertex", "fimage")[vid]

    seg_by_ends: dict[str, dict[frozenset, str]] = {}
    for e0, segs in seg0.items():
        seg_by_ends[e0] = {}
        for (sid, t, h) in segs:
            seg_by_ends[e0][(t, h)] = (sid, PLUS)
            seg_by_ends[e0][(h, t)] = (sid, MINUS)

    map_edges: dict[str, EdgeImage] = {}
    for e1 in c1.edges:
        img = rule.map_edges[e1]
        for (sid, t, h) in seg1[e1]:
            it, ih = map_vertices[t], map_vertices[h]
            if len(seg0[img.edge]) == 1:
                map_edges[sid] = img
            else:
                got = seg_by_ends[img.edge].get((it, ih))
                if got is None:
                    raise InternalInconsistency(
                        f"segment {sid} maps to no segment of {img.edge}")
                map_edges[sid] = EdgeImage(got[0], got[1])

    map_tiles: dict[str, TileImage] = {}
    for t1, img in rule.map_tiles.items():
        img_walk = c0.tiles[img.tile]
        # expansion offset table
        img_starts = []
        acc = 0
        for d in img_walk:
            img_starts.append(acc)
            acc += len(seg0[d[0]])
        j0 = img.align % len(img_walk)
        map_tiles[t1] = TileImage(img.tile, img_starts[j0])

    new_rule = SubdivisionRule(
        name=f"{rule.name}/refined",
        level0=level0n, level1=level1n,
        carrier_vertices=carrier_vertices, carrier_edges=carrier_edges,
        carrier_tiles=carrier_tiles, map_vertices=map_vertices,
        map_edges=map_edges, map_tiles=map_tiles,
        metadata={**rule.metadata, "refined_from": rule.name,
                  "added_vertices": tuple(sorted(points))},
    )
    rep = validate_rule(new_rule)
    if not rep.ok:
        raise InternalInconsistency(
            f"vertex-orbit refinement broke the rule: {rep.summary()}")
    return new_rule


def _seg_host(tower, rule, c0, seg0, split0, ref, sid, t, h,
              pos_cache, order_level) -> str:
    """Level-0 segment of edge ref hosting the level-1 segment (t, h)."""
    if ref not in pos_cache:
        seq = vertex_sequence_on_edge(tower, ref, order_level)
        pos_cache[ref] = {v: i for i, v in enumerate(seq)}
    pos = pos_cache[ref]
    stops = [c0.edges[ref][0]] + split0.get(ref, []) + [c0.edges[ref][1]]
    lo, hi_ = sorted((pos[t], pos[h]))
    for i in range(len(stops) - 1):
        if pos[stops[i]] <= lo and hi_ <= pos[stops[i + 1]]:
            return seg0[ref][i][0]
    raise InternalInconsistency(
        f"segment {sid} of a split edge spans level-0 segments of {ref}")


def isolate_julia_vertices(rule: SubdivisionRule) -> SubdivisionRule:
    """Make every Julia vertex isolated by adding Fatou vertex orbits.

    For each edge with two Julia endpoints, the first subdivision level
    containing a Fatou vertex supplies the point whose forward orbit is
    added to the level-0 vertex set.  One simultaneous pass suffices: every
    new edge segment has at least one Fatou endpoint.
    """
    if julia_edges(rule):
        raise UnsupportedRegime(
            "rule has Julia edges; collapse them first "
            "(collapsible_from_julia_edges + quotient_rule)")
    classes = classify_vertices(rule)
    offending = [e for e, (a, b) in sorted(rule.level0.edges.items())
                 if not classes.is_fatou[a] and not classes.is_fatou[b]]
    if not offending:
        return rule

    tower = Tower.of(rule)
    seeds: list[tuple[str, int]] = []
    for e0 in offending:
        k = None
        for level in range(1, 2 * len(rule.level0.edges) + 2):
            seq = vertex_sequence_on_edge(tower, e0, level)
            types = tower.up_to(level).by_id("vertex", "type_cell")
            fatou = [v for v in seq[1:-1] if classes.is_fatou[types[v]]]
            if fatou:
                seeds.append((min(fatou), level))
                k = level
                break
        if k is None:
            raise InternalInconsistency(
                f"edge {e0} shows no Fatou subdivision vertex although it is "
                "not a Julia edge")
    refined = add_vertex_orbit(rule, seeds)
    # one pass suffices; verify
    check = classify_vertices(refined)
    for e, (a, b) in refined.level0.edges.items():
        if not check.is_fatou[a] and not check.is_fatou[b]:
            raise InternalInconsistency(
                f"edge {e} still joins two Julia vertices after refinement")
    return refined


@dataclass
class NormalizationResult:
    rule: SubdivisionRule
    collapsed: CollapsibleSubcomplex
    collapse_level0: dict[str, str]
    provenance: tuple[str, ...]


def normalize_for_energy(rule: SubdivisionRule,
                         marked: frozenset[str] | None = None
                         ) -> NormalizationResult:
    """Collapse polynomial Julia edges, then isolate Julia vertices.

    Requires polynomial edge growth and Levy-freeness; the output is
    combinatorially equivalent to the input (recorded as provenance).
    """
    if not has_polynomial_growth(rule):
        raise UnsupportedRegime("normalization requires polynomial growth")
    steps: list[str] = []
    x = collapsible_from_julia_edges(rule, marked=marked)
    collapse0: dict[str, str] = {}
    cur = rule
    if not x.is_empty():
        res = quotient_rule(rule, x)
        cur = res.rule
        collapse0 = res.collapse_level0
        steps.append(f"collapsed {len(x.edges)} edge type(s) and "
                     f"{len(x.tiles)} tile type(s)")
    else:
        steps.append("no polynomial Julia edges to collapse")
    refined = isolate_julia_vertices(cur)
    if refined is not cur:
        steps.append("added Fatou vertex orbits to isolate Julia vertices")
        cur = refined
    else:
        steps.append("Julia vertices already isolated")
    return NormalizationResult(cur, x, collapse0, tuple(steps))
