"""Collapsible subcomplexes and quotient subdivision rules.

A collapsible subcomplex consists of a radical ideal of edge types and one
of tile types, closed as a subcomplex (boundary edges of its tiles are in
it), with every connected component simply connected.  Collapsing each
component (and each component of its level-1 preimage) to a point yields a
new subdivision rule on the same sphere; the edge/tile digraphs of the
quotient are the induced subgraphs on the surviving types.
"""

from __future__ import annotations

from collections.abc import Callable
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


Cell = tuple[str, str]        # (kind, id), kind "vertex", "edge" or "tile"


@dataclass(frozen=True)
class CollapsibleSubcomplex:
    edges: frozenset[str]
    tiles: frozenset[str]
    components: tuple[tuple[Cell, ...], ...]   # sorted cells, least first

    def is_empty(self) -> bool:
        return not self.edges and not self.tiles


def _components(cx: SphereComplex, edges: frozenset[str],
                tiles: frozenset[str],
                extra_vertices: frozenset[str] = frozenset()
                ) -> list[tuple[Cell, ...]]:
    """Connected components of the closed subcomplex spanned by the cells,
    in the order of their least cells.

    A union-find over the endpoints of the edges.  The subcomplex is closed
    (the boundary edges of its tiles are among its edges), so each tile
    falls in the component of its corners.  Level 0 is checked for closure
    by ``validate_collapsible``; the level-1 preimage of a closed
    subcomplex is closed, since a tile maps its boundary onto its image's.
    """
    root = {v: v for v in extra_vertices}

    def find(v: str) -> str:
        root.setdefault(v, v)
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for e in edges:
        t, h = cx.edges[e]
        root[find(t)] = find(h)
    comps: dict[str, list[Cell]] = {}
    for v in root:
        comps.setdefault(find(v), []).append(("vertex", v))
    for e in edges:
        comps[find(cx.edges[e][0])].append(("edge", e))
    for t in tiles:
        comps[find(cx.tail(cx.tiles[t][0]))].append(("tile", t))
    return sorted(tuple(sorted(c)) for c in comps.values())


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
    for t in sorted(tiles):
        for (e, _) in cx.tiles[t]:
            if e not in edges:
                raise ValidationFailure(
                    f"tile {t} in the subcomplex has boundary edge {e} "
                    "outside it", check="subcomplex closure")
    if tiles == set(cx.tiles):
        raise ValidationFailure("subcomplex is the whole sphere",
                                check="subcomplex")

    comps = _components(cx, edges, tiles)
    for comp in comps:
        kinds = [kind for kind, _ in comp]
        chi = kinds.count("vertex") - kinds.count("edge") + kinds.count("tile")
        if chi != 1:
            raise ValidationFailure(
                f"component {comp[0][0][0]}:{comp[0][1]}... has Euler count "
                f"{chi}; not simply connected", check="simply connected")
    return CollapsibleSubcomplex(frozenset(edges), frozenset(tiles),
                                 tuple(comps))


def collapsible_from_julia_edges(rule: SubdivisionRule,
                                 marked: frozenset[str] | None = None
                                 ) -> CollapsibleSubcomplex:
    """Collapsible subcomplex generated by Julia edges of polynomial growth.

    Adjoins, for each Jordan curve of collapsing edges, the closed Jordan
    domain all of whose tiles are Julia tiles containing no Fatou vertex and
    at most one marked point; errors when neither or both sides qualify.
    """
    from .spines import is_levy_free

    if not is_levy_free(rule, marked).levy_free:
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


def _simple_edge_cycles(cx: SphereComplex, edges: frozenset[str]
                        ) -> list[frozenset[str]]:
    """Vertex-simple cycles of the 1-skeleton supported on the edge set."""
    incid: dict[str, list[tuple[str, str]]] = {}
    for e in sorted(edges):
        t, h = cx.edges[e]
        incid.setdefault(t, []).append((e, h))
        incid.setdefault(h, []).append((e, t))
    cycles: set[frozenset[str]] = set()
    for e0 in sorted(edges):
        t0, h0 = cx.edges[e0]
        if t0 == h0:
            cycles.add(frozenset({e0}))
            continue
        # paths from h0 back to t0 avoiding e0, using edges >= e0
        stack = [(h0, [e0], {t0, h0})]
        while stack:
            if len(cycles) > 10_000:
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


def _collapse(cx: SphereComplex, point: dict[Cell, str],
              marked: frozenset[str]) -> SphereComplex:
    """The quotient of cx that sends each collapsed cell to its point: the
    surviving vertices in their order, then the sorted points, and each
    surviving tile's walk without the collapsed edges."""
    def end(v: str) -> str:
        return point.get(("vertex", v), v)

    vertices = [v for v in cx.vertices if ("vertex", v) not in point]
    vertices += sorted({q for (kind, _), q in point.items() if kind == "vertex"})
    edges = {e: (end(t), end(h)) for e, (t, h) in cx.edges.items()
             if ("edge", e) not in point}
    tiles = {}
    for t, walk in cx.tiles.items():
        if ("tile", t) in point:
            continue
        pruned = tuple(d for d in walk if ("edge", d[0]) not in point)
        if len(pruned) < 2:
            raise ValidationFailure(
                f"tile {t} degenerates to a walk of length {len(pruned)} "
                "after collapse", check="degenerate tile")
        tiles[t] = pruned
    return SphereComplex(tuple(dict.fromkeys(vertices)), edges, tiles, marked)


def quotient_rule(rule: SubdivisionRule, x: CollapsibleSubcomplex
                  ) -> QuotientResult:
    """Collapse each component of X, and each component of its level-1
    preimage f^-1(X), to a point; the surviving cells keep their carriers
    and maps.

    A collapsed level-0 component is named ``q(least cell id)`` and a
    collapsed level-1 component ``p(least cell id)``, except that a level-1
    component holding the copy of a marked vertex takes that vertex's
    level-0 name (its ``q(...)`` point, or the vertex id if it survives):
    the rule has one marked set for both levels.

    Once ``validate_collapsible`` has passed, these hold by construction:
    a connected level-1 component maps into one level-0 component; the
    cells of an ideal subdivide into cells of the ideal, so no surviving
    level-1 edge or tile is carried by a collapsed cell; and a level-1 tile
    walk loses exactly the positions that its image walk loses, so it does
    not degenerate.  ``validate_rule`` still checks the quotient in full.
    """
    require_valid_rule(rule)
    if x.is_empty():
        return QuotientResult(rule, {}, {})
    x = validate_collapsible(rule, x.edges, x.tiles)
    c0, c1 = rule.level0, rule.level1

    point0: dict[Cell, str] = {}      # collapsed level-0 cell -> its point
    for comp in x.components:
        q = "q(" + min(cid for _, cid in comp) + ")"
        marked_in = {cid for kind, cid in comp if kind == "vertex"} & rule.marked
        if len(marked_in) > 1:
            raise ValidationFailure(
                f"component {q} collapses marked points {sorted(marked_in)}",
                check="marked collision")
        point0.update(dict.fromkeys(comp, q))

    def lift(cell: Cell) -> Cell:
        """The level-0 cell, or the point it collapsed to."""
        return ("vertex", point0[cell]) if cell in point0 else cell

    marked = frozenset(lift(("vertex", v))[1] for v in rule.marked)
    level0q = _collapse(c0, point0, marked)

    comps1 = _components(
        c1,
        frozenset(e for e, img in rule.map_edges.items()
                  if ("edge", img.edge) in point0),
        frozenset(t for t, img in rule.map_tiles.items()
                  if ("tile", img.tile) in point0),
        frozenset(v for v, img in rule.map_vertices.items()
                  if ("vertex", img) in point0))
    point1: dict[Cell, str] = {}
    carrier_vertices: dict[str, tuple[str, str]] = {}
    map_vertices: dict[str, str] = {}
    for comp in comps1:
        copies = {rule.carrier_vertices[cid] for kind, cid in comp
                  if kind == "vertex"}
        held = sorted(m for m in rule.marked if ("vertex", m) in copies)
        q = (lift(("vertex", held[0]))[1] if held
             else "p(" + min(cid for _, cid in comp) + ")")
        point1.update(dict.fromkeys(comp, q))
        carrier_vertices[q] = _component_carrier(rule, comp, lift)
        # the cells sort edges, tiles, vertices: the last cell is a vertex
        map_vertices[q] = point0[("vertex", rule.map_vertices[comp[-1][1]])]
    level1q = _collapse(c1, point1, marked)

    for v in c1.vertices:
        if ("vertex", v) not in point1:
            carrier_vertices[v] = lift(rule.carrier_vertices[v])
            map_vertices[v] = rule.map_vertices[v]
    map_tiles: dict[str, TileImage] = {}
    for t in level1q.tiles:
        # position i of t's walk maps to position i + align of its image's,
        # so the first surviving position of t maps to the first surviving
        # image position at or after align, cyclically
        img = rule.map_tiles[t]
        walk = c0.tiles[img.tile]
        kept = sum(("edge", d[0]) not in point0
                   for d in walk[:img.align % len(walk)])
        map_tiles[t] = TileImage(img.tile, kept % len(level0q.tiles[img.tile]))

    new_rule = SubdivisionRule(
        name=f"{rule.name}/quotient",
        level0=level0q,
        level1=level1q,
        carrier_vertices=carrier_vertices,
        carrier_edges={e: rule.carrier_edges[e] for e in level1q.edges},
        carrier_tiles={t: rule.carrier_tiles[t] for t in level1q.tiles},
        map_vertices=map_vertices,
        map_edges={e: rule.map_edges[e] for e in level1q.edges},
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
    return QuotientResult(new_rule, {cid: q for (_, cid), q in point0.items()},
                          {cid: q for (_, cid), q in point1.items()})


def _component_carrier(rule: SubdivisionRule, comp: tuple[Cell, ...],
                       lift: Callable[[Cell], Cell]) -> tuple[str, str]:
    """The level-0 cell that carries a collapsed level-1 component: the one
    surviving tile or edge among its cells' lifted carriers, else its one
    point."""
    found = set()
    for kind, cid in comp:
        found.add(lift(("tile", rule.carrier_tiles[cid]) if kind == "tile"
                       else rule.carrier_vertices[cid] if kind == "vertex"
                       else rule.carrier_edges[cid]))
    for kind, what in (
            ("tile", "tiles; the quotient is not a subdivision rule"),
            ("edge", "edges")):
        refs = [ref for k, ref in found if k == kind]
        if len(refs) > 1:
            raise ValidationFailure(
                f"collapsed level-1 component spans two surviving {what}",
                check="quotient carrier")
        if refs:
            return (kind, refs[0])
    vertices = [ref for k, ref in found if k == "vertex"]
    if len(vertices) != 1:
        raise ValidationFailure(
            "collapsed level-1 component has no unique carrier vertex",
            check="quotient carrier")
    return ("vertex", vertices[0])


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


def _split(cx: SphereComplex, split: dict[str, list[str]],
           new_vertices: list[str], marked: frozenset[str]
           ) -> tuple[SphereComplex, dict[str, list[tuple[str, str, str]]]]:
    """cx with each edge e cut at its ordered stops ``split[e]`` into the
    segments ``e#0``, ``e#1``, ...; also each edge's (segment, tail, head)
    list.  An edge without stops keeps its id."""
    segs: dict[str, list[tuple[str, str, str]]] = {}
    for e, (t, h) in cx.edges.items():
        stops = [t, *split.get(e, ()), h]
        segs[e] = ([(e, t, h)] if len(stops) == 2 else
                   [(f"{e}#{i}", a, b)
                    for i, (a, b) in enumerate(zip(stops, stops[1:]))])

    def expand(d: Dart) -> list[Dart]:
        run = [(sid, PLUS) for (sid, _, _) in segs[d[0]]]
        return run if d[1] == PLUS else [flip(x) for x in reversed(run)]

    return SphereComplex(
        (*cx.vertices, *new_vertices),
        {sid: (t, h) for run in segs.values() for (sid, t, h) in run},
        {t: tuple(x for d in walk for x in expand(d))
         for t, walk in cx.tiles.items()},
        marked), segs


def add_vertex_orbit(rule: SubdivisionRule, seed_points: list[tuple[str, int]]
                     ) -> SubdivisionRule:
    """Refine the rule by adding forward orbits of subdivision vertices.

    ``seed_points`` lists (level-n vertex id, level n).  The forward orbit of
    each seed is added to the level-0 vertex set, splitting the edges that
    host the new points into segments ``e#0``, ``e#1``, ...; the level-1
    complex is split the same way at the preimages of all new points.  A
    level-1 segment lies in one level-0 segment of its carrier edge and
    maps onto one level-0 segment; ``validate_rule`` checks the result.
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
    c0, c1 = rule.level0, rule.level1
    level0n, seg0 = _split(c0, split0, sorted(points), c0.marked)

    # level-1 split points: vertices of f^{-1}(new vertex set), i.e. all
    # subdivision vertices whose one-step image is a refined level-0 vertex,
    # each with its birth level (level 1 is rule.level1)
    new_ids = set(points) | set(c0.vertices)
    w_points: dict[str, int] = {}
    for bl in range(2, level_max + 2):
        older = tower.up_to(bl - 1).by_id("vertex", "fimage")
        for vid, image in tower.up_to(bl).by_id("vertex", "fimage").items():
            if vid not in older and image in new_ids:
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
    order_level = level_max + 1     # every split point is a vertex by now
    for e1 in split1:
        seq = vertex_sequence_on_edge(tower, e1, order_level, start=1)
        pos = {v: i for i, v in enumerate(seq)}
        missing = [v for v in split1[e1] if v not in pos]
        if missing:
            raise InternalInconsistency(
                f"points {missing} not on the expansion of {e1}")
        split1[e1] = sorted(split1[e1], key=lambda v: pos[v])
    level1n, seg1 = _split(c1, split1, sorted(w_points), c0.marked)

    # ---- carriers ----------------------------------------------------------
    pos_on_edge0: dict[str, dict[str, int]] = {}

    def host0(e0: str, a: str, b: str, fail: str) -> str:
        """The segment of the level-0 edge e0 whose stops enclose the
        points a and b of its level-``order_level`` expansion."""
        if e0 not in pos_on_edge0:
            seq = vertex_sequence_on_edge(tower, e0, order_level)
            pos_on_edge0[e0] = {v: i for i, v in enumerate(seq)}
        pos = pos_on_edge0[e0]
        lo, hi_ = sorted((pos[a], pos[b]))
        for (sid, t, h) in seg0[e0]:
            if pos[t] <= lo and hi_ <= pos[h]:
                return sid
        raise InternalInconsistency(fail)

    def carrier(v: str, kind: str, ref: str) -> tuple[str, str]:
        if v in points:
            return ("vertex", v)
        if kind == "edge" and ref in split0:
            return ("edge", host0(ref, v, v, f"point {v} not interior to {ref}"))
        return (kind, ref)

    carrier_vertices = {v: carrier(v, *rule.carrier_vertices[v])
                        for v in c1.vertices}
    for vid in sorted(w_points):
        kind, host = host1_of[vid]
        carrier_vertices[vid] = carrier(
            vid, *(("tile", rule.carrier_tiles[host]) if kind == "tile"
                   else rule.carrier_edges[host]))
    carrier_edges: dict[str, tuple[str, str]] = {}
    for e1 in c1.edges:
        kind, ref = rule.carrier_edges[e1]
        for (sid, t, h) in seg1[e1]:
            carrier_edges[sid] = (
                ("edge", host0(ref, t, h, f"segment {sid} of a split edge "
                               f"spans level-0 segments of {ref}"))
                if kind == "edge" and ref in split0 else (kind, ref))

    # ---- map ----------------------------------------------------------------
    map_vertices = {v: rule.map_vertices[v] for v in c1.vertices}
    for vid in sorted(w_points):
        map_vertices[vid] = tower.up_to(w_points[vid]).by_id(
            "vertex", "fimage")[vid]

    seg_by_ends: dict[str, dict[tuple[str, str], Dart]] = {}
    for e0, segs in seg0.items():
        seg_by_ends[e0] = {}
        for (sid, t, h) in segs:
            seg_by_ends[e0][(t, h)] = (sid, PLUS)
            seg_by_ends[e0][(h, t)] = (sid, MINUS)

    map_edges: dict[str, EdgeImage] = {}
    for e1 in c1.edges:
        img = rule.map_edges[e1]
        for (sid, t, h) in seg1[e1]:
            if len(seg0[img.edge]) == 1:
                map_edges[sid] = img
                continue
            got = seg_by_ends[img.edge].get((map_vertices[t], map_vertices[h]))
            if got is None:
                raise InternalInconsistency(
                    f"segment {sid} maps to no segment of {img.edge}")
            map_edges[sid] = EdgeImage(*got)

    map_tiles: dict[str, TileImage] = {}
    for t1, img in rule.map_tiles.items():
        # the image walk position align starts after the segments before it
        walk = c0.tiles[img.tile]
        map_tiles[t1] = TileImage(img.tile, sum(
            len(seg0[d[0]]) for d in walk[:img.align % len(walk)]))

    new_rule = SubdivisionRule(
        name=f"{rule.name}/refined",
        level0=level0n, level1=level1n,
        carrier_vertices=carrier_vertices, carrier_edges=carrier_edges,
        carrier_tiles=dict(rule.carrier_tiles), map_vertices=map_vertices,
        map_edges=map_edges, map_tiles=map_tiles,
        metadata={**rule.metadata, "refined_from": rule.name,
                  "added_vertices": tuple(sorted(points))},
    )
    rep = validate_rule(new_rule)
    if not rep.ok:
        raise InternalInconsistency(
            f"vertex-orbit refinement broke the rule: {rep.summary()}")
    return new_rule


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
