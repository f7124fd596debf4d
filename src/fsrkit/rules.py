"""Finite subdivision rules: level-0/1 complexes, the subdivision map, exact
level-n subdivision by pullback, Fatou/Julia classification, and shifts and
powers.

Cell ids of deeper levels follow the deterministic scheme
``<parent-id>/<kind>.<level-1-cell-id>``, so parentage is readable from the
id and copies are addressed by the level-1 cell they replicate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Literal

from .complexes import (
    Dart,
    MINUS,
    PLUS,
    SphereComplex,
    ValidationReport,
    flip,
    memo,
    validate_complex,
)
from .errors import BudgetExceeded, ValidationFailure

Kind = Literal["vertex", "edge", "tile"]

DEFAULT_CELL_BUDGET = 1_000_000


@dataclass(frozen=True)
class EdgeImage:
    edge: str
    orient: int  # +1: tail->tail, -1: tail->head


@dataclass(frozen=True)
class TileImage:
    tile: str
    align: int   # walk position 0 of the source maps to this position of the image


@dataclass(frozen=True)
class SubdivisionRule:
    """Level-0 and level-1 complexes with the carrier and the map between them.

    A rule is immutable after construction: derive a changed rule with
    ``dataclasses.replace``, never by editing its dicts in place.  Validation
    (with the rule index), the edge digraph and the shared tower of
    ``Tower.of`` are memoized per rule object, so each is computed once
    however many stages ask.

    Rules that ``shift`` and ``power`` build from a valid rule are valid by
    construction (Cannon-Floyd-Parry, "Finite subdivision rules", Conform.
    Geom. Dyn. 5, 2001: R^n(S) is a CW structure on the sphere and f^k is a
    subdivision map).  A mark in their memo, never in ``metadata``, says so;
    a ``dataclasses.replace`` of such a rule starts without it."""

    name: str
    level0: SphereComplex
    level1: SphereComplex
    carrier_vertices: dict[str, tuple[Kind, str]]
    carrier_edges: dict[str, tuple[Kind, str]]
    carrier_tiles: dict[str, str]
    map_vertices: dict[str, str]
    map_edges: dict[str, EdgeImage]
    map_tiles: dict[str, TileImage]
    metadata: dict = field(default_factory=dict)

    @property
    def marked(self) -> frozenset[str]:
        return self.level0.marked


# ---------------------------------------------------------------------------
# rule index: subdivision paths, tile interiors, expanded boundaries, wedges
# ---------------------------------------------------------------------------


@dataclass
class RuleIndex:
    """Derived combinatorics of a structurally valid rule."""

    degree: int
    vertex_copy: dict[str, str]                       # level-0 vertex -> level-1 copy
    path: dict[str, list[Dart]]                       # edge -> level-1 darts, tail->head
    path_interior: dict[str, list[str]]               # edge -> interior level-1 vertices
    interior_vertices: dict[str, list[str]]           # tile -> carried vertices
    interior_edges: dict[str, list[str]]              # tile -> carried edges
    interior_tiles: dict[str, list[str]]              # tile -> carried tiles
    expanded: dict[str, list[Dart]]                   # tile -> expanded boundary walk
    expanded_orig: dict[str, list[int]]               # expanded index -> walk position
    bmatch: dict[str, dict[Dart, int]]                # tile -> boundary dart -> index
    attach: dict[str, dict[Dart, int]]                # tile -> interior dart -> corner index
    local_degree: dict[str, int]                      # level-1 vertex -> local degree

    def corner_is_original(self, t: str, c: int) -> bool:
        orig = self.expanded_orig[t]
        return orig[c] != orig[(c - 1) % len(orig)] or len(orig) == 1


def _build_paths(rule: SubdivisionRule, vertex_copy: dict[str, str]
                 ) -> tuple[dict[str, list[Dart]], dict[str, list[str]]]:
    """Order the carried cells of each level-0 edge into its subdivision path."""
    c1 = rule.level1
    carried_edges: dict[str, list[str]] = {e: [] for e in rule.level0.edges}
    carried_verts: dict[str, set[str]] = {e: set() for e in rule.level0.edges}
    for e1, (kind, ref) in rule.carrier_edges.items():
        if kind == "edge":
            carried_edges[ref].append(e1)
    for v1, (kind, ref) in rule.carrier_vertices.items():
        if kind == "edge":
            carried_verts[ref].add(v1)

    loc1 = c1.dart_location()
    paths: dict[str, list[Dart]] = {}
    interiors: dict[str, list[str]] = {}
    for e0 in sorted(rule.level0.edges):
        tail0, head0 = rule.level0.edges[e0]
        start = vertex_copy[tail0]
        end = vertex_copy[head0]
        pieces = carried_edges[e0]
        if not pieces:
            raise ValidationFailure(f"edge {e0} has no carried level-1 edge",
                                    check="carrier")
        # darts available on the carried pieces
        incident: dict[str, list[Dart]] = {}
        for e1 in pieces:
            for s in (PLUS, MINUS):
                incident.setdefault(c1.tail((e1, s)), []).append((e1, s))
        interior = carried_verts[e0]
        for w in interior:
            if len(incident.get(w, [])) != 2:
                raise ValidationFailure(
                    f"interior vertex {w} of edge {e0} is not a path point",
                    check="carrier")

        def walk_from(d0: Dart) -> list[Dart] | None:
            out = [d0]
            used = {d0[0]}
            cur = c1.head(d0)
            while len(out) < len(pieces):
                nxts = [d for d in incident.get(cur, [])
                        if d[0] not in used and cur in interior]
                if len(nxts) != 1:
                    return None
                out.append(nxts[0])
                used.add(nxts[0][0])
                cur = c1.head(nxts[0])
            if cur != end or len(used) != len(pieces):
                return None
            # every interior vertex visited
            seen = {c1.head(d) for d in out[:-1]}
            if seen != interior:
                return None
            return out

        candidates = []
        for d in sorted(incident.get(start, [])):
            got = walk_from(d)
            if got is not None:
                candidates.append(got)
        if not candidates:
            raise ValidationFailure(
                f"carried cells of edge {e0} do not form a path "
                f"from {start} to {end}", check="carrier")
        if len(candidates) > 1:
            # loops admit two orientations; pick the one whose first dart has
            # the tile left of (e0,+) on its left, else lexicographic
            left0 = rule.level0.tile_left((e0, PLUS))
            filtered = [p for p in candidates
                        if rule.carrier_tiles.get(loc1[p[0]][0]) == left0]
            pick = filtered if filtered else candidates
            candidates = sorted(pick)
        paths[e0] = candidates[0]
        interiors[e0] = [c1.head(d) for d in candidates[0][:-1]]
    return paths, interiors


def build_rule_index(rule: SubdivisionRule) -> RuleIndex:
    c0, c1 = rule.level0, rule.level1

    # vertex copies: carrier vertex->vertex must biject onto Vert(level0)
    vertex_copy: dict[str, str] = {}
    for v1, (kind, ref) in rule.carrier_vertices.items():
        if kind == "vertex":
            if ref in vertex_copy:
                raise ValidationFailure(f"two level-1 copies of vertex {ref}",
                                        check="carrier")
            vertex_copy[ref] = v1
    missing = set(c0.vertices) - set(vertex_copy)
    if missing:
        raise ValidationFailure(f"level-0 vertex {sorted(missing)[0]} has no "
                                "level-1 copy", check="carrier")

    paths, path_interior = _build_paths(rule, vertex_copy)

    interior_vertices: dict[str, list[str]] = {t: [] for t in c0.tiles}
    interior_edges: dict[str, list[str]] = {t: [] for t in c0.tiles}
    interior_tiles: dict[str, list[str]] = {t: [] for t in c0.tiles}
    for v1, (kind, ref) in sorted(rule.carrier_vertices.items()):
        if kind == "tile":
            interior_vertices[ref].append(v1)
    for e1, (kind, ref) in sorted(rule.carrier_edges.items()):
        if kind == "tile":
            interior_edges[ref].append(e1)
    for t1, ref in sorted(rule.carrier_tiles.items()):
        interior_tiles[ref].append(t1)

    # expanded boundary walks with occurrence tags
    expanded: dict[str, list[Dart]] = {}
    expanded_orig: dict[str, list[int]] = {}
    bmatch: dict[str, dict[Dart, int]] = {}
    for t in sorted(c0.tiles):
        exp: list[Dart] = []
        orig: list[int] = []
        for j, (e0, s) in enumerate(c0.tiles[t]):
            run = paths[e0] if s == PLUS else [flip(d) for d in reversed(paths[e0])]
            exp.extend(run)
            orig.extend([j] * len(run))
        expanded[t] = exp
        expanded_orig[t] = orig
        match: dict[Dart, int] = {}
        for c, d in enumerate(exp):
            if d in match:
                raise ValidationFailure(
                    f"boundary dart {d} repeats in expansion of tile {t}",
                    check="carrier")
            match[d] = c
        bmatch[t] = match

    # wedge assignment: interior darts at boundary vertices -> corner index
    attach: dict[str, dict[Dart, int]] = {t: {} for t in c0.tiles}
    total_darts = 2 * len(c1.edges)
    for t in sorted(c0.tiles):
        exp = expanded[t]
        n = len(exp)
        for c in range(n):
            beta = exp[c]
            alpha = exp[(c - 1) % n]
            d = c1.rotation_ccw(beta)
            steps = 0
            while d != flip(alpha):
                if steps > total_darts:
                    raise ValidationFailure(
                        f"wedge walk at tile {t} corner {c} does not close",
                        check="carrier")
                if d in attach[t]:
                    raise ValidationFailure(
                        f"dart {d} assigned to two corners of tile {t}",
                        check="carrier")
                attach[t][d] = c
                d = c1.rotation_ccw(d)
                steps += 1

    # every dart of an interior edge at a path/copy vertex must be attached
    for t in sorted(c0.tiles):
        for e1 in interior_edges[t]:
            for s in (PLUS, MINUS):
                w = c1.tail((e1, s))
                kind, ref = rule.carrier_vertices[w]
                if kind != "tile" and (e1, s) not in attach[t]:
                    raise ValidationFailure(
                        f"interior dart ({e1},{s}) of tile {t} not attached "
                        "to any boundary corner", check="carrier")

    # degree and local degrees
    dartdeg0: dict[str, int] = {v: 0 for v in c0.vertices}
    for e, (a, b) in c0.edges.items():
        dartdeg0[a] += 1
        dartdeg0[b] += 1
    dartdeg1: dict[str, int] = {v: 0 for v in c1.vertices}
    for e, (a, b) in c1.edges.items():
        dartdeg1[a] += 1
        dartdeg1[b] += 1
    local_degree: dict[str, int] = {}
    for v1 in c1.vertices:
        img = rule.map_vertices[v1]
        num, den = dartdeg1[v1], dartdeg0[img]
        if den == 0 or num % den:
            raise ValidationFailure(
                f"vertex {v1}: level-1 valence {num} is not a multiple of the "
                f"image valence {den}", check="local degree")
        local_degree[v1] = num // den

    tiles_per_type: dict[str, int] = {t: 0 for t in c0.tiles}
    for t1, img in rule.map_tiles.items():
        tiles_per_type[img.tile] += 1
    degs = sorted(set(tiles_per_type.values()))
    if len(degs) != 1:
        raise ValidationFailure(
            f"tile preimage counts differ across types: {tiles_per_type}",
            check="degree")
    degree = degs[0]

    return RuleIndex(degree, vertex_copy, paths, path_interior,
                     interior_vertices, interior_edges, interior_tiles,
                     expanded, expanded_orig, bmatch, attach, local_degree)


# ---------------------------------------------------------------------------
# rule validation
# ---------------------------------------------------------------------------


def validate_rule(rule: SubdivisionRule) -> ValidationReport:
    """Full structural check; on pass reports degree and critical vertices.

    A rule that ``shift`` or ``power`` built is valid by construction (see
    ``SubdivisionRule``): it only builds its index, which gives the notes.
    Every other rule (from a file, the catalog, a quotient or a
    normalization) is checked in full.  The report, and on pass the rule
    index, are memoized on the rule."""
    m = memo(rule)
    if "validated" not in m:
        m["validated"], m["index"] = (
            _passed(build_rule_index(rule)) if m.get("by_construction")
            else _check_rule(rule))
    return m["validated"]


def _passed(index: RuleIndex) -> tuple[ValidationReport, RuleIndex]:
    critical = sorted(v1 for v1, deg in index.local_degree.items() if deg > 1)
    return ValidationReport(True, [], notes={
        "degree": index.degree, "critical_vertices": tuple(critical)}), index


def _check_rule(rule: SubdivisionRule
                ) -> tuple[ValidationReport, RuleIndex | None]:
    fails: list[tuple[str, str]] = []

    def fail(check: str, msg: str) -> tuple[ValidationReport, None]:
        fails.append((check, msg))
        return ValidationReport(False, fails), None

    for cx, name in ((rule.level0, "level0"), (rule.level1, "level1")):
        rep = validate_complex(cx)
        if not rep.ok:
            return fail(rep.first_failure or "complex", f"{name}: {rep.summary()}")

    c0, c1 = rule.level0, rule.level1
    cells0 = {"vertex": set(c0.vertices), "edge": c0.edges, "tile": c0.tiles}
    # totality of carrier and map; a carrier is a level-0 cell of a kind
    # that can carry the cell
    for v1 in c1.vertices:
        if v1 not in rule.carrier_vertices:
            return fail("carrier", f"vertex {v1} has no carrier")
        kind, ref = rule.carrier_vertices[v1]
        if ref not in cells0.get(kind, ()):
            return fail("carrier", f"vertex {v1} has carrier {kind} {ref}, "
                                   "not a level-0 cell")
        if v1 not in rule.map_vertices:
            return fail("map", f"vertex {v1} has no image")
        if rule.map_vertices[v1] not in cells0["vertex"]:
            return fail("post-critical containment",
                        f"vertex {v1} maps outside Vert(level0)")
    for e1 in c1.edges:
        if e1 not in rule.carrier_edges:
            return fail("carrier", f"edge {e1} has no carrier")
        kind, ref = rule.carrier_edges[e1]
        if kind == "vertex" or ref not in cells0.get(kind, ()):
            return fail("carrier", f"edge {e1} has carrier {kind} {ref}, "
                                   "not a level-0 edge or tile")
        if e1 not in rule.map_edges:
            return fail("map", f"edge {e1} has no image")
        if rule.map_edges[e1].edge not in c0.edges:
            return fail("map", f"edge {e1} maps to unknown edge")
    for t1 in c1.tiles:
        if t1 not in rule.carrier_tiles:
            return fail("carrier", f"tile {t1} has no carrier")
        if rule.carrier_tiles[t1] not in c0.tiles:
            return fail("carrier", f"tile {t1} has carrier "
                                   f"{rule.carrier_tiles[t1]}, not a level-0 tile")
        if t1 not in rule.map_tiles:
            return fail("map", f"tile {t1} has no image")
        if rule.map_tiles[t1].tile not in c0.tiles:
            return fail("map", f"tile {t1} maps to unknown tile")
    # ... and no entries for cells missing from level1
    sizes = [len(c1.vertices), len(c1.edges), len(c1.tiles)]
    for check, tables in (
            ("carrier", (rule.carrier_vertices, rule.carrier_edges,
                         rule.carrier_tiles)),
            ("map", (rule.map_vertices, rule.map_edges, rule.map_tiles))):
        if [len(tb) for tb in tables] != sizes:
            return fail(check, f"{check} names a cell missing from level1")

    # endpoint consistency of edge images
    for e1, img in sorted(rule.map_edges.items()):
        t1v, h1v = c1.edges[e1]
        t0v, h0v = c0.edges[img.edge]
        want = (t0v, h0v) if img.orient == PLUS else (h0v, t0v)
        got = (rule.map_vertices[t1v], rule.map_vertices[h1v])
        if got != want:
            return fail("orientation",
                        f"edge {e1}: endpoint images {got} do not match "
                        f"{img.edge} with orient {img.orient}")

    try:
        index = build_rule_index(rule)
    except ValidationFailure as exc:
        return fail(exc.check or "carrier", str(exc))

    # walk transport: each level-1 tile walk maps onto its image walk with
    # orientation preserved, starting at the declared alignment
    for t1 in sorted(c1.tiles):
        img = rule.map_tiles[t1]
        w1 = c1.tiles[t1]
        w0 = c0.tiles[img.tile]
        if len(w1) != len(w0):
            return fail("orientation",
                        f"tile {t1} walk length {len(w1)} differs from image "
                        f"{img.tile} length {len(w0)}")
        for i, (e1, s1) in enumerate(w1):
            em = rule.map_edges[e1]
            got = (em.edge, s1 * em.orient)
            want = w0[(i + img.align) % len(w0)]
            if got != want:
                return fail("orientation",
                            f"tile {t1} position {i}: dart maps to {got}, "
                            f"image walk holds {want}")

    # degree uniformity across cells
    d = index.degree
    lifts = Counter(img.edge for img in rule.map_edges.values())
    for e0 in c0.edges:
        if lifts[e0] != d:
            return fail("degree",
                        f"edge {e0} has {lifts[e0]} lifts, expected {d}")
    totals: Counter[str] = Counter()
    for v1, img in rule.map_vertices.items():
        totals[img] += index.local_degree[v1]
    for v0 in c0.vertices:
        total = totals[v0]
        if total != d:
            return fail("degree",
                        f"vertex {v0} preimage local degrees sum to {total}, "
                        f"expected {d}")

    # tile interiors form disks: Euler count 1 per tile, connected
    for t0 in sorted(c0.tiles):
        vi = len(index.interior_vertices[t0])
        ei = len(index.interior_edges[t0])
        ti = len(index.interior_tiles[t0])
        if vi - ei + ti != 1:
            return fail("carrier",
                        f"tile {t0}: interior cell counts V-E+F = {vi - ei + ti}, "
                        "expected 1")
        if ti == 0:
            return fail("carrier", f"tile {t0} has no carried tile")
        # each carried edge must separate two carried tiles of the same tile
        loc1 = c1.dart_location()
        carried = set(index.interior_tiles[t0])
        for e1 in index.interior_edges[t0]:
            for s in (PLUS, MINUS):
                side = loc1[(e1, s)][0]
                if side not in carried:
                    return fail("carrier",
                                f"interior edge {e1} of {t0} borders foreign "
                                f"tile {side}")
        # connectivity of carried tiles across carried edges
        if ti > 1:
            adj: dict[str, set[str]] = {x: set() for x in carried}
            for e1 in index.interior_edges[t0]:
                a = loc1[(e1, PLUS)][0]
                b = loc1[(e1, MINUS)][0]
                adj[a].add(b)
                adj[b].add(a)
            stack = [index.interior_tiles[t0][0]]
            seen = {stack[0]}
            while stack:
                for y in adj[stack.pop()]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen != carried:
                return fail("carrier", f"tile {t0} interior is disconnected")

    # marked set must be forward invariant and contain the critical values
    marked = rule.marked
    if marked:
        crit_values = {rule.map_vertices[v1]
                       for v1, deg in index.local_degree.items() if deg > 1}
        orbit_closure = set(crit_values)
        frontier = list(crit_values)
        f0 = {v: rule.map_vertices[index.vertex_copy[v]] for v in c0.vertices}
        while frontier:
            v = frontier.pop()
            w = f0[v]
            if w not in orbit_closure:
                orbit_closure.add(w)
                frontier.append(w)
        if not orbit_closure <= marked:
            return fail("marked",
                        f"marked set omits post-critical vertex "
                        f"{sorted(orbit_closure - marked)[0]}")
        if not {f0[v] for v in marked} <= marked:
            return fail("marked", "marked set is not forward invariant")

    return _passed(index)


def require_valid_rule(rule: SubdivisionRule) -> RuleIndex:
    """The rule's index; raises ValidationFailure, on every call, for an
    invalid rule."""
    rep = validate_rule(rule)
    if not rep.ok:
        raise ValidationFailure(f"rule {rule.name}: {rep.summary()}",
                                check=rep.first_failure or "")
    return memo(rule)["index"]


# ---------------------------------------------------------------------------
# leveled complexes and subdivision
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeveledComplex:
    """The level-n complex R^n(S) with its cells stored as columns.

    ``columns[kind][name]`` is a list parallel to the complex's own cell
    order for that kind (``complex.vertices``, ``complex.edges``,
    ``complex.tiles``).  Each kind has ``parent`` and ``parent_kind`` (the
    containing cell one level down; None at level 0; a persisting vertex is
    its own parent), ``type_cell`` (the level-0 cell under f^n) and
    ``fimage`` (the one-step image cell; None at level 0).  Edges add
    ``type_orient`` and ``rel_orient`` (the direction of an edge inside an
    edge parent, else PLUS); tiles add ``type_align``.  The image's
    orientation and alignment are not stored: at level 1 they are the type's,
    and from level 2 on a cell maps onto the same child of its parent's
    image, with orientation PLUS and alignment 0.

    ``by_id`` reads a column by cell id through a memoized dict."""

    complex: SphereComplex
    level: int
    columns: dict[Kind, dict[str, list]]

    def ids(self, kind: Kind):
        """The cell ids of one kind, in column order."""
        cx = self.complex
        return (cx.vertices if kind == "vertex"
                else cx.edges if kind == "edge" else cx.tiles)

    def by_id(self, kind: Kind, name: str) -> dict:
        """``{cell id: value}`` of one column, built once per level."""
        m = memo(self)
        key = (kind, name)
        if key not in m:
            m[key] = dict(zip(self.ids(kind), self.columns[kind][name]))
        return m[key]


def level_zero(rule: SubdivisionRule) -> LeveledComplex:
    c0 = rule.level0
    columns: dict[Kind, dict[str, list]] = {}
    for kind, ids in (("vertex", c0.vertices), ("edge", c0.edges),
                      ("tile", c0.tiles)):
        n = len(ids)
        cols = {"parent": [None] * n, "parent_kind": [None] * n,
                "type_cell": list(ids), "fimage": [None] * n}
        if kind == "edge":
            cols["type_orient"] = cols["rel_orient"] = [PLUS] * n
        elif kind == "tile":
            cols["type_align"] = [0] * n
        columns[kind] = cols
    return LeveledComplex(c0, 0, columns)


def level_one(rule: SubdivisionRule, index: RuleIndex) -> LeveledComplex:
    c1 = rule.level1
    vcar = [rule.carrier_vertices[v] for v in c1.vertices]
    vtype = [rule.map_vertices[v] for v in c1.vertices]
    ecar = [rule.carrier_edges[e] for e in c1.edges]
    eimg = [rule.map_edges[e] for e in c1.edges]
    etype = [img.edge for img in eimg]
    timg = [rule.map_tiles[t] for t in c1.tiles]
    ttype = [img.tile for img in timg]
    # an edge inside an edge runs along the parent's path in this direction
    rel = {e1: s for path in index.path.values() for e1, s in path}
    return LeveledComplex(c1, 1, {
        "vertex": {"parent": [ref for _, ref in vcar],
                   "parent_kind": [kind for kind, _ in vcar],
                   "type_cell": vtype, "fimage": vtype},
        "edge": {"parent": [ref for _, ref in ecar],
                 "parent_kind": [kind for kind, _ in ecar],
                 "type_cell": etype, "fimage": etype,
                 "type_orient": [img.orient for img in eimg],
                 "rel_orient": [rel.get(e, PLUS) for e in c1.edges]},
        "tile": {"parent": [rule.carrier_tiles[t] for t in c1.tiles],
                 "parent_kind": ["tile"] * len(timg),
                 "type_cell": ttype, "fimage": ttype,
                 "type_align": [img.align for img in timg]}})


def _vertex_dynamics(rule: SubdivisionRule, index: RuleIndex) -> dict[str, str]:
    return {v: rule.map_vertices[index.vertex_copy[v]]
            for v in rule.level0.vertices}


def _templates(rule: SubdivisionRule, index: RuleIndex
               ) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """The child pattern of every level-0 edge and tile type, memoized on the
    rule; a cell's children are its type's pattern read through the cell's
    orientation or alignment.

    An edge type gives its interior path vertices ``(w1, type)`` and its path
    darts ``(e1, d1, image edge, image orient)``.  A tile type gives its
    interior vertices ``(w1, type)``; its interior edges ``(e1, (tail, head),
    image edge, image orient)``, each end ``(j, w)`` being the vertex ``w``
    inside the tile (``j`` None), the tail of boundary position ``j`` (``w``
    None), or the copy ``/v.w`` on the edge at boundary position ``j``; and
    its interior tiles ``(t1, darts, image tile, image align)``, each dart
    ``(x, sign, j)`` lying inside the tile (``j`` None) or, as ``/e.x``, on
    the edge at boundary position ``j``."""
    m = memo(rule)
    if "templates" in m:
        return m["templates"]
    c1 = rule.level1
    edge_tpl: dict[str, tuple] = {}
    for e0, path in index.path.items():
        verts = [(w1, rule.map_vertices[w1]) for w1 in index.path_interior[e0]]
        darts = [(e1, d1, rule.map_edges[e1].edge, rule.map_edges[e1].orient)
                 for e1, d1 in path]
        edge_tpl[e0] = (verts, darts)
    tile_tpl: dict[str, tuple] = {}
    for t0 in rule.level0.tiles:
        exp, orig = index.expanded[t0], index.expanded_orig[t0]
        verts = [(w1, rule.map_vertices[w1])
                 for w1 in index.interior_vertices[t0]]
        edges = []
        for e1 in index.interior_edges[t0]:
            ends = []
            for w1, s in zip(c1.edges[e1], (PLUS, MINUS)):
                if rule.carrier_vertices[w1][0] == "tile":
                    ends.append((None, w1))
                    continue
                ci = index.attach[t0][(e1, s)]
                ends.append((orig[ci], None if index.corner_is_original(t0, ci)
                             else "/v." + c1.tail(exp[ci])))
            img = rule.map_edges[e1]
            edges.append((e1, tuple(ends), img.edge, img.orient))
        tiles = []
        for t1 in index.interior_tiles[t0]:
            darts = tuple(
                (x, dr, None) if rule.carrier_edges[x][0] == "tile"
                else ("/e." + x, dr, orig[index.bmatch[t0][(x, dr)]])
                for x, dr in c1.tiles[t1])
            img = rule.map_tiles[t1]
            tiles.append((t1, darts, img.tile, img.align))
        tile_tpl[t0] = (verts, edges, tiles)
    m["templates"] = edge_tpl, tile_tpl
    return m["templates"]


def _cells(cx: SphereComplex) -> int:
    return len(cx.vertices) + len(cx.edges) + len(cx.tiles)


def _check_budget(level: int, total: int, budget: int) -> None:
    """Refuse a level of ``total`` cells over the budget; ``reached`` is the
    last level within it (None for level 0)."""
    if total > budget:
        raise BudgetExceeded(
            f"level {level} needs {total} cells (budget {budget})",
            reached=level - 1 if level else None)


def subdivide_once(rule: SubdivisionRule, index: RuleIndex, lv: LeveledComplex,
                   budget: int = DEFAULT_CELL_BUDGET) -> LeveledComplex:
    """One pullback step: copy each cell's type pattern through its alignment
    and append the children's columns.

    ``rule`` is valid, so the new level R^n(S) is a CW structure on the
    sphere (Cannon-Floyd-Parry): its complex is stored as validated, with
    the report ``validate_complex`` gives, and is not checked again."""
    if lv.level == 0:
        _check_budget(1, _cells(rule.level1), budget)
        return level_one(rule, index)
    c = lv.complex
    edges = c.edges
    edge_tpl, tile_tpl = _templates(rule, index)
    vcols, ecols, tcols = (lv.columns[k] for k in ("vertex", "edge", "tile"))
    # the size of the next level, checked before any of it is built: the
    # vertices persist, and each edge and tile adds its type's template cells
    _check_budget(lv.level + 1, len(c.vertices) + sum(
        n * sum(map(len, tpl[ty]))
        for tpl, cols in ((edge_tpl, ecols), (tile_tpl, tcols))
        for ty, n in Counter(cols["type_cell"]).items()), budget)
    f0 = _vertex_dynamics(rule, index)
    deeper = lv.level > 1

    # persisting vertices: contained in themselves one level down; the image
    # point keeps its id except across the 0 -> 1 id change
    vertices = list(c.vertices)
    v_parent = list(c.vertices)
    v_type = [f0[ty] for ty in vcols["type_cell"]]
    v_fim = (list(vcols["fimage"]) if deeper
             else [index.vertex_copy[f] for f in vcols["fimage"]])
    n_persist = len(vertices)
    new_edges: dict[str, tuple[str, str]] = {}
    new_tiles: dict[str, tuple[Dart, ...]] = {}
    e_parent, e_type, e_orient, e_fim, e_rel = [], [], [], [], []
    t_parent, t_type, t_align, t_fim = [], [], [], []

    # a child's image is the same child of its parent's image, or at level 2
    # the level-1 cell itself.  Edge subdivision: copies of the type's path
    # cells, endpoints resolved by path position (a loop type has one copy id
    # at both path ends)
    for e, ety, s, fim in sorted(zip(edges, ecols["type_cell"],
                                     ecols["type_orient"], ecols["fimage"])):
        verts, darts = edge_tpl[ety]
        fv, fe = (fim + "/v.", fim + "/e.") if deeper else ("", "")
        pv, pe = e + "/v.", e + "/e."
        tail_e, head_e = edges[e]
        slots = [tail_e if s == PLUS else head_e]
        for w1, ty in verts:
            vid = pv + w1
            vertices.append(vid)
            v_parent.append(e)
            v_type.append(ty)
            v_fim.append(fv + w1)
            slots.append(vid)
        slots.append(head_e if s == PLUS else tail_e)
        for j, (e1, d1, ty, o) in enumerate(darts):
            new_edges[pe + e1] = ((slots[j], slots[j + 1]) if d1 == PLUS
                                  else (slots[j + 1], slots[j]))
            e_parent.append(e)
            e_type.append(ty)
            e_orient.append(o)
            e_fim.append(fe + e1)
            e_rel.append(s * d1)
    n_on_edges = len(vertices) - n_persist
    n_edge_children = len(e_parent)

    # tile interiors: boundary position j of the type is the dart bnd[j]
    for t, tty, al0, fim in sorted(zip(c.tiles, tcols["type_cell"],
                                       tcols["type_align"], tcols["fimage"])):
        verts, tedges, ttiles = tile_tpl[tty]
        walk = c.tiles[t]
        r = -al0 % len(walk)
        bnd = walk[r:] + walk[:r]
        fv, fe, ft = ((fim + "/v.", fim + "/e.", fim + "/t.") if deeper
                      else ("", "", ""))
        pv, pe, pt = t + "/v.", t + "/e.", t + "/t."
        for w1, ty in verts:
            vertices.append(pv + w1)
            v_parent.append(t)
            v_type.append(ty)
            v_fim.append(fv + w1)
        for e1, ends, ty, o in tedges:
            ab = []
            for j, w in ends:
                if j is None:
                    ab.append(pv + w)
                elif w is None:
                    x, sign = bnd[j]
                    ab.append(edges[x][0 if sign == PLUS else 1])
                else:
                    ab.append(bnd[j][0] + w)
            new_edges[pe + e1] = tuple(ab)
            e_parent.append(t)
            e_type.append(ty)
            e_orient.append(o)
            e_fim.append(fe + e1)
        for t1, tdarts, ty, al in ttiles:
            new_tiles[pt + t1] = tuple([
                (pe + x if j is None else bnd[j][0] + x, dr)
                for x, dr, j in tdarts])
            t_parent.append(t)
            t_type.append(ty)
            t_align.append(al)
            t_fim.append(ft + t1)

    # parents come in runs: persisting vertices, then the children of edges,
    # then those of tiles
    n_in_tiles = len(vertices) - n_persist - n_on_edges
    n_tile_edges = len(e_parent) - n_edge_children
    cx = SphereComplex(tuple(vertices), new_edges, new_tiles, c.marked)
    memo(cx)["validated"] = ValidationReport(True, [], notes={
        "V": len(vertices), "E": len(new_edges), "F": len(new_tiles)})
    return LeveledComplex(cx, lv.level + 1, {
        "vertex": {"parent": v_parent,
                   "parent_kind": (["vertex"] * n_persist
                                   + ["edge"] * n_on_edges
                                   + ["tile"] * n_in_tiles),
                   "type_cell": v_type, "fimage": v_fim},
        "edge": {"parent": e_parent,
                 "parent_kind": (["edge"] * n_edge_children
                                 + ["tile"] * n_tile_edges),
                 "type_cell": e_type, "type_orient": e_orient, "fimage": e_fim,
                 "rel_orient": e_rel + [PLUS] * n_tile_edges},
        "tile": {"parent": t_parent, "parent_kind": ["tile"] * len(t_parent),
                 "type_cell": t_type, "type_align": t_align,
                 "fimage": t_fim}})


@dataclass
class Tower:
    """Cache of leveled complexes R^0 .. R^n for one rule."""

    rule: SubdivisionRule
    index: RuleIndex
    levels: list[LeveledComplex]
    budget: int = DEFAULT_CELL_BUDGET

    @classmethod
    def build(cls, rule: SubdivisionRule, budget: int = DEFAULT_CELL_BUDGET
              ) -> "Tower":
        """A cold tower of its own, bounded by ``budget`` cells per level."""
        index = require_valid_rule(rule)
        _check_budget(0, _cells(rule.level0), budget)
        return cls(rule, index, [level_zero(rule)], budget)

    @classmethod
    def of(cls, rule: SubdivisionRule) -> "Tower":
        """The rule's shared tower at the default budget: its levels list is
        memoized on the rule, so every caller extends the same levels."""
        index = require_valid_rule(rule)
        m = memo(rule)
        if "levels" not in m:
            m["levels"] = [level_zero(rule)]
        return cls(rule, index, m["levels"])

    def up_to(self, n: int) -> LeveledComplex:
        while len(self.levels) <= n:
            self.levels.append(
                subdivide_once(self.rule, self.index, self.levels[-1],
                               self.budget))
        return self.levels[n]

    def ancestor(self, cell: str, kind: Kind, from_level: int, to_level: int
                 ) -> tuple[Kind, str, int]:
        """(kind, id, orient) of the level-``to_level`` cell whose open cell
        contains the level-``from_level`` cell; orient is the product of the
        edge-in-edge orientations along the way.  A persisting vertex is its
        own parent, so it stays a vertex."""
        self.up_to(from_level)
        orient = PLUS
        for lev in range(from_level, to_level, -1):
            lv = self.levels[lev]
            if kind == "edge":
                orient *= lv.by_id(kind, "rel_orient")[cell]
            cell, kind = (lv.by_id(kind, "parent")[cell],
                          lv.by_id(kind, "parent_kind")[cell])
        return kind, cell, orient


def subdivide(rule: SubdivisionRule, n: int,
              budget: int = DEFAULT_CELL_BUDGET) -> LeveledComplex:
    """Level-n subdivision complex of the rule."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return Tower.build(rule, budget).up_to(n)


# ---------------------------------------------------------------------------
# Fatou / Julia classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VertexClass:
    is_fatou: dict[str, bool]
    cycle_of: dict[str, tuple[str, ...]]
    local_degree: dict[str, int]      # at the level-1 copy
    periodic: frozenset[str]

    @property
    def fatou(self) -> frozenset[str]:
        return frozenset(v for v, b in self.is_fatou.items() if b)

    @property
    def julia(self) -> frozenset[str]:
        return frozenset(v for v, b in self.is_fatou.items() if not b)


def classify_vertices(rule: SubdivisionRule) -> VertexClass:
    index = require_valid_rule(rule)
    f0 = _vertex_dynamics(rule, index)
    local = {v: index.local_degree[index.vertex_copy[v]]
             for v in rule.level0.vertices}

    cycle_of: dict[str, tuple[str, ...]] = {}
    periodic: set[str] = set()
    for v in rule.level0.vertices:
        seen: dict[str, int] = {}     # orbit point -> step
        cur = v
        while cur not in seen:
            seen[cur] = len(seen)
            cur = f0[cur]
        cyc = tuple(seen)[seen[cur]:]
        cycle_of[v] = cyc
        if v in cyc:
            periodic.add(v)

    is_fatou = {v: any(local[c] > 1 for c in cycle_of[v])
                for v in rule.level0.vertices}
    return VertexClass(is_fatou, cycle_of, local, frozenset(periodic))


# ---------------------------------------------------------------------------
# shifts and powers
# ---------------------------------------------------------------------------


def shift(rule: SubdivisionRule, k: int) -> SubdivisionRule:
    """Rule with level-0 = R^k(S), level-1 = R^{k+1}(S), map f."""
    if k < 1:
        raise ValueError("shift exponent must be >= 1")
    tower = Tower.of(rule)
    lo = tower.up_to(k)
    hi = tower.up_to(k + 1)

    cx = hi.complex
    vcols, ecols, tcols = (hi.columns[k] for k in ("vertex", "edge", "tile"))
    carrier_vertices = dict(zip(cx.vertices, zip(vcols["parent_kind"],
                                                 vcols["parent"])))
    carrier_edges = dict(zip(cx.edges, zip(ecols["parent_kind"],
                                           ecols["parent"])))
    carrier_tiles = dict(zip(cx.tiles, tcols["parent"]))
    map_vertices = dict(zip(cx.vertices, vcols["fimage"]))
    # from level 2 on a cell's image keeps its orientation and alignment
    map_edges = {e: EdgeImage(f, PLUS)
                 for e, f in zip(cx.edges, ecols["fimage"])}
    map_tiles = {t: TileImage(f, 0) for t, f in zip(cx.tiles, tcols["fimage"])}
    derived = SubdivisionRule(
        name=f"{rule.name}:shift{k}",
        level0=lo.complex, level1=hi.complex,
        carrier_vertices=carrier_vertices, carrier_edges=carrier_edges,
        carrier_tiles=carrier_tiles, map_vertices=map_vertices,
        map_edges=map_edges, map_tiles=map_tiles,
        metadata={**rule.metadata, "shift_of": rule.name, "shift": k})
    memo(derived)["by_construction"] = True     # see SubdivisionRule
    return derived


def power(rule: SubdivisionRule, k: int) -> SubdivisionRule:
    """Rule with level-0 = S, level-1 = R^k(S), map f^k."""
    if k < 1:
        raise ValueError("power exponent must be >= 1")
    tower = Tower.of(rule)
    hi = tower.up_to(k)
    # the level-0 carrier of a cell is its parent's, composed level by level
    carrier: dict[Kind, dict[str, tuple[Kind, str]]] = {
        kind: {c: (kind, c) for c in cells} for kind, cells in
        (("vertex", rule.level0.vertices), ("edge", rule.level0.edges),
         ("tile", rule.level0.tiles))}
    for lv in tower.levels[1:k + 1]:
        carrier = {kind: {c: carrier[pk][p] for c, pk, p in zip(
                       lv.ids(kind), cols["parent_kind"], cols["parent"])}
                   for kind, cols in lv.columns.items()}

    cx = hi.complex
    ecols, tcols = hi.columns["edge"], hi.columns["tile"]
    carrier_tiles = {t: ref for t, (_, ref) in carrier["tile"].items()}
    map_vertices = dict(zip(cx.vertices, hi.columns["vertex"]["type_cell"]))
    map_edges = {e: EdgeImage(ty, o) for e, ty, o in zip(
        cx.edges, ecols["type_cell"], ecols["type_orient"])}
    map_tiles = {t: TileImage(ty, al) for t, ty, al in zip(
        cx.tiles, tcols["type_cell"], tcols["type_align"])}
    derived = SubdivisionRule(
        name=f"{rule.name}:power{k}",
        level0=rule.level0, level1=hi.complex,
        carrier_vertices=carrier["vertex"], carrier_edges=carrier["edge"],
        carrier_tiles=carrier_tiles, map_vertices=map_vertices,
        map_edges=map_edges, map_tiles=map_tiles,
        metadata={**rule.metadata, "power_of": rule.name, "power": k})
    memo(derived)["by_construction"] = True     # see SubdivisionRule
    return derived
