"""Directed graphs of subdivision dynamics: edge, tile, and band digraphs,
growth classification per edge, and the subdivision growth rate rho(e).

Vertices of the band digraph are pairs (tile, {i, j}) of distinct boundary
walk positions; a level-1 subtile yields an arc when two of its boundary
sides lie on distinct walk positions of the carrying tile.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import lcm

from .complexes import memo
from .digraphs import (
    Arc,
    CertifiedValue,
    DynDigraph,
    GrowthClass,
    condensation,
    cycle_period,
    cycles_are_disjoint,
    growth_class,
    reachable_from,
    recurrent_vertices,
    spectral_radius,
)
from .errors import UnsupportedRegime
from .rules import (
    RuleIndex,
    SubdivisionRule,
    VertexClass,
    classify_vertices,
    require_valid_rule,
)

BandLabel = tuple[str, frozenset]  # (tile id, {walk position i, j})


def build_edge_digraph(rule: SubdivisionRule) -> DynDigraph:
    """One vertex per level-0 edge, one arc per level-1 subedge.  Memoized
    on the rule, so its condensation is computed once per rule too."""
    m = memo(rule)
    if "edge_digraph" not in m:
        index = require_valid_rule(rule)
        arcs = []
        for e0 in sorted(rule.level0.edges):
            for (e1, _) in index.path[e0]:
                arcs.append(Arc(e0, rule.map_edges[e1].edge, tag=e1))
        m["edge_digraph"] = DynDigraph(sorted(rule.level0.edges), arcs)
    return m["edge_digraph"]


def build_tile_digraph(rule: SubdivisionRule) -> DynDigraph:
    """One vertex per level-0 tile, one arc per level-1 subtile.  Memoized
    on the rule like the edge digraph."""
    m = memo(rule)
    if "tile_digraph" not in m:
        index = require_valid_rule(rule)
        arcs = []
        for t0 in sorted(rule.level0.tiles):
            for t1 in index.interior_tiles[t0]:
                arcs.append(Arc(t0, rule.map_tiles[t1].tile, tag=t1))
        m["tile_digraph"] = DynDigraph(sorted(rule.level0.tiles), arcs)
    return m["tile_digraph"]


def level0_bands(rule: SubdivisionRule) -> list[BandLabel]:
    out: list[BandLabel] = []
    for t0 in sorted(rule.level0.tiles):
        m = len(rule.level0.tiles[t0])
        for i in range(m):
            for j in range(i + 1, m):
                out.append((t0, frozenset({i, j})))
    return out


def subtile_boundary_positions(rule: SubdivisionRule, index: RuleIndex,
                               t0: str, t1: str) -> list[tuple[int, int]]:
    """Boundary sides of a carried subtile: (walk position in t1, occurrence
    walk position in t0)."""
    out = []
    for p, dart in enumerate(rule.level1.tiles[t1]):
        c = index.bmatch[t0].get(dart)
        if c is not None:
            out.append((p, index.expanded_orig[t0][c]))
    return out


def build_band_digraph(rule: SubdivisionRule) -> DynDigraph:
    """One vertex per level-0 band, one arc per level-1 subband."""
    index = require_valid_rule(rule)
    bands = level0_bands(rule)
    arcs = []
    for t0 in sorted(rule.level0.tiles):
        for t1 in index.interior_tiles[t0]:
            sides = subtile_boundary_positions(rule, index, t0, t1)
            img = rule.map_tiles[t1]
            m1 = len(rule.level1.tiles[t1])
            m_img = len(rule.level0.tiles[img.tile])
            for a in range(len(sides)):
                for b in range(a + 1, len(sides)):
                    (p, i) = sides[a]
                    (q, j) = sides[b]
                    if i == j:
                        continue  # both sides on one occurrence: no parent band
                    src: BandLabel = (t0, frozenset({i, j}))
                    dst: BandLabel = (img.tile,
                                      frozenset({(p + img.align) % m_img,
                                                 (q + img.align) % m_img}))
                    arcs.append(Arc(src, dst, tag=(t1, p, q)))
    return DynDigraph(bands, arcs)


# ---------------------------------------------------------------------------
# Julia edges and tiles
# ---------------------------------------------------------------------------


def _fatou_exposed_edges(rule: SubdivisionRule, index: RuleIndex,
                         classes: VertexClass) -> set[str]:
    """Level-0 edges some level-n subdivision of which has an interior
    vertex of Fatou type."""
    c = condensation(build_edge_digraph(rule))
    seeds = [e for e in rule.level0.edges
             if any(classes.is_fatou[rule.map_vertices[w]]
                    for w in index.path_interior[e])]
    return set(rule.level0.edges) - c.avoiding(seeds)


def julia_edges(rule: SubdivisionRule) -> frozenset[str]:
    """Edges whose subdivisions never contain a Fatou vertex."""
    index = require_valid_rule(rule)
    classes = classify_vertices(rule)
    exposed = _fatou_exposed_edges(rule, index, classes)
    return frozenset(e for e, (a, b) in rule.level0.edges.items()
                     if e not in exposed
                     and not classes.is_fatou[a] and not classes.is_fatou[b])


def julia_tiles(rule: SubdivisionRule) -> frozenset[str]:
    """Tiles whose subdivisions never contain a Fatou vertex or a non-Julia
    edge: every tile type reachable in the tile digraph has Julia boundary
    edges, non-Fatou corners and carried vertices, and carried edges that
    never expose a Fatou vertex."""
    index = require_valid_rule(rule)
    classes = classify_vertices(rule)
    exposed = _fatou_exposed_edges(rule, index, classes)
    c0 = rule.level0

    def clean(t: str) -> bool:
        # the corners are the endpoints of the boundary edges, so these are
        # Julia edges exactly when they are not exposed
        return (all(d[0] not in exposed and not classes.is_fatou[c0.tail(d)]
                    for d in c0.tiles[t])
                and not any(classes.is_fatou[rule.map_vertices[w]]
                            for w in index.interior_vertices[t])
                and not any(rule.map_edges[e1].edge in exposed
                            for e1 in index.interior_edges[t]))

    c = condensation(build_tile_digraph(rule))
    return frozenset(c.avoiding(t for t in c0.tiles if not clean(t)))


# ---------------------------------------------------------------------------
# growth of edge subdivisions
# ---------------------------------------------------------------------------


def has_polynomial_growth(rule: SubdivisionRule) -> bool:
    """Sub-exponential growth of edge subdivisions: cycles of E are disjoint."""
    return cycles_are_disjoint(build_edge_digraph(rule))


def edge_growth_classes(rule: SubdivisionRule) -> dict[str, GrowthClass]:
    g = build_edge_digraph(rule)
    return {e: growth_class(g, e) for e in rule.level0.edges}


def edge_growth_rate(rule: SubdivisionRule, e0: str,
                     tol: float = 1e-10) -> CertifiedValue:
    """rho(e) = lim |R^n(e)|^(1/n), certified; exact 1.0 in the polynomial case."""
    g = build_edge_digraph(rule)
    cls = growth_class(g, e0)
    if cls.kind == "polynomial":
        return CertifiedValue(1.0, 1.0, 1.0)
    keep = sorted(reachable_from(g, e0))
    return spectral_radius(g.arc_counts(keep), tol=tol)


def recurrency_periods(rule: SubdivisionRule) -> dict[str, int]:
    """Cycle length through [e] for each recurrent edge (polynomial regime)."""
    g = build_edge_digraph(rule)
    if not cycles_are_disjoint(g):
        raise UnsupportedRegime(
            "recurrency periods are defined only for disjoint cycles "
            "(polynomial growth)")
    return {e: cycle_period(g, e) for e in sorted(recurrent_vertices(g))}


def stability_threshold(rule: SubdivisionRule) -> int:
    """K = max lcm of recurrency periods over pairs of recurrent edges."""
    periods = recurrency_periods(rule)
    if not periods:
        return 0
    vals = sorted(periods.values())
    best = 0
    for a in vals:
        for b in vals:
            best = max(best, lcm(a, b))
    return best


def subedge_counts(rule: SubdivisionRule, n_max: int) -> Iterator[dict[str, int]]:
    """|R^n(e)| for every level-0 edge e, for n = 0 .. n_max in turn.

    A level-n subedge of e is a path of length n from e in the edge digraph,
    so counts_n[e] = sum over arcs e -> f of counts_(n-1)[f], from
    counts_0 = 1: the row sums of A^n.  The counts are Python ints, which
    stay exact where int64 would wrap (from n = 63 on doubling_edge)."""
    g = build_edge_digraph(rule)
    counts = dict.fromkeys(g.vertices, 1)
    yield counts
    for _ in range(n_max):
        nxt = dict.fromkeys(g.vertices, 0)
        for a in g.arcs:
            nxt[a.src] += counts[a.dst]
        counts = nxt
        yield counts


def subdivision_edge_count(rule: SubdivisionRule, e0: str, n: int) -> int:
    """|R^n(e)|: number of level-n subedges of e (paths of length n in E)."""
    *_, counts = subedge_counts(rule, n)
    return counts[e0]
