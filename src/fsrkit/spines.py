"""Non-expanding spines: recurrent edges and bands, dual recurrent skeletons,
the half-edge spine with its discrete train-track structure, peripheral
cycles of periodic Julia vertices, and the Levy decision in the polynomial
regime.

The level-n spine is assembled directly from bones of recurrent level-n
bands: every band contributes the two dual half-edges meeting at its tile's
dual vertex.  A dual edge is fully present when both of its half-edges are
collected; in the polynomial regime at stable levels this reproduces the
1/2-truncation of the dual recurrent skeleton.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .complexes import (
    CombinatorialCurve,
    Dart,
    DualSkeleton,
    MINUS,
    PLUS,
    SphereComplex,
    dual_skeleton,
    enclosed_markings,
    flip,
    is_embedded_closed_walk,
)
from .digraphs import DynDigraph, condensation
from .dynamics import (
    build_band_digraph,
    build_edge_digraph,
    has_polynomial_growth,
    stability_threshold,
)
from .errors import (
    BelowThreshold,
    BudgetExceeded,
    InternalInconsistency,
    UnsupportedRegime,
)
from .rules import LeveledComplex, SubdivisionRule, Tower, classify_vertices

CYCLE_ENUM_CAP = 100_000


# ---------------------------------------------------------------------------
# recurrent cells
# ---------------------------------------------------------------------------


def _recurrent_paths(g: DynDigraph, start, n: int, cap: int) -> list[list]:
    """Tag sequences of recurrent length-n paths from start.

    A path is recurrent when its end has a return path of length >= 1 to the
    start; for n = 0 this means the start lies on a cycle.  Every vertex of
    such a path lies in the strong component of the start.
    """
    c = condensation(g)
    home = c.comp_of[start]
    if c.internal[home] == 0:
        return []
    if n == 0:
        return [[]]
    out: list[list] = []
    stack = [(start, [])]
    while stack:
        v, tags = stack.pop()
        if len(tags) == n:
            out.append(tags)
            if len(out) > cap:
                raise BudgetExceeded(
                    f"more than {cap} recurrent paths", reached=n)
            continue
        for a in c.out_arcs[v]:
            if c.comp_of[a.dst] == home:
                stack.append((a.dst, tags + [a.tag]))
    return out


def recurrent_edge_ids(rule: SubdivisionRule, n: int,
                       cap: int = CYCLE_ENUM_CAP) -> frozenset[str]:
    """Ids of recurrent level-n subedges of level-0 edges."""
    g = build_edge_digraph(rule)
    out: set[str] = set()
    for e0 in sorted(rule.level0.edges):
        for tags in _recurrent_paths(g, e0, n, cap):
            cur = e0
            for k, tag in enumerate(tags):
                cur = tag if k == 0 else f"{cur}/e.{tag}"
            out.add(cur if n > 0 else e0)
    return frozenset(out)


def recurrent_bands(rule: SubdivisionRule, n: int,
                    cap: int = CYCLE_ENUM_CAP) -> list[tuple[str, frozenset]]:
    """Recurrent level-n bands as (level-n tile id, walk position pair)."""
    g = build_band_digraph(rule)
    out: list[tuple[str, frozenset]] = []
    for b0 in g.vertices:
        t0, pos = b0
        for tags in _recurrent_paths(g, b0, n, cap):
            tile = t0
            positions = pos
            for k, (t1, p, q) in enumerate(tags):
                tile = t1 if k == 0 else f"{tile}/t.{t1}"
                positions = frozenset({p, q})
            out.append((tile, positions))
    return sorted(set(out), key=lambda b: (b[0], sorted(b[1])))


def recurrent_cells(rule: SubdivisionRule, n: int
                    ) -> tuple[frozenset[str], list[tuple[str, frozenset]]]:
    return recurrent_edge_ids(rule, n), recurrent_bands(rule, n)


# ---------------------------------------------------------------------------
# spine assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpineComponent:
    tiles: tuple[str, ...]
    full_edges: tuple[str, ...]
    half_ends: tuple[Dart, ...]          # dangling bone ends (walk darts)
    shape: str                           # star_tree | tree | peripheral_cycle |
                                         # cycle_with_attachments | multi_cycle
    peripheral_vertex: str | None = None
    cycle: tuple[Dart, ...] | None = None


@dataclass
class Spine:
    level: int
    polynomial: bool
    recurrent_edges: frozenset[str]
    bands: list[tuple[str, frozenset]]
    ends: frozenset[Dart]                # collected bone half-edges, as darts
    full_edges: frozenset[str]
    components: list[SpineComponent]
    gates: dict[str, tuple[Dart, ...]]   # discrete: one gate per direction
    notes: dict = field(default_factory=dict)

    def is_empty(self) -> bool:
        return not self.ends


def band_ends(lv: LeveledComplex, band: tuple[str, frozenset]) -> list[Dart]:
    tile, pos = band
    walk = lv.complex.tiles[tile]
    return [walk[p] for p in sorted(pos)]


def _component_shape(cx: SphereComplex, dual: DualSkeleton,
                     tiles: set[str], fulls: set[str],
                     halves: list[Dart]) -> SpineComponent:
    deg = {t: 0 for t in tiles}
    ends_of: dict[str, list[str]] = {}
    for e in fulls:
        a = dual.dart_tile[(e, PLUS)]
        b = dual.dart_tile[(e, MINUS)]
        ends_of[e] = [a, b]
        deg[a] += 1
        deg[b] += 1
    for d in halves:
        deg[dual.dart_tile[d]] += 1

    b1 = len(fulls) - len(tiles) + 1
    branch = [t for t in tiles if deg[t] >= 3]
    if b1 == 0:
        shape = "star_tree" if len(branch) <= 1 else "tree"
        return SpineComponent(tuple(sorted(tiles)), tuple(sorted(fulls)),
                              tuple(sorted(halves)), shape)
    if b1 >= 2:
        return SpineComponent(tuple(sorted(tiles)), tuple(sorted(fulls)),
                              tuple(sorted(halves)), "multi_cycle")

    # b1 == 1: strip leaves to expose the unique cycle
    cyc_deg = {t: 0 for t in tiles}
    for e in fulls:
        a, b = ends_of[e]
        cyc_deg[a] += 1
        cyc_deg[b] += 1
    alive_edges = set(fulls)
    alive_tiles = set(tiles)
    changed = True
    while changed:
        changed = False
        for e in sorted(alive_edges):
            a, b = ends_of[e]
            if cyc_deg[a] <= 1 or cyc_deg[b] <= 1:
                alive_edges.discard(e)
                cyc_deg[a] -= 1
                cyc_deg[b] -= 1
                changed = True
        alive_tiles = {t for t in alive_tiles if cyc_deg[t] > 0}
    cycle = _orient_cycle(dual, alive_tiles, alive_edges)
    pure = (alive_edges == set(fulls) and alive_tiles == set(tiles)
            and not halves)
    shape = "cycle_with_attachments"
    pv = None
    if cycle is not None:
        left, right = enclosed_markings(cx, CombinatorialCurve(cycle), dual,
                                        count_all_vertices=True)
        if len(left) == 1:
            pv = left[0]
        elif len(right) == 1:
            pv = right[0]
        if pure and pv is not None:
            shape = "peripheral_cycle"
        elif pure:
            shape = "cycle"
    return SpineComponent(tuple(sorted(tiles)), tuple(sorted(fulls)),
                          tuple(sorted(halves)), shape,
                          peripheral_vertex=pv, cycle=cycle)


def _orient_cycle(dual: DualSkeleton, tiles: set[str], edges: set[str]
                  ) -> tuple[Dart, ...] | None:
    if not edges:
        return None
    if len(edges) == 1:
        e = min(edges)
        if dual.dart_tile[(e, PLUS)] == dual.dart_tile[(e, MINUS)]:
            return ((e, PLUS),)
        return None
    start = min(edges)
    darts: list[Dart] = [(start, PLUS)]
    used = {start}
    while len(used) < len(edges):
        at = dual.dart_tile[darts[-1]]  # head tile of the last dual dart
        cands = [(e, s) for e in sorted(edges - used) for s in (PLUS, MINUS)
                 if dual.dart_tile[flip((e, s))] == at]
        if not cands:
            return None
        darts.append(cands[0])
        used.add(cands[0][0])
    if dual.dart_tile[darts[-1]] != dual.dart_tile[flip(darts[0])]:
        return None
    return tuple(darts)


def non_expanding_spine(rule: SubdivisionRule, n: int,
                        enforce_threshold: bool = True) -> Spine:
    """Union of bones of recurrent level-n bands, with components classified.

    In the polynomial regime the result below the stability threshold K is
    refused (the truncation identity is only guaranteed from K on); pass
    ``enforce_threshold=False`` for diagnostic use.
    """
    poly = has_polynomial_growth(rule)
    if poly and enforce_threshold:
        k = stability_threshold(rule)
        if n < k:
            raise BelowThreshold(
                f"level {n} is below stability threshold {k}", threshold=k)

    lv = Tower.of(rule).up_to(n)
    cx = lv.complex
    dual = dual_skeleton(cx)

    rec_edges = recurrent_edge_ids(rule, n)
    bands = recurrent_bands(rule, n)

    ends: set[Dart] = set()
    for band in bands:
        for d in band_ends(lv, band):
            if d[0] not in rec_edges:
                raise InternalInconsistency(
                    f"recurrent band {band} has non-recurrent side {d[0]}")
            ends.add(d)
    full = {e for e in rec_edges if (e, PLUS) in ends and (e, MINUS) in ends}
    halves_by_tile: dict[str, list[Dart]] = {}
    for d in sorted(ends):
        if d[0] not in full:
            halves_by_tile.setdefault(dual.dart_tile[d], []).append(d)

    # transitivity of band recurrence per tile (polynomial regime invariant)
    violations = []
    if poly:
        per_tile: dict[str, list[frozenset]] = {}
        for tile, pos in bands:
            per_tile.setdefault(tile, []).append(pos)
        for tile, pairs in per_tile.items():
            pairset = set(pairs)
            positions = sorted({p for pair in pairs for p in pair})
            for trio in itertools.combinations(positions, 3):
                a, b, c = trio
                have = [frozenset(x) in pairset
                        for x in ((a, b), (a, c), (b, c))]
                if sum(have) == 2:
                    violations.append((tile, trio))
    if violations:
        raise InternalInconsistency(
            f"band recurrence not transitive: {violations[:3]}")

    # connected components over tiles touched by the spine
    touched = {dual.dart_tile[d] for d in ends}
    adj: dict[str, set[str]] = {t: set() for t in touched}
    for e in full:
        a = dual.dart_tile[(e, PLUS)]
        b = dual.dart_tile[(e, MINUS)]
        adj[a].add(b)
        adj[b].add(a)
    components: list[SpineComponent] = []
    seen: set[str] = set()
    for t0 in sorted(touched):
        if t0 in seen:
            continue
        comp = {t0}
        stack = [t0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        fulls = {e for e in full if dual.dart_tile[(e, PLUS)] in comp}
        halves = [d for t in comp for d in halves_by_tile.get(t, [])]
        components.append(_component_shape(cx, dual, comp, fulls, halves))

    gates = {}
    for t in sorted(touched):
        at = [d for d in sorted(ends) if dual.dart_tile[d] == t]
        gates[t] = tuple(at)

    notes: dict = {"bands": len(bands)}
    if poly:
        notes["threshold"] = stability_threshold(rule)
        # truncation identity: at stable levels the spine equals the
        # 1/2-truncation of the dual recurrent skeleton
        p2 = 2 * notes["threshold"]
        if n >= p2:
            trunc_ends = _truncation_ends(dual, rec_edges)
            if trunc_ends != ends:
                raise InternalInconsistency(
                    "spine differs from the 1/2-truncation of the dual "
                    f"recurrent skeleton at level {n}")
            notes["truncation_checked"] = True
    return Spine(n, poly, rec_edges, bands, frozenset(ends), frozenset(full),
                 components, gates, notes)


def _truncation_ends(dual: DualSkeleton, rec_edges: frozenset[str]
                     ) -> set[Dart]:
    """Half-edges surviving the 1/2-truncation of the dual recurrent skeleton."""
    deg: dict[str, int] = {}
    for e in rec_edges:
        for s in (PLUS, MINUS):
            deg[dual.dart_tile[(e, s)]] = deg.get(dual.dart_tile[(e, s)], 0) + 1
    ends: set[Dart] = set()
    for e in rec_edges:
        for s in (PLUS, MINUS):
            if deg[dual.dart_tile[(e, s)]] >= 2:
                ends.add((e, s))
    # an edge with both end-tiles of degree 1 vanishes entirely (edge
    # component); one with a single attached end keeps that half only
    return ends


@dataclass
class DualRecurrentSkeleton:
    level: int
    edges: frozenset[str]
    components: list[tuple[tuple[str, ...], tuple[str, ...]]]  # (tiles, edges)
    edge_components: tuple[str, ...]
    below_threshold: bool


def dual_recurrent_skeleton(rule: SubdivisionRule, n: int
                            ) -> DualRecurrentSkeleton:
    """Subgraph of the level-n dual 1-skeleton spanned by recurrent duals."""
    dual = dual_skeleton(Tower.of(rule).up_to(n).complex)
    rec = recurrent_edge_ids(rule, n)

    adj: dict[str, set[str]] = {}
    for e in rec:
        a = dual.dart_tile[(e, PLUS)]
        b = dual.dart_tile[(e, MINUS)]
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    comps = []
    seen: set[str] = set()
    for t0 in sorted(adj):
        if t0 in seen:
            continue
        comp = {t0}
        stack = [t0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comp_edges = tuple(sorted(e for e in rec
                                  if dual.dart_tile[(e, PLUS)] in comp))
        comps.append((tuple(sorted(comp)), comp_edges))
    edge_comps = tuple(e for tiles, es in comps if len(es) == 1 for e in es)
    below = False
    if has_polynomial_growth(rule):
        below = n < stability_threshold(rule)
    return DualRecurrentSkeleton(n, rec, comps, edge_comps, below)


# ---------------------------------------------------------------------------
# peripheral cycles
# ---------------------------------------------------------------------------


def peripheral_cycles(rule: SubdivisionRule, n: int
                      ) -> dict[str, CombinatorialCurve]:
    """Level-n non-expanding cycle around each periodic Julia vertex.

    The cycle is the boundary of the dual face at the vertex: it crosses
    exactly the level-n edges incident to the vertex, through its corner
    tiles.  Corner subbands of a periodic Julia vertex are recurrent, so the
    cycle is supported in the spine; this is asserted.
    """
    classes = classify_vertices(rule)
    dual = dual_skeleton(Tower.of(rule).up_to(n).complex)

    spine = non_expanding_spine(rule, n, enforce_threshold=False)

    out: dict[str, CombinatorialCurve] = {}
    for v in sorted(rule.level0.vertices):
        if classes.is_fatou[v] or v not in classes.periodic:
            continue
        cyc = dual.face(v)
        curve = CombinatorialCurve(cyc)
        for d in cyc:
            if d[0] not in spine.recurrent_edges:
                raise InternalInconsistency(
                    f"peripheral cycle of {v} crosses non-recurrent edge {d[0]}")
        out[v] = curve
    return out


# ---------------------------------------------------------------------------
# cycle classification and the Levy decision
# ---------------------------------------------------------------------------


def classify_cycle(rule: SubdivisionRule, n: int, curve: CombinatorialCurve,
                   marked: frozenset[str] | None = None) -> str:
    """One of trivial, peripheral_julia, peripheral_fatou, essential."""
    classes = classify_vertices(rule)
    cx = Tower.of(rule).up_to(n).complex
    if marked is not None:
        cx = replace(cx, marked=frozenset(marked))
    left, right = enclosed_markings(cx, curve)
    if not left or not right:
        return "trivial"
    for side in (left, right):
        if len(side) == 1 and not classes.is_fatou[side[0]]:
            return "peripheral_julia"
    for side in (left, right):
        if len(side) == 1 and classes.is_fatou[side[0]]:
            return "peripheral_fatou"
    return "essential"


def _enumerate_embedded_cycles(dual: DualSkeleton, edges: frozenset[str],
                               cap: int = CYCLE_ENUM_CAP
                               ) -> list[CombinatorialCurve]:
    """Embedded closed walks in the spine using each full edge at most once."""
    edges_at: dict[str, list[str]] = {}
    for e in edges:
        for s in (PLUS, MINUS):
            edges_at.setdefault(dual.dart_tile[(e, s)], []).append(e)

    found: set[tuple[Dart, ...]] = set()
    results: list[CombinatorialCurve] = []

    def canonical(seq: tuple[Dart, ...]) -> tuple[Dart, ...]:
        best = None
        for cand in (seq, tuple(flip(d) for d in reversed(seq))):
            for r in range(len(cand)):
                rot = cand[r:] + cand[:r]
                if best is None or rot < best:
                    best = rot
        return best

    order = sorted(edges)
    for k, e0 in enumerate(order):
        allowed = set(order[k:])
        for s0 in (PLUS, MINUS):
            d0 = (e0, s0)
            start_tile = dual.dart_tile[flip(d0)]
            stack = [(d0, (d0,), frozenset({e0}))]
            while stack:
                if len(found) > cap:
                    raise BudgetExceeded("embedded-cycle cap hit", reached=cap)
                d, seq, used = stack.pop()
                at = dual.dart_tile[d]
                if at == start_tile:
                    curve = CombinatorialCurve(seq)
                    if is_embedded_closed_walk(dual, curve):
                        cf = canonical(seq)
                        if cf not in found:
                            found.add(cf)
                            results.append(CombinatorialCurve(cf))
                    # note: continue extending; longer closings may also exist
                for e in sorted((set(edges_at.get(at, [])) & allowed) - used):
                    for s in (PLUS, MINUS):
                        nd = (e, s)
                        if dual.dart_tile[flip(nd)] == at:
                            stack.append((nd, seq + (nd,), used | {e}))
    return results


@dataclass
class LevyReport:
    levy_free: bool
    witness: CombinatorialCurve | None
    witness_class: str | None
    level: int
    cycle_classes: list[tuple[str, int]]     # (classification, curve length)
    notes: dict = field(default_factory=dict)


def is_levy_free(rule: SubdivisionRule, marked: frozenset[str] | None = None
                 ) -> LevyReport:
    """Levy decision for polynomially growing rules via spine essentiality.

    Returns levy_free=False with an essential supported curve as witness.
    The search covers embedded closed walks using each spine edge at most
    once; components whose cycle space has rank >= 2 are flagged in the
    notes, since a hypothetical essential class there could in principle
    require edge multiplicities above one.
    """
    if not has_polynomial_growth(rule):
        raise UnsupportedRegime(
            "Levy decision is implemented for polynomial edge growth only")
    marked = frozenset(marked) if marked is not None else rule.marked
    if not marked:
        marked = frozenset(rule.level0.vertices)

    n = max(stability_threshold(rule), 1)
    spine = non_expanding_spine(rule, n)
    notes: dict = {"spine_level": n, "marked": tuple(sorted(marked))}
    if any(c.shape == "multi_cycle" for c in spine.components):
        notes["multi_cycle_components"] = True

    if spine.is_empty() or not spine.full_edges:
        return LevyReport(True, None, None, n, [], notes)

    dual = dual_skeleton(Tower.of(rule).up_to(n).complex)
    classesx = []
    for curve in _enumerate_embedded_cycles(dual, spine.full_edges):
        cls = classify_cycle(rule, n, curve, marked)
        classesx.append((cls, len(curve)))
        if cls in ("essential", "peripheral_fatou"):
            return LevyReport(False, curve, cls, n, classesx, notes)
    return LevyReport(True, None, None, n, classesx, notes)


# ---------------------------------------------------------------------------
# type-labeled spine signatures (level stability)
# ---------------------------------------------------------------------------


def _component_canonical(node_labels: dict[str, tuple],
                         edges: list[tuple[str, str, tuple]],
                         halves: list[tuple[str, tuple]]) -> tuple:
    """Canonical form of a small labeled multigraph (brute force over
    label-compatible bijections)."""
    nodes = sorted(node_labels)
    if len(nodes) > 9:
        # large components: weaker signature by sorted local data
        degseq = sorted((node_labels[n],
                         tuple(sorted(lbl for a, b, lbl in edges
                                      if n in (a, b))),
                         tuple(sorted(lbl for m, lbl in halves if m == n)))
                        for n in nodes)
        return ("large", tuple(degseq))

    import itertools as it

    best = None
    for perm in it.permutations(range(len(nodes))):
        idx = {n: perm[i] for i, n in enumerate(nodes)}
        labels = tuple(lbl for _, lbl in sorted(
            (idx[n], node_labels[n]) for n in nodes))
        es = tuple(sorted((min(idx[a], idx[b]), max(idx[a], idx[b]), lbl)
                          for a, b, lbl in edges))
        hs = tuple(sorted((idx[n], lbl) for n, lbl in halves))
        cand = (labels, es, hs)
        if best is None or cand < best:
            best = cand
    return best


def spine_type_signature(rule: SubdivisionRule, n: int) -> tuple:
    """Isomorphism invariant of the level-n spine as a type-labeled graph.

    Nodes carry their tile type, full edges and half-ends their edge type;
    levels n and n + lcm(periods) must agree in the polynomial regime.
    """
    spine = non_expanding_spine(rule, n, enforce_threshold=False)
    lv = Tower.of(rule).up_to(n)
    dual = dual_skeleton(lv.complex)

    ttype = lv.by_id("tile", "type_cell")
    etype = lv.by_id("edge", "type_cell")
    comps = []
    for comp in spine.components:
        node_labels = {t: (ttype[t],) for t in comp.tiles}
        edges = [(dual.dart_tile[(e, PLUS)], dual.dart_tile[(e, MINUS)],
                  (etype[e],)) for e in comp.full_edges]
        halves = [(dual.dart_tile[d], (etype[d[0]],))
                  for d in comp.half_ends]
        comps.append(_component_canonical(node_labels, edges, halves))
    return tuple(sorted(comps))
