"""Conformal graph energies and certified bounds on the asymptotic energy.

Energies of piecewise-linear graph maps are computed exactly from explicit
piece lists, so every reported upper bound is the energy of a concrete
representative and hence certifies a bound on the homotopy-class energy and,
through submultiplicativity, on the asymptotic energy.  The certificate engine
builds the dual-skeleton virtual endomorphism, removes one edge per Julia
vertex, equips the base with a K-expanding length, deforms the map near the
recurrent forest by a staggered cascade of local pulls, and evaluates the
resulting fill profile exactly.  Each certificate map has integer lengths and
breakpoints: its rational geometry scaled by the common denominator D of its
breakpoints.  A derivative is then a ratio of integers, and since int / int
and float(Fraction) both round correctly, every fill value is bitwise the one
of the unscaled map (``test_fill_profile_scale_invariant``).

The per-level values a_n of the natural representatives (unit base lengths)
need no level-n complex: a_n = (max_e |R^n(e)|)^(1/p), with the subedge
counts |R^n(e)| taken as exact integers from the edge digraph.
``test_natural_levels_match_explicit_representative`` checks this identity
against the explicitly built representatives.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf

from .complexes import Dart, MINUS, PLUS, dual_skeleton, flip, memo
from .digraphs import condensation
from .dynamics import (
    build_edge_digraph,
    has_polynomial_growth,
    recurrency_periods,
    stability_threshold,
    subedge_counts,
)
from .errors import (
    BudgetExceeded,
    FsrError,
    InternalInconsistency,
    UnsupportedRegime,
    ValidationFailure,
)
from .multicurves import MulticurveSpec, lambda_p
from .rules import (
    SubdivisionRule,
    Tower,
    classify_vertices,
    power,
    shift,
)
from .spines import recurrent_edge_ids

MARGIN = 1e-9


# ---------------------------------------------------------------------------
# conformal graphs and PL maps with per-edge actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConformalGraph:
    vertices: tuple[str, ...]
    edges: dict[str, tuple[str, str]]
    p: float
    lengths: dict[str, int | Fraction]

    def __post_init__(self):
        for e, val in self.lengths.items():
            if val < 0 or (val == 0 and self.p not in (1, inf)):
                raise ValidationFailure(
                    f"edge {e} has non-positive length {val}", check="lengths")


@dataclass(frozen=True)
class Onto:
    edge: str
    orient: int     # +1 tail->tail


@dataclass(frozen=True)
class Collapse:
    vertex: str


@dataclass(frozen=True)
class PLGraphMap:
    domain: ConformalGraph
    codomain: ConformalGraph
    vertex_image: dict[str, str]
    action: dict[str, Onto | Collapse]

    def derivative(self, e: str) -> Fraction:
        act = self.action[e]
        if isinstance(act, Collapse):
            return Fraction(0)
        return Fraction(self.codomain.lengths[act.edge],
                        self.domain.lengths[e])


def fill_pp(m: PLGraphMap, p: float | None = None) -> dict[str, float]:
    """Fill profile per codomain edge (constant for edge-to-edge maps)."""
    p = m.codomain.p if p is None else p
    out = {e: 0.0 for e in m.codomain.edges}
    for e, act in m.action.items():
        if isinstance(act, Collapse):
            continue
        if p == 1:
            out[act.edge] += float(
                Fraction(m.domain.lengths[e], m.codomain.lengths[act.edge]))
        elif p == inf:
            pass  # handled in energy_pp
        else:
            out[act.edge] += float(m.derivative(e)) ** (p - 1.0)
    return out


def energy_pp(m: PLGraphMap, p: float | None = None) -> float:
    """E^p_p of the map: sup-norm p-th root of the fill, or the Lipschitz
    constant at p = infinity."""
    p = m.codomain.p if p is None else p
    if p == inf:
        derivs = [float(m.derivative(e)) for e, a in m.action.items()
                  if isinstance(a, Onto)]
        return max(derivs, default=0.0)
    filled = fill_pp(m, p)
    top = max(filled.values(), default=0.0)
    if p == 1:
        return top
    return top ** (1.0 / p)


def energy_1p(m: PLGraphMap, p: float) -> float:
    """E^1_p of a map from a weighted graph: the p/(p-1)-norm of the
    multiplicity function, integrated over codomain edge lengths."""
    if p <= 1:
        raise ValidationFailure("energy_1p needs p > 1; use fill_pp at p = 1",
                                check="exponent")
    mult = {e: Fraction(0) for e in m.codomain.edges}
    for e, act in m.action.items():
        if isinstance(act, Onto):
            mult[act.edge] += m.domain.lengths[e]
    pv = p / (p - 1.0)
    total = 0.0
    for e, n in mult.items():
        total += float(n) ** pv * float(m.codomain.lengths[e])
    return total ** (1.0 / pv)


# ---------------------------------------------------------------------------
# dual-skeleton virtual endomorphism and natural representatives
# ---------------------------------------------------------------------------


def dual_conformal_graph(rule: SubdivisionRule, tower: Tower, n: int, p: float
                         ) -> ConformalGraph:
    """Level-n dual skeleton with every dual edge of length 1."""
    lv = tower.up_to(n)
    dual = dual_skeleton(lv.complex)
    return ConformalGraph(tuple(sorted(lv.complex.tiles)),
                          {e: (dual.dart_tile[(e, MINUS)],
                               dual.dart_tile[(e, PLUS)])
                           for e in lv.complex.edges},
                          p, dict.fromkeys(lv.complex.edges, Fraction(1)))


def natural_representative(rule: SubdivisionRule, n: int, m: int,
                           p: float = 2.0) -> PLGraphMap:
    """phi^n_m: level-n dual -> level-m dual.  A dual edge maps onto the dual
    of its level-m ancestor edge, or collapses when the ancestor is a tile."""
    if not n > m >= 0:
        raise ValidationFailure("need n > m >= 0", check="levels")
    tower = Tower.of(rule)
    gn = dual_conformal_graph(rule, tower, n, p)
    gm = dual_conformal_graph(rule, tower, m, p)
    lvn = tower.up_to(n)

    vertex_image = {}
    for t in lvn.complex.tiles:
        vertex_image[t] = tower.ancestor(t, "tile", n, m)[1]
    action: dict[str, Onto | Collapse] = {}
    for e in lvn.complex.edges:
        kind, anc, orient = tower.ancestor(e, "edge", n, m)
        if kind == "edge":
            action[e] = Onto(anc, orient)
        elif kind == "tile":
            action[e] = Collapse(anc)
        else:
            raise InternalInconsistency(f"edge {e} has vertex ancestor")
    return PLGraphMap(gn, gm, vertex_image, action)


def e1_exact(rule: SubdivisionRule, n: int) -> int:
    """E^1 of the level-n natural representative: max subedge count."""
    *_, counts = subedge_counts(rule, n)
    return max(counts.values())


# ---------------------------------------------------------------------------
# K-expanding lengths
# ---------------------------------------------------------------------------


def chain_rank_lengths(rule: SubdivisionRule, k_factor: int,
                       boost_above: dict[str, list[str]] | None = None
                       ) -> dict[str, int]:
    """alpha(e) = (2K)^rank(e) with ranks from longest chains of the
    subdivision partial order, so incomparable edges share lengths.

    This satisfies the K-expanding inequality on every strictly comparable
    pair, which is what the preimage-length estimates use, while keeping
    recurrent loop edges of equal depth at equal length.  ``boost_above``
    adds artificial constraints edge > each listed edge (used to make the
    retraction's removed edge dominate its Julia star)."""
    if k_factor <= 1:
        raise ValidationFailure("K must exceed 1", check="parameters")
    g = build_edge_digraph(rule)
    periods = recurrency_periods(rule)
    if any(per != 1 for per in periods.values()):
        raise UnsupportedRegime(
            "chain ranks require loop cycles; replace the rule by a power")
    # arcs point from shorter to longer: preorder arcs a -> b (b a type of a
    # subedge of a, b != a) plus the requested boosts
    up: dict[str, set[str]] = {e: set() for e in rule.level0.edges}
    for a in g.arcs:
        if a.src != a.dst:
            up[a.src].add(a.dst)
    for tall, shorts in (boost_above or {}).items():
        for s in shorts:
            if s != tall:
                up[s].add(tall)

    rank: dict[str, int] = {}
    state: dict[str, int] = {}

    def visit(e: str) -> int:
        if state.get(e) == 1:
            raise InternalInconsistency(
                "length constraints are cyclic; cannot build K-expanding "
                "lengths with the requested boosts")
        if e in rank:
            return rank[e]
        state[e] = 1
        r = 0
        for x in up[e]:
            r = max(r, visit(x) + 1)
        state[e] = 2
        # rank counts the chain above; longer chains above mean shorter edges
        rank[e] = r
        return r

    for e in rule.level0.edges:
        visit(e)
    top = max(rank.values(), default=0)
    alpha = {e: (2 * k_factor) ** (top - rank[e])
             for e in rule.level0.edges}
    for src, outs in up.items():
        for dst in outs:
            if not alpha[dst] > k_factor * alpha[src]:
                raise InternalInconsistency("chain-rank lengths not K-expanding")
    return alpha


# ---------------------------------------------------------------------------
# piecewise-linear maps with explicit pieces and exact fill profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """Linear piece: source interval of an edge mapped onto an oriented
    interval of a codomain edge.  Coordinates measure length from the tail:
    ints on the scale of the piece's map (certificate maps), or Fractions."""

    src_edge: str
    src_a: int | Fraction
    src_b: int | Fraction
    img_edge: str
    img_a: int | Fraction
    img_b: int | Fraction

    def derivative(self) -> float | Fraction:
        width = self.src_b - self.src_a
        if width <= 0:
            raise InternalInconsistency("empty source interval")
        return abs(self.img_b - self.img_a) / width


@dataclass
class PiecewiseMap:
    domain: ConformalGraph
    codomain: ConformalGraph
    pieces: list[Piece] = field(default_factory=list)

    def check(self) -> None:
        """Each piece lies inside its edges; the pieces of each source edge
        that has any tile [0, L] in order, and the map is continuous: each
        piece starts where the one before it ends, and all piece ends at one
        domain vertex have one image.  An edge without pieces is left out."""
        by_edge: dict[str, list[Piece]] = {}
        for pc in self.pieces:
            le = self.domain.lengths[pc.src_edge]
            if not (0 <= pc.src_a < pc.src_b <= le):
                raise InternalInconsistency(f"bad source interval {pc}")
            li = self.codomain.lengths[pc.img_edge]
            if not (0 <= min(pc.img_a, pc.img_b)
                    and max(pc.img_a, pc.img_b) <= li):
                raise InternalInconsistency(f"bad image interval {pc}")
            by_edge.setdefault(pc.src_edge, []).append(pc)
        images: dict[str, object] = {}     # domain vertex -> image point
        for e, pcs in by_edge.items():
            tail, head = self.domain.edges[e]
            at = 0
            for pc in sorted(pcs, key=lambda pc: pc.src_a):
                if pc.src_a != at:
                    raise InternalInconsistency(
                        f"pieces of {e} leave a gap or overlap at {at}")
                start = self._point(pc.img_edge, pc.img_a)
                if at == 0:
                    if images.setdefault(tail, start) != start:
                        raise InternalInconsistency(
                            f"vertex {tail} has two images {images[tail]} "
                            f"and {start}")
                elif start != where:
                    raise InternalInconsistency(
                        f"pieces of {e} do not meet at {at}")
                at, where = pc.src_b, self._point(pc.img_edge, pc.img_b)
            if at != self.domain.lengths[e]:
                raise InternalInconsistency(f"pieces of {e} end at {at}")
            if images.setdefault(head, where) != where:
                raise InternalInconsistency(
                    f"vertex {head} has two images {images[head]} and {where}")

    def _point(self, edge: str, coord: int | Fraction) -> object:
        """A codomain point: the edge's tail or head vertex at coordinate 0
        or L, else (edge, coordinate)."""
        if coord == 0:
            return self.codomain.edges[edge][0]
        if coord == self.codomain.lengths[edge]:
            return self.codomain.edges[edge][1]
        return edge, coord


FillCuts = dict[str, tuple[list, list[tuple[int, int, float]]]]


def fill_cuts(pm: PiecewiseMap) -> FillCuts:
    """The part of ``fill_profile`` that does not depend on p: per codomain
    edge, its sorted breakpoints and, in piece order, the cut index range
    and derivative of each piece with a non-degenerate image on it."""
    cover: dict[str, list[tuple[Fraction, Fraction, float]]] = {
        e: [] for e in pm.codomain.edges}
    for pc in pm.pieces:
        lo, hi = sorted((pc.img_a, pc.img_b))
        if lo == hi:
            continue
        cover[pc.img_edge].append((lo, hi, float(pc.derivative())))
    out: FillCuts = {}
    for e, ivs in cover.items():
        cuts = sorted({0, pm.codomain.lengths[e],
                       *(x for iv in ivs for x in iv[:2])})
        index = {x: i for i, x in enumerate(cuts)}
        out[e] = cuts, [(index[lo], index[hi], w) for lo, hi, w in ivs]
    return out


def fill_values(structure: FillCuts, p: float
                ) -> dict[str, list[tuple[Fraction, Fraction, float]]]:
    """The fill profile at p from the cut structure of ``fill_cuts``."""
    out: dict[str, list[tuple[Fraction, Fraction, float]]] = {}
    for e, (cuts, ivs) in structure.items():
        fill = [0.0] * (len(cuts) - 1)
        # each sub-interval sums its covering pieces in piece order, so the
        # floats are bitwise those of a per-interval scan
        for i0, i1, w in ivs:
            w = w if p == inf else w ** (p - 1.0)
            for i in range(i0, i1):
                fill[i] = max(fill[i], w) if p == inf else fill[i] + w
        out[e] = list(zip(cuts, cuts[1:], fill))
    return out


def fill_profile(pm: PiecewiseMap, p: float
                 ) -> dict[str, list[tuple[Fraction, Fraction, float]]]:
    """Per codomain edge, the fill value on each sub-interval between
    breakpoints (exact int or Fraction breakpoints, float fill values)."""
    return fill_values(fill_cuts(pm), p)


def piecewise_energy(prof: dict[str, list[tuple[Fraction, Fraction, float]]],
                     p: float) -> tuple[float, str]:
    """E^p_p from a fill profile: the p-th root of the sup fill (the sup
    itself at p = infinity), and the first edge attaining it."""
    top, where = 0.0, ""
    for e, rows in prof.items():
        for _, _, val in rows:
            if val > top:
                top, where = val, e
    return (top if p == inf else top ** (1.0 / p)), where


# ---------------------------------------------------------------------------
# the certificate engine
# ---------------------------------------------------------------------------


@dataclass
class CertificateReport:
    p: float
    certified: bool
    bound: float                     # bound on the asymptotic energy of rule
    raw_bound: float                 # bound for the transformed rule
    retraction_energy: float
    deformation_energy: float
    params: dict
    case_bounds: dict
    notes: dict = field(default_factory=dict)


def _bare(exc: FsrError) -> FsrError:
    """A copy of ``exc`` without traceback or context.  A memoized failure
    must hold no frames: they would refer back to the input rule."""
    out = type(exc).__new__(type(exc), *exc.args)
    out.__dict__.update(exc.__dict__)
    return out


class _CertificateContext:
    """The part of a certificate that depends on neither K nor p (see
    ``crochet_certificate``); it holds nothing that refers to the input rule.

    ``work`` is the rule powered ``k1`` times, so that edge cycles are loops,
    and shifted ``s`` levels past the stability threshold.  ``phi`` is its
    level-1 natural representative at unit lengths, and ``types1`` the
    level-0 type of each level-1 edge.  An error of the transformation or of
    the Julia stars is raised here; an error of the later, topological part
    is kept in ``failure`` and raised where it ran before, after the checks
    of the K-expanding lengths.  ``refused`` marks an F0 that is not a
    forest.  ``lengths`` memoizes the chain-rank lengths per K, and
    ``retractions`` the checked retraction and its fill cuts per K; both are
    filled in by ``crochet_certificate``."""

    def __init__(self, rule: SubdivisionRule):
        self.k1 = math.lcm(*recurrency_periods(rule).values())
        work = power(rule, self.k1) if self.k1 > 1 else rule
        self.s = max(stability_threshold(work), 1)
        self.work = work = shift(work, self.s)
        classes = classify_vertices(work)
        # Julia vertices: choose the edge to remove (a preorder-maximal
        # incident edge), which the lengths will make dominate its star
        eg = condensation(build_edge_digraph(work))
        self.removed: dict[str, str] = {}        # Julia vertex -> edge
        self.boosts: dict[str, list[str]] = {}   # removed edge -> rest of star
        for v in sorted(work.level0.vertices):
            if classes.is_fatou[v]:
                continue
            incident = sorted({e for e in work.level0.edges
                               if v in work.level0.edges[e]})
            if any(work.level0.edges[e][0] == work.level0.edges[e][1] == v
                   for e in incident):
                raise UnsupportedRegime(
                    f"Julia vertex {v} carries a loop edge; not isolated")
            for a, b in (work.level0.edges[e] for e in incident):
                other = b if a == v else a
                if not classes.is_fatou[other]:
                    raise UnsupportedRegime(
                        f"Julia vertices {v} and {other} are adjacent; apply "
                        "normalization first")
            maximal = [e for e in incident
                       if not any(x != e and eg.reaches(e, x) and
                                  not eg.reaches(x, e) for x in incident)]
            choice = min(maximal or incident)
            self.removed[v] = choice
            self.boosts[choice] = [e for e in incident if e != choice]
        self.max_julia_degree = max(
            (len(star) + 1 for star in self.boosts.values()), default=0)
        self.failure: FsrError | None = None
        self.refused = False
        self.lengths: dict[int, dict[str, int]] = {}
        self.retractions: dict[int, tuple[PiecewiseMap, FillCuts]] = {}
        try:
            self._topology()
        except FsrError as exc:
            self.failure = _bare(exc)

    def _topology(self) -> None:
        work = self.work
        tower = Tower.of(work)
        self.phi = phi = natural_representative(work, 1, 0)
        g0, g1 = phi.codomain, phi.domain
        dual0 = dual_skeleton(tower.up_to(0).complex)
        # each replacement path runs from the removed dual edge's tail to its
        # head, as the retraction maps that edge onto it
        self.paths = {}
        for v, e in self.removed.items():
            path = _peripheral_complement(dual0, v, e)
            if path and dual0.dual_tail(path[0]) != dual0.dual_tail((e, PLUS)):
                path = [flip(d) for d in reversed(path)]
            self.paths[v] = path
        rec0 = recurrent_edge_ids(work, 0)
        rec1 = recurrent_edge_ids(work, 1)
        types1 = tower.up_to(1).by_id("edge", "type_cell")
        self.types1 = {e: types1[e] for e in g1.edges}
        self.f0_edges = f0_edges = sorted(rec0 - self.boosts.keys())
        self.h1_edges = h1_edges = {e for e, t in self.types1.items()
                                    if t not in self.boosts}
        self.blob_of = blob_of = _blob_structure(g1, phi)

        # forest structure of F0 and the recurrent phi-preimage of each edge
        forest_adj: dict[str, list[tuple[str, str]]] = {}
        for e in f0_edges:
            a, b = g0.edges[e]
            forest_adj.setdefault(a, []).append((e, b))
            forest_adj.setdefault(b, []).append((e, a))
        self.rec_lift = rec_lift = {}
        for e1 in sorted(h1_edges):
            act = phi.action[e1]
            if isinstance(act, Onto) and e1 in rec1 and act.edge in f0_edges:
                if act.edge in rec_lift:
                    raise InternalInconsistency(
                        f"edge {act.edge} has two recurrent lifts")
                rec_lift[act.edge] = e1
        missing = [e for e in f0_edges if e not in rec_lift]
        if missing:
            raise InternalInconsistency(f"no recurrent lift for {missing}")

        rooted = _forest_rooted(forest_adj)
        if rooted is None:
            self.refused = True
            return
        self.depth, self.parent_edge, self.roots = rooted
        counts: Counter[int] = Counter()
        for e in h1_edges:
            if isinstance(phi.action[e], Onto):
                counts.update(blob_of[v] for v in g1.edges[e])
        self.max_count = max(counts.values(), default=1)
        # the level-1 dual vertex over each forest vertex
        self.f1_vertex = f1_vertex = {}
        for e0, e1 in sorted(rec_lift.items()):
            for tile in g1.edges[e1]:
                u = phi.vertex_image[tile]
                prev = f1_vertex.get(u)
                if prev is not None and blob_of[prev] != blob_of[tile]:
                    raise InternalInconsistency(
                        f"forest lift is not vertex-consistent at {u}")
                f1_vertex[u] = tile
        onto = Counter(a.edge for a in phi.action.values()
                       if isinstance(a, Onto))
        self.n_const = max(onto[e] for e in g0.edges)
        ends = Counter(v for ab in g0.edges.values() for v in ab)
        self.m_const = max(ends[t] for t in g0.vertices)


def _certificate_context(rule: SubdivisionRule) -> _CertificateContext:
    """The rule's certificate context, memoized on the rule together with an
    error of its construction."""
    m = memo(rule)
    if "certificate" not in m:
        try:
            m["certificate"] = _CertificateContext(rule)
        except FsrError as exc:
            m["certificate"] = _bare(exc)
    if isinstance(m["certificate"], FsrError):
        raise _bare(m["certificate"])
    return m["certificate"]


def _blob_structure(g1: ConformalGraph, phi: PLGraphMap) -> dict[str, int]:
    """Components of the collapsed part of the level-1 dual: blob id per
    vertex; every blob must have a single image vertex."""
    parent = {v: v for v in g1.vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e, act in phi.action.items():
        if isinstance(act, Collapse):
            a, b = g1.edges[e]
            parent[find(a)] = find(b)
    blob_of: dict[str, int] = {}
    rep_index: dict[str, int] = {}
    blob_image: dict[int, str] = {}
    for v in sorted(g1.vertices):
        r = find(v)
        if r not in rep_index:
            rep_index[r] = len(rep_index)
        b = rep_index[r]
        blob_of[v] = b
        img = phi.vertex_image[v]
        if b in blob_image and blob_image[b] != img:
            raise InternalInconsistency("collapsed blob maps to two vertices")
        blob_image[b] = img
    return blob_of


DEFAULT_K_GRID = (4, 16, 64, 256, 1024)


def crochet_certificate(rule: SubdivisionRule, p: float,
                        k_factor: int | None = None) -> CertificateReport:
    """Certified upper bound on the asymptotic p-conformal energy via the
    K-expanding deformation of the dual virtual endomorphism.

    The rule must have polynomial growth and isolated Julia vertices (apply
    normalization first).  When ``k_factor`` is omitted a geometric grid is
    searched and the first certifying value returned.

    What depends on neither K nor p is built once per rule and memoized on
    it (``_CertificateContext``): the power-and-shift transform and its
    vertex classes; the Julia-star choice (removed edges, boosts, maximal
    Julia degree) and the dual path replacing each removed edge; the
    recurrent edge ids, F0 and the H1 edges; the topology of the level-1
    natural representative (vertex images, actions, dual endpoints of levels
    0 and 1); the collapsed blobs, recurrent lifts and the rooted forest with
    its level-1 vertices, blob incidence counts, N and M; and the error or
    refusal any of these ends in.  The chain-rank lengths, the retraction
    and the cut structure of its fill profile depend on K only and are
    memoized per K in the context.  Each (K, p) sums the retraction's fill
    weights and runs the pulls, the deformed map and its energy.  Both maps
    are built in exact integer arithmetic: the retraction is scaled by the
    lcm of its replacement-path totals, and the lengths lifted to level 1 and
    the deformed map by the lcm of the pulls' denominators.  The pulls are
    computed as Fractions and reported unscaled.
    """
    if not (1 < p < inf):
        raise ValidationFailure("certificate needs 1 < p < infinity",
                                check="exponent")
    if not has_polynomial_growth(rule):
        raise UnsupportedRegime("certificate requires polynomial edge growth")

    if k_factor is None:
        best: CertificateReport | None = None
        for k in DEFAULT_K_GRID:
            rep = crochet_certificate(rule, p, k_factor=k)
            if rep.certified:
                return rep
            if best is None or rep.bound < best.bound:
                best = rep
        best.notes["search"] = "K grid exhausted without certification"
        return best

    ctx = _certificate_context(rule)
    # lengths in which each removed edge dominates its Julia star (the boosts
    # are among the pairs whose K-expansion chain_rank_lengths checks)
    if k_factor not in ctx.lengths:
        ctx.lengths[k_factor] = chain_rank_lengths(ctx.work, k_factor,
                                                   boost_above=ctx.boosts)
    alpha = ctx.lengths[k_factor]
    if ctx.failure is not None:
        raise _bare(ctx.failure)

    if k_factor not in ctx.retractions:
        rho = _retraction(ctx, alpha, p)
        ctx.retractions[k_factor] = rho, fill_cuts(rho)
    _, rho_cuts = ctx.retractions[k_factor]
    e_rho, _ = piecewise_energy(fill_values(rho_cuts, p), p)
    if ctx.refused:
        return CertificateReport(
            p, False, float("nan"), float("nan"), e_rho, float("nan"),
            params={"K": k_factor, "power": ctx.k1, "shift": ctx.s},
            case_bounds={},
            notes={"refused": "recurrent part of the retracted skeleton is "
                              "not a forest"})
    rho_envelope = ((ctx.max_julia_degree / k_factor) ** (p - 1.0)
                    + 1.0) ** (1 / p)
    phi = ctx.phi

    # pull distances: per pulled vertex, capped by local edge lengths and
    # staggered so that every child pull strictly dominates its parent's
    depth, parent_edge = ctx.depth, ctx.parent_edge
    max_depth = max(depth.values(), default=0)
    try:
        c_stag = max(2, math.ceil((4.0 * max(1, ctx.max_count))
                                  ** (1.0 / (p - 1.0))))
    except OverflowError:
        raise UnsupportedRegime(f"certificate stagger exceeds the float "
                                f"range at p = {p}") from None
    incident_lengths: dict[int, int] = {}
    for e1 in ctx.h1_edges:
        if isinstance(phi.action[e1], Collapse):
            continue
        length = alpha[ctx.types1[e1]]
        for tile in phi.domain.edges[e1]:
            b = ctx.blob_of[tile]
            cur = incident_lengths.get(b)
            if cur is None or length < cur:
                incident_lengths[b] = length

    pulls: dict[str, Fraction] = {}
    root_set = set(ctx.roots)
    for u in sorted(depth, key=lambda x: -depth[x]):
        if u in root_set:
            continue
        e_par, _ = parent_edge[u]
        blob = ctx.blob_of[ctx.f1_vertex[u]]
        cap = min(Fraction(alpha[e_par], 8),
                  Fraction(incident_lengths.get(blob, alpha[e_par]),
                           4 * c_stag),
                  *(pulls[w] / (2 * c_stag) for w in depth
                    if w not in root_set and parent_edge[w][1] == u))
        if cap <= 0:
            raise InternalInconsistency(f"no room to pull vertex {u}")
        pulls[u] = cap

    # the deformed map on the scale that makes every pull an integer
    scale = math.lcm(*(m.denominator for m in pulls.values()))
    g0 = ConformalGraph(phi.codomain.vertices, phi.codomain.edges, p,
                        {e: a * scale for e, a in alpha.items()})
    g1 = ConformalGraph(phi.domain.vertices, phi.domain.edges, p,
                        {e: alpha[t] * scale for e, t in ctx.types1.items()})
    psi = _deformed_map(ctx, g0, g1, {u: int(m * scale) for u, m in
                                      pulls.items()}, c_stag)
    prof = fill_profile(psi, p)
    e_psi, worst_edge = piecewise_energy(prof, p)

    raw = e_rho * e_psi
    certified = raw < 1.0 - MARGIN
    bound = raw ** (1.0 / ctx.k1)
    n_const, m_const = ctx.n_const, ctx.m_const
    eps_ratio = 1.0 / c_stag
    # 1 - max fill over the recurrent forest edges (the epsilon_2 margin)
    tree_slack = 1.0 - max((val for e in ctx.f0_edges
                            for _, _, val in prof.get(e, ())), default=0.0)
    case_bounds = {
        "case1": m_const * n_const * eps_ratio ** (p - 1)
                 + n_const / k_factor ** (p - 1),
        "case2": 1.0 - tree_slack
                 + n_const / k_factor ** (p - 1),
        "case3": n_const / k_factor ** (p - 1),
        "case4": n_const / (k_factor / 2.0) ** (p - 1),
        "retraction_envelope": rho_envelope,
    }
    return CertificateReport(
        p=p, certified=certified, bound=bound, raw_bound=raw,
        retraction_energy=e_rho, deformation_energy=e_psi,
        params={"K": k_factor, "power": ctx.k1, "shift": ctx.s,
                "stagger": c_stag, "max_depth": max_depth,
                "pulls": {u: str(v) for u, v in sorted(pulls.items())},
                "N": n_const, "M": m_const, "L": ctx.max_julia_degree},
        case_bounds=case_bounds,
        notes={"worst_fill_edge": worst_edge},
    )


def _retraction(ctx: _CertificateContext, alpha: dict[str, int], p: float
                ) -> PiecewiseMap:
    """The checked retraction G0 -> H0 at the lengths ``alpha`` as explicit
    pieces, scaled so that every split of a removed edge along its
    replacement path is an integer.  Its graphs carry the exponent p of the
    certificate that built it; the fill cuts do not depend on it."""
    phi = ctx.phi
    totals = {v: sum(alpha[x] for x, _ in path)
              for v, path in ctx.paths.items()}
    rho_scale = math.lcm(*(t for t in totals.values() if t))
    g0 = ConformalGraph(phi.codomain.vertices, phi.codomain.edges, p,
                        {e: a * rho_scale for e, a in alpha.items()})
    rho = PiecewiseMap(g0, g0)
    for e in g0.edges:
        if e not in ctx.boosts:
            rho.pieces.append(Piece(e, 0, g0.lengths[e], e, 0, g0.lengths[e]))
    for v, e_long in ctx.removed.items():
        # a path position pos lies at pos / total of e_long (an empty path,
        # at a Julia vertex of degree 1, has no pieces)
        step, pos = rho_scale // (totals[v] or 1) * alpha[e_long], 0
        for x, direction in ctx.paths[v]:
            ends = (0, g0.lengths[x]) if direction == PLUS else (
                g0.lengths[x], 0)
            rho.pieces.append(Piece(e_long, pos * step,
                                    (pos + alpha[x]) * step, x, *ends))
            pos += alpha[x]
    rho.check()
    return rho


def _peripheral_complement(dual0, v: str, e_long: str) -> list[Dart]:
    """The dual-face cycle around v minus the removed dual edge: a path
    between the two ends of the removed edge, in face-cycle order."""
    cyc = list(dual0.face(v))
    k = next(i for i, d in enumerate(cyc) if d[0] == e_long)
    return cyc[k + 1:] + cyc[:k]


def _forest_rooted(forest_adj):
    """Root each tree component at a center: (depth, parent_edge, roots), or
    None when a cycle exists."""
    seen: set[str] = set()
    depth: dict[str, int] = {}
    parent_edge: dict[str, tuple[str, str]] = {}   # vertex -> (edge, parent)
    roots: list[str] = []
    for v0 in sorted(forest_adj):
        if v0 in seen:
            continue
        comp = {v0}
        stack = [v0]
        edges_in = set()
        while stack:
            u = stack.pop()
            for (e, wv) in forest_adj[u]:
                edges_in.add(e)
                if wv not in comp:
                    comp.add(wv)
                    stack.append(wv)
        if len(edges_in) != len(comp) - 1:
            return None
        seen |= comp
        # center: vertex minimizing eccentricity
        def ecc(r: str) -> int:
            dist = {r: 0}
            q = [r]
            while q:
                u = q.pop(0)
                for (e, wv) in forest_adj[u]:
                    if wv not in dist:
                        dist[wv] = dist[u] + 1
                        q.append(wv)
            return max(dist.values())

        root = min(sorted(comp), key=lambda r: (ecc(r), r))
        roots.append(root)
        depth[root] = 0
        q = [root]
        visited = {root}
        while q:
            u = q.pop(0)
            for (e, wv) in forest_adj[u]:
                if wv not in visited:
                    visited.add(wv)
                    depth[wv] = depth[u] + 1
                    parent_edge[wv] = (e, u)
                    q.append(wv)
    return depth, parent_edge, roots


def _deformed_map(ctx: _CertificateContext, g0: ConformalGraph,
                  g1: ConformalGraph, pulls: dict[str, int],
                  c_stag: int) -> PiecewiseMap:
    """The deformation of phi restricted to the H1 edges, as exact pieces
    on the integer scale of ``g0``, ``g1`` and ``pulls``.

    Every non-root vertex u of the recurrent forest is pulled, with the
    collapsed blob holding its level-1 lift, a distance pulls[u] into its
    parent edge.  Tails of width c_stag * pulls[u] on incident edges absorb
    the pull; recurrent lifts over forest edges keep an isometric core that
    starts at the displaced child point.
    """
    phi, blob_of, parent_edge = ctx.phi, ctx.blob_of, ctx.parent_edge
    psi = PiecewiseMap(g1, g0)
    rec_lift_edges = set(ctx.rec_lift.values())
    pulled_blob = {u: blob_of[t] for u, t in ctx.f1_vertex.items()
                   if u in pulls}

    def pull_of(tile: str) -> tuple[str, str, int, int] | None:
        u = phi.vertex_image[tile]
        if u not in pulled_blob or blob_of[tile] != pulled_blob[u]:
            return None
        e_par, _ = parent_edge[u]
        m = pulls[u]
        return u, e_par, m, c_stag * m

    for e1 in sorted(ctx.h1_edges):
        act = phi.action[e1]
        if isinstance(act, Collapse):
            continue   # pulled blobs stay collapsed at their displaced points
        y = act.edge
        ly = g0.lengths[y]
        le = g1.lengths[e1]
        ta, tb = g1.edges[e1]
        ya, yb = g0.edges[y]
        img_tail_vertex = ya if act.orient == PLUS else yb
        if phi.vertex_image[ta] != img_tail_vertex:
            raise InternalInconsistency(f"orientation bookkeeping off at {e1}")
        img_from = 0 if act.orient == PLUS else ly
        sign = 1 if act.orient == PLUS else -1

        def ycoord(dist: int) -> int:
            return img_from + sign * dist

        if e1 in rec_lift_edges and le != ly:
            raise InternalInconsistency(
                f"recurrent lift {e1} is not isometric over {y}")

        src_lo, src_hi = 0, le
        start_dist, end_dist = 0, ly
        head_tail_piece = None
        tail_tail_piece = None

        for side, tile in (("tail", ta), ("head", tb)):
            pl = pull_of(tile)
            if pl is None:
                continue
            u, e_par, dist, width = pl
            if e1 in rec_lift_edges and e_par == y:
                # child end of a forest edge: the image starts at the
                # displaced point inside y itself
                if side == "tail":
                    start_dist = dist
                else:
                    end_dist = ly - dist
                continue
            ia, ib = _coord_interval(g0, e_par, u, dist)
            if side == "tail":
                tail_tail_piece = Piece(e1, 0, width, e_par, ib, ia)
                src_lo = width
            else:
                head_tail_piece = Piece(e1, le - width, le, e_par, ia, ib)
                src_hi = le - width

        if src_lo >= src_hi:
            raise InternalInconsistency(
                f"tails of {e1} overlap; edge too short for the pulls")
        if tail_tail_piece is not None:
            psi.pieces.append(tail_tail_piece)
        psi.pieces.append(Piece(e1, src_lo, src_hi, y,
                                ycoord(start_dist), ycoord(end_dist)))
        if head_tail_piece is not None:
            psi.pieces.append(head_tail_piece)
    psi.check()
    return psi


def _coord_interval(g0: ConformalGraph, edge: str, from_vertex: str,
                    dist: int) -> tuple[int, int]:
    """Oriented interval on the edge starting at the given endpoint, inward."""
    a, b = g0.edges[edge]
    le = g0.lengths[edge]
    if from_vertex == a:
        return 0, dist
    if from_vertex == b:
        return le, le - dist
    raise InternalInconsistency(f"{from_vertex} is not an endpoint of {edge}")


# ---------------------------------------------------------------------------
# asymptotic bound assembly
# ---------------------------------------------------------------------------


@dataclass
class EnergyBound:
    p: float
    upper: float | None
    upper_source: str
    lower: float | None
    lower_source: str
    certified: bool
    exact: bool = False
    per_level: dict[int, float] = field(default_factory=dict)
    certificate: CertificateReport | None = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self):
        if (self.upper is not None and self.lower is not None
                and self.lower > self.upper + 1e-7):
            raise InternalInconsistency(
                f"lower bound {self.lower} exceeds upper bound {self.upper}; "
                "inconsistent multicurve data")


def _check_exponent(p: float) -> None:
    if not p >= 1:      # also false for NaN
        raise ValidationFailure(f"exponent p must be >= 1 or inf, got {p}",
                                check="exponent")


def natural_energy_levels(rule: SubdivisionRule, p: float, n_max: int,
                          tower: Tower | None = None) -> dict[int, float]:
    """a_n = E^p_p of the level-n natural representative, unit base lengths,
    for n = 1 .. n_max, in closed form.

    The representative maps every level-n dual edge with derivative 1 onto
    the dual of its level-0 ancestor edge, or collapses it.  The fill on a
    level-0 dual edge e is therefore |R^n(e)|, and
    a_n = float(max_e |R^n(e)|) ** (1/p): the bare count at p = 1 and 1.0 at
    p = infinity, bitwise what ``energy_pp`` returns for the explicit map
    (``test_natural_levels_match_explicit_representative``).  Only the
    rule's index is used: ``tower`` is accepted and ignored.  A count beyond
    the float range raises BudgetExceeded; p below 1 or NaN raises
    ValidationFailure."""
    _check_exponent(p)
    out = {}
    for n, counts in enumerate(subedge_counts(rule, n_max)):
        if n == 0:
            continue
        try:
            top = float(max(counts.values()))
        except OverflowError:
            raise BudgetExceeded(
                f"energy: level {n} subedge count exceeds the float range",
                reached=n) from None
        out[n] = top ** (1.0 / p)
    return out


def asymptotic_bounds(rule: SubdivisionRule, p: float, n_max: int = 4,
                      multicurves: tuple[MulticurveSpec, ...] = ()
                      ) -> EnergyBound:
    """Certified bracket for the asymptotic p-conformal energy.

    Upper bounds come from natural representatives at levels up to n_max
    (by Fekete, each a_n^(1/n) bounds the limit) and, for p > 1 in the
    polynomial regime, from the deformation certificate.  Lower bounds come
    from user-supplied multicurves via lambda_p^(1/p).  p must be >= 1.
    """
    _check_exponent(p)
    poly = has_polynomial_growth(rule)

    lower = None
    lower_source = ""
    for mc in multicurves:
        if p == inf:
            continue
        lam = lambda_p(mc, p)
        cand = lam.value ** (1.0 / p) if p > 1 else lam.value
        if lower is None or cand > lower:
            lower = cand
            lower_source = "multicurve lambda_p^(1/p)"

    if p == 1 and poly:
        # polynomial growth forces the exact value 1
        return EnergyBound(p, 1.0, "polynomial growth: exact", max(lower or 1.0, 1.0),
                           lower_source or "trivial bound", certified=True,
                           exact=True,
                           per_level=natural_energy_levels(rule, p, n_max))

    per_level = natural_energy_levels(rule, p, n_max)
    upper = None
    upper_source = ""
    for n, a in per_level.items():
        cand = a ** (1.0 / n)
        if upper is None or cand < upper:
            upper = cand
            upper_source = f"natural representative, level {n}"

    certificate = None
    certified = False
    if poly and 1 < p < inf:
        try:
            certificate = crochet_certificate(rule, p)
        except (UnsupportedRegime, ValidationFailure):
            certificate = None
        if certificate is not None and certificate.certified:
            certified = True
            if certificate.bound < (upper if upper is not None else inf):
                upper = certificate.bound
                upper_source = "deformation certificate"

    return EnergyBound(p, upper, upper_source, lower, lower_source,
                       certified=certified, per_level=per_level,
                       certificate=certificate)
