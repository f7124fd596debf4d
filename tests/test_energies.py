"""Energies of PL graph maps, natural representatives, and certificates."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from math import inf

import pytest

from fsrkit import energies
from fsrkit.catalog import CATALOG, get_rule, power_spider_2
from fsrkit.complexes import PLUS, dual_skeleton, flip
from fsrkit.dynamics import build_edge_digraph
from fsrkit.energies import (
    DEFAULT_K_GRID,
    Collapse,
    ConformalGraph,
    Onto,
    Piece,
    PiecewiseMap,
    PLGraphMap,
    asymptotic_bounds,
    crochet_certificate,
    dual_conformal_graph,
    e1_exact,
    energy_1p,
    energy_pp,
    fill_pp,
    fill_profile,
    natural_energy_levels,
    natural_representative,
)
from fsrkit.errors import FsrError, InternalInconsistency, ValidationFailure
from fsrkit.multicurves import Lift, MulticurveSpec
from fsrkit.report import P_SAMPLES, analyze
from fsrkit.rules import power, shift
from tests.helpers import path_count, two_edge_fixture


def test_fill_closed_form():
    for p in (1.5, 2.0, 4.0):
        for k in (2, 4, 8):
            m = two_edge_fixture(k, p)
            fill = fill_pp(m, p)["f"]
            expected = 1.0 + (1.0 / k) ** (p - 1.0)
            assert abs(fill - expected) < 1e-12
            assert abs(energy_pp(m, p) - expected ** (1 / p)) < 1e-12


def test_two_edge_fixture_spec_value():
    m = two_edge_fixture(4, 2.0)
    assert abs(fill_pp(m, 2.0)["f"] - 1.25) < 1e-15
    assert abs(energy_pp(m, 2.0) - math.sqrt(1.25)) < 1e-9


def test_identity_energy_is_one():
    g = ConformalGraph(("a", "b"), {"e": ("a", "b")}, 2.0,
                       {"e": Fraction(3, 2)})
    ident = PLGraphMap(g, g, {"a": "a", "b": "b"}, {"e": Onto("e", 1)})
    assert energy_pp(ident) == 1.0
    assert energy_pp(ident, inf) == 1.0


def test_weighted_fill_p1():
    m = two_edge_fixture(1, 1.0)
    assert fill_pp(m, 1.0)["f"] == 2.0
    assert energy_pp(m, 1.0) == 2.0


def test_energy_1p():
    p = 2.0
    m = two_edge_fixture(1, p)
    # n = 2 on a unit-length edge: (integral of 2^2)^(1/2) = 2
    assert abs(energy_1p(m, p) - 2.0) < 1e-12
    dom = ConformalGraph(("a", "b"), {"e1": ("a", "b")}, p, {"e1": Fraction(1)})
    cod = m.codomain
    single = PLGraphMap(dom, cod, {"a": "x", "b": "y"}, {"e1": Onto("f", 1)})
    assert abs(energy_1p(single, p) - 1.0) < 1e-12


def test_natural_representative_power_spider():
    rule = power_spider_2()
    rep = natural_representative(rule, 1, 0, p=1.0)
    onto = [e for e, a in rep.action.items() if isinstance(a, Onto)]
    collapsed = [e for e, a in rep.action.items() if isinstance(a, Collapse)]
    assert onto == ["a0"] and collapsed == ["a1"]
    assert energy_pp(rep, 1.0) == 1.0


def test_e1_exact():
    assert all(e1_exact(power_spider_2(), n) == 1 for n in range(1, 9))
    assert e1_exact(get_rule("doubling_edge"), 4) == 16
    # matches the p = 1 energy of the natural representative
    rule = get_rule("tripod_pillow_4")
    for n in (1, 2, 3):
        rep = natural_representative(rule, n, 0, p=1.0)
        assert energy_pp(rep, 1.0) == e1_exact(rule, n)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_natural_levels_match_explicit_representative(name):
    # the closed form (max_e |R^n(e)|)^(1/p) is bitwise the energy of the
    # explicitly built level-n natural representative
    rule = get_rule(name)
    for p in (1.0, 1.5, 2.0, 4.0, inf):
        levels = natural_energy_levels(rule, p, 5)
        for n in range(1, 6):
            rep = natural_representative(rule, n, 0, p=p)
            assert energy_pp(rep, p) == levels[n], (name, p, n)


@pytest.mark.parametrize("name,n", [("tripod_pillow_4", 40),
                                    ("doubling_edge", 70)])
def test_natural_levels_exact_at_deep_levels(name, n):
    # exact integer counts agree with the brute-force path count, also past
    # 2^63 where an int64 count would wrap (doubling_edge from n = 63)
    rule = get_rule(name)
    g = build_edge_digraph(rule)
    top = max(path_count(g, e, n) for e in rule.level0.edges)
    assert e1_exact(rule, n) == top
    assert natural_energy_levels(rule, 1.0, n)[n] == float(top)
    assert natural_energy_levels(rule, 2.0, n)[n] == float(top) ** 0.5
    if name == "doubling_edge":
        assert top == 2 ** 70


def test_submultiplicativity_of_levels():
    for name in ("power_spider_2", "square_spider_julia", "tripod_pillow_4",
                 "doubling_edge"):
        rule = get_rule(name)
        for p in (1.0, 2.0):
            levels = natural_energy_levels(rule, p, 4)
            levels[0] = 1.0
            for n in (1, 2):
                for k in (1, 2):
                    assert levels[n + k] <= levels[n] * levels[k] + 1e-9, (
                        name, p, n, k)


def test_lift_non_increase():
    # E[phi^{n+k}_n] <= E[phi^k_0] for the natural family with lifted lengths
    for name in ("power_spider_2", "tripod_pillow_4"):
        rule = get_rule(name)
        for p in (1.0, 2.0):
            for n in (1, 2):
                for k in (1, 2):
                    hi = natural_representative(rule, n + k, n, p=p)
                    lo = natural_representative(rule, k, 0, p=p)
                    assert energy_pp(hi, p) <= energy_pp(lo, p) + 1e-12


def test_extension_invariance():
    # embedding a codomain into a larger graph leaves the computed energy
    p = 2.0
    m = two_edge_fixture(4, p)
    bigger = ConformalGraph(("x", "y", "z"),
                            {"f": ("x", "y"), "g": ("y", "z")}, p,
                            {"f": Fraction(1), "g": Fraction(5)})
    emb = PLGraphMap(m.domain, bigger, m.vertex_image, dict(m.action))
    assert energy_pp(emb, p) == energy_pp(m, p)


def test_power_shift_level_consistency():
    from fsrkit.rules import power

    rule = power_spider_2()
    for p in (1.0, 2.0):
        base_levels = natural_energy_levels(rule, p, 3)
        for k in (2, 3):
            pw = power(rule, k)
            a1 = natural_energy_levels(pw, p, 1)[1]
            assert a1 == base_levels[k], (k, p)


def test_exponents_below_one_rejected():
    rule = power_spider_2()
    for p in (0.0, 0.5, math.nan, -inf):
        for fn in (natural_energy_levels, asymptotic_bounds):
            with pytest.raises(ValidationFailure) as err:
                fn(rule, p, 2)
            assert err.value.check == "exponent", (fn.__name__, p)
    assert natural_energy_levels(rule, inf, 2) == {1: 1.0, 2: 1.0}


def test_certificate_power_spider():
    rule = power_spider_2()
    rep = crochet_certificate(rule, 2.0)
    assert rep.certified
    assert rep.bound < 1.0 - 1e-9
    assert rep.retraction_energy == 1.0      # no Julia vertices
    assert rep.params["N"] >= 1


def test_certificate_tripod():
    rule = get_rule("tripod_pillow_4")
    rep = crochet_certificate(rule, 2.0)
    assert rep.certified, rep.notes
    assert rep.bound < 1.0 - 1e-9


def test_certificate_with_julia_vertex():
    rule = get_rule("square_spider_julia")
    rep = crochet_certificate(rule, 2.0)
    assert rep.certified, (rep.notes, rep.raw_bound)
    assert rep.retraction_energy > 1.0       # a genuine retraction happened
    assert rep.bound < 1.0 - 1e-9


def test_certificate_monotone_grid():
    rule = power_spider_2()
    bounds = []
    for p in (1.5, 2.0, 3.0):
        rep = crochet_certificate(rule, p)
        assert rep.certified
        bounds.append(rep.bound)
    assert all(b < 1 for b in bounds)


def fill_profile_oracle(pm: PiecewiseMap, p: float) -> dict:
    """Reference fill profile: for every sub-interval between breakpoints,
    scan all pieces with exact Fraction comparisons."""
    cover = {e: [] for e in pm.codomain.edges}
    for pc in pm.pieces:
        lo, hi = sorted((pc.img_a, pc.img_b))
        if lo == hi:
            continue
        cover[pc.img_edge].append((lo, hi, pc.derivative()))
    out = {}
    for e, ivs in cover.items():
        length = pm.codomain.lengths[e]
        cuts = sorted({Fraction(0), length,
                       *(x for iv in ivs for x in iv[:2])})
        prof = []
        for a, b in zip(cuts, cuts[1:]):
            total = 0.0
            for lo, hi, deriv in ivs:
                if lo <= a and b <= hi:
                    if p == inf:
                        total = max(total, float(deriv))
                    else:
                        total += float(deriv) ** (p - 1.0)
            prof.append((a, b, total))
        out[e] = prof
    return out


def random_piecewise_map(rng: random.Random) -> PiecewiseMap:
    """Overlapping pieces with rational breakpoints onto three edges, some of
    them with a degenerate image (lo == hi).  Each piece is the whole of a
    source edge of its own, so that the map passes ``PiecewiseMap.check``."""
    def frac(top: Fraction) -> Fraction:
        den = rng.randint(1, 7)
        return Fraction(rng.randint(0, int(top * den)), den)

    cod_len = {f"f{i}": Fraction(rng.randint(1, 20), rng.randint(1, 4))
               for i in range(3)}
    cod = ConformalGraph(("x", "y"), {f: ("x", "y") for f in cod_len}, 2.0,
                         cod_len)
    pieces = []
    for i in range(rng.randint(0, 14)):
        f = rng.choice(sorted(cod_len))
        ia = frac(cod_len[f])
        ib = ia if rng.random() < 0.15 else frac(cod_len[f])
        sa = Fraction(rng.randint(0, 60), rng.randint(1, 5))
        sb = sa + Fraction(rng.randint(1, 30), rng.randint(1, 9))
        pieces.append(Piece(f"e{i}", Fraction(0), sb - sa, f, ia, ib))
    ends = {pc.src_edge: ("a" + pc.src_edge, "b" + pc.src_edge)
            for pc in pieces}
    dom = ConformalGraph(tuple(v for ab in ends.values() for v in ab), ends,
                         2.0, {pc.src_edge: pc.src_b for pc in pieces})
    pm = PiecewiseMap(dom, cod, pieces)
    pm.check()
    return pm


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0, 8.0, inf])
def test_fill_profile_matches_oracle(p):
    rng = random.Random(8101)
    for _ in range(300):
        pm = random_piecewise_map(rng)
        assert fill_profile(pm, p) == fill_profile_oracle(pm, p)


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0, 8.0, inf])
def test_fill_profile_scale_invariant(p):
    # the certificate scales each map by the common denominator of its
    # breakpoints: int / int rounds correctly as float(Fraction) does, so the
    # integer map has bitwise the same fill values on the scaled cuts
    rng = random.Random(8101)
    for _ in range(300):
        pm = random_piecewise_map(rng)
        coords = [x for pc in pm.pieces
                  for x in (pc.src_a, pc.src_b, pc.img_a, pc.img_b)]
        scale = math.lcm(*(x.denominator for x in (
            *pm.domain.lengths.values(), *pm.codomain.lengths.values(),
            *coords)))

        def scaled(g: ConformalGraph) -> ConformalGraph:
            return ConformalGraph(g.vertices, g.edges, g.p,
                                  {e: int(x * scale)
                                   for e, x in g.lengths.items()})

        ints = PiecewiseMap(scaled(pm.domain), scaled(pm.codomain), [
            Piece(pc.src_edge, int(pc.src_a * scale), int(pc.src_b * scale),
                  pc.img_edge, int(pc.img_a * scale), int(pc.img_b * scale))
            for pc in pm.pieces])
        ints.check()
        want, got = fill_profile(pm, p), fill_profile(ints, p)
        assert got.keys() == want.keys()
        for e, rows in want.items():
            assert all(type(a) is int and type(b) is int
                       for a, b, _ in got[e])
            assert got[e] == [(a * scale, b * scale, val)
                              for a, b, val in rows], (e, scale)


def _recorded_maps(monkeypatch, rules_) -> list[PiecewiseMap]:
    """Every retraction and deformed map that the certificates of ``rules_``
    build at p = 2 over the K grid: the retractions as memoized per K in the
    rule's certificate context, the deformed maps as they reach
    ``fill_profile``."""
    maps = []
    profile = energies.fill_profile

    def recording(pm, p):
        maps.append(pm)
        return profile(pm, p)

    monkeypatch.setattr(energies, "fill_profile", recording)
    for rule in rules_:
        for k in DEFAULT_K_GRID:
            crochet_certificate(rule, 2.0, k)
        retractions = energies._certificate_context(rule).retractions
        maps += [rho for rho, _ in retractions.values()]
    monkeypatch.undo()
    return maps


def test_piecewise_map_check_catches_mutations(monkeypatch):
    # the pieces of an edge must tile it and meet end to start: dropping a
    # tail or core piece of a real deformed map, or flipping the orientation
    # of its image (ycoord's sign, mirrored back into the edge), breaks it
    names = ("power_spider_2", "spider_twocycle_2", "square_spider_julia",
             "tripod_pillow_4")
    maps = _recorded_maps(monkeypatch, [make(n) for n in names for make in (
        get_rule, lambda n: shift(get_rule(n), 1))])
    mutated = 0
    for pm in maps:
        pm.check()
        per_edge = Counter(pc.src_edge for pc in pm.pieces)
        for i, pc in enumerate(pm.pieces):
            if per_edge[pc.src_edge] < 2:
                continue
            rest = pm.pieces[:i] + pm.pieces[i + 1:]
            with pytest.raises(InternalInconsistency, match="pieces of"):
                PiecewiseMap(pm.domain, pm.codomain, rest).check()
            length = pm.codomain.lengths[pc.img_edge]
            mirrored = [*rest, Piece(pc.src_edge, pc.src_a, pc.src_b,
                                     pc.img_edge, length - pc.img_a,
                                     length - pc.img_b)]
            with pytest.raises(InternalInconsistency):
                PiecewiseMap(pm.domain, pm.codomain, mirrored).check()
            # the sign alone flipped leaves the edge
            negated = [*rest, Piece(pc.src_edge, pc.src_a, pc.src_b,
                                    pc.img_edge, -pc.img_a, -pc.img_b)]
            with pytest.raises(InternalInconsistency, match="bad image"):
                PiecewiseMap(pm.domain, pm.codomain, negated).check()
            mutated += 1
    assert mutated >= 20, mutated
    # two edges leaving vertex a from two different points
    g = ConformalGraph(("a", "b", "c"), {"e1": ("a", "b"), "e2": ("a", "c")},
                       2.0, {"e1": 1, "e2": 1})
    torn = PiecewiseMap(g, g, [Piece("e1", 0, 1, "e1", 0, 1),
                               Piece("e2", 0, 1, "e1", 1, 0)])
    with pytest.raises(InternalInconsistency, match="vertex a has two"):
        torn.check()


def test_piecewise_map_check_catches_reversed_path():
    # a replacement path run from the removed edge's head to its tail sends
    # the edge's tail to the wrong vertex, which the retraction's check sees
    reversed_paths = 0
    for name in ("square_spider_julia", "spider_twocycle_2"):
        for make in (get_rule, lambda n: shift(get_rule(n), 1)):
            probe = make(name)
            ctx = energies._certificate_context(probe)
            crochet_certificate(probe, 2.0, 4)
            for v, path in list(ctx.paths.items()):
                if not path:
                    continue
                # the retraction is memoized per K: drop it to rebuild it
                # from the flipped path
                ctx.paths[v] = [flip(d) for d in reversed(path)]
                ctx.retractions.clear()
                with pytest.raises(InternalInconsistency, match="two images"):
                    crochet_certificate(probe, 2.0, 4)
                ctx.paths[v] = path
                reversed_paths += 1
    assert reversed_paths >= 4


def _attempt(rule, p, k):
    try:
        return repr(crochet_certificate(rule, p, k))
    except FsrError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_certificate_context_matches_fresh_rule(name):
    # the warm rule reuses its memoized context; each fresh copy builds one
    warm = get_rule(name)
    for p in (p for p in P_SAMPLES if p > 1):
        for k in DEFAULT_K_GRID:
            fresh = _attempt(get_rule(name), p, k)
            assert _attempt(warm, p, k) == fresh, (name, p, k)


def test_certificate_paths_run_from_tail_to_head():
    # the retraction maps each removed dual edge onto its replacement path,
    # so the path must leave the edge's tail tile and end at its head tile
    checked = 0
    for name in ("square_spider_julia", "spider_twocycle_2"):
        for rule in (get_rule(name), shift(get_rule(name), 1),
                     power(get_rule(name), 2)):
            ctx = energies._certificate_context(rule)
            dual0 = dual_skeleton(ctx.work.level0)
            for v, e in ctx.removed.items():
                path = ctx.paths[v]
                if not path:
                    continue
                at = dual0.dual_tail((e, PLUS))
                for d in path:
                    assert dual0.dual_tail(d) == at, (rule.name, v, e, path)
                    at = dual0.dual_head(d)
                assert at == dual0.dual_head((e, PLUS)), (rule.name, v, e)
                checked += 1
    assert checked >= 6


def test_certificate_transforms_each_rule_once(monkeypatch):
    calls = Counter()
    searched = []       # rules passed to the certificate, kept alive
    for fn in ("power", "shift"):
        def counting(*args, fn=fn, original=getattr(energies, fn)):
            calls[fn] += 1
            return original(*args)
        monkeypatch.setattr(energies, fn, counting)
    certificate = energies.crochet_certificate

    def recording(rule, p, k_factor=None):
        if all(r is not rule for r in searched):
            searched.append(rule)
        return certificate(rule, p, k_factor)

    monkeypatch.setattr(energies, "crochet_certificate", recording)
    reached = 0
    for name in sorted(CATALOG):
        calls.clear()
        searched.clear()
        analyze(get_rule(name))
        assert calls["shift"] <= len(searched), (name, calls)
        assert calls["power"] <= len(searched), (name, calls)
        reached += bool(searched)
    assert reached >= 4


def test_asymptotic_bounds_p1_exact():
    eb = asymptotic_bounds(power_spider_2(), 1.0)
    assert eb.exact and eb.upper == 1.0 and eb.lower == 1.0


def test_asymptotic_bounds_p2_certified():
    eb = asymptotic_bounds(power_spider_2(), 2.0)
    assert eb.certified
    assert eb.upper < 1.0
    assert eb.lower is None


def test_asymptotic_bounds_with_multicurve_lower():
    mc = MulticurveSpec(("g",), (Lift("g", "g", 3), Lift("g", "g", 3)))
    eb = asymptotic_bounds(get_rule("doubling_edge"), 1.0, multicurves=(mc,))
    assert eb.lower == 2.0
