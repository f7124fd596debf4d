"""Collapsible subcomplexes, quotient rules, and Julia-vertex isolation."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from fsrkit.catalog import (
    CATALOG,
    catalog,
    doubling_edge,
    get_rule,
    levy_pillow_4,
    power_spider_2,
    tripod_pillow_4,
)
from fsrkit.digraphs import radical_closure
from fsrkit.dynamics import build_edge_digraph, build_tile_digraph, julia_edges
from fsrkit.errors import FsrError, UnsupportedRegime, ValidationFailure
from fsrkit.io import canonical_json, rule_to_json
from fsrkit.quotients import (
    CollapsibleSubcomplex,
    add_vertex_orbit,
    collapsible_from_julia_edges,
    edge_level_darts,
    isolate_julia_vertices,
    normalize_for_energy,
    quotient_rule,
    validate_collapsible,
    vertex_sequence_on_edge,
)
from fsrkit.rules import Tower, classify_vertices, validate_rule
from tests.helpers import remarked


def levy_pillow_postcritical():
    """levy_pillow_4 marked only at its post-critical set {A, B}."""
    return remarked(levy_pillow_4(), {"A", "B"})


# -- oracles: every quotient and orbit refinement of a fixed draw, byte for
# byte.  The digests were recorded before the quotient layer was rewritten
# to build both levels with one collapse and one edge split.

QUOTIENT_ORACLE_SHA256 = (
    "1ef508ae013877ae7b3b4d95bd02cf5aa43cc69b2758c45286affa654ef5c716")
ORBIT_ORACLE_SHA256 = (
    "aa3b2aac1acb4955f77902d033be9aa0777a2973e87a53e9c5a7c552ef1ee6f6")


def quotient_outcomes(draws: int = 1000, seed: int = 13579):
    """(outcome line, exception or None) for seeded radical-closure
    collapses, drawn as acceptance criterion 5 draws them, on the catalog
    and on levy_pillow_4 marked at {A, B} and at {A, B, C}.  A success
    writes the canonical rule JSON and both collapse maps; a failure its
    exception type and message."""
    rules = dict(catalog())
    rules["levy_pillow_pc"] = levy_pillow_postcritical()
    rules["levy_pillow_abc"] = remarked(levy_pillow_4(), {"A", "B", "C"})
    names = sorted(rules)
    graphs = {name: (build_edge_digraph(r), build_tile_digraph(r))
              for name, r in rules.items()}
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        name = names[rng.randrange(len(names))]
        rule, (eg, tg), cx = rules[name], graphs[name], rules[name].level0
        pool = sorted(cx.edges)
        seeds = set(rng.sample(pool, k=rng.randint(1, max(1, len(pool) // 2))))
        edges = frozenset(radical_closure(eg, seeds))
        tile_pool = [t for t in sorted(cx.tiles)
                     if {d[0] for d in cx.tiles[t]} <= edges]
        tiles = frozenset(t for t in tile_pool if rng.random() < 0.5)
        if tiles:
            tiles = frozenset(radical_closure(tg, tiles))
        head = f"{name} {sorted(edges)} {sorted(tiles)} "
        try:
            res = quotient_rule(rule, validate_collapsible(rule, edges, tiles))
        except FsrError as exc:
            out.append((f"{head}{type(exc).__name__}: {exc}", exc))
            continue
        out.append((head + canonical_json(rule_to_json(res.rule))
                    + canonical_json({"level0": res.collapse_level0,
                                      "level1": res.collapse_level1}), None))
    return out


def orbit_outcomes():
    """Rule JSON of add_vertex_orbit on the vertices of levels 1-3 that lie
    inside level-0 edges (the first 10 of each level, sorted) and on each
    pair of the first 6, for every catalog rule."""
    out = []
    for name, rule in sorted(catalog().items()):
        tower = Tower.of(rule)
        for level in (1, 2, 3):
            hosted = sorted(
                v for v in tower.up_to(level).complex.vertices
                if tower.ancestor(v, "vertex", level, 0)[0] == "edge")
            calls = [[v] for v in hosted[:10]]
            calls += [list(p) for p in itertools.combinations(hosted[:6], 2)]
            for vs in calls:
                refined = add_vertex_orbit(rule, [(v, level) for v in vs])
                out.append(f"{name} {level} {vs} "
                           + canonical_json(rule_to_json(refined)))
    return out


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_quotient_oracle():
    outcomes = quotient_outcomes()
    assert sum(exc is None for _, exc in outcomes) >= 25
    assert _sha256(line for line, _ in outcomes) == QUOTIENT_ORACLE_SHA256


def test_orbit_oracle():
    lines = orbit_outcomes()
    assert len(lines) == 38
    assert _sha256(lines) == ORBIT_ORACLE_SHA256


def test_no_quotient_marks_a_non_vertex():
    # the rule has one marked set for both levels, so a collapsed marked
    # point must be a vertex of the level-1 quotient too
    checks = {getattr(exc, "check", None) for _, exc in quotient_outcomes()}
    assert "marked" not in checks
    assert "carrier" in checks


def test_collapsed_marked_point_keeps_its_name():
    rule = remarked(levy_pillow_4(), {"A", "B", "C"})
    res = quotient_rule(rule, validate_collapsible(rule, frozenset({"z"}),
                                                   frozenset()))
    assert validate_rule(res.rule).ok
    assert res.collapse_level0 == dict.fromkeys(("z", "C", "D"), "q(C)")
    # the component of C's copy takes C's point; the others are p(...)
    assert res.collapse_level1["C"] == "q(C)"
    assert sorted(set(res.collapse_level1.values())) == [
        "p(cz1)", "p(cz2)", "p(cz3)", "q(C)"]
    assert res.rule.marked == frozenset({"A", "B", "q(C)"})
    assert res.rule.level1.vertices == (
        "A", "B", "p(cz1)", "p(cz2)", "p(cz3)", "q(C)")


def test_empty_subcomplex_identity():
    rule = power_spider_2()
    x = CollapsibleSubcomplex(frozenset(), frozenset(), ())
    res = quotient_rule(rule, x)
    assert res.rule is rule


def test_collapsible_rejects_non_ideal():
    rule = get_rule("tripod_pillow_4")
    # {y} is not an ideal: y's subedges have types x, z, w
    with pytest.raises(ValidationFailure):
        validate_collapsible(rule, frozenset({"y"}), frozenset())


def test_collapsible_accepts_loop_edge():
    rule = get_rule("tripod_pillow_4")
    x = validate_collapsible(rule, frozenset({"x"}), frozenset())
    assert x.edges == frozenset({"x"})


def test_quotient_marked_collision():
    rule = get_rule("tripod_pillow_4")  # all four corners are post-critical
    x = validate_collapsible(rule, frozenset({"x"}), frozenset())
    with pytest.raises(ValidationFailure):
        quotient_rule(rule, x)


def test_quotient_collapse_julia_edge():
    rule = levy_pillow_postcritical()
    x = validate_collapsible(rule, frozenset({"z"}), frozenset())
    res = quotient_rule(rule, x)
    q = res.rule
    rep = validate_rule(q)
    assert rep.ok, rep.summary()
    assert rep.notes["degree"] == 4
    assert q.level0.euler_characteristic() == 2
    assert len(q.level0.vertices) == 3       # C and D merged
    assert len(q.level0.edges) == 3
    assert res.collapse_level0["z"] == res.collapse_level0["C"]

    # digraph prediction: E and T of the quotient are induced subgraphs
    ge = build_edge_digraph(q)
    base = build_edge_digraph(rule)
    expected = sorted((a.src, a.dst, a.tag) for a in base.arcs
                      if a.src != "z" and a.dst != "z")
    got = sorted((a.src, a.dst, a.tag) for a in ge.arcs)
    assert got == expected
    gt = build_tile_digraph(q)
    baset = build_tile_digraph(rule)
    assert sorted((a.src, a.dst, a.tag) for a in gt.arcs) == \
        sorted((a.src, a.dst, a.tag) for a in baset.arcs)


def test_collapsible_from_julia_edges_empty_cases():
    for name in ("power_spider_2", "square_spider_julia", "tripod_pillow_4"):
        rule = get_rule(name)
        x = collapsible_from_julia_edges(rule)
        assert x.is_empty(), name


def test_collapsible_from_julia_edges_levy_guard():
    with pytest.raises(UnsupportedRegime):
        collapsible_from_julia_edges(get_rule("levy_pillow_4"))


def test_collapsible_from_julia_edges_on_pillow():
    rule = levy_pillow_postcritical()
    x = collapsible_from_julia_edges(rule)
    assert x.edges == frozenset({"z"})
    assert x.tiles == frozenset()


def test_vertex_sequence_on_edge():
    tower = Tower.build(doubling_edge())
    assert vertex_sequence_on_edge(tower, "e", 0) == ["-2", "2"]
    assert vertex_sequence_on_edge(tower, "e", 1) == ["-2", "0", "2"]
    lvl2 = vertex_sequence_on_edge(tower, "e", 2)
    assert len(lvl2) == 5 and lvl2[0] == "-2" and lvl2[2] == "0"


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_edge_level_darts_follow_the_ancestors(name):
    # every level-L dart of the walk along a level-start edge e lies in e,
    # with its direction inside e, and the walk runs from e's tail to its head
    tower = Tower.of(get_rule(name))
    for start in (0, 1):
        below = tower.up_to(start).complex
        for level in range(start, 4):
            cx = tower.up_to(level).complex
            for e, (tail, head) in below.edges.items():
                darts = edge_level_darts(tower, e, level, start)
                for d in darts:
                    assert tower.ancestor(d[0], "edge", level, start) == (
                        "edge", e, d[1])
                for d, nxt in zip(darts, darts[1:]):
                    assert cx.head(d) == cx.tail(nxt)
                assert cx.tail(darts[0]) == tail
                assert cx.head(darts[-1]) == head
                seq = vertex_sequence_on_edge(tower, e, level, start)
                assert seq == [cx.tail(d) for d in darts] + [head]


def test_add_vertex_orbit_splits_edge():
    rule = doubling_edge()
    refined = add_vertex_orbit(rule, [("0", 1)])
    rep = validate_rule(refined)
    assert rep.ok, rep.summary()
    assert rep.notes["degree"] == 2
    assert set(refined.level0.vertices) == {"-2", "0", "2", "inf"}
    assert "e#0" in refined.level0.edges and "e#1" in refined.level0.edges
    # splitting at an existing orbit point is stable
    again = add_vertex_orbit(refined, [])
    assert again is refined


def test_isolate_noop_on_catalog():
    for name in ("power_spider_2", "square_spider_julia", "spider_twocycle_2",
                 "tripod_pillow_4"):
        rule = get_rule(name)
        assert isolate_julia_vertices(rule) is rule


def test_isolate_requires_no_julia_edges():
    with pytest.raises(UnsupportedRegime):
        isolate_julia_vertices(doubling_edge())


def test_normalize_pipeline_on_pillow():
    rule = levy_pillow_postcritical()
    res = normalize_for_energy(rule)
    rep = validate_rule(res.rule)
    assert rep.ok
    assert julia_edges(res.rule) == frozenset()
    # the merged Julia point is isolated between two Fatou corners
    cls = classify_vertices(res.rule)
    juls = [v for v, f in cls.is_fatou.items() if not f]
    assert len(juls) == 1
    from fsrkit.dynamics import has_polynomial_growth
    assert has_polynomial_growth(res.rule)


def test_normalize_identity_for_clean_rules():
    rule = get_rule("power_spider_2")
    res = normalize_for_energy(rule)
    assert res.rule is rule
