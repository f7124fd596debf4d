"""Collapsible subcomplexes, quotient rules, and Julia-vertex isolation."""

from __future__ import annotations

import dataclasses

import pytest

from fsrkit.catalog import (
    CATALOG,
    doubling_edge,
    get_rule,
    levy_pillow_4,
    power_spider_2,
    tripod_pillow_4,
)
from fsrkit.dynamics import build_edge_digraph, build_tile_digraph, julia_edges
from fsrkit.errors import UnsupportedRegime, ValidationFailure
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


def remarked(rule, marked):
    return dataclasses.replace(
        rule,
        level0=dataclasses.replace(rule.level0, marked=frozenset(marked)),
        level1=dataclasses.replace(rule.level1, marked=frozenset(marked)),
    )


def levy_pillow_postcritical():
    """levy_pillow_4 marked only at its post-critical set {A, B}."""
    return remarked(levy_pillow_4(), {"A", "B"})


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
