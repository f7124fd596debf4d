"""Rule validation, subdivision towers, vertex classes, shifts and powers."""

from __future__ import annotations

import dataclasses
import gc
import weakref
from collections import Counter

import pytest

from fsrkit import rules
from fsrkit.catalog import CATALOG, doubling_edge, get_rule, power_spider_2
from fsrkit.complexes import MINUS, PLUS, validate_complex
from fsrkit.dynamics import julia_edges, julia_tiles
from fsrkit.errors import BudgetExceeded, ValidationFailure
from fsrkit.report import analyze
from fsrkit.rules import (
    EdgeImage,
    Tower,
    classify_vertices,
    power,
    require_valid_rule,
    shift,
    subdivide,
    validate_rule,
)


def test_power_spider_valid():
    rule = power_spider_2()
    rep = validate_rule(rule)
    assert rep.ok, rep.summary()
    assert rep.notes["degree"] == 2
    assert set(rep.notes["critical_vertices"]) == {"v0", "vinf"}


def test_doubling_edge_valid():
    rep = validate_rule(doubling_edge())
    assert rep.ok, rep.summary()
    assert rep.notes["degree"] == 2
    assert set(rep.notes["critical_vertices"]) == {"0", "inf"}


def test_reversed_orientation_fails():
    validated = power_spider_2()
    assert validate_rule(validated).ok
    require_valid_rule(validated)
    # a rule whose original was validated (and memoized) fails all the same
    for rule in (power_spider_2(), validated):
        bad = dataclasses.replace(
            rule, map_edges={"a0": EdgeImage("e", PLUS),
                             "a1": EdgeImage("e", MINUS)})
        rep = validate_rule(bad)
        assert not rep.ok
        assert rep.first_failure == "orientation"
        for _ in range(2):
            with pytest.raises(ValidationFailure):
                require_valid_rule(bad)


def test_unknown_image_vertex_fails():
    rule = power_spider_2()
    bad = dataclasses.replace(rule, map_vertices={"v0": "v0", "vinf": "ghost"})
    rep = validate_rule(bad)
    assert not rep.ok
    assert rep.first_failure == "post-critical containment"


def test_subdivide_levels_power_spider():
    rule = power_spider_2()
    for n, (nv, ne, nt) in enumerate([(2, 1, 1), (2, 2, 2), (2, 4, 4), (2, 8, 8)]):
        lv = subdivide(rule, n)
        cx = lv.complex
        assert (len(cx.vertices), len(cx.edges), len(cx.tiles)) == (nv, ne, nt)
        rep = validate_complex(cx)
        assert rep.ok, f"level {n}: {rep.summary()}"


def test_subdivide_levels_doubling():
    rule = doubling_edge()
    tower = Tower.build(rule)
    for n in range(5):
        lv = tower.up_to(n)
        rep = validate_complex(lv.complex)
        assert rep.ok, f"level {n}: {rep.summary()}"
        assert len(lv.complex.tiles) == 2 ** n
        # tile type counts: d^n tiles of type t
        types = [info.type_cell for info in lv.tinfo.values()]
        assert types.count("t") == 2 ** n


def test_type_transport_invariant():
    # dart types along every tile walk match the image walk at the alignment
    for rule in (power_spider_2(), doubling_edge()):
        tower = Tower.build(rule)
        for n in range(1, 4):
            lv = tower.up_to(n)
            cx = lv.complex
            for t, walk in cx.tiles.items():
                ttype, k = lv.tile_type(t)
                w0 = rule.level0.tiles[ttype]
                assert len(walk) == len(w0)
                for i, (e, s) in enumerate(walk):
                    etype, orient = lv.edge_type(e)
                    assert (etype, s * orient) == w0[(i + k) % len(w0)], (
                        rule.name, n, t, i)


def test_classify_vertices_power_spider():
    cls = classify_vertices(power_spider_2())
    assert cls.is_fatou == {"v0": True, "vinf": True}
    assert cls.local_degree == {"v0": 2, "vinf": 2}
    assert cls.periodic == {"v0", "vinf"}


def test_classify_vertices_doubling():
    cls = classify_vertices(doubling_edge())
    assert cls.is_fatou["inf"] is True
    assert cls.is_fatou["2"] is False       # fixed, never meets a critical cycle
    assert cls.is_fatou["-2"] is False
    assert cls.cycle_of["-2"] == ("2",)


def test_julia_cells():
    assert julia_edges(power_spider_2()) == frozenset()
    rule = doubling_edge()
    # e = [-2,2] is a Julia edge (interval Julia set); r reaches infinity
    assert julia_edges(rule) == frozenset({"e"})
    assert julia_tiles(rule) == frozenset()


def test_shift_and_power_power_spider():
    rule = power_spider_2()
    sh = shift(rule, 1)
    rep = validate_rule(sh)
    assert rep.ok, rep.summary()
    assert len(sh.level0.tiles) == 2
    assert len(sh.level1.tiles) == 4
    assert rep.notes["degree"] == 2

    pw = power(rule, 2)
    rep2 = validate_rule(pw)
    assert rep2.ok, rep2.summary()
    assert rep2.notes["degree"] == 4
    assert pw.level0 is rule.level0


def test_shift_level0_equals_subdivision():
    rule = power_spider_2()
    sh = shift(rule, 1)
    lv1 = subdivide(rule, 1)
    assert set(sh.level0.edges) == set(lv1.complex.edges)
    assert set(sh.level0.tiles) == set(lv1.complex.tiles)


def test_shift_of_doubling_valid():
    rule = doubling_edge()
    for k in (1, 2):
        sh = shift(rule, k)
        rep = validate_rule(sh)
        assert rep.ok, f"shift {k}: {rep.summary()}"


def test_power_of_doubling_valid():
    rule = doubling_edge()
    for k in (2, 3):
        pw = power(rule, k)
        rep = validate_rule(pw)
        assert rep.ok, f"power {k}: {rep.summary()}"
        assert rep.notes["degree"] == 2 ** k


def test_classification_stable_under_shift():
    for rule in (power_spider_2(), doubling_edge()):
        base = classify_vertices(rule)
        sh = shift(rule, 1)
        shifted = classify_vertices(sh)
        for v in rule.level0.vertices:
            # level-0 vertices persist into the shifted rule's level-0 complex
            copy = require_valid_rule(rule).vertex_copy[v]
            assert shifted.is_fatou[copy] == base.is_fatou[v]


def test_budget_enforced():
    with pytest.raises(BudgetExceeded):
        subdivide(doubling_edge(), 12, budget=100)


def test_analyze_builds_each_index_once(monkeypatch):
    built = Counter()
    keep = []       # holds every rule, so that no id is reused
    original = rules.build_rule_index

    def counting(rule):
        built[id(rule)] += 1
        keep.append(rule)
        return original(rule)

    monkeypatch.setattr(rules, "build_rule_index", counting)
    for name in sorted(CATALOG):
        built.clear()
        analyze(get_rule(name))
        assert built and max(built.values()) == 1, name


def test_analyze_leaves_no_reference_cycle():
    # with the cycle collector off, only reference counting frees the rule
    gc.disable()
    try:
        for name in sorted(CATALOG):
            rule = get_rule(name)
            analyze(rule)
            assert Tower.of(rule).levels       # the shared tower is memoized
            ref = weakref.ref(rule)
            del rule
            assert ref() is None, name
    finally:
        gc.enable()
