"""Catalog rules: structural validity and their control properties."""

from __future__ import annotations

import pytest

from fsrkit.catalog import catalog, get_rule
from fsrkit.dynamics import has_polynomial_growth, julia_edges, stability_threshold
from fsrkit.rules import classify_vertices, validate_rule
from fsrkit.spines import is_levy_free, non_expanding_spine, peripheral_cycles


def test_catalog_all_valid():
    rules = catalog()
    assert len(rules) >= 4
    for name, rule in rules.items():
        rep = validate_rule(rule)
        assert rep.ok, f"{name}: {rep.summary()}"


def test_catalog_degrees():
    degs = {name: validate_rule(rule).notes["degree"]
            for name, rule in catalog().items()}
    assert degs == {"power_spider_2": 2, "square_spider_julia": 2,
                    "spider_twocycle_2": 2, "tripod_pillow_4": 4,
                    "doubling_edge": 2, "levy_pillow_4": 4}


def test_growth_regimes():
    polys = {name: has_polynomial_growth(rule)
             for name, rule in catalog().items()}
    assert polys == {"power_spider_2": True, "square_spider_julia": True,
                     "spider_twocycle_2": True, "tripod_pillow_4": True,
                     "doubling_edge": False, "levy_pillow_4": True}


def test_square_spider_julia_peripheral_cycle():
    rule = get_rule("square_spider_julia")
    cls = classify_vertices(rule)
    assert cls.is_fatou == {"v0": True, "v1": False, "vinf": True}
    cycles = peripheral_cycles(rule, 1)
    assert set(cycles) == {"v1"}
    assert len(cycles["v1"]) == 2
    spine = non_expanding_spine(rule, 1)
    assert [c.shape for c in spine.components] == ["peripheral_cycle"]
    assert spine.components[0].peripheral_vertex == "v1"
    report = is_levy_free(rule)
    assert report.levy_free  # the only supported cycle is peripheral-Julia
    assert ("peripheral_julia", 2) in report.cycle_classes


def test_spider_twocycle_peripheral_pair():
    rule = get_rule("spider_twocycle_2")
    cls = classify_vertices(rule)
    assert cls.is_fatou == {"vinf": True, "a": False, "b": False, "c": False}
    assert cls.periodic == {"vinf", "b", "c"}
    assert stability_threshold(rule) == 2
    spine = non_expanding_spine(rule, 2)
    shapes = sorted(c.shape for c in spine.components)
    assert shapes == ["peripheral_cycle", "peripheral_cycle"]
    assert {c.peripheral_vertex for c in spine.components} == {"b", "c"}
    assert is_levy_free(rule).levy_free


def test_levy_pillow_detects_obstruction():
    rule = get_rule("levy_pillow_4")
    cls = classify_vertices(rule)
    assert cls.is_fatou == {"A": True, "B": True, "C": False, "D": False}
    report = is_levy_free(rule)
    assert not report.levy_free
    assert report.witness is not None
    assert report.witness_class == "essential"
    # the witness separates the Julia pair {C, D} from the Fatou pair {A, B}
    from fsrkit.complexes import enclosed_markings
    from fsrkit.rules import subdivide
    lv = subdivide(rule, report.level)
    left, right = enclosed_markings(lv.complex, report.witness)
    assert {frozenset(left), frozenset(right)} == {frozenset({"C", "D"}),
                                                   frozenset({"A", "B"})}


def test_levy_pillow_unobstructed_rel_postcritical():
    # rel the post-critical set {A, B} alone the same curve bounds an
    # unmarked disk, so the rule is Levy-free with fewer marked points
    rule = get_rule("levy_pillow_4")
    report = is_levy_free(rule, marked=frozenset({"A", "B"}))
    assert report.levy_free


def test_tripod_pillow_spine():
    rule = get_rule("tripod_pillow_4")
    cls = classify_vertices(rule)
    assert all(cls.is_fatou.values())         # hyperbolic-type
    assert julia_edges(rule) == frozenset()
    k = stability_threshold(rule)
    spine = non_expanding_spine(rule, max(k, 1))
    tripods = [c for c in spine.components
               if c.shape == "star_tree" and len(c.half_ends) == 3]
    assert tripods, [c.shape for c in spine.components]
    assert is_levy_free(rule).levy_free


def test_get_rule_unknown():
    with pytest.raises(KeyError):
        get_rule("nope")
