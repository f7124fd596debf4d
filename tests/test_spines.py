"""Recurrent cells, spines, peripheral cycles, and the Levy decision."""

from __future__ import annotations

import pytest

from fsrkit.catalog import doubling_edge, power_spider_2
from fsrkit.errors import BelowThreshold, UnsupportedRegime
from fsrkit.rules import Tower, require_valid_rule
from fsrkit.spines import (
    dual_recurrent_skeleton,
    is_levy_free,
    non_expanding_spine,
    peripheral_cycles,
)
from tests.helpers import recurrent_cells


def test_recurrent_cells_power_spider():
    rule = power_spider_2()
    edges, bands = recurrent_cells(rule, 1)
    assert edges == frozenset({"a0"})
    assert bands == []
    edges0, bands0 = recurrent_cells(rule, 0)
    assert edges0 == frozenset({"e"})
    assert bands0 == []  # the lone band (t,{0,1}) has no cycle in B


def test_recurrent_cells_doubling():
    rule = doubling_edge()
    edges2, _ = recurrent_cells(rule, 2)
    # both length-2 paths from [e] are recurrent (bicycle), plus r's chain
    sub_e = {e for e in edges2 if e.split("/")[0] in ("s1", "s2")}
    assert len(sub_e) == 4
    assert "r1/e.r1" in edges2


def test_spine_power_spider_empty():
    rule = power_spider_2()
    spine = non_expanding_spine(rule, 1)
    assert spine.is_empty()
    assert spine.components == []
    with pytest.raises(BelowThreshold):
        non_expanding_spine(rule, 0)


def test_dual_recurrent_skeleton_power_spider():
    rule = power_spider_2()
    sk = dual_recurrent_skeleton(rule, 1)
    assert sk.edges == frozenset({"a0"})
    assert sk.edge_components == ("a0",)
    assert not sk.below_threshold
    sk0 = dual_recurrent_skeleton(rule, 0)
    assert sk0.edges == frozenset({"e"})
    assert sk0.below_threshold


def test_spine_exponential_rule_reports():
    # exponential regime: the band-bone assembly is still computable
    rule = doubling_edge()
    spine = non_expanding_spine(rule, 1)
    assert not spine.polynomial


def test_no_peripheral_cycles_power_spider():
    assert peripheral_cycles(power_spider_2(), 1) == {}


def test_levy_free_power_spider():
    report = is_levy_free(power_spider_2())
    assert report.levy_free
    assert report.witness is None


def test_levy_decision_refuses_exponential():
    with pytest.raises(UnsupportedRegime):
        is_levy_free(doubling_edge())
