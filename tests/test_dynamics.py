"""E/T/B digraph construction and edge growth rates on catalog rules."""

from __future__ import annotations

import pytest

from fsrkit.catalog import doubling_edge, power_spider_2
from fsrkit.digraphs import GrowthClass, growth_class
from fsrkit.dynamics import (
    build_band_digraph,
    build_edge_digraph,
    build_tile_digraph,
    edge_growth_rate,
    has_polynomial_growth,
    recurrency_periods,
    stability_threshold,
)
from fsrkit.errors import UnsupportedRegime
from tests.helpers import subdivision_edge_count


def test_power_spider_edge_digraph():
    g = build_edge_digraph(power_spider_2())
    assert g.vertices == ["e"]
    assert len(g.arcs) == 1
    assert g.arcs[0].src == "e" and g.arcs[0].dst == "e"
    assert growth_class(g, "e") == GrowthClass("polynomial", 0)


def test_power_spider_tile_digraph():
    g = build_tile_digraph(power_spider_2())
    assert g.vertices == ["t"]
    assert len(g.arcs) == 2  # two subtiles of type t


def test_power_spider_band_digraph():
    g = build_band_digraph(power_spider_2())
    assert g.vertices == [("t", frozenset({0, 1}))]
    assert g.arcs == []


def test_doubling_edge_digraphs():
    rule = doubling_edge()
    g = build_edge_digraph(rule)
    assert sorted(g.vertices) == ["e", "r"]
    arcs_e = [(a.src, a.dst) for a in g.arcs if a.src == "e"]
    assert arcs_e == [("e", "e"), ("e", "e")]
    arcs_r = [(a.src, a.dst) for a in g.arcs if a.src == "r"]
    assert arcs_r == [("r", "r")]
    assert growth_class(g, "e") == GrowthClass("exponential")
    assert growth_class(g, "r") == GrowthClass("polynomial", 0)


def test_growth_rates():
    assert edge_growth_rate(power_spider_2(), "e").value == 1.0
    rho = edge_growth_rate(doubling_edge(), "e")
    assert abs(rho.value - 2.0) < 1e-9
    assert rho.lower <= 2.0 <= rho.upper
    # r is polynomial even though the rule is globally exponential
    assert edge_growth_rate(doubling_edge(), "r").value == 1.0


def test_polynomial_regime_flags():
    assert has_polynomial_growth(power_spider_2())
    assert not has_polynomial_growth(doubling_edge())


def test_recurrency_periods_and_threshold():
    assert recurrency_periods(power_spider_2()) == {"e": 1}
    assert stability_threshold(power_spider_2()) == 1
    with pytest.raises(UnsupportedRegime):
        recurrency_periods(doubling_edge())


def test_subdivision_edge_counts():
    for n in range(9):
        assert subdivision_edge_count(power_spider_2(), "e", n) == 1
    assert subdivision_edge_count(doubling_edge(), "e", 4) == 16
