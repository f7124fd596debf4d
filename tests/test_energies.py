"""Energies of PL graph maps, natural representatives, and certificates."""

from __future__ import annotations

import math
from fractions import Fraction
from math import inf

import pytest

from fsrkit.catalog import CATALOG, get_rule, power_spider_2
from fsrkit.digraphs import path_count
from fsrkit.dynamics import build_edge_digraph
from fsrkit.energies import (
    Collapse,
    ConformalGraph,
    Onto,
    PLGraphMap,
    asymptotic_bounds,
    crochet_certificate,
    dual_conformal_graph,
    e1_exact,
    energy_1p,
    energy_pp,
    fill_pp,
    natural_energy_levels,
    natural_representative,
)
from fsrkit.errors import ValidationFailure
from fsrkit.multicurves import Lift, MulticurveSpec


def two_edge_fixture(k: int, p: float) -> PLGraphMap:
    """Two edges of lengths 1 and k mapped onto one edge of length 1."""
    dom = ConformalGraph(("a", "b"), {"e1": ("a", "b"), "e2": ("a", "b")},
                         p, {"e1": Fraction(1), "e2": Fraction(k)})
    cod = ConformalGraph(("x", "y"), {"f": ("x", "y")}, p,
                         {"f": Fraction(1)})
    return PLGraphMap(dom, cod, {"a": "x", "b": "y"},
                      {"e1": Onto("f", 1), "e2": Onto("f", 1)})


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
