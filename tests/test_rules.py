"""Rule validation, subdivision towers, vertex classes, shifts and powers."""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
import weakref
from collections import Counter
from typing import NamedTuple

import pytest

from fsrkit import rules
from fsrkit.catalog import (
    CATALOG,
    doubling_edge,
    get_rule,
    levy_pillow_4,
    power_spider_2,
)
from fsrkit.complexes import MINUS, PLUS, SphereComplex, validate_complex
from fsrkit.dynamics import julia_edges, julia_tiles
from fsrkit.energies import _certificate_context
from fsrkit.errors import BudgetExceeded, FsrError, ValidationFailure
from fsrkit.quotients import normalize_for_energy
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
from tests.helpers import (
    assert_level_valid_by_construction,
    assert_valid_by_construction,
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
        assert lv.columns["tile"]["type_cell"].count("t") == 2 ** n


def test_type_transport_invariant():
    # dart types along every tile walk match the image walk at the alignment
    for rule in (power_spider_2(), doubling_edge()):
        tower = Tower.build(rule)
        for n in range(1, 4):
            lv = tower.up_to(n)
            ttype = lv.by_id("tile", "type_cell")
            talign = lv.by_id("tile", "type_align")
            etype = lv.by_id("edge", "type_cell")
            eorient = lv.by_id("edge", "type_orient")
            for t, walk in lv.complex.tiles.items():
                w0 = rule.level0.tiles[ttype[t]]
                k = talign[t]
                assert len(walk) == len(w0)
                for i, (e, s) in enumerate(walk):
                    assert (etype[e], s * eorient[e]) == (
                        w0[(i + k) % len(w0)]), (rule.name, n, t, i)


class Cell(NamedTuple):
    """One cell of an oracle level, as a record."""
    kind: str
    parent: str | None = None
    parent_kind: str | None = None
    type_cell: str = ""
    type_orient: int = PLUS
    type_align: int = 0
    fimage: str | None = None
    fimage_orient: int = PLUS
    fimage_align: int = 0
    rel_orient: int = PLUS


class OracleLevel(NamedTuple):
    complex: SphereComplex
    level: int
    vinfo: dict
    einfo: dict
    tinfo: dict


def levels_zero_one_oracle(rule, index):
    """Reference levels 0 and 1, one record per cell, read off the rule."""
    c0, c1 = rule.level0, rule.level1
    zero = OracleLevel(c0, 0,
                       {v: Cell("vertex", type_cell=v) for v in c0.vertices},
                       {e: Cell("edge", type_cell=e) for e in c0.edges},
                       {t: Cell("tile", type_cell=t) for t in c0.tiles})
    vinfo, einfo, tinfo = {}, {}, {}
    for v1 in c1.vertices:
        kind, ref = rule.carrier_vertices[v1]
        vinfo[v1] = Cell("vertex", parent=ref, parent_kind=kind,
                         type_cell=rule.map_vertices[v1],
                         fimage=rule.map_vertices[v1])
    for e1 in c1.edges:
        kind, ref = rule.carrier_edges[e1]
        img = rule.map_edges[e1]
        rel = PLUS
        if kind == "edge":
            rel = next(s for (eid, s) in index.path[ref] if eid == e1)
        einfo[e1] = Cell("edge", parent=ref, parent_kind=kind,
                         type_cell=img.edge, type_orient=img.orient,
                         fimage=img.edge, fimage_orient=img.orient,
                         rel_orient=rel)
    for t1 in c1.tiles:
        img = rule.map_tiles[t1]
        tinfo[t1] = Cell("tile", parent=rule.carrier_tiles[t1],
                         parent_kind="tile", type_cell=img.tile,
                         type_align=img.align, fimage=img.tile,
                         fimage_align=img.align)
    return zero, OracleLevel(c1, 1, vinfo, einfo, tinfo)


def subdivide_once_oracle(rule, index, lv):
    """Reference pullback step from level >= 1: derives every cell's children
    from the rule index directly, through per-cell closures."""
    c = lv.complex
    c1 = rule.level1
    f0 = {v: rule.map_vertices[index.vertex_copy[v]]
          for v in rule.level0.vertices}

    new_vinfo = {}
    new_einfo = {}
    new_tinfo = {}
    new_edges = {}
    new_tiles = {}

    for v, info in lv.vinfo.items():
        fim = info.fimage if lv.level > 1 else index.vertex_copy[info.fimage]
        new_vinfo[v] = Cell("vertex", parent=v, parent_kind="vertex",
                            type_cell=f0[info.type_cell], fimage=fim)

    def cv(parent, w1):
        return f"{parent}/v.{w1}"

    def ce(parent, e1):
        return f"{parent}/e.{e1}"

    def ct(parent, t1):
        return f"{parent}/t.{t1}"

    for e in sorted(c.edges):
        info = lv.einfo[e]
        etype, s = info.type_cell, info.type_orient
        fim = info.fimage
        path = index.path[etype]
        m = len(path)
        tail_e, head_e = c.edges[e]
        start, finish = (tail_e, head_e) if s == PLUS else (head_e, tail_e)

        def path_vertex(j):
            if j == 0:
                return start
            if j == m:
                return finish
            return cv(e, index.path_interior[etype][j - 1])

        for w1 in index.path_interior[etype]:
            vid = cv(e, w1)
            new_vinfo[vid] = Cell(
                "vertex", parent=e, parent_kind="edge",
                type_cell=rule.map_vertices[w1],
                fimage=cv(fim, w1) if lv.level > 1 else w1)
        for j, (e1, d1) in enumerate(path):
            eid = ce(e, e1)
            a, b = (path_vertex(j), path_vertex(j + 1))
            if d1 == MINUS:
                a, b = b, a
            new_edges[eid] = (a, b)
            img = rule.map_edges[e1]
            new_einfo[eid] = Cell(
                "edge", parent=e, parent_kind="edge",
                type_cell=img.edge, type_orient=img.orient,
                fimage=ce(fim, e1) if lv.level > 1 else e1,
                rel_orient=s * d1)

    for t in sorted(c.tiles):
        info = lv.tinfo[t]
        ttype, k = info.type_cell, info.type_align
        fim = info.fimage
        walk = c.tiles[t]
        m = len(walk)
        exp = index.expanded[ttype]
        orig = index.expanded_orig[ttype]

        def edge_at(j):
            return walk[(j - k) % m]

        def boundary_vertex_copy(c_idx):
            w1 = c1.tail(exp[c_idx])
            j = orig[c_idx]
            if index.corner_is_original(ttype, c_idx):
                return c.tail(edge_at(j))
            host = edge_at(j)[0]
            return cv(host, w1)

        corner_index_cache = index.attach[ttype]

        def resolve_in_tile(w1, via_dart):
            kind, ref = rule.carrier_vertices[w1]
            if kind == "tile":
                return cv(t, w1)
            c_idx = corner_index_cache[via_dart]
            return boundary_vertex_copy(c_idx)

        for w1 in index.interior_vertices[ttype]:
            vid = cv(t, w1)
            new_vinfo[vid] = Cell(
                "vertex", parent=t, parent_kind="tile",
                type_cell=rule.map_vertices[w1],
                fimage=cv(fim, w1) if lv.level > 1 else w1)
        for e1 in index.interior_edges[ttype]:
            eid = ce(t, e1)
            a, b = c1.edges[e1]
            new_edges[eid] = (resolve_in_tile(a, (e1, PLUS)),
                              resolve_in_tile(b, (e1, MINUS)))
            img = rule.map_edges[e1]
            new_einfo[eid] = Cell(
                "edge", parent=t, parent_kind="tile",
                type_cell=img.edge, type_orient=img.orient,
                fimage=ce(fim, e1) if lv.level > 1 else e1)
        for t1 in index.interior_tiles[ttype]:
            tid = ct(t, t1)
            darts = []
            for (x, dr) in c1.tiles[t1]:
                kind, ref = rule.carrier_edges[x]
                if kind == "tile":
                    darts.append((ce(t, x), dr))
                else:
                    c_idx = index.bmatch[ttype][(x, dr)]
                    host = edge_at(orig[c_idx])[0]
                    darts.append((ce(host, x), dr))
            new_tiles[tid] = tuple(darts)
            img = rule.map_tiles[t1]
            new_tinfo[tid] = Cell(
                "tile", parent=t, parent_kind="tile",
                type_cell=img.tile, type_align=img.align,
                fimage=ct(fim, t1) if lv.level > 1 else t1)

    cx = SphereComplex(tuple(new_vinfo), new_edges, new_tiles, c.marked)
    return OracleLevel(cx, lv.level + 1, new_vinfo, new_einfo, new_tinfo)


def _oracle_cases():
    """(label, rule): the catalog, shift 1 of each, power 2 of the degree-2
    rules, and the normalized rules that differ from their input."""
    for name in sorted(CATALOG):
        yield name, get_rule(name)
        yield f"{name}:shift1", shift(get_rule(name), 1)
        if validate_rule(get_rule(name)).notes["degree"] == 2:
            yield f"{name}:power2", power(get_rule(name), 2)
    pillow = levy_pillow_4()
    marked = frozenset({"A", "B"})
    pillow = dataclasses.replace(
        pillow, level0=dataclasses.replace(pillow.level0, marked=marked),
        level1=dataclasses.replace(pillow.level1, marked=marked))
    yield "levy_pillow_pc:normalized", normalize_for_energy(pillow).rule


def assert_columns_match(got, want, where):
    """Every column of a tower level equals the oracle's records, in the
    complex's cell order; a record field without a column is the image
    orientation or alignment (the type's at level 1, else PLUS and 0) or
    keeps its default for that kind."""
    assert got.level == want.level, where
    assert got.complex.vertices == want.complex.vertices, where
    assert got.complex.marked == want.complex.marked, where
    for kind in ("edges", "tiles"):
        assert (list(getattr(got.complex, kind).items())
                == list(getattr(want.complex, kind).items())), where
    for kind, recs in (("vertex", want.vinfo), ("edge", want.einfo),
                       ("tile", want.tinfo)):
        cols = got.columns[kind]
        assert list(got.ids(kind)) == list(recs), (where, kind)
        derived = ({"fimage_orient": cols.get("type_orient"),
                    "fimage_align": cols.get("type_align")}
                   if got.level == 1 else {})
        for name in Cell._fields[1:]:
            values = [getattr(r, name) for r in recs.values()]
            if name in cols:
                expect = cols[name]
            elif derived.get(name) is not None:
                expect = derived[name]
            else:
                expect = [Cell._field_defaults[name]] * len(values)
            assert values == expect, (where, kind, name)


def test_tower_matches_oracle():
    for label, rule in _oracle_cases():
        top = 4 if validate_rule(rule).notes["degree"] > 2 else 8
        tower = Tower.build(rule)
        zero, want = levels_zero_one_oracle(rule, tower.index)
        assert_columns_match(tower.up_to(0), zero, f"{label} level 0")
        for n in range(1, top + 1):
            if n > 1:
                want = subdivide_once_oracle(rule, tower.index, want)
            assert_columns_match(tower.up_to(n), want, f"{label} level {n}")


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


def test_power_carriers_match_ancestor_walk():
    # power composes the carriers level by level; Tower.ancestor walks each
    # cell down to level 0 on its own
    checked = 0
    for name in sorted(CATALOG):
        rule = get_rule(name)
        if validate_rule(rule).notes["degree"] != 2:
            continue
        tower = Tower.of(rule)
        for k in (2, 3):
            pw = power(rule, k)
            cx = tower.up_to(k).complex
            assert pw.carrier_vertices == {
                v: tower.ancestor(v, "vertex", k, 0)[:2] for v in cx.vertices}
            assert pw.carrier_edges == {
                e: tower.ancestor(e, "edge", k, 0)[:2] for e in cx.edges}
            assert pw.carrier_tiles == {
                t: tower.ancestor(t, "tile", k, 0)[1] for t in cx.tiles}
            checked += 1
    assert checked == 8


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


def test_budget_checked_before_the_gather():
    # level 6 of the degree-4 tripod holds 32,770 cells; the templates give
    # that count before any of them is built
    tower = Tower.build(get_rule("tripod_pillow_4"), budget=10_000)
    tower.up_to(5)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded) as exc:
            tower.up_to(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "level 6 needs 32770 cells (budget 10000)"
    assert exc.value.reached == 5
    assert len(tower.levels) == 6
    assert peak < 100_000       # the level would take megabytes


def test_budget_checked_on_levels_zero_and_one():
    rule = get_rule("tripod_pillow_4")
    with pytest.raises(BudgetExceeded) as exc:
        Tower.build(rule, budget=9)
    assert str(exc.value) == "level 0 needs 10 cells (budget 9)"
    assert exc.value.reached is None
    tower = Tower.build(rule, budget=33)
    with pytest.raises(BudgetExceeded) as exc:
        tower.up_to(1)
    assert str(exc.value) == "level 1 needs 34 cells (budget 33)"
    assert exc.value.reached == 0
    assert len(tower.levels) == 1
    assert len(Tower.build(rule, budget=34).up_to(1).complex.vertices) == 10


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


# -- rules and levels that are valid by construction --------------------------


def test_derived_rules_pass_the_full_check():
    for name in sorted(CATALOG):
        rule = get_rule(name)
        tower = Tower.of(rule)
        for k in (1, 2):
            assert_valid_by_construction(shift(rule, k), tower, k, k + 1)
        for k in (2, 3):
            assert_valid_by_construction(power(rule, k), tower, 0, k)
        pw = power(rule, 2)
        assert_valid_by_construction(shift(pw, 1), Tower.of(pw), 1, 2)


def test_certificate_transforms_pass_the_full_check():
    checked = 0
    for name in sorted(CATALOG):
        rule = get_rule(name)
        try:
            ctx = _certificate_context(rule)
        except FsrError:
            continue
        source = power(rule, ctx.k1) if ctx.k1 > 1 else rule
        assert_valid_by_construction(ctx.work, Tower.of(source),
                                     ctx.s, ctx.s + 1)
        checked += 1
    assert checked == 4


def test_subdivided_levels_pass_the_full_check():
    for name in sorted(CATALOG):
        tower = Tower.build(get_rule(name))
        for n in range(2, 5):
            assert_level_valid_by_construction(tower.up_to(n).complex)


def test_derived_rules_skip_the_structural_checks(monkeypatch):
    rule = get_rule("tripod_pillow_4")
    derived = [shift(rule, 1), power(rule, 2)]

    def refuse(rule):
        raise AssertionError(f"{rule.name} checked again")

    monkeypatch.setattr(rules, "_check_rule", refuse)
    monkeypatch.setattr(rules, "validate_complex", refuse)
    for d in derived:
        assert validate_rule(d).ok
        assert "by_construction" not in d.metadata


def test_replace_of_a_derived_rule_is_checked_in_full():
    pw = power(get_rule("tripod_pillow_4"), 2)
    e1 = sorted(pw.map_edges)[0]
    img = pw.map_edges[e1]
    bad = dataclasses.replace(pw, map_edges={
        **pw.map_edges, e1: EdgeImage(img.edge, -img.orient)})
    assert validate_rule(pw).ok
    rep = validate_rule(bad)
    assert not rep.ok and rep.first_failure == "orientation"


@pytest.mark.parametrize("column", ["type_cell", "rel_orient"])
def test_oracle_fails_on_a_corrupted_column(column):
    rule = get_rule("tripod_pillow_4")
    tower = Tower.of(rule)
    cols = tower.up_to(2).columns["edge"]
    i = cols["parent_kind"].index("edge")
    if column == "type_cell":
        cols[column][i] = min(set(rule.level0.edges) - {cols[column][i]})
        derived, lo, hi = power(rule, 2), 0, 2
    else:
        cols[column][i] = -cols[column][i]
        derived, lo, hi = shift(rule, 1), 1, 2
    assert validate_rule(derived).ok        # the mark skips every check
    with pytest.raises(AssertionError):
        assert_valid_by_construction(derived, tower, lo, hi)
