"""Workloads of the fsrkit benchmark: seeded inputs, the timed operation, and
the check of each operation's output.

Every operation gets freshly constructed rules.  fsrkit memoizes derived data
(validation, dual skeletons) on complex objects, so reusing one rule object
across operations would time a warm cache that a user running ``fsr report``
never sees.  Input construction and output checks run outside ``run``;
only the phases inside ``run`` are timed, and only ``run`` is traced.

fsrkit is called through module attributes (``rules.power``, not a name
imported into this file), so that the traced run's wrappers see these calls.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import os
import random
import time
from contextlib import contextmanager

from fsrkit import catalog, energies, io, quotients, report, rules
from fsrkit.digraphs import radical_closure
from fsrkit.dynamics import build_edge_digraph, build_tile_digraph
from fsrkit.errors import ValidationFailure
from fsrkit.multicurves import Lift, MulticurveSpec

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")
CATALOG_NAMES = sorted(catalog.CATALOG)
ENERGY_PS = (1.0, 2.0)


def remarked(rule, marked):
    """The rule with both levels marked at ``marked`` (acceptance criterion 5)."""
    marked = frozenset(marked)
    return dataclasses.replace(
        rule, level0=dataclasses.replace(rule.level0, marked=marked),
        level1=dataclasses.replace(rule.level1, marked=marked))


def levy_multicurve():
    """The acceptance criterion 4 curve: four degree-one lifts of itself."""
    return MulticurveSpec(("g",), tuple(Lift("g", "g", 1) for _ in range(4)),
                          map_degree=4)


def fresh_source(name: str):
    """A newly built rule of the criterion-5 testbed (catalog + levy_pillow_pc)."""
    if name == "levy_pillow_pc":
        return remarked(catalog.levy_pillow_4(), {"A", "B"})
    return catalog.get_rule(name)


def cells(cx) -> int:
    return len(cx.vertices) + len(cx.edges) + len(cx.tiles)


def int_matmul(a, b):
    """Exact product of square integer matrices given as nested lists."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def matrix_powers(m, n_max: int):
    """[I, m, m^2, ..., m^n_max] in exact integers."""
    size = len(m)
    out = [[[int(i == j) for j in range(size)] for i in range(size)]]
    for _ in range(n_max):
        out.append(int_matmul(out[-1], m))
    return out


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


class Phases:
    """The timed phases of one op.  ``between`` runs between two phases,
    outside every timed interval (the benchmark samples the host's speed
    there); the op's time is the sum of its phases."""

    def __init__(self, between=None, kind=None):
        self.between = between
        self.kind = kind
        self.spans: list[tuple[str, float, float]] = []
        self.cells = 0

    @contextmanager
    def phase(self, name: str):
        if self.spans and self.between:
            self.between()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, t0, time.perf_counter()))

    def total(self, name: str | None = None, scale=None) -> float:
        """Summed time of the phases called ``name`` (all if None), each
        multiplied by ``scale(start, end)`` when given."""
        return sum((t1 - t0) * (scale(t0, t1) if scale else 1.0)
                   for n, t0, t1 in self.spans if name in (None, n))


def catalog_keys() -> list[str]:
    """The catalog_report inputs: the catalog, powers of the degree-2 rules,
    shifts of all rules, and the two Levy controls."""
    degree = {n: rules.validate_rule(catalog.get_rule(n)).notes["degree"]
              for n in CATALOG_NAMES}
    # power(., 2) of the degree-4 rules takes 40+ s per analyze: left out
    return (list(CATALOG_NAMES)
            + [f"{n}:power2" for n in CATALOG_NAMES if degree[n] == 2]
            + [f"{n}:shift1" for n in CATALOG_NAMES]
            + ["levy_pillow_pc", "levy_pillow_4+multicurve"])


def catalog_inputs(key: str):
    """(rule, multicurves) for one catalog_report key, freshly built."""
    if key == "levy_pillow_pc":
        return fresh_source(key), ()
    if key == "levy_pillow_4+multicurve":
        return catalog.levy_pillow_4(), (levy_multicurve(),)
    name, _, derived = key.partition(":")
    rule = catalog.get_rule(name)
    if derived == "power2":
        rule = rules.power(rule, 2)
    elif derived == "shift1":
        rule = rules.shift(rule, 1)
    return rule, ()


def report_text(inputs) -> str:
    rule, mcs = inputs
    return io.canonical_json(report.analyze(rule, multicurves=mcs).to_json())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CatalogReport:
    """Closed loop of one client calling ``analyze`` on catalog-derived rules."""

    tail_percentile = 70
    trace_rounds = 1
    probe_level = 4       # analyze's default n_max
    probe_passes = 8
    reference_tower = ("tripod_pillow_4", 4)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.keys = catalog_keys()
        for key in self.keys:       # derived-rule construction is part of set-up
            catalog_inputs(key)
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            self.expected = json.load(fh)["catalog_report"]

    def round(self):
        keys = list(self.keys)
        self.rng.shuffle(keys)
        return keys

    def prepare(self, key):
        return catalog_inputs(key)

    def kind(self, key):
        return key

    def run(self, key, inputs, phases):
        with phases.phase("analyze"):
            return report_text(inputs)

    def check(self, key, inputs, out):
        got = sha256(out)
        if got != self.expected.get(key):
            return [f"{key}: report sha256 {got[:12]} differs from the recorded one"]
        return []

    def probe(self, between):
        """Shallow towers and natural energies at analyze's depth, timed on
        their own: analyze builds them internally, out of the harness's view.
        ``between`` runs around every phase, outside its timing."""
        steps = []
        for _ in range(self.probe_passes):
            for name in CATALOG_NAMES:
                gc.collect()        # as between ops: no step pays for another's garbage
                between()
                phases = Phases(between, kind=name)
                tower_energy_step(catalog.get_rule(name), self.probe_level,
                                  phases)
                steps.append(phases)
        between()
        return steps


def tower_energy_step(rule, level, phases: Phases):
    """Cold tower up to ``level``, then natural energy levels for p in
    {1, 2}, as three phases; returns (tower, levels by p)."""
    with phases.phase("tower"):
        tower = rules.Tower.build(rule)
        top = tower.up_to(level)
    levels = {}
    for p in ENERGY_PS:
        with phases.phase("energy"):
            levels[p] = energies.natural_energy_levels(rule, p, level, tower)
    phases.cells += cells(top.complex)
    return tower, levels


class DeepTower:
    """Cold deep towers and their natural energy levels."""

    tail_percentile = 80
    trace_rounds = 2
    reference_tower = ("tripod_pillow_4", 5)
    # degree 4: wide levels; degree 2: deep levels with long cell ids.  The
    # top level holds half (degree 2) or three quarters (degree 4) of the
    # tower's cells.  An op takes 0.15-0.35 s on a fast host, so that even
    # a slow host fits nine or more samples of every rule into a run; level
    # 6 for degree 4 (1 s per op) left three or four.
    levels = {"tripod_pillow_4": 5, "levy_pillow_4": 5,
              "power_spider_2": 11, "doubling_edge": 10,
              "square_spider_julia": 10, "spider_twocycle_2": 10}

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.expect = {n: self.expected_counts(catalog.get_rule(n), lvl)
                       for n, lvl in self.levels.items()}

    @staticmethod
    def expected_counts(rule, n_max):
        """Per-level (tiles, edges) and closed-form energies from the edge
        and tile subdivision matrices, in exact integers."""
        a = build_edge_digraph(rule).adjacency_matrix().tolist()
        tg = build_tile_digraph(rule)
        b = tg.adjacency_matrix().tolist()
        tile_types = tg.vertices
        edge_types = sorted(rule.level0.edges)
        degree = rules.validate_rule(rule).notes["degree"]
        # level-1 edges inside each level-0 tile, by the edge type they map to
        inner = {t: [0] * len(edge_types) for t in tile_types}
        for e1, (kind, host) in rule.carrier_edges.items():
            if kind == "tile":
                inner[host][edge_types.index(rule.map_edges[e1].edge)] += 1
        apow = matrix_powers(a, n_max)
        bpow = matrix_powers(b, n_max)
        r = [[sum(row) for row in an] for an in apow]   # r[n][e] = |R^n(e)|
        tiles_of_type = [[sum(col) for col in zip(*bk)] for bk in bpow]
        t0 = len(rule.level0.tiles)
        counts = {}
        for n in range(n_max + 1):
            edges = sum(r[n])
            for k in range(n):
                for ti, t in enumerate(tile_types):
                    edges += tiles_of_type[k][ti] * sum(
                        c * r[n - 1 - k][ei] for ei, c in enumerate(inner[t]))
            counts[n] = (t0 * degree ** n, edges)
        energy = {p: {n: float(max(r[n])) ** (1.0 / p)
                      for n in range(1, n_max + 1)} for p in ENERGY_PS}
        return counts, energy

    def round(self):
        names = sorted(self.levels)
        self.rng.shuffle(names)
        return names

    def prepare(self, name):
        return catalog.get_rule(name)

    def kind(self, name):
        return name

    def run(self, name, rule, phases):
        return tower_energy_step(rule, self.levels[name], phases)

    def check(self, name, rule, out):
        tower, levels = out
        counts, energy = self.expect[name]
        problems = []
        for n, (tiles, edges) in counts.items():
            cx = tower.up_to(n).complex
            if cx.euler_characteristic() != 2:
                problems.append(f"{name} level {n}: V-E+T = "
                                f"{cx.euler_characteristic()}")
            if (len(cx.tiles), len(cx.edges)) != (tiles, edges):
                problems.append(f"{name} level {n}: tiles/edges "
                                f"{len(cx.tiles)}/{len(cx.edges)}, "
                                f"expected {tiles}/{edges}")
        for p in ENERGY_PS:
            for n, want in energy[p].items():
                if not close(levels[p][n], want):
                    problems.append(f"{name} p={p} level {n}: energy "
                                    f"{levels[p][n]!r}, closed form {want!r}")
        return problems

    def probe(self, between):
        return []


class QuotientChurn:
    """Seeded rule transforms: radical-closure collapses on the criterion-5
    testbed, energy normalization, and powers and shifts of degree-2 rules.
    Each result is validated, round-tripped through rule JSON, and built into
    a shallow tower with its natural energy levels."""

    tail_percentile = 98
    trace_rounds = 10
    draws_per_round = 40
    tower_level = 2
    reference_tower = ("tripod_pillow_4", 4)
    # polynomial growth and Levy-free: the rules normalize_for_energy accepts
    normalizable = ("levy_pillow_pc", "power_spider_2", "spider_twocycle_2",
                    "square_spider_julia", "tripod_pillow_4")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.names = sorted([*CATALOG_NAMES, "levy_pillow_pc"])
        self.degree = {}
        self.level0 = {}
        self.digraphs = {}
        for name in self.names:
            rule = fresh_source(name)
            self.degree[name] = rules.validate_rule(rule).notes["degree"]
            self.level0[name] = rule.level0
            self.digraphs[name] = (build_edge_digraph(rule),
                                   build_tile_digraph(rule))
        self.fixed = [("normalize", n) for n in self.normalizable]
        for name in self.names:
            if self.degree[name] == 2 and name != "levy_pillow_pc":
                self.fixed += [("power2", name), ("shift1", name)]

    def draw(self):
        """One random collapse, drawn as in acceptance criterion 5."""
        rng = self.rng
        name = self.names[rng.randrange(len(self.names))]
        cx = self.level0[name]
        eg, tg = self.digraphs[name]
        pool = sorted(cx.edges)
        seeds = set(rng.sample(pool, k=rng.randint(1, max(1, len(pool) // 2))))
        edges = frozenset(radical_closure(eg, seeds))
        tile_pool = [t for t in sorted(cx.tiles)
                     if {d[0] for d in cx.tiles[t]} <= edges]
        tiles = frozenset(t for t in tile_pool if rng.random() < 0.5)
        if tiles:
            tiles = frozenset(radical_closure(tg, tiles))
        return ("collapse", name, edges, tiles)

    def round(self):
        ops = [self.draw() for _ in range(self.draws_per_round)] + self.fixed
        self.rng.shuffle(ops)
        return ops

    def prepare(self, op):
        return fresh_source(op[1])

    def kind(self, op):
        return op[:2]

    def run(self, op, rule, phases):
        kind = op[0]
        with phases.phase("transform"):
            if kind == "collapse":
                try:
                    x = quotients.validate_collapsible(rule, op[2], op[3])
                    q = quotients.quotient_rule(rule, x).rule
                except ValidationFailure:
                    return None              # rejected by design
            elif kind == "normalize":
                q = quotients.normalize_for_energy(rule).rule
            elif kind == "power2":
                q = rules.power(rule, 2)
            else:
                q = rules.shift(rule, 1)
            rep = rules.validate_rule(q)
            text = io.canonical_json(io.rule_to_json(q))
            back = io.rule_from_json(json.loads(text))
            again = io.canonical_json(io.rule_to_json(back))
        tower_energy_step(back, self.tower_level, phases)
        return q, rep, text, again

    def check(self, op, rule, out):
        if out is None:
            return []
        kind, name = op[0], op[1]
        q, rep, text, again = out
        problems = []
        if not rep.ok:
            problems.append(f"{kind} {name}: result invalid: {rep.summary()}")
        if q.level0.euler_characteristic() != 2:
            problems.append(f"{kind} {name}: Euler characteristic "
                            f"{q.level0.euler_characteristic()}")
        d = self.degree[name]
        want = d * d if kind == "power2" else d
        if rep.ok and rep.notes.get("degree") != want:
            problems.append(f"{kind} {name}: degree {rep.notes.get('degree')}, "
                            f"expected {want}")
        if text != again:
            problems.append(f"{kind} {name}: rule JSON round trip not byte-stable")
        if kind == "collapse" and rep.ok:
            edges, tiles = op[2], op[3]
            eg, tg = self.digraphs[name]
            for base, got, gone in ((eg, build_edge_digraph(q), edges),
                                    (tg, build_tile_digraph(q), tiles)):
                want_arcs = sorted((a.src, a.dst, a.tag) for a in base.arcs
                                   if a.src not in gone and a.dst not in gone)
                if sorted((a.src, a.dst, a.tag) for a in got.arcs) != want_arcs:
                    problems.append(f"collapse {name} {sorted(edges)} "
                                    f"{sorted(tiles)}: digraph arcs not conserved")
        return problems

    def probe(self, between):
        return []


WORKLOADS = {"catalog_report": CatalogReport, "deep_tower": DeepTower,
             "quotient_churn": QuotientChurn}


def record_expected() -> dict:
    """sha256 of canonical_json(analyze(rule).to_json()) for every
    catalog_report input; run at the seed commit to pin the outputs."""
    return {"catalog_report": {key: sha256(report_text(catalog_inputs(key)))
                               for key in catalog_keys()}}
