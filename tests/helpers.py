"""Fixtures and reference oracles shared by the test modules.

Nothing under ``src/`` uses these: they are brute-force or independent
computations that the tests compare fsrkit's results against, and small
fixtures that more than one test module builds.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from fsrkit import rules
from fsrkit.complexes import SphereComplex, memo, validate_complex
from fsrkit.digraphs import DynDigraph, GrowthClass, Label
from fsrkit.dynamics import subedge_counts
from fsrkit.energies import ConformalGraph, Onto, PLGraphMap
from fsrkit.spines import recurrent_bands, recurrent_edge_ids

# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def bigon_sphere() -> SphereComplex:
    return SphereComplex(
        vertices=("v0", "vinf"),
        edges={"e": ("v0", "vinf")},
        tiles={"t": (("e", 1), ("e", -1))},
        marked=frozenset({"v0", "vinf"}),
    )


def remarked(rule, marked):
    """The rule with both levels marked at ``marked``."""
    return dataclasses.replace(
        rule,
        level0=dataclasses.replace(rule.level0, marked=frozenset(marked)),
        level1=dataclasses.replace(rule.level1, marked=frozenset(marked)),
    )


def two_edge_fixture(k: int, p: float) -> PLGraphMap:
    """Two edges of lengths 1 and k mapped onto one edge of length 1."""
    dom = ConformalGraph(("a", "b"), {"e1": ("a", "b"), "e2": ("a", "b")},
                         p, {"e1": Fraction(1), "e2": Fraction(k)})
    cod = ConformalGraph(("x", "y"), {"f": ("x", "y")}, p,
                         {"f": Fraction(1)})
    return PLGraphMap(dom, cod, {"a": "x", "b": "y"},
                      {"e1": Onto("f", 1), "e2": Onto("f", 1)})


# ---------------------------------------------------------------------------
# counting and growth oracles
# ---------------------------------------------------------------------------


def euler_characteristic(cx: SphereComplex) -> int:
    return cx.euler_characteristic()


def path_count(g: DynDigraph, v: Label, n: int) -> int:
    """Exact number of directed paths of length n from v (brute-force oracle)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = {u: (1 if u == v else 0) for u in g.vertices}
    for _ in range(n):
        nxt = {u: 0 for u in g.vertices}
        for a in g.arcs:
            if counts[a.src]:
                nxt[a.dst] += counts[a.src]
        counts = nxt
    return sum(counts.values())


def subdivision_edge_count(rule, e0: str, n: int) -> int:
    """|R^n(e)|: number of level-n subedges of e (paths of length n in E)."""
    *_, counts = subedge_counts(rule, n)
    return counts[e0]


def recurrent_cells(rule, n: int):
    return recurrent_edge_ids(rule, n), recurrent_bands(rule, n)


def exact_growth_oracle(arcs: list[tuple], n_vertices: int, v: int) -> GrowthClass:
    """Independent growth oracle from exact path counts.

    Path counts of a finite digraph are eventually quasi-polynomial (when no
    vertex meets two cycles) or exponential.  Summing counts over a window of
    length lcm(1..8) = 840 turns any quasi-polynomial of degree d and period
    dividing 840 into a true degree-d polynomial, whose degree is read off
    from exact finite differences.  Counts are reduced mod two fixed 61-bit
    primes; a genuinely zero difference stays zero, so the polynomial degree
    is exact, and exponential counts never fit any degree <= 8.
    """
    window = 840  # lcm(1..8); covers every cycle period on <= 8 vertices
    n0 = 24       # past any transient (numerator degree <= #arcs <= 16)
    samples = 12
    primes = (2305843009213693951, 1152921504606846883)
    horizon = n0 + samples + window

    degrees = []
    for p in primes:
        counts = {u: (1 if u == v else 0) for u in range(n_vertices)}
        series = [sum(counts.values()) % p]
        for _ in range(horizon):
            nxt = {u: 0 for u in range(n_vertices)}
            for a, b in arcs:
                if counts[a]:
                    nxt[b] = (nxt[b] + counts[a]) % p
            counts = nxt
            series.append(sum(counts.values()) % p)
        window_sums = [sum(series[n0 + m: n0 + m + window]) % p
                       for m in range(samples)]
        seq = window_sums
        degree = None
        for level in range(0, 10):
            if all(x == 0 for x in seq) and len(seq) >= 2:
                degree = level - 1
                break
            seq = [(seq[i + 1] - seq[i]) % p for i in range(len(seq) - 1)]
        degrees.append(degree)

    if degrees[0] != degrees[1]:
        raise AssertionError(f"oracle primes disagree: {degrees}")
    if degrees[0] is None:
        return GrowthClass("exponential")
    return GrowthClass("polynomial", degrees[0])


# ---------------------------------------------------------------------------
# the oracle of rules and levels that are valid by construction
# ---------------------------------------------------------------------------


def assert_level_valid_by_construction(cx: SphereComplex) -> None:
    """A level that ``subdivide_once`` built: a full ``validate_complex`` of a
    fresh copy passes and gives the stored report."""
    stored = memo(cx)["validated"]
    fresh = validate_complex(dataclasses.replace(cx))     # an empty memo
    assert fresh.ok, fresh.summary()
    assert (fresh.failures, fresh.notes) == (stored.failures, stored.notes)


def assert_valid_by_construction(derived, tower: rules.Tower,
                                 lo: int, hi: int) -> None:
    """The oracle of a rule that ``shift`` or ``power`` built from the levels
    ``lo`` and ``hi`` of ``tower``.

    With every memo cleared, the full ``_check_rule`` passes, and its report
    and index equal the stored ones field by field.  The path of each
    level-``lo`` edge also agrees with the tower's columns: each of its
    darts lies in that edge, in the direction ``Tower.ancestor`` gives."""
    stored = rules.validate_rule(derived)
    index = rules.require_valid_rule(derived)
    fresh = dataclasses.replace(                          # empty memos
        derived, level0=dataclasses.replace(derived.level0),
        level1=dataclasses.replace(derived.level1))
    report, fresh_index = rules._check_rule(fresh)
    assert report.ok, f"{derived.name}: {report.summary()}"
    assert (report.failures, report.notes) == (stored.failures, stored.notes)
    for f in dataclasses.fields(rules.RuleIndex):
        assert getattr(fresh_index, f.name) == getattr(index, f.name), \
            (derived.name, f.name)
    for e0, path in fresh_index.path.items():
        for e1, s in path:
            assert tower.ancestor(e1, "edge", hi, lo) == ("edge", e0, s), \
                (derived.name, e0, e1)
