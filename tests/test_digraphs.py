"""Growth classification, ideals, and certified spectral radii."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsrkit import digraphs
from fsrkit.catalog import CATALOG, get_rule
from fsrkit.digraphs import (
    Arc,
    DynDigraph,
    GrowthClass,
    condensation,
    cycle_period,
    cycles_are_disjoint,
    growth_class,
    ideal_closure,
    path_count,
    radical_closure,
    reachable_from,
    recurrent_vertices,
    spectral_radius,
)
from fsrkit.report import analyze


def g_of(n_vertices: int, arcs: list[tuple]) -> DynDigraph:
    return DynDigraph(list(range(n_vertices)),
                      [Arc(a, b) for a, b in arcs])


def test_two_loops_one_vertex_single_scc():
    g = g_of(1, [(0, 0), (0, 0)])
    c = condensation(g)
    assert c.sccs == [[0]] and c.internal == [2]
    assert growth_class(g, 0) == GrowthClass("exponential")
    assert path_count(g, 0, 5) == 32


def test_loop_path_loop():
    g = g_of(2, [(0, 0), (0, 1), (1, 1)])
    c = condensation(g)
    assert c.sccs == [[1], [0]]  # sinks first
    assert reachable_from(g, 0) == {0, 1} and reachable_from(g, 1) == {1}
    assert c.reaches(0, 1) and not c.reaches(1, 0)
    assert growth_class(g, 0) == GrowthClass("polynomial", 1)
    assert path_count(g, 0, 5) == 6  # n+1 paths of length n
    for n in range(10):
        assert path_count(g, 0, n) == n + 1


def test_acyclic_chain():
    g = g_of(3, [(0, 1), (1, 2)])
    c = condensation(g)
    assert c.sccs == [[2], [1], [0]] and c.internal == [0, 0, 0]
    assert c.chain == [0, 0, 0]
    assert growth_class(g, 0) == GrowthClass("polynomial", -1)
    assert path_count(g, 0, 1) == 1
    assert path_count(g, 0, 3) == 0


def test_single_loop_polynomial_zero():
    g = g_of(1, [(0, 0)])
    assert growth_class(g, 0) == GrowthClass("polynomial", 0)
    assert all(path_count(g, 0, n) == 1 for n in range(8))
    assert cycle_period(g, 0) == 1


def test_two_cycle_period():
    g = g_of(2, [(0, 1), (1, 0)])
    assert cycle_period(g, 0) == 2
    assert cycles_are_disjoint(g)


def test_dead_end_path_count():
    g = g_of(2, [(0, 1)])
    assert path_count(g, 1, 1) == 0


def test_radical_closure_all():
    g = g_of(3, [(0, 1), (1, 2), (2, 2)])
    assert radical_closure(g, [0, 1, 2]) == {0, 1, 2}


def test_radical_closure_tail_joins():
    # sink s = 2 with a loop; vertex 0 sends all arcs to s
    g = g_of(3, [(0, 2), (2, 2), (1, 1)])
    x = radical_closure(g, [2])
    assert 0 in x and 2 in x and 1 not in x


def test_radical_closure_escape_excluded():
    # v=0 has one arc into X={2} and one arc to an outside loop
    g = g_of(3, [(0, 2), (2, 2), (0, 1), (1, 1)])
    x = radical_closure(g, [2])
    assert 0 not in x


def test_radical_idempotent_on_examples():
    g = g_of(4, [(0, 1), (1, 2), (2, 2), (3, 0), (0, 0)])
    x = radical_closure(g, [2])
    assert radical_closure(g, x) == x


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.data())
def test_radical_closure_is_radical_ideal(n, data):
    arcs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=0, max_size=2 * n))
    seeds = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    g = g_of(n, arcs)
    x = radical_closure(g, seeds)
    assert ideal_closure(g, x) == x          # ideal
    assert radical_closure(g, x) == x        # Tail(Tail(X)) = Tail(X)


def test_spectral_radius_doubling():
    sr = spectral_radius(np.array([[2]]))
    assert abs(sr.value - 2.0) < 1e-9
    assert sr.lower <= 2.0 <= sr.upper
    assert sr.width < 1e-9


def test_spectral_radius_fibonacci():
    m = np.array([[1, 1], [1, 0]])
    sr = spectral_radius(m)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(sr.value - phi) < 1e-8
    assert sr.lower - 1e-12 <= phi <= sr.upper + 1e-12


def test_spectral_radius_nilpotent():
    m = np.array([[0, 1], [0, 0]])
    sr = spectral_radius(m)
    assert sr.value == 0.0


def test_spectral_radius_reducible_blocks():
    # block diag([2], [[1,1],[1,0]]) plus coupling: radius is 2
    m = np.array([[2, 1, 0], [0, 1, 1], [0, 1, 0]])
    sr = spectral_radius(m)
    assert abs(sr.value - 2.0) < 1e-9


def _column_stochastic(rng: random.Random, n: int, r: int) -> list[list[int]]:
    """Nonnegative integers whose columns all sum to r: radius exactly r."""
    m = [[0] * n for _ in range(n)]
    for j in range(n):
        for _ in range(r):
            m[rng.randrange(n)][j] += 1
    return m


def test_spectral_radius_brackets_exactly():
    rng = random.Random(20260)
    for _ in range(3000):
        r = rng.randint(1, 9)
        sr = spectral_radius(_column_stochastic(rng, rng.randint(1, 7), r))
        assert Fraction(sr.lower) <= r <= Fraction(sr.upper)
    sr = spectral_radius([[5, 2], [2, 5]])
    assert sr.lower <= 7.0 <= sr.upper
    fib = spectral_radius([[1, 1], [1, 0]])
    lo, hi = Fraction(fib.lower), Fraction(fib.upper)
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1


def test_spectral_radius_interval_spans_blocks():
    # the [[c]] block has the larger estimate, but the Fibonacci block has
    # the larger radius: c lies between that block's estimate and phi
    c = 1.61803398874985
    sr = spectral_radius([[1, 1, 0], [1, 0, 0], [0, 0, c]])
    assert sr.value == c
    lo, hi = Fraction(sr.lower), Fraction(sr.upper)
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1


def test_arc_counts_match_adjacency_matrix():
    g = g_of(3, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2)])
    assert g.arc_counts() == [[0, 2, 0], [0, 0, 1], [1, 0, 1]]
    assert g.arc_counts([2, 0]) == [[1, 1], [0, 0]]
    assert g.adjacency_matrix([2, 0]).tolist() == [[1, 1], [0, 0]]


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


def test_growth_class_matches_exact_counts_random():
    rng = random.Random(20240811)
    for trial in range(200):
        n = rng.randint(1, 8)
        m = rng.randint(0, 16)
        arcs = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        g = g_of(n, arcs)
        v = rng.randrange(n)
        assert growth_class(g, v) == exact_growth_oracle(arcs, n, v), \
            (trial, arcs, v)


def bfs_reach(g: DynDigraph, v) -> set:
    """Reference reachability: a plain search over a fresh successor map."""
    succ = {u: set() for u in g.vertices}
    for a in g.arcs:
        succ[a.src].add(a.dst)
    seen = {v}
    stack = [v]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def bfs_radical(g: DynDigraph, xs) -> set:
    """Reference radical closure: ideal closure, then Tail, to a fixpoint."""
    x = set().union(*(bfs_reach(g, v) for v in xs))
    while True:
        rec = {r for r in g.vertices
               if any(r in bfs_reach(g, a.dst) for a in g.arcs if a.src == r)}
        bad = {r for r in rec if not bfs_reach(g, r) <= x}
        new = x | {v for v in g.vertices if not bfs_reach(g, v) & bad}
        if new == x:
            return x
        x = set().union(*(bfs_reach(g, v) for v in new))


def test_condensation_matches_bfs_oracle_random():
    rng = random.Random(20261018)
    for trial in range(300):
        n = rng.randint(1, 9)
        arcs = [(rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 2 * n))]
        g = g_of(n, arcs)
        c = condensation(g)
        reach = {v: bfs_reach(g, v) for v in g.vertices}
        assert all(reachable_from(g, v) == reach[v] for v in g.vertices), \
            (trial, arcs)
        # components partition the vertices into mutual-reachability classes
        assert sorted(v for comp in c.sccs for v in comp) == list(range(n))
        for u in g.vertices:
            for v in g.vertices:
                same = u in reach[v] and v in reach[u]
                assert (c.comp_of[u] == c.comp_of[v]) == same, (trial, arcs)
                assert c.reaches(u, v) == (v in reach[u]), (trial, arcs)
        # sinks first: no arc leads to a later component
        assert all(c.comp_of[b] <= c.comp_of[a] for a, b in arcs), (trial, arcs)
        on_cycle = {v for v in g.vertices
                    if any(v in reach[b] for a, b in arcs if a == v)}
        assert recurrent_vertices(g) == on_cycle, (trial, arcs)
        seeds = rng.sample(range(n), rng.randint(0, n))
        assert radical_closure(g, seeds) == bfs_radical(g, seeds), \
            (trial, arcs, seeds)


def test_analyze_condenses_each_digraph_once(monkeypatch):
    built = Counter()
    keep = []       # holds every digraph, so that no id is reused
    original = digraphs.strongly_connected_components

    def counting(g):
        built[id(g)] += 1
        keep.append(g)
        return original(g)

    monkeypatch.setattr(digraphs, "strongly_connected_components", counting)
    for name in sorted(CATALOG):
        built.clear()
        analyze(get_rule(name))
        assert built and max(built.values()) == 1, name
