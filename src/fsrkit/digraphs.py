"""Finite directed multigraphs and the path-growth analytics used for
subdivision dynamics: strong components, reachability, ideals and their
radicals, growth classification, and certified spectral radii.

A digraph is immutable after construction.  Every structural question about
it is answered from one ``Condensation`` (strong components, internal arc
counts, reach bitsets, cycle chains), computed once and memoized on the
digraph object.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Sequence

from .complexes import memo
from .errors import InternalInconsistency

Label = Hashable


@dataclass(frozen=True)
class Arc:
    src: Label
    dst: Label
    tag: Hashable = None


@dataclass(frozen=True)
class DynDigraph:
    """Directed multigraph with labeled vertices and tagged arcs.

    Immutable after construction: never edit ``vertices`` or ``arcs`` in
    place, since ``condensation`` memoizes its result on the object."""

    vertices: list[Label]
    arcs: list[Arc] = field(default_factory=list)

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex label")
        for a in self.arcs:
            if a.src not in vs or a.dst not in vs:
                raise ValueError(f"arc {a} references unknown vertex")

    def arc_counts(self, order: Sequence[Label] | None = None
                   ) -> list[list[int]]:
        """Arc counts among the vertices of order (default: all vertices)."""
        order = list(order) if order is not None else list(self.vertices)
        idx = {v: i for i, v in enumerate(order)}
        m = [[0] * len(order) for _ in order]
        for a in self.arcs:
            if a.src in idx and a.dst in idx:
                m[idx[a.src]][idx[a.dst]] += 1
        return m

    def adjacency_matrix(self, order: Sequence[Label] | None = None):
        """``arc_counts`` as an int64 numpy array; imports numpy."""
        import numpy as np
        return np.array(self.arc_counts(order), dtype=np.int64)

    def to_dot(self, name: str = "G") -> str:
        lines = [f'digraph "{name}" {{']
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for a in self.arcs:
            attr = f' [label="{a.tag}"]' if a.tag is not None else ""
            lines.append(f'  "{a.src}" -> "{a.dst}"{attr};')
        lines.append("}")
        return "\n".join(lines)


@dataclass(frozen=True)
class GrowthClass:
    kind: str            # "exponential" | "polynomial"
    degree: int = 0      # polynomial degree; -1 when P(v, n) dies

    def __str__(self) -> str:
        if self.kind == "exponential":
            return "exponential"
        return f"polynomial({self.degree})"


# ---------------------------------------------------------------------------
# strong components, reachability, ideals and radicals
# ---------------------------------------------------------------------------


def strongly_connected_components(g: DynDigraph) -> list[list[Label]]:
    """Tarjan SCCs, sinks first: every arc leaving a component points to an
    earlier one.  Deterministic (roots taken in vertex order)."""
    index: dict[Label, int] = {}
    low: dict[Label, int] = {}
    on_stack: set[Label] = set()
    stack: list[Label] = []
    sccs: list[list[Label]] = []
    counter = [0]
    succ = {v: [] for v in g.vertices}
    for a in g.arcs:
        succ[a.src].append(a.dst)

    def strongconnect(v: Label) -> None:
        work = [(v, iter(succ[v]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)

    for v in g.vertices:
        if v not in index:
            strongconnect(v)
    return sccs


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Condensation:
    """Strong components of a digraph with their reach sets.

    Component i is ``sccs[i]``, in Tarjan order (sinks first).  It carries
    a cycle iff ``internal[i]``, its number of internal arcs, is nonzero, and
    it is a single cycle iff that number equals its size.  ``reach[i]`` is a
    bitset over components: bit j is set iff a path leads from component i
    into component j.  ``chain[i]`` is the largest number of cycle-carrying
    components met along one path from component i.  ``out_arcs[v]`` lists
    the arcs leaving v in arc order."""

    sccs: list[list[Label]]
    comp_of: dict[Label, int]
    internal: list[int]
    out_arcs: dict[Label, list[Arc]]
    reach: list[int]
    chain: list[int]

    def reaches(self, u: Label, v: Label) -> bool:
        """Is there a path (possibly empty) from u to v?"""
        return bool(self.reach[self.comp_of[u]] >> self.comp_of[v] & 1)

    def vertices_in(self, mask: int) -> set[Label]:
        return {v for i in _bits(mask) for v in self.sccs[i]}

    def avoiding(self, xs: Iterable[Label]) -> set[Label]:
        """Vertices from which no vertex of xs is reachable."""
        bad = 0
        for v in xs:
            bad |= 1 << self.comp_of[v]
        return {v for v, i in self.comp_of.items() if not self.reach[i] & bad}


def condensation(g: DynDigraph) -> Condensation:
    """The condensation of g, computed once per digraph object."""
    m = memo(g)
    if "condensation" not in m:
        sccs = strongly_connected_components(g)
        comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
        out_arcs: dict[Label, list[Arc]] = {v: [] for v in g.vertices}
        internal = [0] * len(sccs)
        succ: list[set[int]] = [set() for _ in sccs]
        for a in g.arcs:
            out_arcs[a.src].append(a)
            i, j = comp_of[a.src], comp_of[a.dst]
            if i == j:
                internal[i] += 1
            else:
                succ[i].add(j)
        reach: list[int] = []
        chain: list[int] = []
        for i in range(len(sccs)):  # successors of i come before i
            r = 1 << i
            for j in succ[i]:
                r |= reach[j]
            reach.append(r)
            chain.append((internal[i] > 0)
                         + max((chain[j] for j in succ[i]), default=0))
        m["condensation"] = Condensation(sccs, comp_of, internal, out_arcs,
                                         reach, chain)
    return m["condensation"]


def reachable_from(g: DynDigraph, v: Label) -> set[Label]:
    c = condensation(g)
    return c.vertices_in(c.reach[c.comp_of[v]])


def cycles_are_disjoint(g: DynDigraph) -> bool:
    """True iff every cycle-containing SCC is a single cycle."""
    c = condensation(g)
    return all(k in (0, len(comp)) for comp, k in zip(c.sccs, c.internal))


def growth_class(g: DynDigraph, v: Label) -> GrowthClass:
    """Exact structural growth classification of P(v, n): exponential iff a
    component with two cycles is reachable from v, else polynomial of degree
    one less than the longest chain of cycles along a path from v."""
    c = condensation(g)
    i = c.comp_of[v]
    if any(c.internal[j] > len(c.sccs[j]) for j in _bits(c.reach[i])):
        return GrowthClass("exponential")
    return GrowthClass("polynomial", c.chain[i] - 1)


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


def recurrent_vertices(g: DynDigraph) -> set[Label]:
    c = condensation(g)
    return {v for comp, k in zip(c.sccs, c.internal) if k for v in comp}


def cycle_period(g: DynDigraph, v: Label) -> int:
    """Length of the unique cycle through v (requires disjoint cycles)."""
    c = condensation(g)
    i = c.comp_of[v]
    if c.internal[i] == 0:
        raise InternalInconsistency(f"vertex {v} is not recurrent")
    if c.internal[i] != len(c.sccs[i]):
        raise InternalInconsistency(
            f"vertex {v} lies in a multi-cycle component; no single period")
    return len(c.sccs[i])


def ideal_closure(g: DynDigraph, xs: Iterable[Label]) -> set[Label]:
    c = condensation(g)
    mask = 0
    for v in xs:
        mask |= c.reach[c.comp_of[v]]
    return c.vertices_in(mask)


def radical_closure(g: DynDigraph, xs: Iterable[Label]) -> set[Label]:
    """Smallest radical ideal containing xs: ideal closure, then Tail.

    v joins Tail(X) iff every sufficiently long path from v terminates in X,
    i.e. no recurrent vertex whose forward set escapes X is reachable from v.
    """
    c = condensation(g)
    x = ideal_closure(g, xs)
    bad_roots = [comp[0] for comp, k, r in zip(c.sccs, c.internal, c.reach)
                 if k and not c.vertices_in(r) <= x]
    # one pass is a fixpoint: a bad root lies in neither X nor Tail, so stays bad
    return x | c.avoiding(bad_roots)


# ---------------------------------------------------------------------------
# certified spectral radius
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifiedValue:
    value: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.value <= self.upper):
            raise InternalInconsistency("certificate interval does not bracket value")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _pf_irreducible(m: Sequence[Sequence[float]], tol: float = 1e-12,
                    max_iter: int = 100_000) -> CertifiedValue:
    """Perron eigenvalue of an irreducible nonnegative matrix (rows m[i][j]):
    a float power iteration on m + I, then Collatz-Wielandt bounds
    min/max (m x)_i / x_i on the final iterate x, a rational vector,
    evaluated exactly and rounded outward, so they bracket the radius."""
    a = [[float(v) for v in row] for row in m]
    shifted = [[v + (i == j) for j, v in enumerate(row)]
               for i, row in enumerate(a)]
    x = [1.0] * len(a)
    for _ in range(max_iter):
        y = [sum(map(operator.mul, row, x)) for row in shifted]
        ratios = [yi / xi for yi, xi in zip(y, x) if xi > 0]
        lo, hi = min(ratios), max(ratios)
        norm = math.sqrt(sum(v * v for v in y))
        x = [v / norm for v in y]
        if hi - lo <= tol * max(1.0, hi):
            break
    # Collatz-Wielandt for the unshifted matrix, in exact arithmetic
    fx = [Fraction(v) for v in x]
    ratios = [sum(Fraction(v) * fx[j] for j, v in enumerate(row) if v) / fx[i]
              for i, row in enumerate(a) if x[i] > 0]
    lo, hi = min(ratios), max(ratios)
    lower, upper = float(lo), float(hi)
    if lower > lo:
        lower = math.nextafter(lower, -math.inf)
    if upper < hi:
        upper = math.nextafter(upper, math.inf)
    return CertifiedValue((lower + upper) / 2, lower, upper)


def spectral_radius(m: Sequence[Sequence[float]], tol: float = 1e-12
                    ) -> CertifiedValue:
    """Certified spectral radius of a nonnegative square matrix given as
    rows m[i][j], over the irreducible blocks (cyclic strong components).
    ``value`` is the largest block estimate; the interval is [max lower,
    max upper] over the blocks' exact outward-rounded Collatz-Wielandt
    intervals, so it holds the largest block radius."""
    n = len(m)
    g = DynDigraph(list(range(n)),
                   [Arc(i, j) for i in range(n) for j in range(n) if m[i][j] > 0])
    c = condensation(g)
    best = lower = upper = 0.0
    for comp, k in zip(c.sccs, c.internal):
        if k == 0:
            continue  # no cycle: contributes 0
        idx = sorted(comp)
        cand = _pf_irreducible([[m[i][j] for j in idx] for i in idx], tol=tol)
        best = max(best, cand.value)
        lower, upper = max(lower, cand.lower), max(upper, cand.upper)
    return CertifiedValue(best, lower, upper)
