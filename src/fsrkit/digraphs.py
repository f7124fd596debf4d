"""Finite directed multigraphs and the path-growth analytics used for
subdivision dynamics: strong components, reachability preorder, ideals and
their radicals, growth classification, and certified spectral radii.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from .errors import InternalInconsistency

Label = Hashable


@dataclass(frozen=True)
class Arc:
    src: Label
    dst: Label
    tag: Hashable = None


@dataclass
class DynDigraph:
    """Directed multigraph with labeled vertices and tagged arcs."""

    vertices: list[Label]
    arcs: list[Arc] = field(default_factory=list)

    def __post_init__(self):
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex label")
        for a in self.arcs:
            if a.src not in vs or a.dst not in vs:
                raise ValueError(f"arc {a} references unknown vertex")

    def adjacency_matrix(self, order: Sequence[Label] | None = None) -> np.ndarray:
        order = list(order) if order is not None else list(self.vertices)
        idx = {v: i for i, v in enumerate(order)}
        m = np.zeros((len(order), len(order)), dtype=np.int64)
        for a in self.arcs:
            if a.src in idx and a.dst in idx:
                m[idx[a.src], idx[a.dst]] += 1
        return m

    def induced(self, keep: Iterable[Label]) -> "DynDigraph":
        ks = set(keep)
        return DynDigraph([v for v in self.vertices if v in ks],
                          [a for a in self.arcs if a.src in ks and a.dst in ks])

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
# strong components and preorder
# ---------------------------------------------------------------------------


def strongly_connected_components(g: DynDigraph) -> list[list[Label]]:
    """Tarjan SCCs, deterministic order (by first vertex occurrence)."""
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


def reachable_from(g: DynDigraph, v: Label) -> set[Label]:
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


def scc_and_preorder(g: DynDigraph) -> tuple[list[list[Label]], set[tuple[Label, Label]]]:
    """SCC list plus the reachability relation v <= w (path from v to w)."""
    sccs = strongly_connected_components(g)
    reach: set[tuple[Label, Label]] = set()
    for v in g.vertices:
        for w in reachable_from(g, v):
            reach.add((v, w))
    return sccs, reach


def _scc_internal_arcs(g: DynDigraph) -> tuple[dict[Label, int], list[list[Label]], list[int]]:
    sccs = strongly_connected_components(g)
    comp_of = {v: i for i, comp in enumerate(sccs) for v in comp}
    internal = [0] * len(sccs)
    for a in g.arcs:
        if comp_of[a.src] == comp_of[a.dst]:
            internal[comp_of[a.src]] += 1
    return comp_of, sccs, internal


def cycles_are_disjoint(g: DynDigraph) -> bool:
    """True iff every cycle-containing SCC is a single cycle."""
    comp_of, sccs, internal = _scc_internal_arcs(g)
    for i, comp in enumerate(sccs):
        has_cycle = len(comp) > 1 or internal[i] >= 1
        if has_cycle and internal[i] != len(comp):
            return False
    return True


def growth_class(g: DynDigraph, v: Label) -> GrowthClass:
    """Exact structural growth classification of P(v, n)."""
    comp_of, sccs, internal = _scc_internal_arcs(g)
    reach = reachable_from(g, v)
    reach_comps = {comp_of[u] for u in reach}
    for i in reach_comps:
        has_cycle = len(sccs[i]) > 1 or internal[i] >= 1
        if has_cycle and internal[i] > len(sccs[i]):
            return GrowthClass("exponential")
    # polynomial: longest chain of cycle-containing SCCs along a path from v
    cyc = {i for i in reach_comps
           if len(sccs[i]) > 1 or internal[i] >= 1}
    # condensation restricted to reachable SCCs
    comp_succ: dict[int, set[int]] = {i: set() for i in reach_comps}
    for a in g.arcs:
        if a.src in reach and a.dst in reach:
            ci, cj = comp_of[a.src], comp_of[a.dst]
            if ci != cj:
                comp_succ[ci].add(cj)
    memo: dict[int, int] = {}

    def chain(i: int) -> int:
        if i in memo:
            return memo[i]
        best = 1 if i in cyc else 0
        for j in comp_succ[i]:
            best = max(best, (1 if i in cyc else 0) + chain(j))
        memo[i] = best
        return best

    max_cycles = chain(comp_of[v]) if v in comp_of else 0
    return GrowthClass("polynomial", max_cycles - 1)


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
    comp_of, sccs, internal = _scc_internal_arcs(g)
    rec = set()
    for i, comp in enumerate(sccs):
        if len(comp) > 1 or internal[i] >= 1:
            rec.update(comp)
    return rec


def cycle_period(g: DynDigraph, v: Label) -> int:
    """Length of the unique cycle through v (requires disjoint cycles)."""
    comp_of, sccs, internal = _scc_internal_arcs(g)
    i = comp_of[v]
    comp = sccs[i]
    if internal[i] == 0:
        raise InternalInconsistency(f"vertex {v} is not recurrent")
    if internal[i] != len(comp):
        raise InternalInconsistency(
            f"vertex {v} lies in a multi-cycle component; no single period")
    return len(comp)


# ---------------------------------------------------------------------------
# ideals and radicals
# ---------------------------------------------------------------------------


def ideal_closure(g: DynDigraph, xs: Iterable[Label]) -> set[Label]:
    out: set[Label] = set()
    for v in xs:
        out |= reachable_from(g, v)
    return out


def radical_closure(g: DynDigraph, xs: Iterable[Label]) -> set[Label]:
    """Smallest radical ideal containing xs: ideal closure, then Tail fixpoint.

    v joins Tail(X) iff every sufficiently long path from v terminates in X,
    i.e. no recurrent vertex whose forward set escapes X is reachable from v.
    """
    x = ideal_closure(g, xs)
    while True:
        rec = recurrent_vertices(g)
        bad_roots = {r for r in rec if not reachable_from(g, r) <= x}
        tail = set()
        for v in g.vertices:
            if not (reachable_from(g, v) & bad_roots):
                tail.add(v)
        new = x | tail
        # Tail of an ideal is an ideal and idempotent; one pass suffices, but
        # iterate defensively until stable.
        if new == x:
            return x
        x = ideal_closure(g, new)


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


def _pf_irreducible(m: np.ndarray, tol: float = 1e-12, max_iter: int = 100_000
                    ) -> CertifiedValue:
    """Perron eigenvalue of an irreducible nonnegative matrix with
    Collatz-Wielandt bounds from the final positive iterate."""
    n = m.shape[0]
    if n == 0:
        return CertifiedValue(0.0, 0.0, 0.0)
    shifted = m.astype(float) + np.eye(n)
    x = np.ones(n)
    lo, hi = 0.0, float("inf")
    for _ in range(max_iter):
        y = shifted @ x
        ratios = y / x
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo <= tol * max(1.0, hi):
            x = y / np.linalg.norm(y)
            break
        x = y / np.linalg.norm(y)
    # Collatz-Wielandt for the unshifted matrix
    y = m.astype(float) @ x
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(x > 0, y / x, np.nan)
    lo = float(np.nanmin(ratios))
    hi = float(np.nanmax(ratios))
    val = float((lo + hi) / 2)
    return CertifiedValue(val, lo, hi)


def spectral_radius(m: np.ndarray, tol: float = 1e-12) -> CertifiedValue:
    """Certified spectral radius of a nonnegative matrix via SCC blocks."""
    n = m.shape[0]
    if n == 0:
        return CertifiedValue(0.0, 0.0, 0.0)
    g = DynDigraph(list(range(n)),
                   [Arc(i, j) for i in range(n) for j in range(n) if m[i, j] > 0])
    comp_of, sccs, internal = _scc_internal_arcs(g)
    best = CertifiedValue(0.0, 0.0, 0.0)
    for i, comp in enumerate(sccs):
        if len(comp) == 1 and internal[i] == 0:
            continue  # no cycle: contributes 0
        idx = sorted(comp)
        sub = m[np.ix_(idx, idx)]
        cand = _pf_irreducible(sub, tol=tol)
        if cand.value > best.value:
            best = cand
    return best
