"""Oriented CW complexes on the 2-sphere given by polygon boundary walks.

A complex is stored as vertices, directed edges, and tiles whose boundary
walks are cyclic sequences of darts.  A dart is a pair ``(edge_id, sign)``
with sign ``+1`` (tail to head) or ``-1``.  All tile walks are traversed
counterclockwise, i.e. with the tile on the left of each dart, so every
dart of the complex occurs in exactly one walk.

The dual 1-skeleton is represented on the same dart set: the dual dart
crossing a primal dart ``d`` (from the tile right of ``d`` to the tile left
of ``d``) is keyed by ``d`` itself.  The dual faces are the rotation orbits
of the darts out of each primal vertex (the orbits of ``rotation_ccw``), so
the dual needs no tables beyond the tile of each dart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationFailure

Dart = tuple[str, int]  # (edge id, +1 | -1)

PLUS = 1
MINUS = -1


def flip(d: Dart) -> Dart:
    return (d[0], -d[1])


def sign_str(s: int) -> str:
    return "+" if s > 0 else "-"


def sign_of(s: str | int) -> int:
    """A dart sign from "+", "-" or the int 1/-1 (not a bool or a float)."""
    if s == "+":
        return PLUS
    if s == "-":
        return MINUS
    if type(s) is int and s in (1, -1):
        return s
    raise ValueError(f"bad orientation sign {s!r}")


def memo(obj) -> dict:
    """Derived data of an object that is immutable after construction.

    The dict lives outside the dataclass fields, so equality ignores it and
    ``dataclasses.replace`` starts the new object with an empty one."""
    d = obj.__dict__
    m = d.get("_memo")
    if m is None:
        m = d["_memo"] = {}
    return m


@dataclass(frozen=True)
class SphereComplex:
    """CW structure on S^2: vertices, directed edges, tiles with boundary walks."""

    vertices: tuple[str, ...]
    edges: dict[str, tuple[str, str]]          # id -> (tail, head)
    tiles: dict[str, tuple[Dart, ...]]         # id -> boundary walk, ccw
    marked: frozenset[str] = frozenset()

    # -- raw accessors ---------------------------------------------------

    def tail(self, d: Dart) -> str:
        t, h = self.edges[d[0]]
        return t if d[1] > 0 else h

    def head(self, d: Dart) -> str:
        return self.tail(flip(d))

    def darts(self) -> list[Dart]:
        out = []
        for e in self.edges:
            out.append((e, PLUS))
            out.append((e, MINUS))
        return out

    def euler_characteristic(self) -> int:
        return len(self.vertices) - len(self.edges) + len(self.tiles)

    # -- walk combinatorics ----------------------------------------------

    def dart_location(self) -> dict[Dart, tuple[str, int]]:
        """Map each dart to (tile id, walk position).  Requires pairing."""
        m = memo(self)
        if "loc" in m:
            return m["loc"]
        loc: dict[Dart, tuple[str, int]] = {}
        for t in sorted(self.tiles):
            for i, d in enumerate(self.tiles[t]):
                if d in loc:
                    raise ValidationFailure(
                        f"dart {d} occurs twice in tile walks", check="orientation pairing")
                loc[d] = (t, i)
        m["loc"] = loc
        return loc

    def tile_left(self, d: Dart) -> str:
        return self.dart_location()[d][0]

    def walk_prev(self, d: Dart) -> Dart:
        t, i = self.dart_location()[d]
        w = self.tiles[t]
        return w[(i - 1) % len(w)]

    def rotation_ccw(self, d: Dart) -> Dart:
        """Counterclockwise-next dart out of the same vertex as ``d``."""
        return flip(self.walk_prev(d))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationReport:
    ok: bool
    failures: list[tuple[str, str]] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def first_failure(self) -> str | None:
        return self.failures[0][0] if self.failures else None

    def summary(self) -> str:
        if self.ok:
            extra = ", ".join(f"{k}={v}" for k, v in sorted(self.notes.items()))
            return f"pass ({extra})" if extra else "pass"
        check, msg = self.failures[0]
        return f"fail [{check}] {msg}"


def validate_complex(cx: SphereComplex) -> ValidationReport:
    """Check all SphereComplex invariants; report the first violated one."""
    m = memo(cx)
    if "validated" in m:
        return m["validated"]
    fails: list[tuple[str, str]] = []

    def bad(check: str, msg: str) -> ValidationReport:
        fails.append((check, msg))
        return ValidationReport(False, fails)

    if len(set(cx.vertices)) != len(cx.vertices):
        return bad("ids", "duplicate vertex id")
    vset = set(cx.vertices)
    for e, (t, h) in cx.edges.items():
        if t not in vset or h not in vset:
            return bad("references", f"edge {e} has unknown endpoint")
    for t, w in cx.tiles.items():
        if len(w) == 0:
            return bad("walk length", f"tile {t} has empty boundary walk")
        if len(w) == 1:
            return bad("walk length", f"tile {t} is a monogon")
        for d in w:
            if d[0] not in cx.edges or d[1] not in (PLUS, MINUS):
                return bad("references", f"tile {t} references unknown dart {d}")

    # orientation pairing: every dart exactly once over all walks
    seen: dict[Dart, str] = {}
    for t in sorted(cx.tiles):
        for d in cx.tiles[t]:
            if d in seen:
                return bad("orientation pairing",
                           f"dart {d} appears in tiles {seen[d]} and {t}")
            seen[d] = t
    missing = [d for d in cx.darts() if d not in seen]
    if missing:
        return bad("orientation pairing", f"dart {missing[0]} appears in no walk")

    # walk consistency: consecutive darts chain head -> tail
    for t in sorted(cx.tiles):
        w = cx.tiles[t]
        for i, d in enumerate(w):
            nxt = w[(i + 1) % len(w)]
            if cx.head(d) != cx.tail(nxt):
                return bad("walk consistency",
                           f"tile {t}: darts {d} and {nxt} do not chain")

    if not cx.vertices:
        return bad("connected", "no vertices")
    touched = {v for pair in cx.edges.values() for v in pair}
    for v in cx.vertices:
        if v not in touched:
            return bad("connected", f"vertex {v} is isolated")

    # connectivity of the 1-skeleton
    adj: dict[str, set[str]] = {v: set() for v in cx.vertices}
    for (t, h) in cx.edges.values():
        adj[t].add(h)
        adj[h].add(t)
    stack = [cx.vertices[0]]
    reached = {cx.vertices[0]}
    while stack:
        for u in adj[stack.pop()]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    if reached != vset:
        return bad("connected", "1-skeleton is disconnected")

    chi = cx.euler_characteristic()
    if chi != 2:
        return bad("euler", f"V - E + F = {chi}, expected 2")

    # rotation-system check: vertex links are circles matching declared tails
    loc = cx.dart_location()
    visited: set[Dart] = set()
    orbits = 0
    for d0 in loc:
        if d0 in visited:
            continue
        v = cx.tail(d0)
        d = d0
        while True:
            if cx.tail(d) != v:
                return bad("vertex links",
                           f"rotation orbit of {d0} mixes vertices {v} and {cx.tail(d)}")
            visited.add(d)
            d = cx.rotation_ccw(d)
            if d == d0:
                break
        orbits += 1
    if orbits != len(cx.vertices):
        return bad("vertex links",
                   f"{orbits} rotation orbits for {len(cx.vertices)} vertices")

    if not cx.marked <= vset:
        return bad("marked", "marked set contains a non-vertex")

    report = ValidationReport(True, [], notes={
        "V": len(cx.vertices), "E": len(cx.edges), "F": len(cx.tiles)})
    m["validated"] = report
    return report


def require_valid(cx: SphereComplex, what: str = "complex") -> None:
    rep = validate_complex(cx)
    if not rep.ok:
        raise ValidationFailure(f"{what}: {rep.summary()}", check=rep.first_failure or "")


def euler_characteristic(cx: SphereComplex) -> int:
    return cx.euler_characteristic()


# ---------------------------------------------------------------------------
# dual skeleton
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualSkeleton:
    """Dual 1-skeleton, read off the primal complex on the same dart set.

    The dual dart keyed by primal dart ``d`` crosses ``d`` from the tile on
    its right to the tile on its left.  Dual vertices are tiles; the dual
    edge of primal edge ``e`` carries the two dual darts ``(e, +)``/``(e, -)``.
    The rotation at a dual vertex is its tile's walk, so the dual faces are
    the rotation orbits of the primal vertices: the face of dual dart ``d``
    is ``tail(d)``, see ``face``.
    """

    complex: SphereComplex
    dart_tile: dict[Dart, str]                  # primal dart -> tile on its left

    def dual_tail(self, d: Dart) -> str:
        """Tile at the tail of the dual dart keyed by d."""
        return self.dart_tile[flip(d)]

    def dual_head(self, d: Dart) -> str:
        return self.dart_tile[d]

    def face(self, v: str) -> tuple[Dart, ...]:
        """The dual face at primal vertex v: the darts out of v in ccw order,
        from the least one; as dual darts, a closed walk around v."""
        cx = self.complex
        start = min(d for d in self.dart_tile if cx.tail(d) == v)
        cyc = [start]
        d = cx.rotation_ccw(start)
        while d != start:
            cyc.append(d)
            d = cx.rotation_ccw(d)
        return tuple(cyc)


def dual_skeleton(cx: SphereComplex) -> DualSkeleton:
    """Dualize a validated complex.

    Validation already proves the duality facts: "vertex links" gives one
    tail vertex per rotation orbit and |V| orbits, so the dual faces (the
    orbits) are labeled by their tail vertices one-to-one; "connected" leaves
    no isolated vertex, so every vertex labels a face; and "euler" gives
    F - E + V = 2 for the dual, which is an embedded sphere graph."""
    m = memo(cx)
    if "dual" in m:
        return m["dual"]
    require_valid(cx)
    dual = DualSkeleton(cx, {d: t for d, (t, _) in cx.dart_location().items()})
    m["dual"] = dual
    return dual


# ---------------------------------------------------------------------------
# combinatorial curves in the dual skeleton
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CombinatorialCurve:
    """Closed walk in a dual skeleton, as a cyclic sequence of dual darts.

    Entry ``(e, s)`` is the dual dart crossing the primal dart ``(e, s)``.
    ``simple`` means the walk repeats no dual vertex; embedded walks may
    revisit vertices but use each dual edge at most once and resolve
    without crossings.
    """

    darts: tuple[Dart, ...]

    def __len__(self) -> int:
        return len(self.darts)

    def edge_ids(self) -> list[str]:
        return [d[0] for d in self.darts]

    def reversed(self) -> "CombinatorialCurve":
        return CombinatorialCurve(tuple(flip(d) for d in reversed(self.darts)))


def is_closed_walk(dual: DualSkeleton, c: CombinatorialCurve) -> bool:
    n = len(c.darts)
    if n == 0:
        return False
    for i, d in enumerate(c.darts):
        nxt = c.darts[(i + 1) % n]
        if dual.dual_head(d) != dual.dual_tail(nxt):
            return False
    return True


def _chords_cross(a: tuple[int, int], b: tuple[int, int], n: int) -> bool:
    """Do chords a, b of a cycle on n rotation slots interleave?"""
    a0, a1 = a
    b0, b1 = b
    if len({a0, a1, b0, b1}) < 4:
        return False

    def between(x, lo, hi):
        # is x strictly inside the ccw arc lo -> hi?
        if lo <= hi:
            return lo < x < hi
        return x > lo or x < hi

    return between(b0, a0, a1) != between(b1, a0, a1)


def is_embedded_closed_walk(dual: DualSkeleton, c: CombinatorialCurve) -> bool:
    """Closed walk, each dual edge used at most once, transitions at every
    dual vertex pairwise non-crossing in the rotation system."""
    if not is_closed_walk(dual, c):
        return False
    eids = c.edge_ids()
    if len(set(eids)) != len(eids):
        return False
    n = len(c.darts)
    loc = dual.complex.dart_location()
    # transition chord at each visit of a dual vertex t, in walk positions
    # of tile t: the arriving dart lies on t's walk, and so does the reversal
    # of the leaving dart
    chords: dict[str, list[tuple[int, int]]] = {}
    for i in range(n):
        arriving = c.darts[i]
        leaving = c.darts[(i + 1) % n]
        t, slot_in = loc[arriving]
        slot_out = loc[flip(leaving)][1]
        chords.setdefault(t, []).append((slot_in, slot_out))
    for t, chs in chords.items():
        m = len(dual.complex.tiles[t])
        for i in range(len(chs)):
            for j in range(i + 1, len(chs)):
                if _chords_cross(chs[i], chs[j], m):
                    return False
    return True


def enclosed_markings(cx: SphereComplex, c: CombinatorialCurve,
                      dual: DualSkeleton | None = None,
                      count_all_vertices: bool = False
                      ) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Partition marked vertices by the two sides of an embedded curve.

    Returns ``(left, right)`` relative to the traversal direction.  With
    ``count_all_vertices`` the partition is over all vertices instead of
    the marked set.
    """
    if dual is None:
        dual = dual_skeleton(cx)
    if not is_embedded_closed_walk(dual, c):
        raise ValidationFailure("curve is not an embedded closed walk in the dual",
                                check="curve")
    wall_edges = set(c.edge_ids())

    # the face of dual dart d is tail(d): faces are primal vertices, adjacent
    # across the non-curve edges
    adj: dict[str, set[str]] = {v: set() for v in cx.vertices}
    for e, (t, h) in cx.edges.items():
        if e not in wall_edges:
            adj[t].add(h)
            adj[h].add(t)

    def bfs(starts: set[str]) -> set[str]:
        seen = set(starts)
        stack = list(starts)
        while stack:
            for g in adj[stack.pop()]:
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        return seen

    left = bfs({cx.tail(d) for d in c.darts})
    right = bfs({cx.head(d) for d in c.darts})
    if left & right or len(left) + len(right) != len(cx.vertices):
        raise ValidationFailure("curve does not separate the sphere into two sides",
                                check="curve")

    pool = set(cx.vertices) if count_all_vertices else set(cx.marked)
    return tuple(sorted(left & pool)), tuple(sorted(right & pool))
