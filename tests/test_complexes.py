"""Sphere-complex structure, duality, and curve side-partitions."""

from __future__ import annotations

import pytest

from fsrkit.catalog import CATALOG, get_rule
from fsrkit.complexes import (
    CombinatorialCurve,
    SphereComplex,
    dual_skeleton,
    enclosed_markings,
    euler_characteristic,
    flip,
    is_closed_walk,
    is_embedded_closed_walk,
    validate_complex,
)
from fsrkit.errors import ValidationFailure
from fsrkit.rules import Tower


def bigon_sphere() -> SphereComplex:
    return SphereComplex(
        vertices=("v0", "vinf"),
        edges={"e": ("v0", "vinf")},
        tiles={"t": (("e", 1), ("e", -1))},
        marked=frozenset({"v0", "vinf"}),
    )


def tetrahedron() -> SphereComplex:
    # vertices 1..4, faces oriented so every dart occurs once
    edges = {
        "e12": ("1", "2"), "e13": ("1", "3"), "e14": ("1", "4"),
        "e23": ("2", "3"), "e24": ("2", "4"), "e34": ("3", "4"),
    }
    tiles = {
        "f123": (("e12", 1), ("e23", 1), ("e13", -1)),
        "f134": (("e13", 1), ("e34", 1), ("e14", -1)),
        "f142": (("e14", 1), ("e24", -1), ("e12", -1)),
        "f243": (("e24", 1), ("e34", -1), ("e23", -1)),
    }
    return SphereComplex(("1", "2", "3", "4"), edges, tiles,
                         frozenset({"1", "2", "3", "4"}))


def square_pillow() -> SphereComplex:
    edges = {"x": ("A", "B"), "y": ("B", "C"), "z": ("C", "D"), "w": ("D", "A")}
    tiles = {
        "F": (("x", 1), ("y", 1), ("z", 1), ("w", 1)),
        "K": (("w", -1), ("z", -1), ("y", -1), ("x", -1)),
    }
    return SphereComplex(("A", "B", "C", "D"), edges, tiles,
                         frozenset({"A", "B", "C", "D"}))


def test_bigon_sphere_valid():
    rep = validate_complex(bigon_sphere())
    assert rep.ok, rep.summary()
    assert euler_characteristic(bigon_sphere()) == 2


def test_orientation_pairing_violation():
    cx = SphereComplex(
        vertices=("v0", "vinf"),
        edges={"e": ("v0", "vinf")},
        tiles={"t": (("e", 1), ("e", 1))},
    )
    rep = validate_complex(cx)
    assert not rep.ok
    # duplicated (e,+) dart is an orientation-pairing failure (it also breaks
    # walk chaining, but pairing is checked first)
    assert rep.first_failure == "orientation pairing"


def test_tetrahedron_valid():
    rep = validate_complex(tetrahedron())
    assert rep.ok, rep.summary()
    assert euler_characteristic(tetrahedron()) == 2


def test_torus_gluing_fails():
    # square torus: 1 vertex, 2 edges, 1 tile -> chi = 0
    cx = SphereComplex(
        vertices=("p",),
        edges={"a": ("p", "p"), "b": ("p", "p")},
        tiles={"t": (("a", 1), ("b", 1), ("a", -1), ("b", -1))},
    )
    assert euler_characteristic(cx) == 0
    rep = validate_complex(cx)
    assert not rep.ok
    assert rep.first_failure == "euler"


def test_monogon_rejected():
    cx = SphereComplex(
        vertices=("p", "q"),
        edges={"a": ("p", "p"), "b": ("p", "q")},
        tiles={"in": (("a", 1),), "out": (("a", -1), ("b", 1), ("b", -1))},
    )
    rep = validate_complex(cx)
    assert not rep.ok
    assert rep.first_failure == "walk length"


def rotation_system(cx: SphereComplex) -> tuple[dict, dict]:
    """The ccw out-darts at each tile (the reversals of its walk) and the
    slot of each out-dart."""
    rotation = {t: tuple(flip(d) for d in w) for t, w in cx.tiles.items()}
    return rotation, {t: {d: i for i, d in enumerate(r)}
                      for t, r in rotation.items()}


def face_walk_oracle(cx: SphereComplex) -> dict[str, tuple]:
    """The dual faces from an explicit rotation system: a face steps to the
    clockwise-previous out-dart of the reversal, and each face is labeled by
    the primal vertex left of its darts and read from its least dart."""
    loc = cx.dart_location()
    rotation, rot_index = rotation_system(cx)

    def face_next(d):
        rd = flip(d)
        t = loc[d][0]
        r = rotation[t]
        return r[(rot_index[t][rd] - 1) % len(r)]

    faces: dict[str, tuple] = {}
    seen: set = set()
    for d0 in sorted(loc):
        if d0 in seen:
            continue
        cyc = [d0]
        d = face_next(d0)
        while d != d0:
            cyc.append(d)
            d = face_next(d)
        seen.update(cyc)
        labels = {cx.tail(d) for d in cyc}
        assert len(labels) == 1
        faces[labels.pop()] = tuple(cyc)
    return faces


def check_dual_faces(cx: SphereComplex) -> None:
    """Each dual face is a closed dual walk made of the darts out of its
    vertex, the faces partition the darts, and they match the oracle."""
    dual = dual_skeleton(cx)
    faces = {v: dual.face(v) for v in cx.vertices}
    for v, face in faces.items():
        assert is_closed_walk(dual, CombinatorialCurve(face))
        assert sorted(face) == sorted(d for d in cx.darts() if cx.tail(d) == v)
    every = [d for face in faces.values() for d in face]
    assert sorted(every) == sorted(cx.darts())
    assert faces == face_walk_oracle(cx)
    assert len(cx.tiles) - len(cx.edges) + len(faces) == 2


def test_dual_bigon():
    cx = bigon_sphere()
    dual = dual_skeleton(cx)
    assert set(dual.dart_tile.values()) == {"t"}
    assert dual.face("v0") == (("e", 1),)
    assert dual.face("vinf") == (("e", -1),)
    check_dual_faces(cx)


def test_dual_tetrahedron():
    cx = tetrahedron()
    dual = dual_skeleton(cx)
    # every dual edge joins two distinct tiles here
    for e in cx.edges:
        assert dual.dual_tail((e, 1)) != dual.dual_head((e, 1))
    assert dual.face("1") == (("e12", 1), ("e13", 1), ("e14", 1))
    check_dual_faces(cx)


def test_dual_embedded_euler():
    for cx in (bigon_sphere(), tetrahedron(), square_pillow()):
        check_dual_faces(cx)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_dual_faces_are_vertex_rotation_orbits(name):
    tower = Tower.of(get_rule(name))
    for level in range(4):
        check_dual_faces(tower.up_to(level).complex)


def embedded_walk_oracle(cx: SphereComplex, darts: tuple) -> bool:
    """Embeddedness from an explicit rotation system: at each visit of a
    tile, the arriving dual dart takes the slot of its reversal among the
    tile's ccw out-darts, the leaving dart its own slot, and the chords of
    one tile must not interleave."""
    rot_index = rotation_system(cx)[1]
    loc = cx.dart_location()
    n = len(darts)
    if any(loc[d][0] != loc[flip(darts[(i + 1) % n])][0]
           for i, d in enumerate(darts)):
        return False
    if len({d[0] for d in darts}) != n:
        return False
    chords: dict[str, list] = {}
    for i, arriving in enumerate(darts):
        t = loc[arriving][0]
        chords.setdefault(t, []).append(
            (rot_index[t][flip(arriving)], rot_index[t][darts[(i + 1) % n]]))
    for t, chs in chords.items():
        for i, (a0, a1) in enumerate(chs):
            for b0, b1 in chs[i + 1:]:
                if len({a0, a1, b0, b1}) < 4:
                    continue
                lo, hi = a0, a1

                def inside(x):
                    return lo < x < hi if lo <= hi else (x > lo or x < hi)

                if inside(b0) != inside(b1):
                    return False
    return True


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_embedded_walks_match_rotation_oracle(name):
    # every closed walk of one to three dual darts at level 1
    cx = Tower.of(get_rule(name)).up_to(1).complex
    dual = dual_skeleton(cx)
    out_of: dict[str, list] = {}
    for d in sorted(cx.darts()):
        out_of.setdefault(dual.dual_tail(d), []).append(d)
    embedded = 0
    for d1 in sorted(cx.darts()):
        walks = [(d1,)] + [(d1, d2) for d2 in out_of[dual.dual_head(d1)]]
        walks += [w + (d3,) for w in walks[1:]
                  for d3 in out_of[dual.dual_head(w[-1])]]
        for w in walks:
            c = CombinatorialCurve(w)
            got = is_embedded_closed_walk(dual, c)
            assert got == embedded_walk_oracle(cx, w), w
            if got:
                embedded += 1
                left, right = enclosed_markings(cx, c, dual, True)
                assert sorted(left + right) == sorted(cx.vertices)
    assert embedded > 0


def test_enclosed_markings_pillow():
    cx = square_pillow()
    dual = dual_skeleton(cx)
    # curve crossing x (into F) then z (back into K)
    c = CombinatorialCurve((("x", 1), ("z", -1)))
    assert is_embedded_closed_walk(dual, c)
    left, right = enclosed_markings(cx, c, dual)
    assert {frozenset(left), frozenset(right)} == {frozenset({"A", "D"}),
                                                   frozenset({"B", "C"})}
    # reversing the curve swaps the sides
    l2, r2 = enclosed_markings(cx, c.reversed(), dual)
    assert (set(l2), set(r2)) == (set(right), set(left))


def test_enclosed_markings_tetrahedron_face_cycle():
    cx = tetrahedron()
    dual = dual_skeleton(cx)
    # cycle around vertex 1: f123 -> f134 -> f142 -> f123
    c = CombinatorialCurve((("e13", 1), ("e14", 1), ("e12", 1)))
    assert is_embedded_closed_walk(dual, c)
    left, right = enclosed_markings(cx, c, dual)
    assert set(left) == {"1"}
    assert set(right) == {"2", "3", "4"}


def test_enclosed_markings_partition_unmarked_side():
    cx = SphereComplex(
        vertices=square_pillow().vertices,
        edges=square_pillow().edges,
        tiles=square_pillow().tiles,
        marked=frozenset({"B", "C"}),
    )
    c = CombinatorialCurve((("x", 1), ("z", -1)))
    left, right = enclosed_markings(cx, c)
    assert set(left) | set(right) == {"B", "C"}
    assert not (set(left) & set(right))
    assert () in (left, right)  # the A,D side holds no marked vertex


def test_non_embedded_curve_rejected():
    cx = square_pillow()
    dual = dual_skeleton(cx)
    c = CombinatorialCurve((("x", 1), ("x", -1)))  # uses the dual edge twice
    with pytest.raises(ValidationFailure):
        enclosed_markings(cx, c, dual)
