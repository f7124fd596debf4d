"""Canonical JSON and ``jsonable`` against the two-pass reference forms.

The reference forms below are the straightforward expressions of the
canonical format: convert the whole value first, then hand it to
``json.dumps``.  The one-pass writer in ``fsrkit.io`` must produce the same
text, and raise the same exception type where the reference raises.  This
file uses only the standard library (no numpy, no hypothesis).
"""

from __future__ import annotations

import collections
import enum
import hashlib
import json
import math
import random
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from typing import Any

import pytest

from fsrkit import rules
from fsrkit.catalog import CATALOG, get_rule
from fsrkit.io import canonical_json, jsonable, rule_to_json
from fsrkit.report import analyze


def _fmt(value: Any) -> Any:
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_fmt(v) for v in value]
    if isinstance(value, list):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def canonical_json_reference(data: Any) -> str:
    return json.dumps(_fmt(data), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def jsonable_reference(value: Any) -> Any:
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [jsonable_reference(v) for v in value]
        return sorted(items, key=repr) \
            if isinstance(value, (set, frozenset)) else items
    if is_dataclass(value):
        return {f.name: jsonable_reference(getattr(value, f.name))
                for f in fields(value)}
    return repr(value)


# ---------------------------------------------------------------------------
# seeded random values
# ---------------------------------------------------------------------------


class Str(str):
    pass


class Int(int):
    pass


class Float(float):
    pass


class Dict(dict):
    pass


class List(list):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


Pair = collections.namedtuple("Pair", "a b")


@dataclass
class Leaf:
    x: Any
    label: str = "leaf"


@dataclass
class Node:
    name: str
    children: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


CHARS = ("a", "Z", "0", " ", '"', "\\", "/", "\n", "\t", "\r", "\b", "\f",
         "\x00", "\x1f", "\x7f", "é", "ß", "∞", "ℤ", "日本", " ",
         " ", "﻿", "\U0001f600", "\ud800")
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e-310, 1.7976931348623157e308, -1e308, 1e16, 1e17, 0.1,
                  1 / 3, 2 / 3, 123456789.123456789, 1e-7, 1e21,
                  math.nan, math.inf, -math.inf)


def random_str(rng: random.Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randint(0, 6)))


def random_float(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.3:
        return rng.choice(SPECIAL_FLOATS)
    if r < 0.6:
        return rng.uniform(-10, 10)
    if r < 0.8:
        return rng.random() * 10.0 ** rng.randint(-320, 308)
    return float(rng.randint(-10**6, 10**6)) / rng.choice((1, 3, 7, 1024))


def random_int(rng: random.Random) -> int:
    return rng.choice((0, 1, -1, rng.randint(-1000, 1000),
                       rng.randint(-2**80, 2**80), 2**63, -2**63))


def random_scalar(rng: random.Random) -> Any:
    kind = rng.randrange(11)
    if kind == 0:
        return random_str(rng)
    if kind == 1:
        return random_int(rng)
    if kind == 2:
        return random_float(rng)
    if kind == 3:
        return rng.choice((True, False, None))
    if kind == 4:
        return Fraction(rng.randint(-50, 50), rng.randint(1, 12))
    if kind == 5:
        return Str(random_str(rng))
    if kind == 6:
        return Int(random_int(rng))
    if kind == 7:
        return Float(random_float(rng))
    if kind == 8:
        return rng.choice((Level.LOW, Level.HIGH))
    return rng.choice((random_str, random_int, random_float))(rng)


def random_hashable(rng: random.Random, depth: int) -> Any:
    """A frozenset element: mostly one type per set, so that it sorts."""
    if depth < 2 and rng.random() < 0.1:
        return tuple(random_hashable(rng, depth + 1)
                     for _ in range(rng.randint(0, 3)))
    return random_scalar(rng)


def random_frozenset(rng: random.Random, depth: int) -> frozenset:
    make = rng.choice((random_str, random_int, random_float))
    items = [make(rng) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.1:        # tuples, Fractions or mixed types
        items.append(random_hashable(rng, depth))
    return frozenset(items)


def random_key(rng: random.Random) -> Any:
    r = rng.random()
    if r < 0.85:
        return random_str(rng)
    if r < 0.93:
        return rng.randint(-5, 40)
    if r < 0.97:
        return random_float(rng)
    return rng.choice((True, False, None, Level.HIGH, (1, 2), Fraction(1, 3)))


def random_value(rng: random.Random, depth: int = 0) -> Any:
    if depth >= 4 or rng.random() < 0.35:
        return random_scalar(rng)
    kind = rng.randrange(12)
    size = rng.choice((0, 1, 2, 3, 5))
    if kind <= 2:
        return {random_key(rng): random_value(rng, depth + 1)
                for _ in range(size)}
    if kind <= 4:
        return [random_value(rng, depth + 1) for _ in range(size)]
    if kind == 5:
        return tuple(random_value(rng, depth + 1) for _ in range(size))
    if kind == 6:
        return random_frozenset(rng, depth)
    if kind == 7:
        return Dict({random_str(rng): random_value(rng, depth + 1)
                     for _ in range(size)})
    if kind == 8:
        return List(random_value(rng, depth + 1) for _ in range(size))
    if kind == 9:
        return Pair(random_value(rng, depth + 1), random_scalar(rng))
    if kind == 10:
        return rng.choice((set(random_frozenset(rng, depth)),
                           complex(1, 2), b"bytes", Leaf(1.5)))
    return {random_str(rng): random_value(rng, depth + 1)
            for _ in range(size)}


def random_report_value(rng: random.Random, depth: int = 0) -> Any:
    """A value as ``jsonable`` meets it: dataclasses, sets and objects too."""
    r = rng.random()
    if depth < 3 and r < 0.15:
        return Node(random_str(rng),
                    [random_report_value(rng, depth + 1)
                     for _ in range(rng.randint(0, 3))],
                    {random_key(rng): random_report_value(rng, depth + 1)
                     for _ in range(rng.randint(0, 2))})
    if depth < 3 and r < 0.25:
        return Leaf(random_report_value(rng, depth + 1))
    if depth < 3 and r < 0.3:
        return set(random_frozenset(rng, depth))
    if r < 0.33:
        return rng.choice((complex(1, -2), b"\x00ab", range(3), Leaf))
    return random_value(rng, depth)


# ---------------------------------------------------------------------------
# canonical_json
# ---------------------------------------------------------------------------


def _outcome(fn, value):
    try:
        return fn(value), None
    except (AttributeError, TypeError, ValueError, RecursionError) as exc:
        return None, type(exc)


def test_canonical_json_matches_reference_on_random_values():
    rng = random.Random(2024)
    raised = 0
    for i in range(2000):
        value = random_value(rng)
        want, want_exc = _outcome(canonical_json_reference, value)
        got, got_exc = _outcome(canonical_json, value)
        assert got_exc is want_exc, (i, value, want_exc, got_exc)
        assert got == want, (i, value)
        raised += want_exc is not None
    # both outcomes are exercised
    assert 50 <= raised <= 1000, raised


@pytest.mark.parametrize("value", [
    {}, [], (), frozenset(), {"a": {}, "b": [], "c": ()},
    {"b": 1, "a": 2, "é": 3, "Z": 4}, {2: "x", 10: "y", -1: "z"},
    {1.5: 0, 0.1234567890123456: 1, math.nan: 2, math.inf: 3},
    {True: 1, False: 2}, {None: 1},
    [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2],
    frozenset({0.1 + 0.2, 1 / 3}), frozenset({(1, 0.1 + 0.2), (0, "a")}),
    [Fraction(1, 3), Fraction(-4, 2)], "\x00\"\\ 日本\U0001f600",
    Pair(1, [2]), Dict(b=1, a=2), List([1.25]), Str("s"), Int(7),
    Float(0.1 + 0.2), [True, False, None, 0, 1], [Level.LOW, {Level.HIGH: 2}],
])
def test_canonical_json_matches_reference_on_edge_cases(value):
    assert canonical_json(value) == canonical_json_reference(value)


@pytest.mark.parametrize("value", [
    {1, 2}, [b"x"], {"a": complex(1, 2)}, {"a": 1, 2: "b"}, {None: 1, 2: 3},
    {(1, 2): 0}, {Fraction(1, 2): 0}, frozenset({1, "a"}),
    frozenset({Fraction(1, 2)}), frozenset({frozenset()}), [Leaf(1)],
])
def test_canonical_json_raises_where_reference_raises(value):
    with pytest.raises(TypeError):
        canonical_json_reference(value)
    with pytest.raises(TypeError):
        canonical_json(value)


# ---------------------------------------------------------------------------
# jsonable
# ---------------------------------------------------------------------------


def same(a: Any, b: Any) -> bool:
    """Equal, and of the same type at every position."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def test_jsonable_matches_reference_on_random_values():
    rng = random.Random(2025)
    for i in range(2000):
        value = random_report_value(rng)
        want, want_exc = _outcome(jsonable_reference, value)
        got, got_exc = _outcome(jsonable, value)
        assert got_exc is want_exc, (i, value, want_exc, got_exc)
        assert got == want and same(got, want), (i, value)
        # idempotent on its own output
        assert same(jsonable(got), got), (i, value)


def test_jsonable_matches_reference_on_reports():
    for name in sorted(CATALOG):
        rep = analyze(get_rule(name))
        want = jsonable_reference(rep)
        got = jsonable(rep)
        assert same(got, want), name
        assert same(jsonable(got), got), name
        assert canonical_json(got) == canonical_json_reference(want), name


# ---------------------------------------------------------------------------
# rule files
# ---------------------------------------------------------------------------

# sha256 of canonical_json(rule_to_json(rule)) as written by the two-pass
# reference form
RULE_JSON_SHA256 = {
    "doubling_edge": "a00c54d7fb05c5866fb42b72676f804a9e8553615e40d3f7676fa83c056491ad",
    "doubling_edge:shift1": "e49fbbfed36f0dbb2568711aa54d8542803a73487019df8ffcd5b31a39a82ed6",
    "doubling_edge:power2": "4dab53ec77dbdeb395e7283ae9a6d67cc1caa571cfa3f513d34b68572002237f",
    "levy_pillow_4": "78a1d22909d9205ca11d44cf4b307899335155a1b8473db17c7b918c7680fac8",
    "levy_pillow_4:shift1": "907cc460ef94e760398823f50f17044d8f1e592cd8e6c106b8f893bc0076b907",
    "levy_pillow_4:power2": "c325bd509ca32581d8971853757932d774c5d9b1ea1944ac6470ea885ec5fbcb",
    "power_spider_2": "2c4ae82042ab91322e0a51151b0fdc9fbc4e11253685df799459a19973a09afb",
    "power_spider_2:shift1": "83eba06adf1f4073a04932dbdfe71b92f91059559f6e7fa99a8075a17c16d0a9",
    "power_spider_2:power2": "b223aba326f75156d97f3966da7e766bdac8cb246344bb226ec1f2bb7fb35170",
    "spider_twocycle_2": "4a487f45d23b7b585b8d4e29c251a03f4d1b45797700ffe909d8fb38e9fc7e7e",
    "spider_twocycle_2:shift1": "1fe19a0205708565e576225660f486c62bb91e9b8ee410788b72fed6d375242c",
    "spider_twocycle_2:power2": "8b0edc258994e912ab5b0eee5f5d5235663197db2f30f6d3988523968b131da0",
    "square_spider_julia": "1ffe3083286cd8d6afc03e42e85d7bb7ec6545959d834ae46094336088a72cfa",
    "square_spider_julia:shift1": "a9e5ebe68fbc380b9d7dd2639e7a05d79799e0e47802538139440d25166020c7",
    "square_spider_julia:power2": "14a2cbce0a2e6347652535dc4dcd9a09de5b5e8fb73a2decc7670a0ae611b54c",
    "tripod_pillow_4": "2fbfa02709d57f5cd8eccd64cbd7797bb545d7b11e728ae648018d281f4c46e1",
    "tripod_pillow_4:shift1": "6ebd97e6729588ea8642ee2aa280ef9b2776cf9b43c8123d5ae969eb3c9d140d",
    "tripod_pillow_4:power2": "3de3d0db95d95dbf91533c3b0100b4aa95228d8ef21ba6cfaf5b75be93c67603",
}


def test_rule_json_bytes_match_reference_hashes():
    assert sorted({key.partition(":")[0] for key in RULE_JSON_SHA256}) == \
        sorted(CATALOG)
    for name in sorted(CATALOG):
        rule = get_rule(name)
        for key, r in ((name, rule), (f"{name}:shift1", rules.shift(rule, 1)),
                       (f"{name}:power2", rules.power(rule, 2))):
            data = rule_to_json(r)
            text = canonical_json(data)
            assert text == canonical_json_reference(data), key
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            assert digest == RULE_JSON_SHA256[key], key
