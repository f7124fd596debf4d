"""File formats: the JSON rule schema, multicurve specs, and canonical
serialization for byte-stable round trips.

The canonical format, written by ``canonical_json``: object keys sorted, a
2-space indent with ``,`` and ``": "`` separators, floats rounded to
``%.12g`` and written as Python's shortest repr (``NaN``, ``Infinity`` and
``-Infinity`` for the non-finite ones), non-ASCII characters kept as they
are, and a trailing newline.  Tuples are written as lists, Fractions as
strings and frozensets as sorted lists.  It is the text of
``json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"``
with those conversions applied first, produced in one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from fractions import Fraction
from functools import cache
from typing import Any, Callable, Iterable

from .complexes import SphereComplex, sign_of, sign_str
from .errors import ValidationFailure
from .multicurves import Lift, MulticurveSpec
from .rules import EdgeImage, SubdivisionRule, TileImage

SCHEMA_VERSION = 1

_quote = json.encoder.encode_basestring     # C-accelerated where available


# json's names for the non-finite floats, keyed by Python's
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _rounded_text(x: float) -> str:
    """A float rounded to %.12g, as json writes the rounded value."""
    text = f"{x:.12g}"
    return _NON_FINITE.get(text) or repr(float(text))


def _bool_text(x: bool) -> str:
    return "true" if x else "false"


def _null_text(x: None) -> str:
    return "null"


# the text of a value of exactly one of these types; containers, subclasses
# and the rest go through _write's isinstance chain
_LEAF_TEXT = {str: _quote, int: int.__repr__, float: _rounded_text,
              bool: _bool_text, type(None): _null_text}


def _key_text(key: Any) -> str:
    """An object key as json writes it: non-str keys converted unrounded."""
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        text = float.__repr__(key)
        return _quote(_NON_FINITE.get(text, text))
    if isinstance(key, bool):
        return '"true"' if key else '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _write(value: Any, nl: str, append: Callable[[str], None]) -> None:
    """Append the canonical text of ``value`` by ``append``; ``nl`` is the
    newline and indent of the line the value starts on.  The leaves of a
    container are written in its loop, without a call of their own."""
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        append(leaf(value))
    elif isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = nl + "  "
        sep, comma = "{" + inner, "," + inner
        for key, item in sorted(value.items()):
            key = _quote(key) if type(key) is str else _key_text(key)
            leaf = _LEAF_TEXT.get(type(item))
            if leaf is None:
                append(f"{sep}{key}: ")
                _write(item, inner, append)
            else:
                append(f"{sep}{key}: {leaf(item)}")
            sep = comma
        append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = nl + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            leaf = _LEAF_TEXT.get(type(item))
            if leaf is None:
                append(sep)
                _write(item, inner, append)
            else:
                append(sep + leaf(item))
            sep = comma
        append(nl + "]")
    elif isinstance(value, str):
        append(_quote(value))
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, float):
        append(_rounded_text(value))
    elif isinstance(value, Fraction):
        append(_quote(str(value)))
    elif isinstance(value, frozenset):
        # the sorted elements as json writes them, floats unrounded; a
        # string in json's output holds no raw newline, so only the layout's
        # newlines are re-indented
        append(json.dumps(sorted(value), sort_keys=True, indent=2,
                          ensure_ascii=False).replace("\n", nl))
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


def canonical_json(data: Any) -> str:
    """``data`` in the canonical format of this module's docstring."""
    out: list[str] = []
    _write(data, "\n", out.append)
    out.append("\n")
    return "".join(out)


def complex_to_json(cx: SphereComplex) -> dict:
    return {
        "vertices": list(cx.vertices),
        "edges": [[e, t, h] for e, (t, h) in sorted(cx.edges.items())],
        "tiles": [[t, [[e, sign_str(s)] for (e, s) in walk]]
                  for t, walk in sorted(cx.tiles.items())],
    }


def _require_ids(*groups: Iterable) -> None:
    """Cell ids and references in a file must be strings."""
    for group in groups:
        for x in group:
            if not isinstance(x, str):
                raise ValidationFailure(f"cell id {x!r} is not a string",
                                        check="schema")


def _int(x: Any) -> int:
    """An integer field of a file: a JSON int, not a bool or a float."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def complex_from_json(data: dict, marked: frozenset[str] = frozenset()
                      ) -> SphereComplex:
    try:
        vertices = tuple(data["vertices"])
        edges = {e: (t, h) for e, t, h in data["edges"]}
        tiles = {t: tuple((e, sign_of(s)) for e, s in walk)
                 for t, walk in data["tiles"]}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"malformed complex data: {exc}",
                                check="schema") from exc
    _require_ids(vertices, edges, *edges.values(), tiles,
                 *([e for e, _ in walk] for walk in tiles.values()))
    return SphereComplex(vertices, edges, tiles, marked)


def rule_to_json(rule: SubdivisionRule) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "name": rule.name,
        "level0": complex_to_json(rule.level0),
        "level1": complex_to_json(rule.level1),
        "marked": sorted(rule.marked),
        "carrier": {
            "vertices": {v: list(kr) for v, kr in
                         sorted(rule.carrier_vertices.items())},
            "edges": {e: list(kr) for e, kr in
                      sorted(rule.carrier_edges.items())},
            "tiles": dict(sorted(rule.carrier_tiles.items())),
        },
        "map": {
            "vertices": dict(sorted(rule.map_vertices.items())),
            "edges": {e: [img.edge, sign_str(img.orient)]
                      for e, img in sorted(rule.map_edges.items())},
            "tiles": {t: [img.tile, img.align]
                      for t, img in sorted(rule.map_tiles.items())},
        },
        "metadata": dict(sorted(rule.metadata.items())),
    }


def rule_from_json(data: dict) -> SubdivisionRule:
    if not isinstance(data, dict):
        raise ValidationFailure(
            f"rule data must be a JSON object, not {type(data).__name__}",
            check="schema")
    if data.get("version") != SCHEMA_VERSION:
        raise ValidationFailure(
            f"unsupported rule schema version {data.get('version')!r}",
            check="schema")
    try:
        marked = frozenset(data.get("marked", []))
        level0 = complex_from_json(data["level0"], marked)
        level1 = complex_from_json(data["level1"], marked)
        carrier = data["carrier"]
        mp = data["map"]
        rule = SubdivisionRule(
            name=str(data.get("name", "rule")),
            level0=level0,
            level1=level1,
            carrier_vertices={v: (k, r) for v, (k, r) in
                              carrier["vertices"].items()},
            carrier_edges={e: (k, r) for e, (k, r) in
                           carrier["edges"].items()},
            carrier_tiles=dict(carrier["tiles"]),
            map_vertices=dict(mp["vertices"]),
            map_edges={e: EdgeImage(img, sign_of(s))
                       for e, (img, s) in mp["edges"].items()},
            map_tiles={t: TileImage(img, _int(a))
                       for t, (img, a) in mp["tiles"].items()},
            metadata=dict(data.get("metadata", {})),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"malformed rule data: {exc}",
                                check="schema") from exc
    cv, ce, ct = rule.carrier_vertices, rule.carrier_edges, rule.carrier_tiles
    _require_ids(marked, cv, *cv.values(), ce, *ce.values(), ct, ct.values(),
                 rule.map_vertices, rule.map_vertices.values(),
                 rule.map_edges, [img.edge for img in rule.map_edges.values()],
                 rule.map_tiles, [img.tile for img in rule.map_tiles.values()])
    return rule


def multicurve_to_json(mc: MulticurveSpec) -> dict:
    out = {
        "curves": list(mc.curves),
        "lifts": [[lf.image, lf.preimage, lf.degree] for lf in mc.lifts],
    }
    if mc.map_degree is not None:
        out["map_degree"] = mc.map_degree
    return out


def multicurve_from_json(data: dict) -> MulticurveSpec:
    try:
        curves = tuple(data["curves"])
        lifts = tuple(Lift(img, pre, _int(deg))
                      for img, pre, deg in data["lifts"])
        degree = data.get("map_degree")
        return MulticurveSpec(curves, lifts,
                              None if degree is None else _int(degree))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationFailure(f"malformed multicurve data: {exc}",
                                check="schema") from exc


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationFailure(f"{path} is not valid JSON: {exc}",
                                    check="schema") from exc


def load_rule(path: str) -> SubdivisionRule:
    return rule_from_json(_load_json(path))


def save_rule(rule: SubdivisionRule, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(rule_to_json(rule)))


def load_multicurve(path: str) -> MulticurveSpec:
    return multicurve_from_json(_load_json(path))


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def jsonable(value: Any) -> Any:
    """Best-effort conversion of report objects to JSON-compatible data:
    floats rounded to %.12g (non-finite ones as "nan", "inf", "-inf"),
    Fractions as strings, dict keys as str, sets sorted by repr, dataclasses
    as dicts of their fields, anything else as its repr.  The exact scalar
    types are dispatched on ``type(value)`` first, the common containers
    next, and the rest, subclasses included, by isinstance."""
    cls = type(value)
    if cls is str or cls is int or cls is bool or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.12g}")
    if isinstance(value, (str, int)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (set, frozenset)):
        return sorted((jsonable(v) for v in value), key=repr)
    if is_dataclass(value):
        return {name: jsonable(getattr(value, name)) for name in
                _field_names(value if isinstance(value, type) else cls)}
    return repr(value)
