"""File formats: the JSON rule schema, multicurve specs, and canonical
serialization (sorted keys, %.12g floats) for byte-stable round trips."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any, Iterable

from .complexes import SphereComplex, sign_of, sign_str
from .errors import ValidationFailure
from .multicurves import Lift, MulticurveSpec
from .rules import EdgeImage, SubdivisionRule, TileImage

SCHEMA_VERSION = 1


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


def canonical_json(data: Any) -> str:
    return json.dumps(_fmt(data), sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


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


def jsonable(value: Any) -> Any:
    """Best-effort conversion of report objects to JSON-compatible data."""
    from dataclasses import fields, is_dataclass

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
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [jsonable(v) for v in value]
        return sorted(items, key=repr) if isinstance(value, (set, frozenset)) \
            else items
    if is_dataclass(value):
        return {f.name: jsonable(getattr(value, f.name))
                for f in fields(value)}
    return repr(value)
