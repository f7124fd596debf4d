"""Command-line interface.

Subcommands: validate, subdivide, growth, spine, levy, quotient, normalize,
multicurve, energy, report, render, catalog.  Exit codes: 0 success,
2 validation failure, 3 unsupported regime, 4 resource budget, 5 internal
inconsistency.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import is_dataclass

from . import catalog as catalog_mod
from .dynamics import (
    build_band_digraph,
    build_edge_digraph,
    build_tile_digraph,
    edge_growth_classes,
    edge_growth_rate,
    has_polynomial_growth,
    stability_threshold,
)
from .energies import asymptotic_bounds, crochet_certificate
from .errors import BudgetExceeded, FsrError
from .io import (
    canonical_json,
    complex_to_json,
    jsonable,
    load_multicurve,
    load_rule,
    save_rule,
)
from .multicurves import classify_multicurve
from .quotients import (
    collapsible_from_julia_edges,
    normalize_for_energy,
    quotient_rule,
    validate_collapsible,
)
from .report import analyze
from .rules import (
    DEFAULT_CELL_BUDGET,
    SubdivisionRule,
    Tower,
    classify_vertices,
    subdivide,
    validate_rule,
)
from .spines import is_levy_free, non_expanding_spine


def _load(args) -> SubdivisionRule:
    name = args.rule
    if name in catalog_mod.CATALOG:
        return catalog_mod.get_rule(name)
    return load_rule(name)


def _emit(args, data) -> None:
    """Write a result as canonical JSON, or as indented text; a dataclass
    result is listed by the fields of its JSON data."""
    if getattr(args, "json", False):
        sys.stdout.write(canonical_json(jsonable(data)))
    else:
        sys.stdout.write(_pretty(jsonable(data) if is_dataclass(data)
                                 else data) + "\n")


def _pretty(data, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(data, dict):
        rows = []
        for k, v in data.items():
            if isinstance(v, (dict, list)) and v:
                rows.append(f"{pad}{k}:")
                rows.append(_pretty(v, indent + 1))
            else:
                rows.append(f"{pad}{k}: {v}")
        return "\n".join(rows)
    if isinstance(data, list):
        return "\n".join(f"{pad}- {item}" if not isinstance(item, (dict, list))
                         else _pretty(item, indent) for item in data)
    return f"{pad}{data}"


def cmd_validate(args) -> int:
    rule = _load(args)
    rep = validate_rule(rule)
    _emit(args, {"rule": rule.name, "result": rep.summary(),
                 "ok": rep.ok, **({"degree": rep.notes.get("degree"),
                                   "critical_vertices":
                                   list(rep.notes.get("critical_vertices", ()))}
                                  if rep.ok else {})})
    if not rep.ok:
        print(f"error: {rep.summary()}", file=sys.stderr)
        return 2
    return 0


def cmd_subdivide(args) -> int:
    rule = _load(args)
    lv = subdivide(rule, args.level, budget=args.budget)
    data = {
        "rule": rule.name,
        "level": lv.level,
        "cells": {"vertices": len(lv.complex.vertices),
                  "edges": len(lv.complex.edges),
                  "tiles": len(lv.complex.tiles)},
        "complex": complex_to_json(lv.complex),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(data))
        print(f"wrote {args.out}")
    else:
        _emit(args, data)
    return 0


def cmd_growth(args) -> int:
    rule = _load(args)
    classes = edge_growth_classes(rule)
    data = {
        "rule": rule.name,
        "polynomial": has_polynomial_growth(rule),
        "edges": {e: {"class": str(classes[e]),
                      "rho": edge_growth_rate(rule, e).value}
                  for e in sorted(rule.level0.edges)},
    }
    _emit(args, data)
    if args.dot:
        for label, g in (("edge", build_edge_digraph(rule)),
                         ("tile", build_tile_digraph(rule)),
                         ("band", build_band_digraph(rule))):
            sys.stdout.write(g.to_dot(f"{rule.name}_{label}") + "\n")
    return 0


def cmd_spine(args) -> int:
    rule = _load(args)
    level = args.level
    if level is None:
        level = max(stability_threshold(rule), 1) \
            if has_polynomial_growth(rule) else 1
    spine = non_expanding_spine(rule, level)
    data = {
        "rule": rule.name,
        "level": spine.level,
        "polynomial": spine.polynomial,
        "empty": spine.is_empty(),
        "recurrent_edges": sorted(spine.recurrent_edges),
        "components": [{"shape": c.shape,
                        "tiles": list(c.tiles),
                        "full_edges": list(c.full_edges),
                        "half_ends": len(c.half_ends),
                        "peripheral_vertex": c.peripheral_vertex}
                       for c in spine.components],
        "notes": spine.notes,
    }
    _emit(args, data)
    return 0


def cmd_levy(args) -> int:
    rule = _load(args)
    marked = frozenset(args.marked.split(",")) if args.marked else None
    rep = is_levy_free(rule, marked)
    _emit(args, {
        "rule": rule.name,
        "levy_free": rep.levy_free,
        "level": rep.level,
        "witness": list(rep.witness.darts) if rep.witness else None,
        "witness_class": rep.witness_class,
        "notes": rep.notes,
    })
    return 0


def cmd_quotient(args) -> int:
    rule = _load(args)
    if args.edges or args.tiles:
        edges = frozenset(filter(None, (args.edges or "").split(",")))
        tiles = frozenset(filter(None, (args.tiles or "").split(",")))
        x = validate_collapsible(rule, edges, tiles)
    else:
        x = collapsible_from_julia_edges(rule)
    res = quotient_rule(rule, x)
    if args.out:
        save_rule(res.rule, args.out)
        with open(args.out + ".collapse.json", "w", encoding="utf-8") as fh:
            fh.write(canonical_json({"level0": res.collapse_level0,
                                     "level1": res.collapse_level1}))
        print(f"wrote {args.out} and {args.out}.collapse.json")
    else:
        _emit(args, {"rule": res.rule.name,
                     "collapsed_edges": sorted(x.edges),
                     "collapsed_tiles": sorted(x.tiles),
                     "collapse_level0": res.collapse_level0})
    return 0


def cmd_normalize(args) -> int:
    rule = _load(args)
    res = normalize_for_energy(rule)
    if args.out:
        save_rule(res.rule, args.out)
        print(f"wrote {args.out}")
    _emit(args, {"rule": rule.name, "provenance": list(res.provenance),
                 "changed": res.rule is not rule})
    return 0


def cmd_multicurve(args) -> int:
    mc = load_multicurve(args.spec)
    prof = classify_multicurve(mc)
    data = {
        "curves": list(prof.curves),
        "blocks": [list(b) for b in prof.blocks],
        "nilpotent": prof.nilpotent,
        "levy": prof.levy,
        "cantor": prof.cantor,
        "thurston_obstruction": prof.thurston_obstruction,
        "lambda": {str(p): {"value": v.value,
                            "interval": [v.lower, v.upper]}
                   for p, v in sorted(prof.lambda_samples.items())},
    }
    if prof.q_exponent:
        data["q"] = {"value": prof.q_exponent[0],
                     "bracket": list(prof.q_exponent[1:])}
    _emit(args, data)
    return 0


def cmd_energy(args) -> int:
    rule = _load(args)
    mcs = tuple(load_multicurve(p) for p in (args.multicurve or ()))
    if args.K is not None:
        rep = crochet_certificate(rule, args.p, k_factor=args.K)
        _emit(args, rep)
        return 0
    # the closed-form levels keep one exact count per level-0 edge and level
    counts = args.level * len(rule.level0.edges)
    if counts > args.budget:
        raise BudgetExceeded(
            f"energy: level {args.level} needs {counts} subedge counts "
            f"(budget {args.budget})", reached=args.level)
    eb = asymptotic_bounds(rule, args.p, n_max=args.level, multicurves=mcs)
    _emit(args, eb)
    return 0


def cmd_report(args) -> int:
    rule = _load(args)
    mcs = tuple(load_multicurve(p) for p in (args.multicurve or ()))
    _emit(args, analyze(rule, multicurves=mcs))
    return 0


def cmd_render(args) -> int:
    from .render import render_rule_level

    rule = _load(args)
    lv = Tower.of(rule).up_to(args.level)
    classes = classify_vertices(rule)
    spine = None
    if args.spine:
        spine = non_expanding_spine(rule, args.level, enforce_threshold=False)
    svg = render_rule_level(rule, lv, classes, spine)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(svg)
    return 0


def cmd_catalog(args) -> int:
    rows = {}
    for name, rule in catalog_mod.catalog().items():
        rep = validate_rule(rule)
        rows[name] = {
            "degree": rep.notes.get("degree"),
            "valid": rep.ok,
            "polynomial": has_polynomial_growth(rule),
            "metadata": rule.metadata,
        }
    _emit(args, rows)
    if args.export:
        for name in catalog_mod.CATALOG:
            path = f"{args.export}/{name}.json"
            save_rule(catalog_mod.get_rule(name), path)
            print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fsr",
        description="finite subdivision rules: growth, spines, Levy "
                    "detection, multicurve spectra, conformal-energy bounds")
    ap.add_argument("--budget", type=int, default=DEFAULT_CELL_BUDGET,
                    help="cell-count budget for subdivision (and for the "
                         "per-level subedge counts of energy)")
    ap.add_argument("--json", action="store_true",
                    help="emit canonical JSON")
    sub = ap.add_subparsers(dest="command", required=True)

    def rule_arg(p):
        p.add_argument("rule", help="catalog rule name or rule file path")

    p = sub.add_parser("validate", help="validate a rule")
    rule_arg(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("subdivide", help="compute a level-n subdivision")
    rule_arg(p)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_subdivide)

    p = sub.add_parser("growth", help="edge growth classes and rates")
    rule_arg(p)
    p.add_argument("--dot", action="store_true",
                   help="also dump the E/T/B digraphs as DOT")
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("spine", help="non-expanding spine")
    rule_arg(p)
    p.add_argument("--level", type=int, default=None)
    p.set_defaults(fn=cmd_spine)

    p = sub.add_parser("levy", help="Levy decision (polynomial regime)")
    rule_arg(p)
    p.add_argument("--marked", help="comma-separated marked vertices")
    p.set_defaults(fn=cmd_levy)

    p = sub.add_parser("quotient", help="collapse a collapsible subcomplex")
    rule_arg(p)
    p.add_argument("--edges", help="comma-separated edge types to collapse")
    p.add_argument("--tiles", help="comma-separated tile types to collapse")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("normalize",
                       help="collapse Julia edges and isolate Julia vertices")
    rule_arg(p)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("multicurve", help="spectral profile of a multicurve")
    p.add_argument("--spec", required=True, help="multicurve JSON file")
    p.set_defaults(fn=cmd_multicurve)

    p = sub.add_parser("energy", help="asymptotic energy bounds")
    rule_arg(p)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--level", type=int, default=4,
                   help="max level for natural representatives")
    p.add_argument("--K", type=int, default=None,
                   help="force this K in the certificate")
    p.add_argument("--multicurve", action="append",
                   help="multicurve JSON file for lower bounds")
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("report", help="full analysis report")
    rule_arg(p)
    p.add_argument("--multicurve", action="append")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("render", help="SVG figure of a subdivision level")
    rule_arg(p)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--spine", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("catalog", help="list built-in rules")
    p.add_argument("--export", help="directory to write rule files into")
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except FsrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
