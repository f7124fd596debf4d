"""End-to-end analysis: validation, growth, Levy decision, normalization,
spine summary, energy bounds over a grid of exponents, and the conformal
dimension verdict."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dynamics import (
    edge_growth_classes,
    edge_growth_rate,
    has_polynomial_growth,
    julia_edges,
    julia_tiles,
    recurrency_periods,
    stability_threshold,
)
from .energies import asymptotic_bounds, e1_exact
from .errors import FsrError
from .multicurves import MulticurveSpec, classify_multicurve
from .quotients import normalize_for_energy
from .rules import SubdivisionRule, classify_vertices, validate_rule
from .spines import is_levy_free, non_expanding_spine

P_SAMPLES = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0)
N_MAX = 4       # deepest level of the natural representatives


@dataclass
class AnalysisReport:
    name: str
    valid: bool
    degree: int | None = None
    stages: list[str] = field(default_factory=list)
    errors: dict[str, str] = field(default_factory=dict)
    growth: dict = field(default_factory=dict)
    vertices: dict = field(default_factory=dict)
    julia_cells: dict = field(default_factory=dict)
    levy: dict = field(default_factory=dict)
    normalization: dict = field(default_factory=dict)
    spine: dict = field(default_factory=dict)
    multicurves: list = field(default_factory=list)
    energy: dict = field(default_factory=dict)
    arc: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        from .io import jsonable

        return jsonable(self)


def analyze(rule: SubdivisionRule,
            multicurves: tuple[MulticurveSpec, ...] = ()) -> AnalysisReport:
    """Deterministic full pipeline; stage errors are recorded, not raised."""
    report = AnalysisReport(name=rule.name, valid=False)

    rep = validate_rule(rule)
    report.stages.append("validate")
    if not rep.ok:
        report.errors["validate"] = rep.summary()
        return report
    report.valid = True
    report.degree = rep.notes["degree"]

    # growth
    report.stages.append("growth")
    classes = edge_growth_classes(rule)
    poly = has_polynomial_growth(rule)
    growth: dict = {"polynomial": poly, "edges": {}}
    for e in sorted(rule.level0.edges):
        rho = edge_growth_rate(rule, e)
        growth["edges"][e] = {
            "class": str(classes[e]),
            "rho": rho.value,
            "rho_interval": [rho.lower, rho.upper],
        }
    growth["entropy_surrogate"] = (
        0.0 if poly else max(math.log(v["rho"]) for v in
                             growth["edges"].values()))
    if poly:
        growth["recurrency_periods"] = recurrency_periods(rule)
        growth["stability_threshold"] = stability_threshold(rule)
    report.growth = growth

    vc = classify_vertices(rule)
    report.vertices = {
        "fatou": sorted(vc.fatou),
        "julia": sorted(vc.julia),
        "periodic": sorted(vc.periodic),
        "local_degree": dict(sorted(vc.local_degree.items())),
        "hyperbolic_type": all(vc.is_fatou[v] for v in rule.marked),
    }
    report.julia_cells = {
        "edges": sorted(julia_edges(rule)),
        "tiles": sorted(julia_tiles(rule)),
    }

    # multicurve profiles (user data)
    for mc in multicurves:
        prof = classify_multicurve(mc)
        entry = {
            "curves": list(prof.curves),
            "nilpotent": prof.nilpotent,
            "levy": prof.levy,
            "cantor": prof.cantor,
            "thurston_obstruction": prof.thurston_obstruction,
            "lambda": {str(p): v.value for p, v in
                       sorted(prof.lambda_samples.items())},
            "lambda_infinity": (prof.lambda_infinity.value
                                if prof.lambda_infinity else None),
        }
        if prof.q_exponent:
            entry["q"] = prof.q_exponent[0]
            entry["q_bracket"] = list(prof.q_exponent[1:])
        if prof.levy:
            entry["note"] = ("lambda_infinity >= 1: a Levy pattern; the "
                             "asymptotic infinity-energy is at least 1")
        report.multicurves.append(entry)

    if not poly:
        report.stages.append("spine (skipped)")
        report.spine = {"note": "exponential growth regime: spine and Levy "
                                "decisions are not supported"}
        report.levy = {"note": "unsupported regime"}
        report.energy = _energy_section(rule, multicurves)
        report.arc = _arc_section(report)
        return report

    # Levy decision
    report.stages.append("levy")
    try:
        levy = is_levy_free(rule)
        report.levy = {
            "levy_free": levy.levy_free,
            "level": levy.level,
            "witness": (list(levy.witness.darts) if levy.witness else None),
            "witness_class": levy.witness_class,
            "cycle_classes": levy.cycle_classes,
            "notes": levy.notes,
            "torus_cover_excluded": "asserted by the user, not checked",
        }
    except FsrError as exc:
        report.errors["levy"] = str(exc)
        report.levy = {"error": str(exc)}

    # normalization
    report.stages.append("normalize")
    base = rule
    if report.levy.get("levy_free"):
        try:
            norm = normalize_for_energy(rule)
            report.normalization = {
                "provenance": list(norm.provenance),
                "collapsed_edges": sorted(norm.collapsed.edges),
                "collapsed_tiles": sorted(norm.collapsed.tiles),
                "changed": norm.rule is not rule,
            }
            base = norm.rule
        except FsrError as exc:
            report.errors["normalize"] = str(exc)
    else:
        report.normalization = {
            "note": "skipped: rule is not Levy-free"}

    # spine summary (on the original rule)
    report.stages.append("spine")
    try:
        k = max(stability_threshold(rule), 1)
        spine = non_expanding_spine(rule, k)
        report.spine = {
            "level": k,
            "empty": spine.is_empty(),
            "recurrent_edges": sorted(spine.recurrent_edges),
            "bands": len(spine.bands),
            "components": [
                {"shape": c.shape, "tiles": list(c.tiles),
                 "full_edges": list(c.full_edges),
                 "half_ends": len(c.half_ends),
                 "peripheral_vertex": c.peripheral_vertex}
                for c in spine.components
            ],
        }
    except FsrError as exc:
        report.errors["spine"] = str(exc)

    report.stages.append("energy")
    report.energy = _energy_section(base, multicurves)
    report.arc = _arc_section(report)
    return report


def _energy_section(rule, multicurves) -> dict:
    out: dict = {"samples": {}, "monotone_envelope": {}}
    for p in P_SAMPLES:
        try:
            eb = asymptotic_bounds(rule, p, n_max=N_MAX,
                                   multicurves=multicurves)
            entry = {
                "upper": eb.upper,
                "upper_source": eb.upper_source,
                "lower": eb.lower,
                "lower_source": eb.lower_source,
                "certified": eb.certified,
                "exact": eb.exact,
                "per_level": {str(n): v for n, v in eb.per_level.items()},
            }
            if eb.certificate is not None:
                entry["certificate"] = {
                    "certified": eb.certificate.certified,
                    "bound": eb.certificate.bound,
                    "retraction_energy": eb.certificate.retraction_energy,
                    "deformation_energy": eb.certificate.deformation_energy,
                    "params": eb.certificate.params,
                    "case_bounds": eb.certificate.case_bounds,
                }
        except FsrError as exc:
            entry = {"error": str(exc)}
        out["samples"][str(p)] = entry
    # monotone envelope: a certified bound at q <= p bounds p as well
    running = None
    source_p = None
    for p in sorted(P_SAMPLES):
        entry = out["samples"][str(p)]
        upper = entry.get("upper")
        if upper is not None and (running is None or upper < running):
            running = upper
            source_p = p
        if running is not None:
            out["monotone_envelope"][str(p)] = {
                "upper": running,
                "from_p": source_p,
                "justification": "asymptotic energy is non-increasing in p",
            }
    out["e1_levels"] = {str(n): e1_exact(rule, n)
                        for n in range(1, N_MAX + 1)}
    return out


def _arc_section(report: AnalysisReport) -> dict:
    """Conformal-dimension verdict assembled from the computed evidence."""
    arc: dict = {"lower": 1.0, "lower_source": "trivial bound"}
    for entry in report.multicurves:
        if entry.get("q") is not None and entry["q"] > arc["lower"]:
            arc["lower"] = entry["q"]
            arc["lower_source"] = "critical exponent of a supplied multicurve"
    certified_ps = []
    for p_str, entry in report.energy.get("samples", {}).items():
        if entry.get("certified") and entry.get("upper") is not None \
                and entry["upper"] < 1.0:
            certified_ps.append(float(p_str))
    e1 = report.energy.get("samples", {}).get("1.0", {})
    crochet = bool(report.growth.get("polynomial")) \
        and report.levy.get("levy_free") is True
    arc["crochet_certified"] = crochet and bool(certified_ps) \
        and e1.get("exact") is True
    if certified_ps:
        arc["p_star_upper"] = min(certified_ps)
        arc["p_star_note"] = ("the critical exponent where the asymptotic "
                              "energy reaches 1 is at most the smallest "
                              "certified p")
    if arc["crochet_certified"]:
        arc["verdict"] = ("conformal dimension bracket [1, "
                          f"{arc['p_star_upper']}]: energy 1 at p = 1 and "
                          "certified below 1 beyond it")
    elif report.levy.get("levy_free") is False:
        arc["verdict"] = "obstructed: a Levy witness exists"
    else:
        arc["verdict"] = "inconclusive"
    return arc
