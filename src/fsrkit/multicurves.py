"""Invariant-multicurve spectra: the linear p-transformation, its leading
eigenvalue lambda_p with certified intervals, block structure, the
Levy/Cantor/obstruction classification, and the critical exponent Q.

The multicurve data is user-supplied: per image curve, the list of preimage
components with their assigned isotopy class (or "inessential") and covering
degree.  Exact structural tests are used at p = 1 and p = infinity; other
exponents use certified Perron-Frobenius intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .digraphs import (
    Arc,
    CertifiedValue,
    DynDigraph,
    condensation,
    spectral_radius,
)
from .errors import UnsupportedRegime, ValidationFailure

INESSENTIAL = "inessential"

LAMBDA_TOL = 1e-10
Q_TOL = 1e-8


@dataclass(frozen=True)
class Lift:
    image: str                 # curve gamma_i whose preimage this component is
    preimage: str              # curve gamma_j it is isotopic to, or "inessential"
    degree: int                # covering degree of the component over gamma_i

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationFailure(f"lift degree {self.degree} must be >= 1",
                                    check="multicurve")


@dataclass(frozen=True)
class MulticurveSpec:
    curves: tuple[str, ...]
    lifts: tuple[Lift, ...]
    map_degree: int | None = None   # optional consistency datum

    def __post_init__(self):
        cs = set(self.curves)
        if len(cs) != len(self.curves):
            raise ValidationFailure("duplicate curve id", check="multicurve")
        for lf in self.lifts:
            if lf.image not in cs:
                raise ValidationFailure(f"lift references unknown image curve "
                                        f"{lf.image!r}", check="multicurve")
            if lf.preimage != INESSENTIAL and lf.preimage not in cs:
                raise ValidationFailure(f"lift assigned to unknown curve "
                                        f"{lf.preimage!r}", check="multicurve")
        if self.map_degree is not None:
            for c in self.curves:
                total = sum(lf.degree for lf in self.lifts if lf.image == c)
                if total != self.map_degree:
                    raise ValidationFailure(
                        f"degrees of the lifts of {c} sum to {total}, not the "
                        f"map degree {self.map_degree}", check="multicurve")


def p_matrix(mc: MulticurveSpec, p: float) -> list[list[float]]:
    """Matrix of the linear p-transformation: entry (j, i) sums deg^(1-p)
    over components of the preimage of curve i assigned to curve j."""
    if p != math.inf and p < 1:
        raise ValidationFailure("exponent p must be >= 1", check="multicurve")
    n = len(mc.curves)
    idx = {c: k for k, c in enumerate(mc.curves)}
    m = [[0.0] * n for _ in range(n)]
    for lf in mc.lifts:
        if lf.preimage == INESSENTIAL:
            continue
        i, j = idx[lf.image], idx[lf.preimage]
        if p == math.inf:
            m[j][i] += 1.0 if lf.degree == 1 else 0.0
        else:
            m[j][i] += float(lf.degree) ** (1.0 - p)
    return m


def _support_digraph(mc: MulticurveSpec, degree_one_only: bool = False
                     ) -> DynDigraph:
    arcs = []
    for k, lf in enumerate(mc.lifts):
        if lf.preimage == INESSENTIAL:
            continue
        if degree_one_only and lf.degree != 1:
            continue
        arcs.append(Arc(lf.image, lf.preimage, tag=k))
    return DynDigraph(list(mc.curves), arcs)


def irreducible_blocks(mc: MulticurveSpec) -> list[tuple[str, ...]]:
    """Cycle-containing strongly connected sub-multicurves (diagonal blocks)."""
    c = condensation(_support_digraph(mc))
    return [tuple(sorted(comp)) for comp, k in zip(c.sccs, c.internal) if k]


def has_levy_block(mc: MulticurveSpec) -> bool:
    """Exact: a cycle of degree-one lifts exists iff lambda_inf >= 1."""
    g = _support_digraph(mc, degree_one_only=True)
    return any(condensation(g).internal)


def is_nilpotent(mc: MulticurveSpec) -> bool:
    return not irreducible_blocks(mc)


def _block_multiplicity_exceeds_one(mc: MulticurveSpec) -> bool:
    """Exact test for lambda_1 > 1: some irreducible block is not a single
    cycle when arcs are counted with lift multiplicity (weighted by degree
    count, i.e. number of essential components)."""
    c = condensation(_support_digraph(mc))
    return any(k > len(comp) for comp, k in zip(c.sccs, c.internal))


def lambda_p(mc: MulticurveSpec, p: float) -> CertifiedValue:
    """Leading eigenvalue of the p-transformation with a certified interval."""
    m = p_matrix(mc, p)
    if p in (1, math.inf):
        # integer matrix; structural exactness for the common special cases
        if is_nilpotent(mc):
            return CertifiedValue(0.0, 0.0, 0.0)
        if p == 1 and not _block_multiplicity_exceeds_one(mc):
            return CertifiedValue(1.0, 1.0, 1.0)
    return spectral_radius(m, tol=LAMBDA_TOL)


def critical_exponent(mc: MulticurveSpec) -> tuple[float, float, float]:
    """Q with lambda_Q = 1, as (value, bracket_lo, bracket_hi).

    Defined when some block is irreducible and no Levy block exists; then
    lambda_p is strictly decreasing and the root is unique.
    """
    if is_nilpotent(mc):
        raise UnsupportedRegime("nilpotent multicurve: no critical exponent")
    if has_levy_block(mc):
        raise UnsupportedRegime("multicurve contains a Levy cycle: "
                                "lambda_p never drops below 1")
    if not _block_multiplicity_exceeds_one(mc):
        # lambda_1 = 1 exactly
        return (1.0, 1.0, 1.0)
    lo = 1.0
    hi = 2.0
    while lambda_p(mc, hi).value >= 1.0:
        hi *= 2.0
        if hi > 2 ** 40:
            raise UnsupportedRegime("lambda_p does not drop below 1")
    while hi - lo > Q_TOL * 0.5:
        mid = 0.5 * (lo + hi)
        lam = lambda_p(mc, mid)
        if abs(lam.value - 1.0) <= LAMBDA_TOL:
            return (mid, mid - Q_TOL, mid + Q_TOL)
        if lam.value > 1.0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return (mid, lo, hi)


@dataclass
class SpectralProfile:
    curves: tuple[str, ...]
    blocks: list[tuple[str, ...]]
    nilpotent: bool
    levy: bool
    cantor: bool
    thurston_obstruction: bool
    lambda_samples: dict[float, CertifiedValue] = field(default_factory=dict)
    lambda_infinity: CertifiedValue | None = None
    q_exponent: tuple[float, float, float] | None = None


P_GRID = (1.0, 1.5, 2.0, 4.0, 8.0)


def classify_multicurve(mc: MulticurveSpec,
                        grid: tuple[float, ...] = P_GRID) -> SpectralProfile:
    nil = is_nilpotent(mc)
    levy = has_levy_block(mc)
    cantor = (not nil) and _block_multiplicity_exceeds_one(mc)
    lam2 = lambda_p(mc, 2.0)
    obstruction = lam2.upper >= 1.0 - 1e-9
    samples = {p: lambda_p(mc, p) for p in grid}
    lam_inf = lambda_p(mc, math.inf)
    q = None
    if not nil and not levy:
        q = critical_exponent(mc)
    profile = SpectralProfile(
        curves=mc.curves,
        blocks=irreducible_blocks(mc),
        nilpotent=nil,
        levy=levy,
        cantor=cantor,
        thurston_obstruction=obstruction,
        lambda_samples=samples,
        lambda_infinity=lam_inf,
        q_exponent=q,
    )
    _check_monotone(profile)
    return profile


def _check_monotone(profile: SpectralProfile) -> None:
    """lambda_p is non-increasing in p; strictly decreasing when a block is
    irreducible and no Levy block exists (asserted on the sample grid)."""
    ps = sorted(profile.lambda_samples)
    for a, b in zip(ps, ps[1:]):
        la, lb = profile.lambda_samples[a], profile.lambda_samples[b]
        if lb.lower > la.upper + 1e-9:
            raise ValidationFailure(
                f"lambda_p increased from p={a} to p={b}", check="monotone")
        if not profile.nilpotent and not profile.levy and la.value > 0:
            if not lb.value < la.value:
                raise ValidationFailure(
                    f"lambda_p not strictly decreasing at p={a} -> {b}",
                    check="monotone")


# ---------------------------------------------------------------------------
# support curves: necessary-condition check for user assignments
# ---------------------------------------------------------------------------


def check_assignment_support(rule, mc: MulticurveSpec,
                             support: dict) -> dict:
    """Necessary-condition check of a lift assignment against supporting
    curves drawn in the level-0 dual skeleton.

    For a lift assigned image -> preimage, every marked point on one side of
    the preimage curve must map (under the vertex dynamics) into a single
    side of the image curve.  Exact isotopy classification of preimages is
    not attempted: a passing assignment is only heuristically consistent.
    """
    from .complexes import enclosed_markings
    from .rules import require_valid_rule

    index = require_valid_rule(rule)
    f0 = {v: rule.map_vertices[index.vertex_copy[v]]
          for v in rule.level0.vertices}
    partitions: dict[str, tuple[frozenset, frozenset]] = {}
    for cid, curve in support.items():
        left, right = enclosed_markings(rule.level0, curve)
        partitions[cid] = (frozenset(left), frozenset(right))

    problems: list[str] = []
    for lf in mc.lifts:
        if lf.preimage == INESSENTIAL:
            continue
        if lf.image not in partitions or lf.preimage not in partitions:
            problems.append(f"missing support for {lf.image}->{lf.preimage}")
            continue
        img_sides = partitions[lf.image]
        pre_sides = partitions[lf.preimage]
        ok = False
        for a, b in ((0, 1), (1, 0)):
            mapped_a = {f0[v] for v in pre_sides[0]}
            mapped_b = {f0[v] for v in pre_sides[1]}
            if mapped_a <= img_sides[a] and mapped_b <= img_sides[b]:
                ok = True
        if not ok:
            problems.append(
                f"lift {lf.image}->{lf.preimage}: marked sides do not map "
                "into single sides of the image curve")
    return {
        "heuristically_consistent": not problems,
        "problems": problems,
        "partitions": {c: [sorted(s) for s in sides]
                       for c, sides in sorted(partitions.items())},
    }
