"""p-transformation matrices, certified lambda_p, and critical exponents."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fsrkit.errors import UnsupportedRegime, ValidationFailure
from fsrkit.multicurves import (
    INESSENTIAL,
    Lift,
    MulticurveSpec,
    classify_multicurve,
    critical_exponent,
    lambda_p,
    p_matrix,
)


def two_lifts_degree_3() -> MulticurveSpec:
    return MulticurveSpec(("g",), (Lift("g", "g", 3), Lift("g", "g", 3)))


def levy_pattern() -> MulticurveSpec:
    return MulticurveSpec(("g",), (Lift("g", "g", 1),))


def nilpotent_pattern() -> MulticurveSpec:
    return MulticurveSpec(("a", "b"), (Lift("a", "b", 2),))


def fibonacci_pattern() -> MulticurveSpec:
    return MulticurveSpec(
        ("a", "b"),
        (Lift("a", "a", 2), Lift("a", "b", 2), Lift("b", "a", 2)),
    )


def test_p_matrix_values():
    mc = two_lifts_degree_3()
    assert p_matrix(mc, 1.0) == np.array([[2.0]])
    assert abs(p_matrix(mc, 2.0)[0][0] - 2 / 3) < 1e-15
    assert p_matrix(mc, math.inf)[0][0] == 0.0
    assert p_matrix(levy_pattern(), math.inf)[0][0] == 1.0


def test_lambda_exact_integers():
    lam = lambda_p(two_lifts_degree_3(), 1.0)
    assert abs(lam.value - 2.0) < 1e-9 and lam.width < 1e-8
    lam = lambda_p(fibonacci_pattern(), 1.0)
    phi = (1 + math.sqrt(5)) / 2
    assert abs(lam.value - phi) < 1e-8
    assert lam.lower - 1e-9 <= phi <= lam.upper + 1e-9


def test_lambda_levy_and_nilpotent():
    assert lambda_p(levy_pattern(), math.inf).value >= 1.0
    for p in (1.0, 2.0, 8.0):
        assert abs(lambda_p(levy_pattern(), p).value - 1.0) < 1e-12
    for p in (1.0, 2.0, math.inf):
        assert lambda_p(nilpotent_pattern(), p).value == 0.0


def test_critical_exponent_closed_form():
    q, lo, hi = critical_exponent(two_lifts_degree_3())
    expected = 1 + math.log(2) / math.log(3)
    assert abs(q - expected) < 1e-7
    assert lo - 1e-12 <= expected <= hi + 1e-12


def test_critical_exponent_unit_when_lambda1_is_one():
    mc = MulticurveSpec(("g",), (Lift("g", "g", 2),))
    assert critical_exponent(mc) == (1.0, 1.0, 1.0)


def test_critical_exponent_block_max():
    # two disjoint irreducible blocks; Q = max of the block exponents
    mc = MulticurveSpec(
        ("a", "b"),
        (Lift("a", "a", 3), Lift("a", "a", 3),      # Q = 1 + ln2/ln3
         Lift("b", "b", 2), Lift("b", "b", 2)),     # Q = 2
    )
    q, _, _ = critical_exponent(mc)
    assert abs(q - 2.0) < 1e-7


def test_critical_exponent_refusals():
    with pytest.raises(UnsupportedRegime):
        critical_exponent(levy_pattern())
    with pytest.raises(UnsupportedRegime):
        critical_exponent(nilpotent_pattern())


def test_classification_flags():
    prof = classify_multicurve(levy_pattern())
    assert prof.levy and not prof.nilpotent
    assert prof.thurston_obstruction          # lambda_2 = 1
    assert prof.q_exponent is None

    prof = classify_multicurve(two_lifts_degree_3())
    assert prof.cantor and not prof.levy
    assert not prof.thurston_obstruction      # lambda_2 = 2/3
    assert abs(prof.q_exponent[0] - (1 + math.log(2) / math.log(3))) < 1e-7

    prof = classify_multicurve(nilpotent_pattern())
    assert prof.nilpotent and not prof.cantor and not prof.levy


def test_strict_monotonicity_on_grid():
    for mc in (two_lifts_degree_3(), fibonacci_pattern()):
        prof = classify_multicurve(mc)
        vals = [prof.lambda_samples[p].value
                for p in sorted(prof.lambda_samples)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_degree_consistency_field():
    with pytest.raises(ValidationFailure):
        MulticurveSpec(("g",), (Lift("g", "g", 1),), map_degree=2)
    MulticurveSpec(("g",), (Lift("g", "g", 1), Lift("g", INESSENTIAL, 1)),
                   map_degree=2)
