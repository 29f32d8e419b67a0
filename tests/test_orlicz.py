"""Tests for the Orlicz gauge, its convex repair and the property checks.

The closed-form derivatives are cross-checked against mpmath numerical
differentiation, which shares no code with the implementation.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmext import orlicz
from harmext.errors import (BreakpointResolutionError, DomainError,
                            UnresolvedSpecError)


def mp_phi(p, lam, t):
    t = mpmath.mpf(t)
    return t ** p * mpmath.log(mpmath.e + t) ** lam


# ------------------------------------------------------------------- phi

def test_phi_power_law():
    assert orlicz.phi(orlicz.OrliczSpec(2.0, 0.0), 3.0) == pytest.approx(9.0)


def test_phi_vanishes_at_zero():
    assert orlicz.phi(orlicz.OrliczSpec(2.0, 1.0), 0.0) == 0.0


def test_phi_log_argument_value():
    t = math.e ** 2 - math.e            # ln(e + t) = 2
    expected = t ** 2 * 2.0
    assert orlicz.phi(orlicz.OrliczSpec(2.0, 1.0), t) == pytest.approx(
        expected, rel=1e-13)


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("lam", [-1.5, -0.5, 0.0, 0.5, 1.0, 2.0])
def test_phi_in_place_equals_the_plain_expression(p, lam):
    spec = orlicz.OrliczSpec(p, lam)
    t = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 4001)])
    assert np.array_equal(orlicz.phi(spec, t),
                          t ** p * np.log(math.e + t) ** lam)
    # a scalar takes the array loop: alone, as a 1-element array and
    # inside a long array it gets the same bits
    for s in (0.0, 1e-3, 0.7, 3.0, 1e5):
        alone = orlicz.phi(spec, s)
        assert type(alone) is float
        assert alone == orlicz.phi(spec, np.array([s]))[0]
        assert alone == orlicz.phi(spec, np.insert(t, 1000, s))[1000]


def test_phi_rejects_negative_argument():
    with pytest.raises(DomainError):
        orlicz.phi(orlicz.OrliczSpec(2.0, 0.0), -1.0)


def test_phi_rejects_p_not_above_one():
    with pytest.raises(DomainError):
        orlicz.OrliczSpec(1.0, 0.0)


@pytest.mark.parametrize("p,lam", [(2.0, 1.0), (1.5, -0.5), (3.0, 2.0),
                                   (2.5, -2.0)])
def test_closed_form_derivatives_against_mpmath(p, lam):
    spec = orlicz.OrliczSpec(p, lam)
    for t in (0.3, 1.0, 4.7, 120.0):
        d1 = float(mpmath.diff(lambda u: mp_phi(p, lam, u), t))
        d2 = float(mpmath.diff(lambda u: mp_phi(p, lam, u), t, 2))
        assert orlicz.phi_prime(spec, t) == pytest.approx(d1, rel=1e-8)
        assert orlicz.phi_double_prime(spec, t) == pytest.approx(d2, rel=1e-6)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=0.01, max_value=100.0))
def test_phi_midpoint_convexity_for_nonneg_lam(a, b):
    spec = orlicz.OrliczSpec(2.0, 1.5)
    mid = 0.5 * (a + b)
    lhs = orlicz.phi(spec, mid)
    rhs = 0.5 * (orlicz.phi(spec, a) + orlicz.phi(spec, b))
    assert lhs <= rhs + 1e-9 * max(rhs, 1.0)


# ------------------------------------------------------------ breakpoints

def test_resolve_breakpoints_constraint_chain():
    spec = orlicz.resolve_breakpoints(2.0, -1.0)
    assert 0 < spec.t1 < spec.t2
    k = (orlicz.phi(spec, spec.t2) - spec.t1 ** spec.p) / (spec.t2 - spec.t1)
    assert spec.k_slope == pytest.approx(k, rel=1e-12)
    assert spec.p * spec.t1 ** (spec.p - 1) <= spec.k_slope + 1e-12
    assert spec.k_slope <= orlicz.phi_prime(spec, spec.t2) + 1e-12


def test_repaired_gauge_convexity_second_differences():
    spec = orlicz.resolve_breakpoints(3.0, -2.0)
    u = np.linspace(0.0, 10 * spec.t2, 4001)
    fv = orlicz.psi(spec, u)
    d2 = fv[2:] - 2 * fv[1:-1] + fv[:-2]
    assert np.all(d2 >= -1e-9 * np.maximum(np.abs(fv[1:-1]), 1.0))


def test_repaired_gauge_comparable_to_phi():
    spec = orlicz.resolve_breakpoints(2.0, -0.5)
    t = np.geomspace(1e-6, 1e6, 500)
    ratio = orlicz.psi(spec, t) / orlicz.phi(spec, t)
    assert np.all(np.isfinite(ratio))
    C = max(ratio.max(), 1.0 / ratio.min())
    assert 1.0 <= C < 50.0


def test_psi_piecewise_values():
    spec = orlicz.resolve_breakpoints(2.0, -1.0)
    t1, t2, k = spec.t1, spec.t2, spec.k_slope
    assert orlicz.psi(spec, t1 / 2) == pytest.approx((t1 / 2) ** 2, rel=1e-12)
    assert orlicz.psi(spec, t2) == pytest.approx(orlicz.phi(spec, t2),
                                                 rel=1e-12)
    mid = 0.5 * (t1 + t2)
    assert orlicz.psi(spec, mid) == pytest.approx(
        k * (t2 - t1) / 2 + t1 ** 2, rel=1e-12)


def test_psi_equals_phi_for_nonneg_lam():
    spec = orlicz.OrliczSpec(2.0, 1.0)
    t = np.linspace(0, 10, 101)
    np.testing.assert_allclose(orlicz.psi(spec, t), orlicz.phi(spec, t))


def test_psi_requires_resolved_breakpoints():
    with pytest.raises(UnresolvedSpecError):
        orlicz.psi(orlicz.OrliczSpec(2.0, -1.0), 1.0)


def test_resolution_is_deterministic():
    a = orlicz.resolve_breakpoints(2.5, -1.5)
    b = orlicz.resolve_breakpoints(2.5, -1.5)
    assert (a.t1, a.t2, a.k_slope) == (b.t1, b.t2, b.k_slope)


# ------------------------------------------------------------- properties

def test_properties_clean_for_positive_lam():
    rep = orlicz.verify_properties(orlicz.OrliczSpec(2.0, 1.0))
    assert rep.monotonicity_violations == 0
    assert rep.convexity_violations == 0
    assert np.isfinite(rep.doubling_sup)


def test_doubling_sup_power_law_exact():
    rep = orlicz.verify_properties(orlicz.OrliczSpec(2.0, 0.0))
    assert rep.doubling_sup == pytest.approx(4.0, rel=1e-9)


def test_derivative_ratio_sup_power_law():
    # t f'(t)/f(t) = p exactly when lam = 0
    rep = orlicz.verify_properties(orlicz.OrliczSpec(2.0, 0.0))
    assert rep.derivative_ratio_sup == pytest.approx(2.0, rel=1e-6)


def test_repaired_gauge_property_report():
    spec = orlicz.resolve_breakpoints(2.0, -1.0)
    rep = orlicz.verify_properties(spec, t_max=10 * spec.t2)
    assert rep.monotonicity_violations == 0
    assert rep.convexity_violations == 0
    assert np.isfinite(rep.derivative_ratio_sup)
    assert rep.comparability_sup < 50.0


def test_properties_of_a_repaired_gauge_are_those_of_psi():
    # the orlicz_check_negative golden's doubling sup; Phi's own is 8.0
    rep = orlicz.verify_properties(orlicz.resolve_breakpoints(3.0, -1.5))
    assert rep.doubling_sup == 13.891957586995225


def test_properties_refuse_an_unresolved_negative_lambda():
    with pytest.raises(UnresolvedSpecError):
        orlicz.verify_properties(orlicz.OrliczSpec(2.0, -1.0))


def test_breakpoint_failure_is_reported():
    # the grid search gives up cleanly on absurd parameters
    with pytest.raises((BreakpointResolutionError, DomainError)):
        orlicz.resolve_breakpoints(1.0, -1.0)
