"""Tests for the circle double-integral energies and their kernel."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from harmext import boundary, circle_map
from harmext.errors import DomainError
from harmext.report import EnergyParams

PL = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))
PL_KINKED = ((0.0, 0.0), (0.25, 0.5), (0.75, 0.6), (1.0, 1.0))


# ----------------------------------------------------------------- kernel

def test_kernel_vanishes_at_one():
    assert boundary.kernel_antiderivative(EnergyParams(2, 0.7, -3), 1.0) == 0.0


def test_kernel_log_closed_form():
    params = EnergyParams(2.0, 0.0, 0.0)
    assert boundary.kernel_antiderivative(params, 0.5) == pytest.approx(
        math.log(2.0), rel=1e-9)
    assert boundary.kernel_antiderivative(params, 2.0) == pytest.approx(
        -math.log(2.0), rel=1e-9)


def test_kernel_value_at_zero():
    # A(0) = int_0^1 x^(1+alpha-p) dx, finite iff 2+alpha-p > 0
    assert boundary.kernel_antiderivative(EnergyParams(2.0, 0.5, 0.0), 0.0) \
        == pytest.approx(2.0, rel=1e-12)
    assert boundary.kernel_antiderivative(EnergyParams(2.0, 0.0, 0.0), 0.0) \
        == math.inf


def test_kernel_diverges_for_strong_negative_lam():
    params = EnergyParams(2.0, 0.0, -1.0)
    assert boundary.kernel_antiderivative(params, 0.5) == math.inf
    assert boundary.kernel_antiderivative(params, 2.0) == -math.inf


def test_kernel_past_float_range_is_inf():
    # ln 2 * log2(1e16)^201 / 201 is about 1e344
    params = EnergyParams(2.0, 0.0, 200.0)
    assert boundary.kernel_antiderivative(params, 1e-16) == math.inf
    assert math.isfinite(boundary.kernel_antiderivative(params, 1e-8))


@pytest.mark.parametrize("p,alpha,lam", [
    (2.0, 0.0, 0.0), (1.5, -0.5, 1.0), (3.0, 1.0, 2.0), (2.0, 0.5, 0.5),
    (3.0, 0.0, 0.5), (2.5, -0.5, -0.5),
])
def test_kernel_matches_direct_quadrature(p, alpha, lam):
    # independent oracles: the untransformed integrand over [t, 1], and
    # for t > 1 the mirrored y-integral; 2 + alpha - p < 0 in the last two
    # cases puts the Kummer function at a positive argument for t < 1
    params = EnergyParams(p, alpha, lam)
    for t in (0.05, 0.3, 0.8):
        direct, _ = quad(
            lambda x: -x ** (1 + alpha - p) * math.log2(1 / x) ** lam,
            1.0, t, limit=200)
        assert boundary.kernel_antiderivative(params, t) == pytest.approx(
            direct, rel=1e-7)
    c = 2.0 + alpha - p
    for t in (1.3, 1.9):
        mirrored, _ = quad(lambda y: y ** lam * 2.0 ** (c * y),
                           0.0, math.log2(t), limit=200)
        assert boundary.kernel_antiderivative(params, t) == pytest.approx(
            -math.log(2.0) * mirrored, rel=1e-7)


@pytest.mark.parametrize("lam", [-0.5, -1.0])
def test_kernel_vectorised_over_t(lam):
    params = EnergyParams(2.5, -0.5, lam)
    ts = np.array([0.0, 1e-12, 0.3, 1.0, 1.9])
    got = boundary.kernel_antiderivative(params, ts)
    assert got.shape == ts.shape
    np.testing.assert_allclose(
        got, [boundary.kernel_antiderivative(params, float(t)) for t in ts],
        rtol=1e-14)


def test_kernel_rejects_negative_argument():
    with pytest.raises(DomainError):
        boundary.kernel_antiderivative(EnergyParams(2, 0, 0), -0.1)


def test_kernel_interpolation_table_accuracy():
    params = EnergyParams(1.5, -0.4, 1.0)
    rng = np.random.default_rng(2)
    ts = np.exp(rng.uniform(math.log(1e-12), math.log(1.9), 40))
    interp = boundary._kernel_eval(params.p, params.alpha, params.lam, ts)
    exact = np.array([boundary.kernel_antiderivative(params, float(t))
                      for t in ts])
    np.testing.assert_allclose(interp, exact,
                               atol=1e-4, rtol=1e-4)


# ---------------------------------------------------------------------- U

def test_pair_energy_identity_constant_integrand():
    rep = boundary.gauge_pair_energy(circle_map.identity(),
                                     EnergyParams(2.0, 0.0, 0.0))
    assert rep.value == pytest.approx(4 * math.pi ** 2, rel=1e-3)


def test_pair_energy_rotation_invariant():
    params = EnergyParams(2.0, 0.3, 1.0)
    a = boundary.gauge_pair_energy(circle_map.identity(), params)
    b = boundary.gauge_pair_energy(circle_map.rotation_map(0.3), params)
    assert b.value == pytest.approx(a.value, rel=1e-12)


def test_pair_energy_dimension_reduction_oracle():
    # for the identity the double integral reduces to a single average of
    # chord^alpha over the offset, computed here by independent quadrature
    alpha = 0.5
    rep = boundary.gauge_pair_energy(circle_map.identity(),
                                     EnergyParams(2.0, alpha, 0.0))
    oracle, _ = quad(lambda u: (2 * math.sin(math.pi * u)) ** alpha, 0.0, 1.0)
    assert rep.value == pytest.approx((2 * math.pi) ** 2 * oracle, rel=1e-2)


def test_pair_energy_rings_positive_and_recorded():
    rep = boundary.gauge_pair_energy(circle_map.piecewise_linear(PL),
                                     EnergyParams(2.0, 0.0, 0.0))
    assert len(rep.per_level) == 12
    assert np.all(rep.per_level > 0)
    assert rep.value == pytest.approx(float(np.sum(rep.per_level)))


# ---------------------------------------------------------------------- V

def test_inverse_kernel_identity_mean_zero():
    # inner integral is the log-distance mean over the circle, which
    # vanishes at every boundary point
    rep = boundary.inverse_kernel_energy(circle_map.identity(),
                                         EnergyParams(2.0, 0.0, 0.0))
    assert abs(rep.value) <= 1e-3
    assert "signed_value" in rep.notes
    assert isinstance(rep.notes["negative_inner_count"], int)


def test_inverse_kernel_identity_negative_alpha():
    # alpha = -1/2 keeps the kernel positive on most chords, so the inner
    # integral is positive; oracle by direct 1-D quadrature of
    # 2 ((2 sin pi u)^(-1/2) - 1) over the offset
    rep = boundary.inverse_kernel_energy(circle_map.identity(),
                                         EnergyParams(2.0, -0.5, 0.0))
    inner_oracle, _ = quad(
        lambda u: 2.0 * ((2 * math.sin(math.pi * u)) ** -0.5 - 1.0), 0, 1)
    expected = 2 * math.pi * (2 * math.pi * inner_oracle)
    assert rep.value == pytest.approx(expected, rel=0.02)
    assert rep.classification == "converged"
    assert rep.value == pytest.approx(rep.notes["coarse_value"], rel=0.05)


def test_inverse_kernel_identity_positive_alpha_signed_negative():
    # for alpha > 0 the negative tail of the kernel (chords above 1) wins:
    # the inner integral is negative everywhere, the positive-part value
    # is 0 and the signed total is reported
    rep = boundary.inverse_kernel_energy(circle_map.identity(),
                                         EnergyParams(2.0, 0.5, 0.0))
    assert rep.value == 0.0
    assert rep.notes["signed_value"] < 0
    assert rep.notes["negative_inner_count"] > 0


def test_inverse_kernel_respects_plateau_inverse():
    # a piecewise-linear map with a strong kink still inverts cleanly
    m = circle_map.piecewise_linear(((0, 0), (0.25, 0.5), (1, 1)))
    rep = boundary.inverse_kernel_energy(m, EnergyParams(2.0, 0.5, 0.0))
    assert np.isfinite(rep.value) and rep.value > 0


# ------------------------------------------------------ object identity

def test_energies_are_the_maps_own_on_reused_ids():
    # a map freed right after use often hands its id() to the next map
    # built, so a geometry looked up by id would belong to another map
    params = EnergyParams(2.0, -0.25, 0.0)
    pair = dict(diagonal_rings=4, n_outer=32, n_inner=4)
    inverse = dict(n_outer=16, nodes_per_ring=4, total_rings=8)

    def u(breaks):
        return boundary.gauge_pair_energy(circle_map.piecewise_linear(breaks),
                                          params, **pair).value

    def v(breaks):
        return boundary.inverse_kernel_energy(
            circle_map.piecewise_linear(breaks), params, **inverse).value

    maps = (PL, PL_KINKED)
    want = {b: (u(b), v(b)) for b in maps}
    assert want[PL][0] != want[PL_KINKED][0]
    assert want[PL][1] != want[PL_KINKED][1]
    wrong_u = wrong_v = 0
    for i in range(100):
        breaks = maps[i % 2]
        wrong_u += u(breaks) != want[breaks][0]
        wrong_v += v(breaks) != want[breaks][1]
    assert (wrong_u, wrong_v) == (0, 0)
