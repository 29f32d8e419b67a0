"""Tests for the harmonic extension and its weighted disk integrals."""

import math

import numpy as np
import pytest

from harmext import circle_map
from harmext.errors import DomainError
from harmext.poisson import PoissonExtension
from harmext.report import EnergyParams

PL = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))


@pytest.fixture(scope="module")
def ext_identity():
    return PoissonExtension(circle_map.identity())


@pytest.fixture(scope="module")
def ext_pl():
    return PoissonExtension(circle_map.piecewise_linear(PL))


# ------------------------------------------------------------- pointwise

def test_identity_extension_is_z(ext_identity):
    for z in (0.0, 0.3 + 0.2j, -0.7j, 0.55 - 0.4j):
        assert abs(ext_identity.extend(z) - z) < 1e-9


def test_identity_derivatives(ext_identity):
    hz, hzb = ext_identity.wirtinger(0.4 + 0.1j)
    assert abs(hz - 1.0) < 1e-9
    assert abs(hzb) < 1e-9
    assert ext_identity.derivative_norm(0.2j) == pytest.approx(1.0, abs=1e-9)


def test_mean_value_property(ext_pl):
    # h(0) equals the boundary mean
    vals = ext_pl.boundary_values(1 << 16)
    assert abs(ext_pl.extend(0.0) - vals.mean()) < 1e-8


def test_extension_rejects_boundary_points(ext_identity):
    with pytest.raises(DomainError):
        ext_identity.extend(1.0)
    with pytest.raises(DomainError):
        ext_identity.extend(0.999999999999)


def test_rejects_unknown_derivative_mode():
    with pytest.raises(DomainError):
        PoissonExtension(circle_map.identity(), derivative_mode="spectral")


def test_derivative_modes_agree(ext_pl):
    fd = PoissonExtension(ext_pl.boundary, derivative_mode="finite_difference")
    rng = np.random.default_rng(8)
    r = 0.95 * np.sqrt(rng.uniform(0, 1, 20))
    z = r * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
    hz_a, hzb_a = ext_pl.wirtinger(z)
    hz_f, hzb_f = fd.wirtinger(z)
    scale = np.abs(hz_a) + np.abs(hzb_a)
    assert np.max(np.abs(hz_a - hz_f) / scale) < 1e-5
    assert np.max(np.abs(hzb_a - hzb_f) / scale) < 1e-5


def test_harmonicity_five_point_laplacian(ext_pl):
    rng = np.random.default_rng(12)
    r = 0.9 * np.sqrt(rng.uniform(0, 1, 25))
    z = r * np.exp(2j * np.pi * rng.uniform(0, 1, 25))
    h = 1e-3
    stencil = (ext_pl.extend(z + h) + ext_pl.extend(z - h)
               + ext_pl.extend(z + 1j * h) + ext_pl.extend(z - 1j * h)
               - 4 * ext_pl.extend(z)) / h ** 2
    assert np.max(np.abs(stencil.real)) < 1e-4
    assert np.max(np.abs(stencil.imag)) < 1e-4


# --------------------------------------------------------- bulk sampling

def test_slice_samples_match_pointwise(ext_pl):
    # the FFT radial-slice evaluation must agree with the direct kernel
    # quadrature at matching Gauss nodes
    j = 5
    dh, r_nodes, _, _ = ext_pl.level_samples(j)
    from harmext.poisson import _G4X
    for ri in (0, 3):
        for gi in (1, 2):
            for cell_idx in (0, 7, 20):
                theta = 2 * math.pi * (cell_idx + _G4X[gi]) * 2.0 ** -j
                z = r_nodes[ri] * np.exp(1j * theta)
                direct = ext_pl.derivative_norm(complex(z))
                # the slice path fixes the kernel grid while the pointwise
                # path doubles adaptively; agreement is limited by the
                # aliasing of the coarser grid
                assert dh[ri, gi, cell_idx] == pytest.approx(direct,
                                                             rel=2e-6)


def test_level_samples_fill_the_level_annulus(ext_pl):
    # level j's cells span 1 - 2^(1-j) <= r <= 1 - 2^-j, and level 1
    # reaches down to the centre
    annuli = {1: (0.0, 0.5), 2: (0.5, 0.75), 3: (0.75, 0.875),
              4: (0.875, 0.9375)}
    for j, (r_min, r_max) in annuli.items():
        dh, r_nodes, wr, ang_w = ext_pl.level_samples(j)
        assert dh.shape == (4, 4, 2 ** j)
        assert np.all((r_nodes > r_min) & (r_nodes < r_max))
        assert math.fsum(wr) == pytest.approx(r_max - r_min, rel=1e-14)
        assert math.fsum(ang_w) == pytest.approx(2 * math.pi / 2 ** j,
                                                 rel=1e-14)


@pytest.mark.parametrize("name", ["pl_kinked", "staircase_s2"])
def test_level_samples_do_not_depend_on_call_order(fleet, name):
    # level 14 builds a much finer coefficient grid than level 9 needs;
    # the shallower levels sampled after it must come out the same
    fresh = PoissonExtension(fleet[name])
    after_deep = PoissonExtension(fleet[name])
    after_deep.level_samples(14)
    for j in (1, 3, 6, 9):
        np.testing.assert_array_equal(after_deep.level_samples(j)[0],
                                      fresh.level_samples(j)[0])


def test_level_samples_cached(ext_pl):
    a = ext_pl.level_samples(4)
    b = ext_pl.level_samples(4)
    assert a[0] is b[0]


# ---------------------------------------------------------- the integrals

def test_kernel_weight_identity_anchor(ext_identity):
    rep = ext_identity.kernel_weight_integral(EnergyParams(2.0, 0.0, 0.0), 16)
    # |Dh| = 1: the integral is the covered area pi (1 - 2^-16)^2
    assert rep.value == pytest.approx(math.pi, abs=1e-4)
    assert rep.classification == "converged"


def test_kernel_weight_identity_weighted_anchor(ext_identity):
    rep = ext_identity.kernel_weight_integral(EnergyParams(2.0, 1.0, 0.0), 16)
    # int_0^1 (1-r) r dr * 2 pi = pi/3
    assert rep.value == pytest.approx(math.pi / 3, abs=1e-4)


def test_kernel_weight_critical_alpha_flat_and_diverging(ext_identity):
    rep = ext_identity.kernel_weight_integral(EnergyParams(2.0, -1.0, 0.0),
                                              12)
    tail = rep.per_level[6:]       # early levels still approach the asymptote
    assert np.ptp(tail) <= 0.05 * tail.mean()
    assert tail.mean() == pytest.approx(2 * math.pi * math.log(2), rel=0.05)
    assert rep.classification == "diverging"


def test_kernel_gauge_identity_log_anchor(ext_identity):
    rep = ext_identity.kernel_gauge_integral(EnergyParams(2.0, 0.0, 3.0), 16)
    expected = math.pi * math.log(math.e + 1) ** 3 * (1 - 2.0 ** -16) ** 2
    assert rep.value == pytest.approx(expected, rel=1e-3)


def test_tail_estimate_follows_the_log_weight(ext_identity):
    # i1's level sums decay like j^lam 2^(-j(1+alpha)); at lam = 2 a pure
    # geometric tail (ratio of the last two levels) reads about 5% high on
    # the total.  The 16-level partial sum, completed by the same model,
    # is 131.91.
    params = EnergyParams(2.0, -0.5, 2.0)
    rep12 = ext_identity.kernel_weight_integral(params, 12)
    rep16 = ext_identity.kernel_weight_integral(params, 16)
    deep = rep16.value + rep16.notes["tail_estimate"]
    assert deep == pytest.approx(131.91, rel=1e-3)
    assert rep12.value + rep12.notes["tail_estimate"] == pytest.approx(
        deep, rel=5e-3)


def test_integral_reports_are_cached_consistently(ext_pl):
    a = ext_pl.kernel_weight_integral(EnergyParams(2.0, 0.0, 0.0), 8)
    b = ext_pl.kernel_weight_integral(EnergyParams(2.0, 0.0, 0.0), 8)
    np.testing.assert_array_equal(a.per_level, b.per_level)
    assert a.value == b.value


def test_integral_level_validation(ext_identity):
    with pytest.raises(DomainError):
        ext_identity.kernel_weight_integral(EnergyParams(2.0, 0.0, 0.0), 0)
