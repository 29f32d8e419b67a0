"""Tests for the radial weights, their factorization and the A_p estimator."""

import math

import numpy as np
import pytest

from harmext import weights
from harmext.errors import DomainError, QuadratureOverflowError


# ---------------------------------------------------------------- values

def test_constant_weight():
    spec = weights.WeightSpec(0.0, 0.0)
    for x in (0.0, 0.5 + 0.2j, 3.0):
        assert weights.weight(spec, x) == pytest.approx(1.0)


def test_weight_at_origin():
    spec = weights.WeightSpec(1.0, 0.0)
    assert weights.weight(spec, 0.0) == pytest.approx(1.0)


def test_weight_far_field_constant():
    spec = weights.WeightSpec(0.0, 2.0)
    assert weights.weight(spec, 3.0) == pytest.approx(math.log(2.0) ** 2,
                                                      rel=1e-13)


def test_weight_limit_values_on_circle():
    assert weights.weight_radial(weights.WeightSpec(-0.5, 0.0), 1.0) \
        == math.inf
    assert weights.weight_radial(weights.WeightSpec(0.5, 0.0), 1.0) == 0.0
    assert weights.weight_radial(weights.WeightSpec(0.0, 0.0), 1.0) == 1.0


# ---------------------------------------------------------- factorization

def test_jones_exponents_symmetric_case():
    w1, w2 = weights.jones_factors(2.0, 0.0, 0.0)
    assert w1.alpha == pytest.approx(-0.5)
    assert w2.alpha == pytest.approx(-0.5)


def test_jones_log_exponents_positive_lam():
    w1, w2 = weights.jones_factors(2.0, 0.5, 1.0)
    assert w1.lam == pytest.approx(2.0)
    assert w2.lam == pytest.approx(1.0)


def test_jones_log_exponents_negative_lam():
    w1, w2 = weights.jones_factors(3.0, 0.0, -1.0)
    assert w1.lam == pytest.approx(1.0)
    assert w2.lam == pytest.approx(1.0)


@pytest.mark.parametrize("p,alpha,lam", [
    (2.0, 0.0, 0.0), (2.0, 0.5, 1.0), (3.0, 0.0, -1.0), (1.5, -0.3, 2.0),
])
def test_jones_factorization_identity(p, alpha, lam):
    spec = weights.WeightSpec(alpha, lam)
    w1, w2 = weights.jones_factors(p, alpha, lam)
    radii = np.linspace(0.01, 2.5, 1000)
    direct = weights.weight(spec, radii)
    recon = weights.weight(w1, radii) * weights.weight(w2, radii) ** (1 - p)
    mask = np.isfinite(direct) & (direct > 0)
    np.testing.assert_allclose(recon[mask], direct[mask], rtol=1e-10)


def test_jones_rejects_bad_p():
    with pytest.raises(DomainError):
        weights.jones_factors(1.0, 0.0, 0.0)


def test_jones_witnesses_are_a1_type():
    # avg over random disks is dominated by a constant times the pointwise
    # minimum sampled inside the disk, with one constant per witness
    w1, w2 = weights.jones_factors(2.0, 0.0, 0.0)
    rng = np.random.default_rng(3)
    for spec in (w1, w2):
        worst = 0.0
        for _ in range(150):
            cx, cy = rng.uniform(-3, 3, size=2)
            radius = float(np.exp(rng.uniform(math.log(1e-3), math.log(2.0))))
            center = complex(cx, cy)
            avg = weights._disk_average(spec, 1.0, center, radius)
            ang = rng.uniform(0, 2 * math.pi, 64)
            rad = radius * np.sqrt(rng.uniform(0, 1, 64))
            pts = center + rad * np.exp(1j * ang)
            m = float(np.min(weights.weight(spec, pts)))
            if m > 0:
                worst = max(worst, avg / m)
        assert 0 < worst < 100.0


# ------------------------------------------------------------ A_p number

def test_ap_constant_of_constant_weight_is_one():
    est = weights.estimate_ap_constant(weights.WeightSpec(0.0, 0.0), 2.0,
                                       trials=50)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_ap_estimate_finite_and_deterministic():
    spec = weights.WeightSpec(0.5, 0.0)
    a = weights.estimate_ap_constant(spec, 2.0, trials=60, rng_seed=11)
    b = weights.estimate_ap_constant(spec, 2.0, trials=60, rng_seed=11)
    assert np.isfinite(a.value) and a.value >= 1.0 - 1e-9
    assert a.value == b.value


def test_ap_estimate_rejects_nonintegrable_alpha():
    spec = weights.WeightSpec(-1.5, 0.0)
    with pytest.raises(QuadratureOverflowError):
        weights.estimate_ap_constant(spec, 2.0, trials=40)
