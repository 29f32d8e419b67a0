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


@pytest.mark.parametrize("bad", [math.nan, -0.5, -math.inf])
def test_weight_refuses_nan_and_negative_radii(bad):
    spec = weights.WeightSpec(0.5, 1.0)
    with pytest.raises(DomainError):
        weights.weight_radial(spec, bad)
    with pytest.raises(DomainError):
        weights.weight_radial(spec, np.array([0.5, bad]))
    if math.isnan(bad):
        with pytest.raises(DomainError):
            weights.weight(spec, complex(bad, 0.0))


def test_weight_at_infinity_is_the_far_constant():
    spec = weights.WeightSpec(0.5, 2.0)
    far = math.log(2.0) ** 2.0
    assert weights.weight_radial(spec, math.inf) == far
    assert weights.weight(spec, complex(math.inf, 0.0)) == far


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


@pytest.mark.parametrize("trials", [3.0, "3", None])
def test_ap_estimate_rejects_non_integer_trials(trials):
    with pytest.raises(DomainError, match="integer"):
        weights.estimate_ap_constant(weights.WeightSpec(0.0, 0.0), 2.0,
                                     trials=trials)


def test_ap_estimate_takes_numpy_integer_trials():
    spec = weights.WeightSpec(0.5, 0.0)
    assert weights.estimate_ap_constant(spec, 2.0, trials=np.int64(5)) \
        == weights.estimate_ap_constant(spec, 2.0, trials=5)


# ------------------------------------------------- disk quadrature, bits
# _disk_average runs each refinement stage as one array pass over all
# panels; the reference is the loop over panels that it replaced, and the
# two must agree bit for bit, error messages included.

def _disk_average_by_panels(spec, power, center, radius):
    c = abs(center)
    lo = max(0.0, c - radius)
    hi = c + radius

    def ang(rho):
        if c == 0.0:
            return np.full_like(rho, 2 * math.pi)
        with np.errstate(divide="ignore", invalid="ignore"):
            cosv = (c * c + rho * rho - radius * radius) / (2 * c * rho)
        return 2 * np.arccos(np.clip(cosv, -1.0, 1.0))

    edges = [lo, hi]
    if lo < 1.0 < hi:
        scale = max(hi - 1.0, 1.0 - lo)
        for m in range(1, 40):
            step = scale * 2.0 ** -m
            if 1.0 - step > lo:
                edges.append(1.0 - step)
            if 1.0 + step < hi:
                edges.append(1.0 + step)
            if step < 1e-13:
                break
        edges.append(1.0)
    edges = np.unique(np.asarray(edges, dtype=float))

    prev = None
    history = []
    n = weights._REFINE_START
    for _ in range(weights._MAX_REFINES + 1):
        total = 0.0
        measure = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            rho = a + (np.arange(n) + 0.5) * (b - a) / n
            vals = weights.weight_radial(spec, rho)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = vals ** power
            slab = rho * ang(rho) * (b - a) / n
            total += float(np.sum(vals * slab))
            measure += float(np.sum(slab))
        total /= measure
        history.append(total)
        if prev is not None and np.isfinite(total):
            denom = max(abs(total), 1e-300)
            if abs(total - prev) / denom < weights._CONVERGE_RTOL:
                return total
        prev = total
        n *= 2

    if not np.isfinite(history[-1]):
        raise QuadratureOverflowError(
            f"disk average of w^{power:g} is non-finite (alpha={spec.alpha}, "
            f"lam={spec.lam})")
    tail = history[-3:]
    if all(b > a * 1.02 for a, b in zip(tail[:-1], tail[1:])):
        raise QuadratureOverflowError(
            f"disk average of w^{power:g} keeps growing under refinement "
            f"(alpha={spec.alpha}, lam={spec.lam}): {tail}")
    return history[-1]


def _outcome(fn, *args):
    # the panel loop warned where a weight of 0 met a negative power
    try:
        with np.errstate(divide="ignore"):
            return fn(*args).hex()
    except QuadratureOverflowError as exc:
        return f"error: {exc}"


DISKS = {
    "centred_inside": (0j, 0.5),
    "centred_straddling": (0j, 1.5),
    "centred_past_far_field": (0j, 2.5),
    "inside_off_centre": (0.2 + 0.1j, 0.1),
    "outside": (3.0 - 1.0j, 0.5),
    "straddling": (1.0 + 0.0j, 0.3),
    "straddling_small": (0.6 + 0.8j, 1e-4),
    "straddling_wide": (0.5j, 0.7),
    "straddling_from_outside": (-2.5 + 1.0j, 2.0),
}


@pytest.mark.parametrize("alpha,lam", [
    (0.5, 1.0), (-0.5, 0.0), (0.0, -1.0), (1.5, 2.0), (-0.9, 3.0)])
@pytest.mark.parametrize("disk", sorted(DISKS))
def test_disk_average_is_the_panel_loop_bit_for_bit(disk, alpha, lam):
    spec = weights.WeightSpec(alpha, lam)
    center, radius = DISKS[disk]
    for power in (1.0, 1.0 / (1.0 - 1.5), 1.0 / (1.0 - 2.0),
                  1.0 / (1.0 - 3.0)):
        args = (spec, power, center, radius)
        assert _outcome(weights._disk_average, *args) \
            == _outcome(_disk_average_by_panels, *args), power


@pytest.mark.parametrize("alpha,disk,kind", [
    (-1.5, "straddling_from_outside", "keeps growing"),
    (-1.0, "straddling_from_outside", "keeps growing"),
    (-1.5, "straddling", "non-finite"),
    (-400.0, "straddling_small", "non-finite")])
def test_disk_average_errors_are_the_panel_loops(alpha, disk, kind):
    args = (weights.WeightSpec(alpha, 0.0), 1.0, *DISKS[disk])
    got = _outcome(weights._disk_average, *args)
    assert got.startswith("error:") and kind in got
    assert got == _outcome(_disk_average_by_panels, *args)


def test_zero_weight_to_a_negative_power_is_infinite_not_a_warning():
    # midpoints round onto the circle, where delta^1.5 is 0; 0^-1 is +inf
    # (the runtime warning is an error under this suite's settings)
    spec = weights.WeightSpec(1.5, 2.0)
    with pytest.raises(QuadratureOverflowError, match="non-finite"):
        weights._disk_average(spec, -1.0, 0j, 1.5)
