"""Tests for the dyadic level-sum energies."""

import math

import numpy as np
import pytest

from harmext import circle_map, discrete
from harmext.cantor import make_staircase_map
from harmext.errors import DomainError
from harmext.report import EnergyParams

PL = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))


def test_identity_length_power_closed_form():
    rep = discrete.length_power_energy(circle_map.identity(),
                                       EnergyParams(2.0, 0.0, 0.0), 20)
    expected = 4 * math.pi ** 2 * (1 - 2.0 ** -20)
    assert rep.value == pytest.approx(expected, rel=1e-12)
    assert rep.classification == "converged"


def test_piecewise_linear_level_one_term():
    rep = discrete.length_power_energy(circle_map.piecewise_linear(PL),
                                       EnergyParams(2.0, 0.0, 0.0), 4)
    # two level-1 arcs of image length pi/2 and 3 pi/2
    expected = (math.pi / 2) ** 2 + (3 * math.pi / 2) ** 2
    assert rep.per_level[0] == pytest.approx(expected, rel=1e-12)


def test_identity_critical_alpha_flat_levels():
    rep = discrete.length_power_energy(circle_map.identity(),
                                       EnergyParams(2.0, -1.0, 0.0), 16)
    assert np.ptp(rep.per_level) <= 1e-9 * rep.per_level[0]
    assert rep.classification == "diverging"
    assert abs(rep.growth_exponent) < 0.05


def test_gauge_ratio_equals_length_power_at_unit_ratio():
    params = EnergyParams(2.0, 0.0, 0.0)
    e1 = discrete.length_power_energy(circle_map.identity(), params, 20)
    e2 = discrete.gauge_ratio_energy(circle_map.identity(), params, 20)
    assert e2.value == pytest.approx(e1.value, rel=1e-12)


def test_gauge_ratio_constant_factorization():
    # identity has ratio 1 in every cell, so lam only scales by ln^lam(e+1)
    base = discrete.gauge_ratio_energy(circle_map.identity(),
                                       EnergyParams(2.0, 0.0, 0.0), 20)
    rep = discrete.gauge_ratio_energy(circle_map.identity(),
                                      EnergyParams(2.0, 0.0, 1.0), 20)
    assert rep.value == pytest.approx(base.value * math.log(math.e + 1),
                                      rel=1e-12)


def test_rotation_invariance_exact():
    params = EnergyParams(1.5, 0.3, -1.0)
    a = discrete.length_power_energy(circle_map.identity(), params, 10)
    b = discrete.length_power_energy(circle_map.rotation_map(0.37), params, 10)
    assert a.value == b.value
    c = discrete.gauge_ratio_energy(circle_map.rotation_map(0.37), params, 10)
    d = discrete.gauge_ratio_energy(circle_map.identity(), params, 10)
    assert c.value == d.value


def test_cumulative_monotone_in_levels():
    m = circle_map.piecewise_linear(PL)
    rep = discrete.length_power_energy(m, EnergyParams(2.0, 0.5, 1.0), 14)
    cum = rep.cumulative()
    assert np.all(np.diff(cum) >= 0)
    assert cum[-1] == pytest.approx(rep.value, rel=1e-12)


@pytest.mark.parametrize("breakpoints,first", [
    (((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)), 1),
    (((0.0, 0.0), (0.25, 0.5), (0.75, 0.6), (1.0, 1.0)), 2)])
@pytest.mark.parametrize("p,alpha,lam", [
    (2.0, 0.0, 0.0), (1.5, -0.25, 1.0), (3.0, 0.5, -1.0)])
def test_e1_level_sums_of_pl_maps_in_closed_form(breakpoints, first, p,
                                                 alpha, lam):
    # from the first level whose grid holds every breakpoint, each cell
    # lies inside one piece of width len and slope s, so level j sums
    # len 2^j (2 pi s 2^-j)^p (2 pi 2^-j)^(2+alpha-p) j^lam over the pieces
    m = circle_map.piecewise_linear(breakpoints)
    levels = range(first, 61)
    got = discrete.level_sums_for_range(m, EnergyParams(p, alpha, lam),
                                        levels)
    (x0, y0), pieces = breakpoints[0], []
    for x1, y1 in breakpoints[1:]:
        pieces.append((x1 - x0, (y1 - y0) / (x1 - x0)))
        x0, y0 = x1, y1
    arc = [2 * math.pi * 2.0 ** -j for j in levels]
    want = [math.fsum(w * 2.0 ** j * (s * a) ** p for w, s in pieces)
            * a ** (2 + alpha - p) * j ** lam for j, a in zip(levels, arc)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def test_deep_levels_via_grouped_increments():
    # staircase maps support levels far beyond any enumerable cell budget
    m = make_staircase_map("power", 4.0 / 3.0, 11)
    params = EnergyParams(1.5, -0.5, 0.0)
    vals = discrete.level_sums_for_range(m, params, [150, 200, 304])
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)


def test_block_sums_partition_level_range():
    m = make_staircase_map("power", 2.0, 10)
    params = EnergyParams(1.5, -0.5, 0.0)
    blocks = discrete.block_sums(m, params, [4, 8, 12], "length_power")
    direct = discrete.level_sums_for_range(m, params, range(5, 13))
    assert blocks.sum() == pytest.approx(direct.sum(), rel=1e-12)
    with pytest.raises(DomainError):
        discrete.block_sums(m, params, [8, 4])


def test_level_sum_past_float_range_is_inf():
    # at alpha = -200 the terms of the deep levels sit at the exp clip
    # (about 8e307), so those level sums leave the float range
    rep = discrete.length_power_energy(circle_map.identity(),
                                       EnergyParams(2.0, -200.0, 0.0), 10)
    assert np.all(np.isfinite(rep.per_level[:7]))
    assert np.all(rep.per_level[7:] == math.inf) and rep.value == math.inf


def test_functional_name_validation():
    m = circle_map.identity()
    with pytest.raises(DomainError):
        discrete.level_sums_for_range(m, EnergyParams(2, 0, 0), [3], "e3")
    with pytest.raises(DomainError):
        discrete.length_power_energy(m, EnergyParams(2, 0, 0), 0)


def test_report_serialization_roundtrip():
    rep = discrete.length_power_energy(circle_map.identity(),
                                       EnergyParams(2.0, 0.0, 0.0), 8)
    d = rep.to_json_dict()
    assert d["functional"] == "length_power"
    assert d["levels"] == list(range(1, 9))
    assert d["value"] == pytest.approx(sum(d["per_level"]))
    rows = rep.to_csv_rows()
    assert len(rows) == 8
    assert rows[-1][3] == pytest.approx(rep.value)
