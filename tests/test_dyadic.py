"""Tests for the dyadic annular decomposition of the disk.

Cell (j, k), 1 <= k <= 2^j, is the polar rectangle
1 - 2^(1-j) <= r <= 1 - 2^-j (r >= 0), 2 pi (k-1)/2^j <= theta <= 2 pi k/2^j.
PoissonExtension.level_samples samples |Dh| on a Gauss grid of each cell of
level j; these tests read the cell bounds back from that grid.
"""

import math

import numpy as np
import pytest

from harmext import circle_map
from harmext.poisson import _G4X, PoissonExtension

PL = ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))


@pytest.fixture(scope="module")
def ext_pl():
    return PoissonExtension(circle_map.piecewise_linear(PL))


def cell(ext, j, k):
    """(r_min, r_max, theta_min, theta_max) of cell (j, k) as sampled."""
    _, r_nodes, wr, ang_w = ext.level_samples(j)[j - 1]
    # the Gauss nodes are symmetric about the middle of the interval
    r_mid, r_width = float(np.mean(r_nodes)), math.fsum(wr)
    t_width = math.fsum(ang_w)
    return (r_mid - r_width / 2, r_mid + r_width / 2,
            (k - 1) * t_width, k * t_width)


def assert_samples_in_cell(ext, j, k):
    # the samples stored for cell index k-1 are |Dh| at the Gauss nodes
    # of the polar rectangle of cell (j, k)
    r_min, r_max, t_min, t_max = cell(ext, j, k)
    dh, r_nodes, _, _ = ext.level_samples(j)[j - 1]
    for ri in (0, 3):
        assert r_min < r_nodes[ri] < r_max
        for gi in (0, 3):
            theta = t_min + _G4X[gi] * (t_max - t_min)
            hz, hzb = ext.wirtinger(complex(r_nodes[ri] * np.exp(1j * theta)))
            direct = abs(hz) + abs(hzb)
            assert dh[ri, gi, k - 1] == pytest.approx(direct, rel=2e-6)


def test_cell_level_one_is_half_disk(ext_pl):
    r_min, r_max, t_min, t_max = cell(ext_pl, 1, 1)
    assert r_min == pytest.approx(0.0, abs=1e-15)
    assert r_max == pytest.approx(0.5, rel=1e-14)
    assert t_min == 0.0
    assert t_max == pytest.approx(math.pi, rel=1e-14)
    assert_samples_in_cell(ext_pl, 1, 1)


def test_cell_formula_instantiations(ext_pl):
    r_min, r_max, t_min, t_max = cell(ext_pl, 2, 4)
    assert (r_min, r_max) == pytest.approx((0.5, 0.75), rel=1e-14)
    assert t_min == pytest.approx(3 * math.pi / 2, rel=1e-14)
    assert t_max == pytest.approx(2 * math.pi, rel=1e-14)
    assert_samples_in_cell(ext_pl, 2, 4)
    r_min, r_max, t_min, t_max = cell(ext_pl, 3, 1)
    assert (r_min, r_max) == pytest.approx((0.75, 0.875), rel=1e-14)
    assert t_max == pytest.approx(math.pi / 4, rel=1e-14)
    assert_samples_in_cell(ext_pl, 3, 1)
