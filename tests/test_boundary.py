"""Tests for the circle double-integral energies and their kernel."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from harmext import boundary, circle_map
from harmext.errors import DomainError
from harmext.orlicz import OrliczSpec, phi
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
    # V's table: A on the kernel nodes, interpolated in log t
    interp = np.interp(np.log(ts), boundary._KERNEL_LOG_NODES,
                       boundary.kernel_antiderivative(
                           params, boundary._KERNEL_NODES))
    exact = np.array([boundary.kernel_antiderivative(params, float(t))
                      for t in ts])
    np.testing.assert_allclose(interp, exact,
                               atol=1e-4, rtol=1e-4)


# ---------------------------------------------------------------------- U

def test_pair_energy_identity_constant_integrand():
    geom = boundary.PairGeometry.build(circle_map.identity())
    rep = boundary.evaluate_gauge_pair(geom, EnergyParams(2.0, 0.0, 0.0))
    assert rep.value == pytest.approx(4 * math.pi ** 2, rel=1e-3)


def test_pair_energy_rotation_invariant():
    params = EnergyParams(2.0, 0.3, 1.0)
    a, b = (boundary.evaluate_gauge_pair(boundary.PairGeometry.build(m),
                                         params)
            for m in (circle_map.identity(), circle_map.rotation_map(0.3)))
    assert b.value == pytest.approx(a.value, rel=1e-12)


def test_pair_energy_dimension_reduction_oracle():
    # for the identity the double integral reduces to a single average of
    # chord^alpha over the offset, computed here by independent quadrature
    alpha = 0.5
    rep = boundary.evaluate_gauge_pair(
        boundary.PairGeometry.build(circle_map.identity()),
        EnergyParams(2.0, alpha, 0.0))
    oracle, _ = quad(lambda u: (2 * math.sin(math.pi * u)) ** alpha, 0.0, 1.0)
    assert rep.value == pytest.approx((2 * math.pi) ** 2 * oracle, rel=1e-2)


def test_pair_energy_rings_positive_and_recorded():
    rep = boundary.evaluate_gauge_pair(
        boundary.PairGeometry.build(circle_map.piecewise_linear(PL)),
        EnergyParams(2.0, 0.0, 0.0))
    assert len(rep.per_level) == 12
    assert np.all(rep.per_level > 0)
    assert rep.value == pytest.approx(float(np.sum(rep.per_level)))


# ---------------------------------------------------------------------- V

def test_inverse_kernel_identity_mean_zero():
    # inner integral is the log-distance mean over the circle, which
    # vanishes at every boundary point
    rep = boundary.evaluate_inverse_kernel(
        boundary.inverse_kernel_geometries(circle_map.identity()),
        EnergyParams(2.0, 0.0, 0.0))
    assert abs(rep.value) <= 1e-3
    assert "signed_value" in rep.notes
    assert isinstance(rep.notes["negative_inner_count"], int)


def test_inverse_kernel_identity_negative_alpha():
    # alpha = -1/2 keeps the kernel positive on most chords, so the inner
    # integral is positive; oracle by direct 1-D quadrature of
    # 2 ((2 sin pi u)^(-1/2) - 1) over the offset
    rep = boundary.evaluate_inverse_kernel(
        boundary.inverse_kernel_geometries(circle_map.identity()),
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
    rep = boundary.evaluate_inverse_kernel(
        boundary.inverse_kernel_geometries(circle_map.identity()),
        EnergyParams(2.0, 0.5, 0.0))
    assert rep.value == 0.0
    assert rep.notes["signed_value"] < 0
    assert rep.notes["negative_inner_count"] > 0


def test_inverse_kernel_respects_plateau_inverse():
    # a piecewise-linear map with a strong kink still inverts cleanly
    m = circle_map.piecewise_linear(((0, 0), (0.25, 0.5), (1, 1)))
    rep = boundary.evaluate_inverse_kernel(
        boundary.inverse_kernel_geometries(m), EnergyParams(2.0, 0.5, 0.0))
    assert np.isfinite(rep.value) and rep.value > 0


# ---------------------------------------------------------- pair geometry

def ring_nodes(n_outer, n_inner, j):
    """Ring j's outer nodes x, its 2 n_inner offsets and its band 2^-(j+1)."""
    n_out = min(max(n_outer, 8 << j), 1 << 15)
    x = (np.arange(n_out) + 0.5) / n_out
    band = 2.0 ** -(j + 1)
    offs = band + (np.arange(n_inner) + 0.5) * band / n_inner
    return x, np.concatenate([offs, -offs]), band


def float_node_pair_build(m, n_outer, n_inner, rings):
    """The dense pair geometry from float nodes and (x + offset) % 1.0:
    per ring the source chords, the (n_out, 2 n_inner) image chords and
    the weight."""
    chords, image_chords, weights = [], [], []
    for j in range(1, rings + 1):
        x, offs, band = ring_nodes(n_outer, n_inner, j)
        ux = m.eval(x)
        uy = m.eval((x[:, None] + offs[None, :]) % 1.0)
        du = np.abs(uy - ux[:, None])
        du = np.minimum(du, 1.0 - du)
        d = np.minimum(np.abs(offs), 1.0 - np.abs(offs))
        chords.append(2.0 * np.abs(np.sin(np.pi * d)))
        image_chords.append(2.0 * np.abs(np.sin(np.pi * du)))
        weights.append(band / n_inner / x.size)
    return chords, image_chords, weights


def straddles(m, n_outer, n_inner, rings):
    """Per ring, (2 n_inner, n_out) True where a breakpoint of the lift, 0
    or 1 lies strictly inside the pair (x, x + offset)."""
    out = []
    for j in range(1, rings + 1):
        x, offs, _ = ring_nodes(n_outer, n_inner, j)
        y = x[None, :] + offs[:, None]
        lo, hi = np.minimum(x, y), np.maximum(x, y)
        out.append(np.searchsorted(m.lift.xs, hi, side="left")
                   > np.searchsorted(m.lift.xs, lo, side="right"))
    return out


def dense_ring_sums(float_build, params):
    """U's ring sums from ``float_node_pair_build``, Phi at every node."""
    spec = OrliczSpec(p=params.p, lam=params.lam)
    return np.array([
        (2 * math.pi) ** 2 * w * np.sum(phi(spec, im / c) * c ** params.alpha)
        for c, im, w in zip(*float_build)])


# a one-piece float-node chord is read as u(x + d) - u(x), which cancels
# to an absolute error of a few 2^-53: 1.35e-11 relative at ring 14 of
# pl_kinked, against chord(s d) from the slope
ONE_PIECE_RTOL = 1e-10

PAIR_POINTS = [EnergyParams(1.5, 0.25, 1.0), EnergyParams(2.0, -0.5, -0.5),
               EnergyParams(3.0, 0.5, 0.5)]


def check_against_float_nodes(m, spec):
    geom = boundary.PairGeometry.build(m, *spec)
    float_build = float_node_pair_build(m, *spec)
    chords, image_chords, weights = float_build
    assert geom.rings == list(range(1, spec[2] + 1))
    masks = straddles(m, *spec)
    _, piece_slope = np.unique(np.diff(m.lift.ys) / np.diff(m.lift.xs),
                               return_inverse=True)
    n_slopes = piece_slope.max() + 1
    for j, mask in enumerate(masks):
        assert np.array_equal(geom.chords[j], chords[j]), j
        assert geom.weights[j] == weights[j], j
        assert np.array_equal(geom.straddle_counts[j], mask.sum(axis=1)), j
        dense = (image_chords[j] / chords[j]).T
        counts = geom.slope_counts[j]
        head = geom.ratios[j][:counts.size].reshape(counts.shape)
        # Phi's arguments of the straddling pairs follow, in order of
        # offset, then node, bit for bit the float-node ratios
        assert np.array_equal(geom.ratios[j][counts.size:], dense[mask]), j
        # every other pair lies on the piece that holds its midpoint, and
        # is counted once on that piece's slope, whose ratio it has
        x, offs, _ = ring_nodes(*spec[:2], j + 1)
        mid = (x[None, :] + offs[:, None] / 2) % 1.0
        label = piece_slope[np.searchsorted(m.lift.xs, mid, "right") - 1]
        for o in range(offs.size):
            one = label[o][~mask[o]]
            assert np.array_equal(np.bincount(one, minlength=n_slopes),
                                  counts[o]), (j, o)
            np.testing.assert_allclose(head[o, one], dense[o][~mask[o]],
                                       rtol=ONE_PIECE_RTOL, err_msg=str(j))
        # a slope no pair has keeps 0, whose Phi is 0
        assert np.all(head[counts == 0] == 0.0), j
    for params in PAIR_POINTS:
        rep = boundary.evaluate_gauge_pair(geom, params)
        np.testing.assert_allclose(rep.per_level,
                                   dense_ring_sums(float_build, params),
                                   rtol=1e-13, err_msg=str(params))
        assert rep.notes["pair_nodes"] == sum(im.size for im in image_chords)
        assert rep.notes["straddling_nodes"] == sum(
            int(mask.sum()) for mask in masks)


@pytest.mark.parametrize("spec", [(256, 32, 14), (32, 4, 4)])
@pytest.mark.parametrize("name", ["identity", "rotation", "pl_mild",
                                  "pl_kinked", "staircase_s2"])
def test_pair_geometry_equals_the_float_node_build(fleet, name, spec):
    check_against_float_nodes(fleet[name], spec)


def test_pair_geometry_with_breakpoints_on_the_nodes():
    # 17/64, 81/128 and 201/256 are outer nodes of rings 1-2, 3 and 4: a
    # pair from such a node lies on the piece to its right when d > 0 and
    # on the piece to its left when d < 0
    m = circle_map.piecewise_linear(((0, 0), (17 / 64, 0.1), (81 / 128, 0.7),
                                     (201 / 256, 0.75), (1, 1)))
    check_against_float_nodes(m, (32, 4, 4))


def test_pair_energy_ignores_slopes_no_pair_has():
    # at deep rings no pair fits on the 2^-20-wide piece, and chord(s d)
    # of its slope 1e5 is no image chord; Phi of it overflows at p = 80,
    # which must not reach the sum as inf * 0
    m = circle_map.piecewise_linear(((0, 0), (0.5, 0.4),
                                     (0.5 + 2.0 ** -20, 0.5), (1, 1)))
    params = EnergyParams(80.0, 0.0, 0.0)
    rep = boundary.evaluate_gauge_pair(
        boundary.PairGeometry.build(m, diagonal_rings=14), params)
    np.testing.assert_allclose(
        rep.per_level,
        dense_ring_sums(float_node_pair_build(m, 256, 32, 14), params),
        rtol=1e-13)


@pytest.mark.parametrize("name", ["identity", "pl_kinked"])
def test_pair_energy_past_fifteen_rings(fleet, name):
    spec = (256, 32, 16)
    rep = boundary.evaluate_gauge_pair(
        boundary.PairGeometry.build(fleet[name], diagonal_rings=16),
        PAIR_POINTS[1])
    assert rep.levels == list(range(1, 17))
    np.testing.assert_allclose(
        rep.per_level,
        dense_ring_sums(float_node_pair_build(fleet[name], *spec),
                        PAIR_POINTS[1]), rtol=1e-13)


def test_pair_energy_at_the_deepest_ring_allowed():
    # on a rotation every image chord is its source chord: Phi = 1 at
    # (2, 0, 0), and ring j sums to (2 pi)^2 times its measure 2^-j
    # ring 48 puts its pairs on the grid 2^-(48 + log2 4 + 2) = 2^-52
    n_inner, rings = 4, 48
    geom = boundary.PairGeometry.build(circle_map.rotation_map(0.3),
                                       diagonal_rings=rings, n_inner=n_inner)
    rep = boundary.evaluate_gauge_pair(geom, EnergyParams(2.0, 0.0, 0.0))
    np.testing.assert_allclose(
        rep.per_level, 4 * math.pi ** 2 * 2.0 ** -np.arange(1, rings + 1),
        rtol=1e-15)


@pytest.mark.parametrize("n_inner,rings", [(32, 46), (4, 49), (32, 0)])
def test_pair_geometry_refuses_rings_off_the_exact_grid(n_inner, rings):
    with pytest.raises(DomainError, match="diagonal_rings"):
        boundary.PairGeometry.build(circle_map.identity(), n_inner=n_inner,
                                    diagonal_rings=rings)


@pytest.mark.parametrize("kw", [dict(n_inner=0), dict(n_inner=24),
                                dict(n_inner=32.0), dict(n_outer=0),
                                dict(n_outer=-256), dict(n_outer=100)])
def test_pair_geometry_needs_power_of_two_resolutions(kw):
    with pytest.raises(DomainError, match="power of two"):
        boundary.PairGeometry.build(circle_map.identity(), diagonal_rings=2,
                                    **kw)


# ------------------------------------------------------ object identity

def test_energies_are_the_maps_own_on_reused_ids():
    # a map freed right after use often hands its id() to the next map
    # built, so a geometry looked up by id would belong to another map
    params = EnergyParams(2.0, -0.25, 0.0)
    pair = dict(diagonal_rings=4, n_outer=32, n_inner=4)
    inverse = dict(n_outer=16, nodes_per_ring=4, total_rings=8)

    def u(breaks):
        geom = boundary.PairGeometry.build(
            circle_map.piecewise_linear(breaks), **pair)
        return boundary.evaluate_gauge_pair(geom, params).value

    def v(breaks):
        geoms = boundary.inverse_kernel_geometries(
            circle_map.piecewise_linear(breaks), **inverse)
        return boundary.evaluate_inverse_kernel(geoms, params).value

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
