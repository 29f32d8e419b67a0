"""Tests for the harmonic extension and its weighted disk integrals."""

import math

import numpy as np
import pytest

from harmext import circle_map, poisson
from harmext.errors import DomainError, PrecisionError
from harmext.poisson import (_G4X, _JOIN_CHUNK, PoissonExtension,
                             _alias_half, _coefficient_grid, _power_series)
from harmext.report import EnergyParams

from conftest import wirtinger_fd

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
    hz, hzb = ext_identity.wirtinger(0.2j)
    assert abs(hz) + abs(hzb) == pytest.approx(1.0, abs=1e-9)


def _boundary_samples(boundary, n):
    """e^(2 pi i eval(k/n)), k = 0..n-1, in natural order."""
    return np.exp(2j * np.pi * boundary.eval(np.arange(n) / n))


def test_mean_value_property(ext_pl):
    # h(0) equals the boundary mean
    vals = _boundary_samples(ext_pl.boundary, 1 << 16)
    assert abs(ext_pl.extend(0.0) - vals.mean()) < 1e-8


def test_extension_rejects_boundary_points(ext_identity):
    with pytest.raises(DomainError):
        ext_identity.extend(1.0)
    with pytest.raises(DomainError):
        ext_identity.extend(0.999999999999)


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                 complex(-math.inf, 0.0)])
def test_extension_rejects_non_finite_points(bad):
    ext = PoissonExtension(circle_map.piecewise_linear(PL))
    for call in (ext.extend, ext.wirtinger):
        with pytest.raises(DomainError):
            call(bad)
        with pytest.raises(DomainError):
            call(np.array([0.3, bad]))


def test_level_samples_need_a_positive_level(ext_pl):
    for j in (0, -1):
        with pytest.raises(DomainError):
            ext_pl.level_samples(j)


def test_derivative_modes_agree(ext_pl):
    rng = np.random.default_rng(8)
    r = 0.95 * np.sqrt(rng.uniform(0, 1, 20))
    z = r * np.exp(2j * np.pi * rng.uniform(0, 1, 20))
    hz_a, hzb_a = ext_pl.wirtinger(z)
    hz_f, hzb_f = wirtinger_fd(ext_pl, z)
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


def _trapezoid(boundary, z, kernel, n=1 << 18):
    """Mean of kernel(z, w) phi(w) over n equispaced w on the circle."""
    t = np.arange(n) / n
    w = np.exp(2j * np.pi * t)
    phi = np.exp(2j * np.pi * boundary.eval(t))
    return np.array([np.mean(kernel(zz, w) * phi) for zz in z])


def _poisson(z, w):
    return (1 - abs(z) ** 2) / np.abs(w - z) ** 2


def _poisson_dz(z, w):
    d2 = np.abs(w - z) ** 2
    return -np.conj(z) / d2 + (1 - abs(z) ** 2) * np.conj(w - z) / d2 ** 2


def _poisson_dzbar(z, w):
    d2 = np.abs(w - z) ** 2
    return -z / d2 + (1 - abs(z) ** 2) * (w - z) / d2 ** 2


@pytest.mark.parametrize("name", ["pl_mild", "pl_kinked"])
def test_series_matches_trapezoid_kernel_quadrature(fleet, name):
    # independent oracle: the Poisson integral and its differentiated
    # kernels on a fixed grid, whose aliasing error is O(n^-2) here
    ext = PoissonExtension(fleet[name])
    rng = np.random.default_rng(17)
    for r in (0.3, 0.6, 0.8):
        z = r * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
        tol = 1e-9 / (1 - r)
        hz, hzb = ext.wirtinger(z)
        for got, kernel in ((ext.extend(z), _poisson), (hz, _poisson_dz),
                            (hzb, _poisson_dzbar)):
            want = _trapezoid(ext.boundary, z, kernel)
            assert np.max(np.abs(got - want)) < tol, (r, kernel.__name__)


def test_staircase_derivatives_where_node_doubling_failed(fleet):
    # the staircase points of the benchmark's pointwise workload at
    # |z| = 0.3 (numpy stream 3): trapezoid node doubling reached its cap
    # of 2^21 nodes there
    rng = np.random.default_rng(3)
    z = 0.3 * np.exp(2j * np.pi * rng.random(2))
    ext = PoissonExtension(fleet["staircase_s2"])
    hz, hzb = ext.wirtinger(z)
    hz_f, hzb_f = wirtinger_fd(ext, z)
    scale = np.abs(hz) + np.abs(hzb)
    assert np.max(np.abs(hz - hz_f) / scale) < 1e-5
    assert np.max(np.abs(hzb - hzb_f) / scale) < 1e-5


def test_point_past_the_term_cap_raises(ext_identity):
    # K = 37 / (1 - |z|) + 1 terms in floating point, far over the cap
    # of 2^20
    for method in (ext_identity.extend, ext_identity.wirtinger):
        with pytest.raises(PrecisionError, match="needs K = 3699999982 "):
            method(1 - 1e-8)


def test_point_values_do_not_depend_on_call_order(fleet):
    # a deeper point first computes more coefficients; the shallower
    # points after it must come out the same
    z = 0.3 * np.exp(2j * np.pi * np.array([0.1, 0.7]))
    fresh = PoissonExtension(fleet["staircase_s2"])
    after_deep = PoissonExtension(fleet["staircase_s2"])
    after_deep.extend(0.95)
    np.testing.assert_array_equal(after_deep.extend(z), fresh.extend(z))
    np.testing.assert_array_equal(after_deep.wirtinger(z),
                                  fresh.wirtinger(z))


@pytest.mark.parametrize("name", ["pl_kinked", "staircase_s2"])
def test_growing_series_keeps_exact_coefficients(fleet, name):
    # each larger K computes all its c_k again; since c_k depends on k
    # alone, the result must be what a fresh extension computes at the
    # final K in one go
    def point_needing(K):
        # K = int(37 / (1 - |z|)) + 1 terms
        return np.array([1.0 - 37.0 / (K - 0.5) + 0j])

    grown = PoissonExtension(fleet[name])
    for K in (38, 53, 93, 186, 371):
        grown.extend(point_needing(K))
        assert grown._point_coeffs.size == 2 * K + 1
    fresh = PoissonExtension(fleet[name])
    fresh.extend(point_needing(371))
    np.testing.assert_array_equal(grown._point_coeffs, fresh._point_coeffs)
    np.testing.assert_array_equal(grown._point_coeffs,
                                  fleet[name].fourier_coefficients(371))


@pytest.mark.parametrize("K", [1, 2, 38, 371, 37001])
def test_blocked_power_series_matches_horner(K):
    rng = np.random.default_rng(K)
    coeffs = rng.normal(size=K) + 1j * rng.normal(size=K)
    r = np.array([0.0, 0.3, 0.9, 1.0 - 37.0 / (K + 1)])
    z = r * np.exp(2j * np.pi * rng.random(r.size))
    horner = np.zeros(z.size, dtype=complex)
    for c in coeffs[::-1]:
        horner = horner * z + c
    # the size of the terms bounds the rounding of either order
    scale = np.abs(z)[:, None] ** np.arange(K) @ np.abs(coeffs)
    err = np.abs(_power_series(z, coeffs) - horner)
    assert np.all(err <= 1e-13 * scale), K


def test_staircase_points_near_the_circle_match_an_fft_oracle(fleet):
    # oracle: the series summed here with the FFT coefficients of 2^20
    # boundary samples, at the tolerance of the benchmark gate
    m = fleet["staircase_s2"]
    n = 1 << 20
    c = np.fft.fft(np.exp(2j * np.pi * m.eval(np.arange(n) / n))) / n
    z = 0.999 * np.exp(2j * np.pi * np.random.default_rng(9).random(3))
    k = np.arange(1, 40_000)
    zk = z[:, None] ** (k - 1)
    want_h = c[0] + z * (zk @ c[k]) + np.conj(z) * (np.conj(zk) @ c[-k])
    want_hz, want_hzb = zk @ (k * c[k]), np.conj(zk) @ (k * c[-k])
    ext = PoissonExtension(m)
    hz, hzb = ext.wirtinger(z)
    tol = 1e-7 / (1 - 0.999)
    for got, want in ((ext.extend(z), want_h), (hz, want_hz),
                      (hzb, want_hzb)):
        assert np.all(np.abs(got - want) <= tol * np.maximum(1, np.abs(want)))


# --------------------------------------------------------- bulk sampling

def test_slice_samples_match_pointwise(ext_pl):
    # the FFT radial-slice evaluation must agree with the direct kernel
    # quadrature at matching Gauss nodes
    j = 5
    dh, r_nodes, _, _ = ext_pl.level_samples(j)[j - 1]
    for ri in (0, 3):
        for gi in (1, 2):
            for cell_idx in (0, 7, 20):
                theta = 2 * math.pi * (cell_idx + _G4X[gi]) * 2.0 ** -j
                z = r_nodes[ri] * np.exp(1j * theta)
                hz, hzb = ext_pl.wirtinger(complex(z))
                direct = abs(hz) + abs(hzb)
                # the slice path sums the FFT coefficients of 2^14 boundary
                # samples while the pointwise path sums the exact ones;
                # agreement is limited by the aliasing of the FFT grid
                assert dh[ri, gi, cell_idx] == pytest.approx(direct,
                                                             rel=2e-6)


def test_level_samples_fill_the_level_annulus(ext_pl):
    # level j's cells span 1 - 2^(1-j) <= r <= 1 - 2^-j, and level 1
    # reaches down to the centre
    annuli = {1: (0.0, 0.5), 2: (0.5, 0.75), 3: (0.75, 0.875),
              4: (0.875, 0.9375)}
    levels = ext_pl.level_samples(4)
    assert len(levels) == 4
    for j, (r_min, r_max) in annuli.items():
        dh, r_nodes, wr, ang_w = levels[j - 1]
        assert dh.shape == (4, 4, 2 ** j)
        assert np.all((r_nodes > r_min) & (r_nodes < r_max))
        assert math.fsum(wr) == pytest.approx(r_max - r_min, rel=1e-14)
        assert math.fsum(ang_w) == pytest.approx(2 * math.pi / 2 ** j,
                                                 rel=1e-14)


@pytest.mark.parametrize("name", ["pl_kinked", "staircase_s2"])
def test_level_samples_do_not_depend_on_call_order(fleet, name):
    # the samples depend on the map and J alone: J = 9 built after J = 14,
    # whose top grid is 32 times finer, equals J = 9 built first, and J = 14
    # built after J = 9 equals J = 14 built first
    deep_first = PoissonExtension(fleet[name])
    shallow_first = PoissonExtension(fleet[name])
    deep_first.level_samples(14)
    shallow_first.level_samples(9)
    for J in (9, 14):
        for a, b in zip(deep_first.level_samples(J),
                        shallow_first.level_samples(J)):
            np.testing.assert_array_equal(a[0], b[0])


# |c_k| <= 1; the quarter-built grids 2^14..2^22, and eight halvings from
# 2^22, differ from the direct FFTs by at most 2.3e-16 on pl_kinked and
# the staircase
HALVING_ATOL = 1e-15


def _direct_grid(boundary, m):
    return np.fft.fft(_boundary_samples(boundary, m), norm="forward")


@pytest.mark.parametrize("name", ["pl_kinked", "staircase_s2"])
def test_quarter_built_grids_match_direct_ffts(fleet, name):
    # four quarter FFTs joined in place give c_0..c_(m-1) in natural order
    for e in range(14, 23):
        grid = _coefficient_grid(fleet[name], 1 << e)
        direct = _direct_grid(fleet[name], 1 << e)
        assert np.max(np.abs(grid - direct)) <= HALVING_ATOL, e


@pytest.mark.parametrize("name", ["pl_kinked", "staircase_s2"])
def test_halved_grids_match_direct_ffts(fleet, name):
    # c^(m/2)_k = c^(m)_k + c^(m)_(k+m/2): every grid halved down from
    # 2^22 is the FFT of its own boundary samples, up to rounding
    grid = _coefficient_grid(fleet[name], 1 << 22)
    for e in range(21, 13, -1):
        grid = _alias_half(grid)
        direct = _direct_grid(fleet[name], 1 << e)
        assert np.max(np.abs(grid - direct)) <= HALVING_ATOL, e


def _quarter_fft(samples):
    """The forward-scaled FFT of ``samples`` by the quarter transform of
    ``level_samples``, out of place: the FFTs y_r of the samples 4t + r,
    each column q twiddled by w^(rq), w = e^(-2 pi i/M), taken as the
    product of w^(r a) and w^(r (q - a)) for q's chunk start a, then a
    4-point DFT down the columns and a division by 4."""
    M = samples.size
    N = M // 4
    y = np.fft.fft(samples.reshape(N, 4).T, axis=1) / N
    q = np.arange(N)
    r = np.arange(1, 4)[:, None]
    offset = q % _JOIN_CHUNK
    twiddle = np.exp(2j * np.pi * (r * offset / -M)) \
        * np.exp(2j * np.pi * (r * (q - offset) / -M))
    z = np.concatenate([y[:1], y[1:] * twiddle])
    a, b = z[0] + z[2], z[0] - z[2]
    c, d = z[1] + z[3], (z[1] - z[3]) * -1j
    return np.concatenate([a + c, b + d, a - c, b - d]) / 4


@pytest.mark.parametrize("name", ["pl_kinked", "staircase_s2"])
def test_coefficient_grids_are_the_quarter_fft_bit_for_bit(fleet, name):
    # numpy's 4-point FFT across the rows, with its forward 1/4, gives the
    # bits of the hand-written butterfly and division by 4
    for e in range(14, 23):
        m = 1 << e
        np.testing.assert_array_equal(
            _coefficient_grid(fleet[name], m),
            _quarter_fft(_boundary_samples(fleet[name], m)), err_msg=str(e))


def _grid_size(r):
    need = int(37.0 / max(1.0 - r, 1e-12)) + 1
    length = 2 * min(need, 1 << 21)
    return min(max(1 << 14, 1 << (max(length, 1) - 1).bit_length()), 1 << 22)


def _level_phases(j, offsets):
    """e^(sign 2 pi i g l / 2^j) per offset, one table per sign, computed
    for level j alone."""
    col_index = np.arange(1 << j)
    return {sign: np.stack([np.exp(sign * 2j * np.pi * g * col_index / (1 << j))
                            for g in offsets]) for sign in (+1, -1)}


class _ReferenceStage:
    """The |Dh| stage computed the plain way.

    Each coefficient grid is either the quarter transform (``_quarter_fft``)
    of its own boundary samples, evaluated and exponentiated afresh (one
    grid per radius), or, with ``halve``, the first grid asked for, halved
    by out-of-place sums c[:m/2] + c[m/2:].  The grids are folded by
    ``poisson._slice_derivatives``, with each level's column phases
    computed for that level alone, or, with ``plain``, by a sum over a
    (rows x C) product per offset, with the scalings as explicit divisions
    and products.  ``level_samples`` must give the same bits as the
    halving form with the program's fold.
    """

    def __init__(self, boundary, halve, plain=False):
        self.boundary = boundary
        self.halve = halve
        self.plain = plain
        self.coeffs = None

    def fourier_coeffs(self, m):
        if self.coeffs is not None and self.coeffs.size == m:
            return self.coeffs
        if self.halve and self.coeffs is not None:
            # the radii come from the outside in, so m only shrinks
            assert m < self.coeffs.size
            while self.coeffs.size > m:
                h = self.coeffs.size // 2
                self.coeffs = self.coeffs[:h] + self.coeffs[h:]
            return self.coeffs
        self.coeffs = None
        self.coeffs = _quarter_fft(_boundary_samples(self.boundary, m))
        return self.coeffs

    def slice_derivatives(self, r, j, offsets):
        coeffs = self.fourier_coeffs(_grid_size(r))
        if not self.plain:
            return poisson._slice_derivatives(coeffs, r, j,
                                              _level_phases(j, offsets))
        C = 1 << j
        need = int(37.0 / max(1.0 - r, 1e-12)) + 1
        M = coeffs.size
        n_terms = max(min(need, M // 2), 1)
        k = np.arange(1, n_terms + 1)
        damp = k * np.exp((k - 1) * math.log(r))
        a = coeffs[1:n_terms + 1] * damp
        b = coeffs[M - n_terms:][::-1] * damp

        def fold(vec, sign):
            pad = (-vec.size) % C
            if pad:
                vec = np.concatenate([vec, np.zeros(pad, dtype=complex)])
            rows = vec.reshape(-1, C)
            row_index, col_index = np.arange(rows.shape[0]), np.arange(C)
            folded = np.empty((len(offsets), C), dtype=complex)
            for i, g in enumerate(offsets):
                row_phase = np.exp(sign * 2j * np.pi * g * row_index)
                col_phase = np.exp(sign * 2j * np.pi * g * col_index / C)
                folded[i] = (rows * row_phase[:, None]).sum(axis=0) \
                    * col_phase
            if sign > 0:
                return np.fft.ifft(folded, axis=1) * C
            return np.fft.fft(folded, axis=1)

        return fold(a, +1), fold(b, -1)

    def dh(self, j, r_nodes):
        """Level j's samples, its radii taken from the outside in."""
        offsets = [float(g) for g in _G4X]
        out = np.empty((4, 4, 1 << j))
        for ri in range(3, -1, -1):
            hz, hzb = self.slice_derivatives(float(r_nodes[ri]), j, offsets)
            out[ri] = np.abs(hz) + np.abs(hzb)
        return out


@pytest.mark.parametrize("name", ["identity", "rotation", "pl_mild",
                                  "pl_kinked", "staircase_s2"])
def test_level_samples_are_the_reference_bit_for_bit(fleet, name):
    # the in-place quarter transform and join, the in-place halving, the
    # forward scaling and the column phases sliced from level J's change
    # no bit of the samples
    deepest = 14 if name in ("pl_kinked", "staircase_s2") else 12
    ext = PoissonExtension(fleet[name])
    ref = _ReferenceStage(fleet[name], halve=True)
    levels = ext.level_samples(deepest)
    for j in range(deepest, 0, -1):
        dh, r_nodes, _, _ = levels[j - 1]
        assert np.array_equal(dh, ref.dh(j, r_nodes)), j


@pytest.mark.parametrize("name", ["identity", "rotation", "pl_mild",
                                  "pl_kinked", "staircase_s2"])
def test_shallow_samples_are_one_grid_per_radius_bit_for_bit(fleet, name):
    # up to level 7 every radius asks for the 2^14 grid, so nothing is
    # halved and the samples are those of a fresh FFT per radius
    ext = PoissonExtension(fleet[name])
    ref = _ReferenceStage(fleet[name], halve=False)
    for J in range(1, 8):
        for j, (dh, r_nodes, _, _) in enumerate(ext.level_samples(J), 1):
            assert np.array_equal(dh, ref.dh(j, r_nodes)), (J, j)


@pytest.mark.parametrize("name,J", [
    ("identity", 14), ("rotation", 14), ("pl_mild", 14), ("pl_kinked", 14),
    ("staircase_s2", 14), ("pl_kinked", 16)])
def test_tiled_fold_matches_the_plain_fold(fleet, poisson_fleet, name, J):
    # the tiled products over whole rows, with the damping split into
    # r^(qC) qC and r^l (l + 1), round differently from a plain sum per
    # offset over the series cut at K terms, and add terms below r^K;
    # the largest deviation seen is 2.7e-14
    got = poisson_fleet(name).level_samples(J) if J == 14 else \
        PoissonExtension(fleet[name]).level_samples(J)
    ref = _ReferenceStage(fleet[name], halve=True, plain=True)
    for j in range(J, 0, -1):
        dh, r_nodes, _, _ = got[j - 1]
        np.testing.assert_allclose(dh, ref.dh(j, r_nodes), rtol=1e-12,
                                   atol=0, err_msg=str(j))


@pytest.mark.parametrize("J", [14, 16])
def test_column_phases_are_the_level_phases_bit_for_bit(J):
    # level j reads level J's table at stride 2^(J-j), and the -1 sign
    # its conjugate
    offsets = [float(g) for g in _G4X]
    table = poisson._column_phases(J)
    for j in range(1, J + 1):
        sliced = table[:, ::1 << (J - j)]
        want = _level_phases(j, offsets)
        assert np.array_equal(sliced, want[+1]), j
        assert np.array_equal(np.conj(sliced), want[-1]), j


def test_fold_tiles_stay_small_and_rows_stay_in_the_grid():
    # every radius of levels 1..16 reads Q whole rows of 2^j inside the
    # first and the last half of its grid, and each (8 x Q) x (Q x tile)
    # product makes at most 2^16 multiply-adds: OpenBLAS 0.3.31 ran
    # 8 x 20 x 256 on the calling thread and woke a second at 8 x 36 x 256
    for j in range(1, 17):
        C = 1 << j
        for r in poisson._level_nodes(j)[0]:
            M = poisson._grid_size(float(r))
            n_terms = min(poisson._series_terms(float(r)), M // 2)
            Q = -(-n_terms // C)
            assert Q * C <= M // 2, (j, r)
            assert 8 * Q * poisson._FOLD_TILE <= 65_536, (j, r)


def test_levels_the_series_cap_would_cut_raise_before_sampling():
    # level 17's innermost radius would drop r^(2^21) = 3.8e-14 of its
    # series, past the 1e-14 allowed; level 16 drops at most 1.4e-15
    ext = PoissonExtension(circle_map.identity())
    params = EnergyParams(2.0, 0.0, 0.0)
    for call in (lambda: ext.level_samples(17),
                 lambda: ext.kernel_weight_integral(params, 17),
                 lambda: ext.kernel_gauge_integral(params, 18)):
        with pytest.raises(PrecisionError,
                           match=r"level 1[78] needs \d+ series terms .* "
                                 r"over the cap of 2097152"):
            call()
    assert not ext._samples


def test_level_samples_cached(ext_pl):
    a = ext_pl.level_samples(4)
    b = ext_pl.level_samples(4)
    assert a is b


def test_extensions_compare_by_their_maps():
    a, b = (PoissonExtension(circle_map.identity()) for _ in range(2))
    a.extend(0.5)
    b.extend(0.5)
    a.level_samples(2)
    assert a == b
    assert a != PoissonExtension(circle_map.piecewise_linear(PL))


def test_extension_caches_are_not_arguments():
    with pytest.raises(TypeError):
        PoissonExtension(circle_map.identity(), _samples={})


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


@pytest.mark.parametrize("name", ["pl_mild", "pl_kinked"])
def test_tail_model_agrees_two_levels_deeper(fleet, name):
    # on the piecewise-linear maps the j^lam model of the levels past J
    # holds: i1 and i2 completed by their tails at J = 14 and at J = 16
    # agree to 6.4e-8 at most (pl_kinked at (2, 0, 0)).  The staircase is
    # left out: there the model undershoots, by up to 2.4e-3
    ext = PoissonExtension(fleet[name])
    for point in ((2.0, 0.0, 0.0), (3.0, 0.5, 0.5), (2.0, 0.5, -0.5)):
        params = EnergyParams(*point)
        for integral in (ext.kernel_weight_integral,
                         ext.kernel_gauge_integral):
            a, b = (rep.value + rep.notes["tail_estimate"]
                    for rep in (integral(params, 14), integral(params, 16)))
            assert a == pytest.approx(b, rel=2e-7, abs=0), (point, integral)


def test_integral_reports_are_cached_consistently(ext_pl):
    a = ext_pl.kernel_weight_integral(EnergyParams(2.0, 0.0, 0.0), 8)
    b = ext_pl.kernel_weight_integral(EnergyParams(2.0, 0.0, 0.0), 8)
    np.testing.assert_array_equal(a.per_level, b.per_level)
    assert a.value == b.value


def test_integral_level_validation(ext_identity):
    with pytest.raises(DomainError):
        ext_identity.kernel_weight_integral(EnergyParams(2.0, 0.0, 0.0), 0)
