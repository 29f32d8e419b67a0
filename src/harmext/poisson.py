"""Poisson (harmonic) extension of a circle map and its energy integrals.

The extension of boundary data phi is

    h(z) = (1/2pi) int P(z, w) phi(w) |dw|,
    P(z, w) = (1 - |z|^2) / |w - z|^2,   w on the unit circle,

and the differential is measured by the operator norm

    |Dh|(z) = |h_z(z)| + |h_zbar(z)|.

Pointwise evaluation sums the Fourier series of h with the exact
coefficients c_k of phi (``CircleMap.fourier_coefficients``, which the
lift gives in closed form over its pieces, or by the staircase's
self-similar recursion):

    h(z)      = c_0 + sum_{k>=1} (c_k z^k + c_{-k} zbar^k),
    h_z(z)    = sum_{k>=1} k c_k z^(k-1),
    h_zbar(z) = sum_{k>=1} k c_{-k} zbar^(k-1),

each cut at K = floor(37 / (1 - |z|_max)) + 1 terms, past which |z|^k is
below 1e-16.  A point that needs more than 2^20 terms (|z| > 1 - 3.5e-5)
raises PrecisionError naming its K.  The coefficients for the largest K
asked so far are kept on the extension; a larger K computes all of them
again, which gives the same bits for the ones held, since each c_k
depends on k alone.  Each series is summed in blocks of B = ceil(sqrt(K))
terms (``_power_series``): a (points x B) table of powers, one matrix
product for the block sums and Horner's rule in z^B over the blocks,
about sqrt(K) array steps in place of K.  The tests check h_z and h_zbar
against central differences of ``extend``.

The weighted Dirichlet-type integrals

    kernel_weight_integral ("I1"): int |Dh|^p delta^alpha log^lam(2/delta)
    kernel_gauge_integral  ("I2"): int Phi_{p,lam}(|Dh|) delta^alpha

are accumulated cell-by-cell over the dyadic decomposition up to level J,
with 4x4 Gauss nodes per cell.  Level j splits the circle into 2^j arcs of
angle 2 pi 2^-j and pairs the k-th arc with the polar rectangle

    Q_{j,k} = { r e^{i theta} : 1 - 2^(1-j) <= r <= 1 - 2^-j,
                                 theta in the k-th arc },

so the cells of levels 1..J tile the disk minus a boundary annulus of
width 2^-J (the level-1 cells reach down to r = 0).

For the bulk sampling the harmonic series
h_z = sum k c_k z^(k-1), h_zbar = sum k c_{-k} zbar^(k-1) (c_k the FFT
coefficients of the boundary samples) is evaluated on radial slices by
index folding -- exactly the trapezoid kernel quadrature, resummed, which
keeps level J ~ 16 affordable.  Each Gauss radius of a level writes its
damped series once into a zero-padded (rows x 2^j) buffer and folds it
for all four angular offsets, adding the rows one at a time, with one FFT
over the stack of four; the column phases of the offsets are computed
once per level and shared by its four radii.  A radius is cut at 2^21
series terms, and a level whose first dropped power r^n exceeds 1e-14
(every level past 16) raises PrecisionError before any grid is built.
The samples of levels 1..J are one build (``level_samples(J)``), cached
per J: a ``PoissonExtension`` is the map-only stage of I1 and I2, built
once per ``energy`` or ``sweep`` command (``cli.STAGES``) and evaluated at
every parameter point.  Radius r folds the FFT coefficients of m(r)
boundary samples e^{2 pi i eval(k/m)}, m(r) >= 2^14 the least power of
two that holds twice its series length (2^21 at level 14's outermost
radius).  A build transforms only the largest grid, in place, by Bailey's
four-step FFT (J. Supercomputing 4, 1990; ``_coefficient_grid``): four
FFTs of the samples k = 4t + r, each a quarter of the grid, so pocketfft's
work buffers are a quarter of what one FFT of the whole grid takes, then
one pass over chunks of columns that twiddles them and takes a 4-point
DFT across the rows, leaving c_0..c_(m-1) in natural order.  It walks the
radii from the outside in, so m(r) never grows; before each radius that
needs fewer samples it halves the grid in place by the trapezoid aliasing
identity c^(m/2)_k = c^(m)_k + c^(m)_(k+m/2) (``_alias_half``; Trefethen
& Weideman, SIAM Rev. 56, 2014).  The grid differs from a single FFT of
the same samples by rounding only (at most 2.3e-16 for m = 2^14..2^22 on
the tested maps), and so does a halved grid from the FFT of its own
samples.  The samples depend on (map, J) alone, and the extension holds
no grid afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circle_map import CircleMap
from .errors import DomainError, PrecisionError
from .orlicz import OrliczSpec, phi
from .report import EnergyParams, EnergyReport, finalize

_GAUSS4_X, _GAUSS4_W = np.polynomial.legendre.leggauss(4)
# nodes/weights rescaled to (0, 1)
_G4X = 0.5 * (_GAUSS4_X + 1.0)
_G4W = 0.5 * _GAUSS4_W

_SERIES_DECAY = 37.0          # r^n < 1e-16 once n > 37 / (1 - r)
_MAX_SERIES_TERMS = 1 << 20   # pointwise terms, |z| <= 1 - 3.5e-5
_MAX_SLICE_TERMS = 1 << 21    # damped series terms per radius
_SLICE_CUT = 1e-14            # largest first dropped power r^n allowed
_RADIX = 4                    # rows of the coefficient grid's build
_JOIN_CHUNK = 1 << 12         # columns per step of its join, 64 KB a row


def _level_nodes(j: int):
    """Gauss radii of level j's annulus and their radial weights."""
    r_min = max(0.0, 1.0 - 2.0 ** (1 - j))
    width = 1.0 - 2.0 ** -j - r_min
    return r_min + _G4X * width, _G4W * width


def _series_terms(r: float) -> int:
    """K = floor(37 / (1 - r)) + 1: past K terms, r^n < 1e-16 (0 <= r < 1)."""
    return int(_SERIES_DECAY / max(1.0 - r, 1e-12)) + 1


def _check_level_terms(j: int):
    """PrecisionError if level j's series would be cut where r^n > 1e-14.

    The outermost radius needs the most terms and drops the largest
    power, so it speaks for the level.
    """
    r = float(_level_nodes(j)[0][-1])
    need = _series_terms(r)
    if need > _MAX_SLICE_TERMS and r ** _MAX_SLICE_TERMS > _SLICE_CUT:
        raise PrecisionError(
            f"level {j} needs {need} series terms at r = {r!r}, over the "
            f"cap of {_MAX_SLICE_TERMS} (r^{_MAX_SLICE_TERMS} = "
            f"{r ** _MAX_SLICE_TERMS:.1e} > {_SLICE_CUT:g})")


def _grid_size(r: float) -> int:
    """Size m(r) of the coefficient grid for radius r: the power of two
    that holds both halves of r's series, 2^14 <= m <= 2^22."""
    return max(1 << 14, 1 << (2 * min(_series_terms(r), _MAX_SLICE_TERMS) - 1)
               .bit_length())


def _alias_half(grid: np.ndarray) -> np.ndarray:
    """c^(m/2)_k = c^(m)_k + c^(m)_(k+m/2), the forward-scaled FFT of every
    other sample, computed in place in the first half of ``grid``."""
    half = grid.size // 2
    grid[:half] += grid[half:]
    return grid[:half]


def _slice_derivatives(coeffs: np.ndarray, r: float, j: int, offsets,
                       col_phases):
    """h_z and h_zbar at r * exp(2 pi i (l + g)/2^j), l = 0..2^j-1.

    One row per angular offset g in ``offsets``: each returned array has
    shape (len(offsets), 2^j).  ``col_phases[sign]`` holds
    e^(sign 2 pi i g l / 2^j) per offset, shared by the radii of the
    level.  Folds the damped series of the FFT grid ``coeffs`` into 2^j
    residue classes; the result is the trapezoid kernel quadrature with
    the full grid, evaluated exactly on the slices.
    """
    C = 1 << j
    M = coeffs.size
    n_terms = max(min(_series_terms(r), M // 2), 1)
    # k r^(k-1), k = 1..n_terms, in one buffer (r > 0: a Gauss radius)
    damp = np.arange(n_terms) * math.log(r)
    np.exp(damp, out=damp)
    damp *= np.arange(1, n_terms + 1)
    # the series vec[m], m = k-1 = 0..n_terms-1, zero-padded to whole
    # rows of C: h_z takes coeffs[k], h_zbar coeffs[M - k], k = 1..n_terms,
    # as slices (n_terms <= M/2, so neither wraps)
    rows = np.zeros((-(-n_terms // C), C), dtype=complex)
    series = rows.reshape(-1)[:n_terms]
    row_index = np.arange(rows.shape[0])
    term = np.empty((len(offsets), C), dtype=complex)

    def fold(sign):
        # value_l = sum_m vec[m] * e^(sign * 2 pi i m (l+g)/C); the rows
        # are added one at a time, in the order .sum(axis=0) adds them
        # (a matrix product over the rows would round differently)
        row_phase = np.stack([np.exp(sign * 2j * np.pi * g * row_index)
                              for g in offsets])
        folded = np.multiply(rows[0], row_phase[:, :1])
        for q in range(1, rows.shape[0]):
            np.multiply(rows[q], row_phase[:, q:q + 1], out=term)
            folded += term
        folded *= col_phases[sign]
        # C is a power of two, so skipping ifft's 1/C is exact
        if sign > 0:
            return np.fft.ifft(folded, axis=1, norm="forward")
        return np.fft.fft(folded, axis=1)

    np.multiply(coeffs[1:n_terms + 1], damp, out=series)
    hz = fold(+1)
    np.multiply(coeffs[M - n_terms:][::-1], damp, out=series)
    return hz, fold(-1)


def _exp_turns(turns: np.ndarray) -> np.ndarray:
    """e^(2 pi i t) of positions t in turns, in one fresh array."""
    out = np.multiply(turns, 2j * np.pi)
    return np.exp(out, out=out)


def _coefficient_grid(boundary: CircleMap, M: int) -> np.ndarray:
    """c_k = (1/M) sum_n e^(2 pi i eval(n/M)) e^(-2 pi i k n/M), k = 0..M-1.

    Bailey's four-step FFT in one M-point buffer, M >= 2^14 a power of
    two.  Row r of ``grid.reshape(4, M/4)`` gets the boundary samples at
    n = 4t + r and their forward-scaled FFT y_r, one row at a time, so
    pocketfft's work buffers are a quarter of the grid.  The join then
    walks the columns q in chunks of ``_JOIN_CHUNK``: with z_r = w^(rq) y_r
    (w = e^(-2 pi i/M)), c_(q + sM/4) = (1/4) sum_r (-i)^(rs) z_r[q], a
    4-point DFT across the rows, written back over the same columns.  The
    twiddles w^(rq), q = a + t, are products of a table over the chunk
    starts a and one over t < ``_JOIN_CHUNK``.
    """
    N = M // _RADIX
    grid = np.empty(M, dtype=complex)
    rows = grid.reshape(_RADIX, N)
    for r, row in enumerate(rows):
        # (4t + r)/M is the float np.arange(M)/M holds at index 4t + r
        np.multiply(boundary.eval(np.arange(r, M, _RADIX) / M), 2j * np.pi,
                    out=row)
        np.exp(row, out=row)
        # N is a power of two, so the 1/N scaling is exact
        np.fft.fft(row, norm="forward", out=row)
    r_col = np.arange(1, _RADIX)[:, None]
    head = _exp_turns(r_col * np.arange(0, N, _JOIN_CHUNK) / -M)
    # the join's 1/4 rides on the twiddles (and on row 0), exactly
    tail = _exp_turns(r_col * np.arange(_JOIN_CHUNK) / -M)
    tail *= 1.0 / _RADIX
    twiddle = np.empty_like(tail)
    for c, a in enumerate(range(0, N, _JOIN_CHUNK)):
        z = rows[:, a:a + _JOIN_CHUNK]
        np.multiply(tail, head[:, c:c + 1], out=twiddle)
        z[1:] *= twiddle
        z[0] *= 1.0 / _RADIX
        s02, d02 = z[0] + z[2], z[0] - z[2]
        s13, d13 = z[1] + z[3], z[1] - z[3]
        d13 *= -1j
        np.add(s02, s13, out=z[0])
        np.add(d02, d13, out=z[1])
        np.subtract(s02, s13, out=z[2])
        np.subtract(d02, d13, out=z[3])
    return grid


def _power_series(z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_t coeffs[t] z^t, t = 0..K-1, at each point of z, in blocks.

    With B = ceil(sqrt(K)), the powers z^t, t < B, form one (points x B)
    table, built by doubling; one matrix product with the coefficients
    reshaped to (K/B, B) gives the block sums, and Horner's rule in z^B
    runs over the K/B blocks.  That is about sqrt(K) array steps in place
    of K, in O(points x B) memory.
    """
    K = coeffs.size
    B = math.isqrt(K - 1) + 1         # ceil(sqrt(K)), K >= 1
    n_blocks = -(-K // B)
    blocks = np.zeros(n_blocks * B, dtype=complex)
    blocks[:K] = coeffs
    powers = np.empty((z.size, B), dtype=complex)
    powers[:, 0] = 1.0
    zp, filled = z, 1                 # zp = z^filled
    while filled < B:
        step = min(filled, B - filled)
        np.multiply(powers[:, :step], zp[:, None],
                    out=powers[:, filled:filled + step])
        zp, filled = zp * zp, 2 * filled
    sums = powers @ blocks.reshape(n_blocks, B).T
    zB = powers[:, -1] * z
    out = sums[:, -1].copy()
    for b in range(n_blocks - 2, -1, -1):
        out *= zB
        out += sums[:, b]
    return out


def _tail_estimate(a_J: float, J: int, alpha: float, mu: float) -> float:
    """The levels past J: a_J sum_{k>=1} ((J+k)/J)^mu r^k, r = 2^-(1+alpha).

    The level sums of I1 decay like j^lam 2^(-j(1+alpha)) (the weight
    log^lam(2/delta) is about (j ln 2)^lam on level j), those of I2 like
    2^(-j(1+alpha)); mu is lam for I1 and 0 for I2.  The series is cut
    where r^k has fallen below 2^-100.
    """
    k = np.arange(1, math.ceil(100.0 / (1.0 + alpha)) + 1)
    return float(a_J * np.sum(((J + k) / J) ** mu
                              * 2.0 ** (-(1.0 + alpha) * k)))


@dataclass
class PoissonExtension:
    boundary: CircleMap
    # caches of the map-only stage: not arguments, and not part of ==
    _point_coeffs: np.ndarray | None = field(default=None, init=False,
                                             compare=False, repr=False)
    # level_samples(J) by J
    _samples: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    # ---------------------------------------------------------- pointwise

    def _check_inside(self, z: np.ndarray):
        # written so that NaN fails it too
        if not np.all(np.abs(z) <= 1.0 - 1e-9):
            raise DomainError("evaluation point not finite or too close to "
                              "the boundary (need |z| <= 1 - 1e-9)")

    def _series_coeffs(self, z: np.ndarray):
        """(c_0, c_1..c_K, c_-1..c_-K) for the K the points need."""
        zmax = float(np.max(np.abs(z))) if z.size else 0.0
        K = _series_terms(zmax)
        if K > _MAX_SERIES_TERMS:
            raise PrecisionError(
                f"|z| = {zmax!r} needs K = {K} series terms, over the cap "
                f"of {_MAX_SERIES_TERMS}")
        cached = self._point_coeffs
        if cached is None or cached.size < 2 * K + 1:
            # c_k depends on k alone, so the larger K recomputes them all
            self._point_coeffs = cached = \
                self.boundary.fourier_coefficients(K)
        mid = cached.size // 2
        return cached[mid], cached[mid + 1:mid + K + 1], \
            cached[mid - K:mid][::-1]

    def extend(self, z):
        """Harmonic extension h(z) for z strictly inside the disk."""
        arr = np.asarray(z, dtype=complex)
        scalar = arr.shape == ()
        arr = np.atleast_1d(arr)
        self._check_inside(arr)
        c0, pos, neg = self._series_coeffs(arr)
        out = c0 + arr * _power_series(arr, pos) \
            + np.conj(arr) * _power_series(np.conj(arr), neg)
        return complex(out[0]) if scalar else out

    def wirtinger(self, z):
        """(h_z, h_zbar), the term-wise derivatives of the series."""
        arr = np.asarray(z, dtype=complex)
        scalar = arr.shape == ()
        arr = np.atleast_1d(arr)
        self._check_inside(arr)
        _, pos, neg = self._series_coeffs(arr)
        k = np.arange(1, pos.size + 1)
        hz = _power_series(arr, k * pos)
        hzb = _power_series(np.conj(arr), k * neg)
        if scalar:
            return complex(hz[0]), complex(hzb[0])
        return hz, hzb

    # ----------------------------------------------------- bulk sampling

    def level_samples(self, max_level: int):
        """|Dh|, radii and weights on the 4x4 Gauss grids of levels 1..J.

        Returns a tuple whose entry j - 1 is (dh, r_nodes, radial_weights,
        angular_weight) for level j, where dh has shape (4, 4, 2^j): radial
        node x angular offset x cell.  Raises PrecisionError, before any
        grid is built, for a J the series cap would cut (every J past 16).
        The coefficients of the outermost radius's grid come from
        ``_coefficient_grid``, and every smaller grid is halved from them.
        """
        if max_level < 1:
            raise DomainError(f"level must be >= 1, got {max_level}")
        if max_level in self._samples:
            return self._samples[max_level]
        _check_level_terms(max_level)
        nodes = [_level_nodes(j) for j in range(1, max_level + 1)]
        grid = _coefficient_grid(self.boundary,
                                 _grid_size(float(nodes[-1][0][-1])))
        offsets = [float(g) for g in _G4X]
        samples = []
        # from the outside in, so the grid size m(r) never grows
        for j in range(max_level, 0, -1):
            r_nodes, wr = nodes[j - 1]
            n_cells = 1 << j
            col_index = np.arange(n_cells)
            col_phases = {sign: np.stack([
                np.exp(sign * 2j * np.pi * g * col_index / n_cells)
                for g in offsets]) for sign in (+1, -1)}
            dh = np.empty((4, 4, n_cells))
            for ri in range(3, -1, -1):
                r = float(r_nodes[ri])
                while grid.size > _grid_size(r):
                    grid = _alias_half(grid)
                hz, hzb = _slice_derivatives(grid, r, j, offsets, col_phases)
                dh[ri] = np.abs(hz) + np.abs(hzb)
            samples.append((dh, r_nodes, wr,
                            _G4W * (2 * math.pi * 2.0 ** -j)))
        self._samples[max_level] = tuple(samples[::-1])
        return self._samples[max_level]

    # ------------------------------------------------------ the integrals

    def _integral(self, params: EnergyParams, max_level: int,
                  functional: str) -> EnergyReport:
        samples = self.level_samples(max_level)
        p, alpha, lam = params.p, params.alpha, params.lam
        spec = OrliczSpec(p=p, lam=lam) if functional == "kernel_gauge" \
            else None
        per_level = []
        for dh, r_nodes, wr, ang_w in samples:
            delta = 1.0 - r_nodes
            if functional == "kernel_weight":
                radial_factor = delta ** alpha * \
                    np.log(2.0 / delta) ** lam * r_nodes * wr
                vals = dh ** p
            else:
                radial_factor = delta ** alpha * r_nodes * wr
                vals = phi(spec, dh)
            level = float(np.einsum("rgc,r,g->", vals, radial_factor, ang_w))
            per_level.append(level)
        rep = EnergyReport(functional=functional, params=params,
                           levels=list(range(1, max_level + 1)),
                           per_level=np.asarray(per_level),
                           value=float(np.sum(per_level)))
        rep.notes["map"] = self.boundary.description
        rep = finalize(rep)
        if rep.classification == "converged" and alpha > -1.0:
            mu = lam if functional == "kernel_weight" else 0.0
            rep.notes["tail_estimate"] = _tail_estimate(
                rep.per_level[-1], max_level, alpha, mu)
        return rep

    def kernel_weight_integral(self, params: EnergyParams,
                               max_level: int) -> EnergyReport:
        """int |Dh|^p delta^alpha log^lam(2/delta) over cells of level <= J."""
        return self._integral(params, max_level, "kernel_weight")

    def kernel_gauge_integral(self, params: EnergyParams,
                              max_level: int) -> EnergyReport:
        """int Phi_{p,lam}(|Dh|) delta^alpha over cells of level <= J."""
        return self._integral(params, max_level, "kernel_gauge")
